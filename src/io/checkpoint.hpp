// Versioned checkpoint container over the §5.2.5 subfile I/O layer.
//
// A checkpoint is a directory holding one subfile set per named state
// section (written through the subfile v2 record format, so the same
// aggregation groups and whole-record checksums apply) plus a MANIFEST.bin
// committed by global rank 0:
//
//   magic "AP3CKPT\0" | version u32 = 2 | nranks i32 | num_subfiles i32 |
//   sections [(name, codec u8)...] | scalars [(name, f64)...] |
//   FNV-1a checksum u64
//
// The manifest pins the format version, the rank count (restarts must use
// the decomposition they were written with — the same contract production
// restart files carry), the section inventory with each section's codec
// (fp64 bit-exact or group-scaled fp32+scales), and scalar state such as
// the coupler clock.
//
// Commit protocol (DESIGN.md §16): the manifest IS the commit point —
// "manifest visible ⇒ snapshot complete". The writer's constructor removes
// any previous manifest before the first section write (invalidate before
// mutate, so re-checkpointing into a reused directory can never leave an
// old manifest vouching for a torn old/new section mix), and finalize()
// publishes via MANIFEST.bin.tmp + std::filesystem::rename, so a crash at
// any point leaves either the old complete snapshot, no snapshot, or the
// new complete snapshot — never a half manifest.
//
// Async mode: add_section gathers on the calling rank threads (collectives
// must never run on pool workers) and hands the pure-local encode+write of
// each gathered subfile to a pp::Stream task lane, overlapping checkpoint
// I/O with continued stepping. wait() is the collective completion fence:
// it drains the lane and rethrows any deferred write failure on EVERY rank
// (an allreduce folds the per-rank failure flags), so errors surface
// symmetrically instead of deadlocking the healthy ranks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/subfile.hpp"
#include "par/comm.hpp"
#include "pp/stream.hpp"

namespace ap3::io {

inline constexpr std::uint32_t kCheckpointVersion = 2;

/// One named piece of model state on this rank. `data.ids` are
/// rank-relative labels (local indices, or `rank` for replicated values) —
/// they are verified on restore, which makes decomposition mismatches a
/// hard error rather than silent corruption.
struct Section {
  std::string name;
  FieldData data;
};

/// Checkpoint I/O policy, carried by the driver config; the codec actually
/// used for each section is recorded in the manifest.
struct CheckpointOptions {
  int num_subfiles = 1;
  /// Default payload codec for sections; callers may override per section
  /// (the driver forces kFp64 for bit-sensitive sections like RNG state).
  CodecSpec codec{};
  /// Synthetic slow-disk bench knob, forwarded to the subfile writer.
  double slow_disk_seconds_per_mb = 0.0;
};

/// FieldData labelling `values` with local indices 0..n-1.
FieldData local_field(const std::vector<double>& values);
/// FieldData holding one per-rank value, labelled by the rank itself.
FieldData rank_scalar(int rank, double value);
/// Locate `name` in a restored section list and demand this rank's size;
/// throws ap3::Error when the section is absent or sized for a different
/// decomposition.
const std::vector<double>& section_values(const std::vector<Section>& sections,
                                          const std::string& name,
                                          std::size_t expected_size);

/// Collective writer: construct, add sections (same order on every rank),
/// set scalars (rank 0's values are authoritative), then finalize().
/// Encode/write failures — disk full, a group-scaled section exceeding its
/// ULP bound — are deferred to wait()/finalize(), which throw them on every
/// rank; add_section only throws for symmetric misuse (bad/duplicate name).
class CheckpointWriter {
 public:
  /// Collective: splits the SubfileGroup every section goes through. `async`
  /// double-buffers section writes onto a pp::Stream task lane.
  CheckpointWriter(const par::Comm& comm, std::string dir,
                   CheckpointOptions options = {}, bool async = false);
  /// Drains any still-pending async writes (without collectives — safe on
  /// one rank during exception unwind); an unfinalized dir has no manifest
  /// and therefore no claim to completeness.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Collective: gathers the section and writes its subfile set — inline
  /// when sync, on the stream lane when async. Uses the options codec
  /// unless the `spec` overload overrides it.
  void add_section(const std::string& name, const FieldData& local);
  void add_section(const std::string& name, const FieldData& local,
                   const CodecSpec& spec);
  void add_section(const Section& section) {
    add_section(section.name, section.data);
  }
  /// Scalar state recorded in the manifest (clock steps, config echo, ...).
  void set_scalar(const std::string& name, double value);

  /// Collective completion fence: blocks until every enqueued write
  /// finished, then rethrows the first deferred failure on ALL ranks.
  void wait();

  /// Collective: wait(), then commit the manifest on rank 0 via tmp+rename.
  /// Must be called exactly once; without it the snapshot does not exist.
  void finalize();

  const std::string& dir() const { return dir_; }
  /// Bytes this rank wrote: subfile records on aggregator ranks, plus the
  /// manifest — counted exactly once, on global rank 0 only.
  std::size_t bytes_written() const { return bytes_written_; }

 private:
  struct PendingWrite {
    pp::Event event;
    std::shared_ptr<std::size_t> bytes;
  };

  const par::Comm& comm_;
  std::string dir_;
  CheckpointOptions options_;
  SubfileGroup group_;
  bool finalized_ = false;
  std::vector<std::pair<std::string, Codec>> sections_;
  std::map<std::string, double> scalars_;
  std::size_t bytes_written_ = 0;
  std::string deferred_error_;  ///< first local encode/write failure
  std::unique_ptr<pp::Stream> stream_;  ///< async write lane (async only)
  std::vector<PendingWrite> pending_;
};

/// Collective reader: construction validates the manifest (magic, version,
/// checksum, rank count) on every rank symmetrically, then splits the
/// SubfileGroup every section is read through, so every rank can query
/// scalars locally and read sections collectively.
class CheckpointReader {
 public:
  CheckpointReader(const par::Comm& comm, const std::string& dir);

  bool has_section(const std::string& name) const;
  bool has_scalar(const std::string& name) const;
  double scalar(const std::string& name) const;  ///< throws if missing
  /// The codec a section was written with (from the manifest; the subfile
  /// records must agree, which read_section verifies).
  Codec section_codec(const std::string& name) const;

  /// Collective: reads one section; `expected_ids` is this rank's label
  /// vector from the matching Section layout (empty on non-owning ranks).
  FieldData read_section(const std::string& name,
                         const std::vector<std::int64_t>& expected_ids) const;

  std::vector<std::string> section_names() const;

 private:
  const par::Comm& comm_;
  std::string dir_;
  std::vector<std::pair<std::string, Codec>> sections_;
  std::map<std::string, double> scalars_;
  std::optional<SubfileGroup> group_;  ///< split once the manifest is valid
};

}  // namespace ap3::io
