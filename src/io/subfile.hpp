// Parallel I/O with subfile partitioning (§5.2.5).
//
// "A data-partitioning strategy that divides data into smaller subfiles is
// implemented. We assign groups of MPI ranks to the I/O for a set of
// subfiles, and leverage a binary format." Ranks are split into
// `num_subfiles` groups (a SubfileGroup: one communicator split, reused for
// every section a checkpoint writer or reader moves). Each group's
// aggregator, its lowest rank, gathers the members' (id, value) pairs with
// one gatherv per array — nothing is sent back to the members — and writes
// one binary subfile. `num_subfiles = 1` is the single-file baseline: it
// funnels everything through rank 0, the original bottleneck the
// optimization removes.
//
// Record format v2 (DESIGN.md §16). One self-describing blob per subfile:
//
//   magic "AP3SUBF\0" | version u32 = 2 | codec u32 | nranks i64 |
//   counts i64[nranks] | nruns u64 | id runs (start i64, len i64)[nruns] |
//   payload | checksum u64
//
// where payload is f64[total] for Codec::kFp64, and for Codec::kGroupScaled
// (§5.2.3 precision format as a bounded-error checkpoint codec):
//
//   group_size u64 | nscales u64 | scales f64[nscales] | payload f32[total]
//
// Ids are run-length encoded as (start, len) strides of consecutive
// integers — checkpoint sections label values 0..n-1 per rank, so the id
// vector collapses to one run per rank and the group-scaled payload's ~2x
// size win survives at whole-file granularity. The trailing FNV-1a checksum
// covers EVERY preceding byte (v1 covered only `values`, so corrupted
// counts/ids passed validation — the bug that forced the version bump).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "par/comm.hpp"

namespace ap3::io {

inline constexpr std::uint32_t kSubfileVersion = 2;

struct FieldData {
  std::vector<std::int64_t> ids;
  std::vector<double> values;
};

/// Per-section payload encoding. kFp64 is bit-exact; kGroupScaled stores an
/// fp32 mantissa per value plus one power-of-two fp64 scale per group
/// (precision::GroupScaledArray), verified at encode time to stay within
/// `ulp_bound` of the fp64 source.
enum class Codec : std::uint32_t {
  kFp64 = 0,
  kGroupScaled = 1,
};

const char* codec_name(Codec codec);

struct CodecSpec {
  Codec codec = Codec::kFp64;
  /// Elements per scale group (kGroupScaled only).
  std::size_t group_size = 32;
  /// Encode-time verification bound, in double-ULPs, between each decoded
  /// value and its fp64 source. fp32 storage keeps ≤ 2^28 ULPs for normal
  /// values; the default leaves headroom for subnormal group tails.
  std::uint64_t ulp_bound = std::uint64_t{1} << 29;
};

/// FNV-1a over raw bytes; stored in each record footer, verified on read.
std::uint64_t checksum(std::span<const char> bytes);

struct SubfileConfig {
  std::string basename;  ///< files are <basename>.<k>.bin
  int num_subfiles = 1;
  CodecSpec codec{};
};

/// Floor-based subfile group map: rank -> floor(rank * num_subfiles / size).
/// A group's lowest rank becomes rank 0 of its group communicator: the
/// aggregator that writes and reads the group's subfile.
int subfile_group(int rank, int comm_size, int num_subfiles);

/// Encode one subfile record (v2 layout above). `context` names the record
/// in error messages. For kGroupScaled this verifies every value decodes
/// within `spec.ulp_bound` of its source and throws ap3::Error otherwise.
std::vector<char> encode_record(const std::vector<std::size_t>& counts,
                                const std::vector<std::int64_t>& ids,
                                const std::vector<double>& values,
                                const CodecSpec& spec,
                                const std::string& context);

/// Decode + validate one record: checksum first, then bounds-checked parse.
/// Returns the codec the record was written with.
Codec decode_record(std::span<const char> bytes,
                    std::vector<std::size_t>& counts,
                    std::vector<std::int64_t>& ids,
                    std::vector<double>& values, const std::string& context);

/// Write `bytes` to a fresh file at `path` (any old file there is removed
/// first), failing on open, short write, or close errors (a disk-full short
/// write must not "succeed"). Returns bytes written.
std::size_t write_file_checked(const std::string& path,
                               std::span<const char> bytes,
                               double slow_disk_seconds_per_mb = 0.0);

/// One subfile's worth of gathered data: everything the aggregator needs to
/// encode and write with no further communication. This is the async
/// checkpoint writer's unit of work — the gather (collective, rank threads
/// only) is split from the encode+write (pure local, safe on a pool thread).
struct GatheredSubfile {
  std::string path;
  std::vector<std::size_t> counts;  ///< per group-rank element counts
  std::vector<std::int64_t> ids;
  std::vector<double> values;
};

/// This rank's place in a `num_subfiles` layout over `comm`: its group and
/// the group communicator. Construction is collective over `comm` and is the
/// layout's only communicator split; a checkpoint writer or reader builds one
/// and moves every section through it. Throws ap3::Error on every rank
/// unless 1 <= num_subfiles <= comm.size().
class SubfileGroup {
 public:
  SubfileGroup(const par::Comm& comm, int num_subfiles);

  /// Collective over the group: gathers the members' (ids, values) onto the
  /// aggregator only, which gets the record for <basename>.<group>.bin;
  /// other ranks get nullopt.
  std::optional<GatheredSubfile> gather(const std::string& basename,
                                        const FieldData& local) const;

  /// Collective over `comm`: the aggregator reads its subfile and scatters
  /// each member's original (ids, values) back; `expected_ids` are the ids
  /// this rank wants, and `expected_codec`, when set, must match the
  /// record's. Aggregator-side failures (missing file, checksum or codec
  /// mismatch, truncation) are broadcast to the group and then folded over
  /// `comm`, so every rank throws ap3::Error instead of deadlocking.
  FieldData read(const std::string& basename,
                 const std::vector<std::int64_t>& expected_ids,
                 std::optional<Codec> expected_codec = std::nullopt) const;

 private:
  const par::Comm& comm_;
  int group_;
  par::Comm group_comm_;
};

/// Encode + write one gathered record and add its size to the
/// "io:subfile:bytes_written" counter. No communication — callable from a
/// pp::Stream task. `slow_disk_seconds_per_mb` is the synthetic slow-disk
/// bench knob: extra seconds charged per MiB written. Returns bytes written.
std::size_t write_gathered(const GatheredSubfile& gathered,
                           const CodecSpec& spec,
                           double slow_disk_seconds_per_mb = 0.0);

/// One-shot collective write through a fresh SubfileGroup: every rank
/// contributes its (ids, values); group aggregators write `num_subfiles`
/// files. Returns bytes written (on the aggregators; 0 elsewhere).
/// Encode/write failures throw on the aggregator; the checkpoint layer
/// defers them to its collective wait() so they surface symmetrically.
std::size_t write_subfiles(const par::Comm& comm, const SubfileConfig& config,
                           const FieldData& local);

/// One-shot collective read through a fresh SubfileGroup (see
/// SubfileGroup::read).
FieldData read_subfiles(const par::Comm& comm, const SubfileConfig& config,
                        const std::vector<std::int64_t>& expected_ids);

}  // namespace ap3::io
