#include "io/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "base/error.hpp"
#include "obs/obs.hpp"

namespace ap3::io {

namespace {

constexpr char kMagic[8] = {'A', 'P', '3', 'C', 'K', 'P', 'T', '\0'};

std::uint64_t fnv1a(const std::vector<char>& bytes, std::size_t count) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
void put(std::vector<char>& out, const T& value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

void put_string(std::vector<char>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked cursor over the manifest blob; short reads (a truncated
/// file) surface as ap3::Error, never as out-of-bounds access.
struct Cursor {
  const std::vector<char>& bytes;
  std::size_t at = 0;

  template <typename T>
  T get() {
    AP3_REQUIRE_MSG(at + sizeof(T) <= bytes.size(),
                    "checkpoint manifest truncated");
    T value;
    std::memcpy(&value, bytes.data() + at, sizeof(T));
    at += sizeof(T);
    return value;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    AP3_REQUIRE_MSG(at + n <= bytes.size(), "checkpoint manifest truncated");
    std::string s(bytes.data() + at, n);
    at += n;
    return s;
  }
};

std::string manifest_path(const std::string& dir) {
  return dir + "/MANIFEST.bin";
}

std::string manifest_tmp_path(const std::string& dir) {
  return manifest_path(dir) + ".tmp";
}

}  // namespace

FieldData local_field(const std::vector<double>& values) {
  FieldData out;
  out.values = values;
  out.ids.resize(values.size());
  for (std::size_t i = 0; i < out.ids.size(); ++i)
    out.ids[i] = static_cast<std::int64_t>(i);
  return out;
}

FieldData rank_scalar(int rank, double value) {
  return {{rank}, {value}};
}

const std::vector<double>& section_values(const std::vector<Section>& sections,
                                          const std::string& name,
                                          std::size_t expected_size) {
  for (const Section& s : sections) {
    if (s.name != name) continue;
    AP3_REQUIRE_MSG(s.data.values.size() == expected_size,
                    "restore section '" << name << "' has "
                                        << s.data.values.size()
                                        << " values, expected "
                                        << expected_size);
    return s.data.values;
  }
  throw Error("restore is missing section '" + name + "'");
}

CheckpointWriter::CheckpointWriter(const par::Comm& comm, std::string dir,
                                   CheckpointOptions options, bool async)
    : comm_(comm),
      dir_(std::move(dir)),
      options_(options),
      group_(comm, options.num_subfiles) {  // checks num_subfiles, then splits
  if (comm_.rank() == 0) {
    std::filesystem::create_directories(dir_);
    // Invalidate before mutate: once any section of a reused directory is
    // rewritten, the old manifest's completeness claim is a lie — a crash
    // would leave a torn old/new section mix that passes every per-file
    // checksum. Remove the manifest (and a stale tmp) first, so the stale
    // snapshot reads as "no snapshot" instead of "corrupt snapshot".
    std::filesystem::remove(manifest_path(dir_));
    std::filesystem::remove(manifest_tmp_path(dir_));
  }
  comm_.barrier();  // no rank writes a section before the directory exists
                    // and the old manifest is gone
  if (async) stream_ = std::make_unique<pp::Stream>();
}

CheckpointWriter::~CheckpointWriter() {
  // Local drain only (no collectives — the peer ranks may be unwinding an
  // exception). Write errors are swallowed: an unfinalized snapshot has no
  // manifest, so nothing vouches for the half-written sections.
  for (const PendingWrite& pending : pending_) {
    try {
      pending.event.wait();
    } catch (...) {
    }
  }
}

void CheckpointWriter::add_section(const std::string& name,
                                   const FieldData& local) {
  add_section(name, local, options_.codec);
}

void CheckpointWriter::add_section(const std::string& name,
                                   const FieldData& local,
                                   const CodecSpec& spec) {
  AP3_REQUIRE_MSG(!finalized_, "add_section after finalize");
  AP3_REQUIRE_MSG(!name.empty() && name.find('/') == std::string::npos,
                  "bad section name '" << name << "'");
  AP3_REQUIRE_MSG(
      std::find_if(sections_.begin(), sections_.end(),
                   [&](const auto& s) { return s.first == name; }) ==
          sections_.end(),
      "duplicate checkpoint section '" << name << "'");
  sections_.emplace_back(name, spec.codec);
  // The gather is collective and must run here, on the rank thread; only
  // the pure-local encode+write may move to the pool.
  auto gathered = group_.gather(dir_ + "/" + name, local);
  if (!gathered) return;
  if (!stream_) {
    if (deferred_error_.empty()) {
      try {
        bytes_written_ += write_gathered(*gathered, spec,
                                         options_.slow_disk_seconds_per_mb);
      } catch (const std::exception& e) {
        deferred_error_ = e.what();
      }
    }
    return;
  }
  auto record = std::make_shared<GatheredSubfile>(std::move(*gathered));
  auto bytes = std::make_shared<std::size_t>(0);
  pp::Event event = stream_->enqueue(
      "io:ckpt:write:" + name,
      [record, bytes, spec, slow = options_.slow_disk_seconds_per_mb] {
        AP3_SPAN("io:subfile:write_async");
        *bytes = write_gathered(*record, spec, slow);
      });
  pending_.push_back({std::move(event), std::move(bytes)});
}

void CheckpointWriter::set_scalar(const std::string& name, double value) {
  AP3_REQUIRE_MSG(!finalized_, "set_scalar after finalize");
  scalars_[name] = value;
}

void CheckpointWriter::wait() {
  AP3_SPAN("io:ckpt:wait");
  for (PendingWrite& pending : pending_) {
    try {
      pending.event.wait();
      bytes_written_ += *pending.bytes;
    } catch (const std::exception& e) {
      if (deferred_error_.empty()) deferred_error_ = e.what();
    }
  }
  pending_.clear();
  // Fold the per-rank failure flags so a disk error (or ULP-bound breach)
  // on one aggregator throws on EVERY rank — the healthy ranks must not
  // march on into collectives their peer will never join.
  const double any_failed = comm_.allreduce_value(
      deferred_error_.empty() ? 0.0 : 1.0, par::ReduceOp::kMax);
  if (any_failed != 0.0) {
    const std::string what =
        deferred_error_.empty()
            ? "checkpoint section write failed on another rank (dir " + dir_ +
                  ")"
            : deferred_error_;
    deferred_error_.clear();
    throw Error(what);
  }
}

void CheckpointWriter::finalize() {
  AP3_REQUIRE_MSG(!finalized_, "finalize called twice");
  wait();
  finalized_ = true;
  comm_.barrier();  // every section fully on disk before the manifest appears
  if (comm_.rank() == 0) {
    std::vector<char> blob;
    blob.insert(blob.end(), kMagic, kMagic + sizeof(kMagic));
    put(blob, kCheckpointVersion);
    put(blob, static_cast<std::int32_t>(comm_.size()));
    put(blob, static_cast<std::int32_t>(options_.num_subfiles));
    put(blob, static_cast<std::uint32_t>(sections_.size()));
    for (const auto& [name, codec] : sections_) {
      put_string(blob, name);
      put(blob, static_cast<std::uint8_t>(codec));
    }
    put(blob, static_cast<std::uint32_t>(scalars_.size()));
    for (const auto& [name, value] : scalars_) {
      put_string(blob, name);
      put(blob, value);
    }
    put(blob, fnv1a(blob, blob.size()));

    // Commit point: stage the manifest beside its final name, then publish
    // with an atomic rename. A crash mid-write leaves only *.tmp, which
    // readers never look at — "manifest visible ⇒ snapshot complete".
    write_file_checked(manifest_tmp_path(dir_), {blob.data(), blob.size()});
    std::filesystem::rename(manifest_tmp_path(dir_), manifest_path(dir_));
    bytes_written_ += blob.size();
  }
  comm_.barrier();
}

CheckpointReader::CheckpointReader(const par::Comm& comm,
                                   const std::string& dir)
    : comm_(comm), dir_(dir) {
  // Every rank reads and validates the manifest itself (shared filesystem in
  // this in-process runtime). Symmetric validation means a bad snapshot
  // throws the same ap3::Error on all ranks instead of deadlocking the ones
  // waiting on a broadcast that never comes.
  std::ifstream in(manifest_path(dir_), std::ios::binary);
  AP3_REQUIRE_MSG(in, "no checkpoint manifest at " << manifest_path(dir_));
  std::vector<char> blob((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  AP3_REQUIRE_MSG(blob.size() > sizeof(kMagic) + sizeof(std::uint64_t),
                  "checkpoint manifest truncated");
  AP3_REQUIRE_MSG(std::memcmp(blob.data(), kMagic, sizeof(kMagic)) == 0,
                  "not a checkpoint manifest: bad magic");
  Cursor cursor{blob, sizeof(kMagic)};

  const auto version = cursor.get<std::uint32_t>();
  AP3_REQUIRE_MSG(version == kCheckpointVersion,
                  "checkpoint version "
                      << version << " unsupported (want " << kCheckpointVersion
                      << ") — pre-v2 snapshots lack per-section codecs and "
                         "whole-record subfile checksums; regenerate them");
  const auto nranks = cursor.get<std::int32_t>();
  AP3_REQUIRE_MSG(nranks == comm_.size(),
                  "checkpoint written by " << nranks << " ranks, restoring on "
                                           << comm_.size());
  const auto num_subfiles = cursor.get<std::int32_t>();

  const auto nsections = cursor.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    std::string name = cursor.get_string();
    const auto codec = cursor.get<std::uint8_t>();
    AP3_REQUIRE_MSG(codec <= static_cast<std::uint8_t>(Codec::kGroupScaled),
                    "unknown section codec in checkpoint manifest");
    sections_.emplace_back(std::move(name), static_cast<Codec>(codec));
  }
  const auto nscalars = cursor.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < nscalars; ++i) {
    std::string name = cursor.get_string();
    scalars_[std::move(name)] = cursor.get<double>();
  }

  const auto stored = cursor.get<std::uint64_t>();
  AP3_REQUIRE_MSG(stored == fnv1a(blob, cursor.at - sizeof(std::uint64_t)),
                  "checkpoint manifest checksum mismatch (corrupt snapshot)");
  AP3_REQUIRE_MSG(cursor.at == blob.size(),
                  "trailing bytes after checkpoint manifest");
  group_.emplace(comm_, num_subfiles);
}

bool CheckpointReader::has_section(const std::string& name) const {
  return std::find_if(sections_.begin(), sections_.end(), [&](const auto& s) {
           return s.first == name;
         }) != sections_.end();
}

bool CheckpointReader::has_scalar(const std::string& name) const {
  return scalars_.count(name) != 0;
}

double CheckpointReader::scalar(const std::string& name) const {
  auto it = scalars_.find(name);
  AP3_REQUIRE_MSG(it != scalars_.end(),
                  "checkpoint has no scalar '" << name << "'");
  return it->second;
}

Codec CheckpointReader::section_codec(const std::string& name) const {
  for (const auto& [section, codec] : sections_)
    if (section == name) return codec;
  throw Error("checkpoint has no section '" + name + "'");
}

std::vector<std::string> CheckpointReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, codec] : sections_) names.push_back(name);
  return names;
}

FieldData CheckpointReader::read_section(
    const std::string& name,
    const std::vector<std::int64_t>& expected_ids) const {
  return group_->read(dir_ + "/" + name, expected_ids, section_codec(name));
}

}  // namespace ap3::io
