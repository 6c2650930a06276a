#include "io/subfile.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/error.hpp"
#include "obs/obs.hpp"
#include "precision/group_scaled.hpp"

namespace ap3::io {

const char* codec_name(Codec codec) {
  switch (codec) {
    case Codec::kFp64: return "fp64";
    case Codec::kGroupScaled: return "group_scaled";
  }
  return "unknown";
}

std::uint64_t checksum(std::span<const char> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes)
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  return h;
}

int subfile_group(int rank, int comm_size, int num_subfiles) {
  return static_cast<int>(static_cast<long long>(rank) * num_subfiles /
                          comm_size);
}

namespace {

constexpr char kSubfileMagic[8] = {'A', 'P', '3', 'S', 'U', 'B', 'F', '\0'};

template <typename T>
void put(std::vector<char>& out, const T& value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
void put_span(std::vector<char>& out, std::span<const T> data) {
  const std::size_t at = out.size();
  out.resize(at + data.size_bytes());
  std::memcpy(out.data() + at, data.data(), data.size_bytes());
}

/// Bounds-checked cursor over a record blob; short reads (a truncated file)
/// surface as ap3::Error, never as out-of-bounds access.
struct Cursor {
  std::span<const char> bytes;
  const std::string& context;
  std::size_t at = 0;

  template <typename T>
  T get() {
    AP3_REQUIRE_MSG(at + sizeof(T) <= bytes.size(),
                    "truncated subfile record " << context);
    T value;
    std::memcpy(&value, bytes.data() + at, sizeof(T));
    at += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_array(std::size_t n) {
    AP3_REQUIRE_MSG(n <= (bytes.size() - at) / sizeof(T),
                    "truncated subfile record " << context);
    std::vector<T> out(n);
    std::memcpy(out.data(), bytes.data() + at, n * sizeof(T));
    at += n * sizeof(T);
    return out;
  }
};

struct IdRun {
  std::int64_t start = 0;
  std::int64_t len = 0;
};

/// Checkpoint sections label values 0..n-1 per rank, so the concatenated id
/// vector collapses to one (start, len) run per rank.
std::vector<IdRun> run_length_encode(const std::vector<std::int64_t>& ids) {
  std::vector<IdRun> runs;
  for (const std::int64_t id : ids) {
    if (!runs.empty() && id == runs.back().start + runs.back().len)
      ++runs.back().len;
    else
      runs.push_back({id, 1});
  }
  return runs;
}

std::string subfile_path(const std::string& basename, int group) {
  return basename + "." + std::to_string(group) + ".bin";
}

int checked_group(const par::Comm& comm, int num_subfiles) {
  AP3_REQUIRE_MSG(num_subfiles >= 1 && num_subfiles <= comm.size(),
                  "num_subfiles must be in [1, comm size]");
  return subfile_group(comm.rank(), comm.size(), num_subfiles);
}

}  // namespace

std::vector<char> encode_record(const std::vector<std::size_t>& counts,
                                const std::vector<std::int64_t>& ids,
                                const std::vector<double>& values,
                                const CodecSpec& spec,
                                const std::string& context) {
  AP3_REQUIRE(ids.size() == values.size());
  std::vector<char> blob;
  put_span(blob, std::span<const char>(kSubfileMagic, sizeof(kSubfileMagic)));
  put(blob, kSubfileVersion);
  put(blob, static_cast<std::uint32_t>(spec.codec));
  put(blob, static_cast<std::int64_t>(counts.size()));
  for (const std::size_t c : counts) put(blob, static_cast<std::int64_t>(c));
  const std::vector<IdRun> runs = run_length_encode(ids);
  put(blob, static_cast<std::uint64_t>(runs.size()));
  for (const IdRun& run : runs) {
    put(blob, run.start);
    put(blob, run.len);
  }
  switch (spec.codec) {
    case Codec::kFp64:
      put_span(blob, std::span<const double>(values));
      break;
    case Codec::kGroupScaled: {
      const auto packed = precision::GroupScaledArray::compress(
          std::span<const double>(values), spec.group_size);
      // Encode-time verification: this is the only place the fp64 reference
      // still exists, so a value the codec cannot represent within the bound
      // hard-fails the write instead of silently corrupting the restore.
      for (std::size_t i = 0; i < values.size(); ++i) {
        const std::uint64_t ulp = precision::ulp_distance(packed.at(i),
                                                          values[i]);
        AP3_REQUIRE_MSG(ulp <= spec.ulp_bound,
                        "group-scaled codec exceeds the ULP bound in "
                            << context << ": element " << i << " is " << ulp
                            << " ULPs from its fp64 source (bound "
                            << spec.ulp_bound
                            << ") — use Codec::kFp64 for this section");
      }
      put(blob, static_cast<std::uint64_t>(packed.group_size()));
      put(blob, static_cast<std::uint64_t>(packed.scales().size()));
      put_span(blob, std::span<const double>(packed.scales()));
      put_span(blob, std::span<const float>(packed.payload()));
      break;
    }
  }
  put(blob, checksum({blob.data(), blob.size()}));
  return blob;
}

Codec decode_record(std::span<const char> bytes,
                    std::vector<std::size_t>& counts,
                    std::vector<std::int64_t>& ids,
                    std::vector<double>& values, const std::string& context) {
  constexpr std::size_t kMinBytes = sizeof(kSubfileMagic) +
                                    2 * sizeof(std::uint32_t) +
                                    sizeof(std::int64_t) +
                                    sizeof(std::uint64_t) +
                                    sizeof(std::uint64_t);
  AP3_REQUIRE_MSG(bytes.size() >= kMinBytes,
                  "truncated subfile record " << context);
  AP3_REQUIRE_MSG(
      std::memcmp(bytes.data(), kSubfileMagic, sizeof(kSubfileMagic)) == 0,
      "not an AP3 subfile record (bad magic) in "
          << context << " — written by a pre-v" << kSubfileVersion
          << " build or corrupt; regenerate the snapshot");
  Cursor cursor{bytes, context, sizeof(kSubfileMagic)};
  const auto version = cursor.get<std::uint32_t>();
  AP3_REQUIRE_MSG(version == kSubfileVersion,
                  "subfile format version "
                      << version << " unsupported (want " << kSubfileVersion
                      << ") in " << context
                      << " — old snapshots predate the whole-record checksum "
                         "and must be regenerated");
  // Verify the footer checksum over EVERY preceding byte before trusting any
  // of them (v1 covered only the value payload, so corrupted counts or ids
  // passed validation).
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  AP3_REQUIRE_MSG(
      stored == checksum(bytes.first(bytes.size() - sizeof(stored))),
      "subfile checksum mismatch (corrupt record) in " << context);
  const std::span<const char> body = bytes.first(bytes.size() - sizeof(stored));
  cursor.bytes = body;

  const auto codec_raw = cursor.get<std::uint32_t>();
  AP3_REQUIRE_MSG(codec_raw <= static_cast<std::uint32_t>(Codec::kGroupScaled),
                  "unknown subfile codec " << codec_raw << " in " << context);
  const Codec codec = static_cast<Codec>(codec_raw);

  const auto nranks = cursor.get<std::int64_t>();
  AP3_REQUIRE_MSG(nranks >= 0 && static_cast<std::uint64_t>(nranks) <=
                                     body.size() / sizeof(std::int64_t),
                  "implausible rank count in " << context);
  counts.assign(static_cast<std::size_t>(nranks), 0);
  std::size_t total = 0;
  for (auto& c : counts) {
    const auto v = cursor.get<std::int64_t>();
    AP3_REQUIRE_MSG(v >= 0, "negative element count in " << context);
    c = static_cast<std::size_t>(v);
    total += c;
  }
  AP3_REQUIRE_MSG(total <= body.size(),
                  "implausible element total in " << context);

  const auto nruns = cursor.get<std::uint64_t>();
  AP3_REQUIRE_MSG(nruns <= total, "implausible id run count in " << context);
  ids.clear();
  ids.reserve(total);
  for (std::uint64_t r = 0; r < nruns; ++r) {
    const auto start = cursor.get<std::int64_t>();
    const auto len = cursor.get<std::int64_t>();
    AP3_REQUIRE_MSG(len > 0 && static_cast<std::size_t>(len) <= total - ids.size(),
                    "bad id run in " << context);
    for (std::int64_t k = 0; k < len; ++k) ids.push_back(start + k);
  }
  AP3_REQUIRE_MSG(ids.size() == total,
                  "id runs cover " << ids.size() << " of " << total
                                   << " elements in " << context);

  switch (codec) {
    case Codec::kFp64:
      values = cursor.get_array<double>(total);
      break;
    case Codec::kGroupScaled: {
      const auto group_size = cursor.get<std::uint64_t>();
      AP3_REQUIRE_MSG(group_size >= 1,
                      "bad group-scaled group size in " << context);
      const auto nscales = cursor.get<std::uint64_t>();
      const std::size_t want_scales =
          total == 0 ? 0 : (total + group_size - 1) / group_size;
      AP3_REQUIRE_MSG(nscales == want_scales,
                      "group-scaled scale count mismatch in " << context);
      auto scales = cursor.get_array<double>(nscales);
      auto payload = cursor.get_array<float>(total);
      const auto packed = precision::GroupScaledArray::from_raw(
          total, group_size, std::move(payload), std::move(scales));
      values.resize(total);
      packed.decompress(values);
      break;
    }
  }
  AP3_REQUIRE_MSG(cursor.at == body.size(),
                  "trailing bytes after subfile record " << context);
  return codec;
}

std::size_t write_file_checked(const std::string& path,
                               std::span<const char> bytes,
                               double slow_disk_seconds_per_mb) {
  // Remove the previous checkpoint's file so the bytes go to a fresh inode:
  // truncating and rewriting the same files in place measured ~2 ms slower
  // per one-rank ocean checkpoint (42 files, ~1 MB) on ext4, for the same
  // bytes. A missing file is not an error.
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  AP3_REQUIRE_MSG(out, "cannot open " << path << " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  AP3_REQUIRE_MSG(out.good(),
                  "short write to " << path << " (disk full?)");
  out.close();
  AP3_REQUIRE_MSG(!out.fail(), "close failed for " << path
                                                   << " (buffered data lost)");
  if (slow_disk_seconds_per_mb > 0.0) {
    const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(mb * slow_disk_seconds_per_mb));
  }
  return bytes.size();
}

SubfileGroup::SubfileGroup(const par::Comm& comm, int num_subfiles)
    : comm_(comm),
      group_(checked_group(comm, num_subfiles)),
      group_comm_(comm.split(group_, comm.rank())) {}

std::optional<GatheredSubfile> SubfileGroup::gather(
    const std::string& basename, const FieldData& local) const {
  AP3_SPAN("io:subfile:gather");
  AP3_REQUIRE(local.ids.size() == local.values.size());
  GatheredSubfile out;
  out.ids = group_comm_.gatherv(std::span<const std::int64_t>(local.ids), 0,
                                &out.counts);
  out.values = group_comm_.gatherv(std::span<const double>(local.values), 0);
  if (group_comm_.rank() != 0) return std::nullopt;
  out.path = subfile_path(basename, group_);
  return out;
}

FieldData SubfileGroup::read(const std::string& basename,
                             const std::vector<std::int64_t>& expected_ids,
                             std::optional<Codec> expected_codec) const {
  AP3_SPAN("io:subfile:read");
  const std::string path = subfile_path(basename, group_);
  std::string error;
  std::vector<std::size_t> counts;
  std::vector<std::int64_t> ids;
  std::vector<double> values;
  if (group_comm_.rank() == 0) {
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw Error("cannot open " + path);
      const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
      const Codec codec =
          decode_record({bytes.data(), bytes.size()}, counts, ids, values,
                        path);
      if (expected_codec && codec != *expected_codec)
        throw Error("subfile " + path + " is encoded as " +
                    codec_name(codec) + " but the manifest says " +
                    codec_name(*expected_codec));
      if (static_cast<int>(counts.size()) != group_comm_.size())
        throw Error("subfile " + path +
                    " was written with a different group size");
    } catch (const std::exception& e) {
      error = e.what();
      if (error.empty()) error = "subfile read failed for " + path;
    }
  }
  // The aggregator's outcome is broadcast so its group members do not wait
  // for a scatter that never comes.
  double failed = error.empty() ? 0.0 : 1.0;
  group_comm_.bcast(std::span<double>(&failed, 1), 0);
  FieldData mine;
  if (failed == 0.0) {
    mine.ids = group_comm_.scatterv(std::span<const std::int64_t>(ids),
                                    counts, 0);
    mine.values =
        group_comm_.scatterv(std::span<const double>(values), counts, 0);
    if (mine.ids != expected_ids)
      error = "restart decomposition mismatch: ids differ";
  } else if (error.empty()) {
    error = "subfile read failed on the aggregator for " + path;
  }
  // A bad file is now symmetric within its group but invisible to the OTHER
  // groups, whose next collective would deadlock against the throwing
  // ranks. Fold every rank's outcome over the parent comm so a corrupt,
  // truncated, or missing subfile throws the same ap3::Error everywhere.
  const double any_failed =
      comm_.allreduce_value(error.empty() ? 0.0 : 1.0, par::ReduceOp::kMax);
  if (any_failed != 0.0)
    throw Error(error.empty()
                    ? "subfile read failed on another rank for " + basename
                    : error);
  return mine;
}

std::size_t write_gathered(const GatheredSubfile& gathered,
                           const CodecSpec& spec,
                           double slow_disk_seconds_per_mb) {
  const std::vector<char> blob = encode_record(
      gathered.counts, gathered.ids, gathered.values, spec, gathered.path);
  const std::size_t bytes = write_file_checked(
      gathered.path, {blob.data(), blob.size()}, slow_disk_seconds_per_mb);
  obs::counter_add("io:subfile:bytes_written", static_cast<double>(bytes));
  return bytes;
}

std::size_t write_subfiles(const par::Comm& comm, const SubfileConfig& config,
                           const FieldData& local) {
  AP3_SPAN("io:subfile:write");
  const auto gathered =
      SubfileGroup(comm, config.num_subfiles).gather(config.basename, local);
  return gathered ? write_gathered(*gathered, config.codec) : 0;
}

FieldData read_subfiles(const par::Comm& comm, const SubfileConfig& config,
                        const std::vector<std::int64_t>& expected_ids) {
  return SubfileGroup(comm, config.num_subfiles)
      .read(config.basename, expected_ids);
}

}  // namespace ap3::io
