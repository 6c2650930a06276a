// Tests for the parallel I/O subsystem (§5.2.5): subfile v2 record round
// trips (num_subfiles = 1 is the single-file baseline), whole-record
// checksum verification, the group-scaled checkpoint codec, the async
// double-buffered checkpoint writer, the atomic manifest commit protocol, a
// fault-injection suite asserting that every corruption mode throws
// symmetrically on all ranks (no deadlock), and the writer's wire traffic
// and communicator splits (one per writer and per reader).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "harness.hpp"
#include "io/checkpoint.hpp"
#include "io/subfile.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "precision/group_scaled.hpp"

namespace {

using namespace ap3;
using io::FieldData;
using io::SubfileConfig;
using TempDir = ap3::testing::TempDir;

FieldData make_local(int rank, int npoints) {
  FieldData data;
  for (int k = 0; k < npoints; ++k) {
    data.ids.push_back(1000 * rank + k);
    data.values.push_back(rank + 0.001 * k);
  }
  return data;
}

/// Values with full fp64 mantissas (not fp32-representable).
FieldData make_irrational_local(int rank, int npoints) {
  FieldData data;
  for (int k = 0; k < npoints; ++k) {
    data.ids.push_back(static_cast<std::int64_t>(k));
    data.values.push_back((rank + 1) * 3.14159265358979311600 * (k + 1) /
                          (k + 7));
  }
  return data;
}

void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(offset);
  f.write(&byte, 1);
}

void truncate_to(const std::string& path, std::size_t keep) {
  std::filesystem::resize_file(path, keep);
}

TEST(Io, ChecksumDetectsChange) {
  const std::vector<char> a = {'a', 'b', 'c', 'd'};
  const std::vector<char> b = {'a', 'b', 'c', 'e'};
  EXPECT_NE(io::checksum({a.data(), a.size()}),
            io::checksum({b.data(), b.size()}));
  EXPECT_EQ(io::checksum({a.data(), a.size()}),
            io::checksum({a.data(), a.size()}));
}

// The floor group map must partition ranks into contiguous non-empty groups
// for every split, including uneven ones.
TEST(Io, GroupMapPartitionsIntoContiguousGroups) {
  const int cases[][2] = {{5, 2}, {6, 4}, {7, 3}, {7, 7}, {8, 5},
                          {9, 4}, {3, 1}, {12, 5}, {13, 13}};
  for (const auto& c : cases) {
    const int size = c[0], nsub = c[1];
    int prev_group = -1;
    std::vector<int> first_rank(static_cast<std::size_t>(nsub), -1);
    for (int r = 0; r < size; ++r) {
      const int g = io::subfile_group(r, size, nsub);
      ASSERT_GE(g, 0);
      ASSERT_LT(g, nsub);
      ASSERT_GE(g, prev_group) << "group map must be monotone";
      prev_group = g;
      if (first_rank[static_cast<std::size_t>(g)] < 0)
        first_rank[static_cast<std::size_t>(g)] = r;
    }
    for (int g = 0; g < nsub; ++g)
      ASSERT_GE(first_rank[static_cast<std::size_t>(g)], 0)
          << "empty group " << g << " for size=" << size << " nsub=" << nsub;
  }
}

// The aggregator — the one rank of a group that gets the gathered record and
// writes the subfile — must be the group's lowest rank, for every split
// including uneven ones.
TEST(Io, AggregatorIsLowestRankOfGroup) {
  par::run(7, [&](par::Comm& comm) {
    for (int nsub = 1; nsub <= comm.size(); ++nsub) {
      const int group = io::subfile_group(comm.rank(), comm.size(), nsub);
      int lowest = 0;
      while (io::subfile_group(lowest, comm.size(), nsub) != group) ++lowest;
      const io::SubfileGroup layout(comm, nsub);
      const auto record = layout.gather("agg", make_local(comm.rank(), 3));
      EXPECT_EQ(record.has_value(), comm.rank() == lowest)
          << "rank " << comm.rank() << " nsub " << nsub;
      if (record) {
        EXPECT_EQ(record->path, "agg." + std::to_string(group) + ".bin");
      }
      comm.barrier();
    }
  });
}

TEST(Io, SubfileRoundTripMultipleGroups) {
  TempDir tmp;
  const std::string base = tmp.file("a");
  par::run(6, [&](par::Comm& comm) {
    SubfileConfig config{base, 3};
    const FieldData mine = make_local(comm.rank(), 5 + comm.rank());
    io::write_subfiles(comm, config, mine);
    comm.barrier();
    const FieldData back = io::read_subfiles(comm, config, mine.ids);
    EXPECT_EQ(back.ids, mine.ids);
    EXPECT_EQ(back.values, mine.values);
    comm.barrier();
  });
}

TEST(Io, SubfileCountEqualsConfiguredGroups) {
  TempDir tmp;
  const std::string base = tmp.file("b");
  par::run(8, [&](par::Comm& comm) {
    SubfileConfig config{base, 4};
    io::write_subfiles(comm, config, make_local(comm.rank(), 3));
    comm.barrier();
  });
  int found = 0;
  for (int k = 0; k < 8; ++k)
    if (std::filesystem::exists(base + "." + std::to_string(k) + ".bin"))
      ++found;
  EXPECT_EQ(found, 4);
}

TEST(Io, OneSubfilePerRankDegenerateCase) {
  TempDir tmp;
  const std::string base = tmp.file("c");
  par::run(4, [&](par::Comm& comm) {
    SubfileConfig config{base, 4};
    const FieldData mine = make_local(comm.rank(), 7);
    io::write_subfiles(comm, config, mine);
    comm.barrier();
    const FieldData back = io::read_subfiles(comm, config, mine.ids);
    EXPECT_EQ(back.values, mine.values);
    comm.barrier();
  });
}

TEST(Io, SingleFileBaselineRoundTrip) {
  TempDir tmp;
  const SubfileConfig single{tmp.file("single"), 1};
  par::run(4, [&](par::Comm& comm) {
    const FieldData mine = make_local(comm.rank(), 4);
    io::write_subfiles(comm, single, mine);
    comm.barrier();
    const FieldData back = io::read_subfiles(comm, single, mine.ids);
    EXPECT_EQ(back.ids, mine.ids);
    EXPECT_EQ(back.values, mine.values);
    comm.barrier();
  });
}

// The v2 checksum covers the whole record. Flip one byte in EVERY region —
// header, counts, id runs, payload — and each must be rejected (v1 only
// covered the value payload, so corrupt counts/ids passed validation).
TEST(Io, CorruptionAnywhereInRecordFailsChecksum) {
  // v2 offsets: magic 8 | version 4 | codec 4 | nranks 8 -> counts at 24,
  // one count (8) -> nruns at 32, one run (16) -> payload at 56.
  const std::streamoff kCountsAt = 24;
  const std::streamoff kRunsAt = 32 + 8;
  const std::streamoff kPayloadAt = 32 + 8 + 16 + 3 * 8;
  for (const std::streamoff offset : {kCountsAt, kRunsAt, kPayloadAt}) {
    TempDir tmp;
    const SubfileConfig single{tmp.file("corrupt"), 1};
    par::run(1, [&](par::Comm& comm) {
      io::write_subfiles(comm, single, make_local(0, 10));
    });
    flip_byte(single.basename + ".0.bin", offset);
    par::run(1, [&](par::Comm& comm) {
      const FieldData mine = make_local(0, 10);
      EXPECT_THROW(io::read_subfiles(comm, single, mine.ids), ap3::Error)
          << "corruption at offset " << offset << " not caught";
    });
  }
}

// A disk-full-style truncation (the write_blob bug: short writes used to
// "succeed") must be rejected on read — on every rank of the group.
TEST(Io, TruncatedSubfileThrowsOnAllRanks) {
  TempDir tmp;
  const std::string base = tmp.file("trunc");
  par::run(4, [&](par::Comm& comm) {
    SubfileConfig config{base, 1};
    io::write_subfiles(comm, config, make_local(comm.rank(), 6));
  });
  const std::string path = base + ".0.bin";
  const auto full = std::filesystem::file_size(path);
  truncate_to(path, static_cast<std::size_t>(full) / 2);
  par::run(4, [&](par::Comm& comm) {
    SubfileConfig config{base, 1};
    const FieldData mine = make_local(comm.rank(), 6);
    EXPECT_THROW(io::read_subfiles(comm, config, mine.ids), ap3::Error);
    comm.barrier();
  });
}

// Pre-v2 blobs started with a raw rank count — no magic. They must fail
// fast with a format message, not a confusing checksum mismatch.
TEST(Io, PreV2RecordFailsFastWithFormatError) {
  TempDir tmp;
  const SubfileConfig single{tmp.file("old"), 1};
  {
    std::ofstream out(single.basename + ".0.bin", std::ios::binary);
    const std::int64_t nranks = 1;
    out.write(reinterpret_cast<const char*>(&nranks), sizeof(nranks));
    const std::vector<double> junk(16, 1.25);
    out.write(reinterpret_cast<const char*>(junk.data()),
              static_cast<std::streamsize>(junk.size() * sizeof(double)));
  }
  par::run(1, [&](par::Comm& comm) {
    try {
      io::read_subfiles(comm, single, {0});
      FAIL() << "pre-v2 record accepted";
    } catch (const ap3::Error& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
          << e.what();
    }
  });
}

TEST(Io, MismatchedDecompositionThrows) {
  TempDir tmp;
  const SubfileConfig single{tmp.file("mismatch"), 1};
  par::run(2, [&](par::Comm& comm) {
    const FieldData mine = make_local(comm.rank(), 3);
    io::write_subfiles(comm, single, mine);
    comm.barrier();
    // Ask for different ids than were written.
    std::vector<std::int64_t> wrong = {999, 998, 997};
    EXPECT_THROW(io::read_subfiles(comm, single, wrong), ap3::Error);
    comm.barrier();
  });
}

TEST(Io, InvalidSubfileCountThrows) {
  par::run(2, [&](par::Comm& comm) {
    SubfileConfig config{"/tmp/ap3_io_test_bad", 5};  // more files than ranks
    EXPECT_THROW(io::write_subfiles(comm, config, make_local(comm.rank(), 2)),
                 ap3::Error);
  });
}

// ---- group-scaled codec ----------------------------------------------------

TEST(Io, GroupScaledRoundTripWithinUlpBound) {
  TempDir tmp;
  const std::string base = tmp.file("gs");
  par::run(2, [&](par::Comm& comm) {
    SubfileConfig config{base, 1};
    config.codec.codec = io::Codec::kGroupScaled;
    config.codec.group_size = 8;
    const FieldData mine = make_irrational_local(comm.rank(), 100);
    io::write_subfiles(comm, config, mine);
    comm.barrier();
    const FieldData back = io::read_subfiles(comm, config, mine.ids);
    std::uint64_t max_ulp = 0;
    for (std::size_t i = 0; i < mine.values.size(); ++i)
      max_ulp = std::max(
          max_ulp, precision::ulp_distance(back.values[i], mine.values[i]));
    EXPECT_GT(max_ulp, 0u) << "fp32 storage of fp64 data should be lossy";
    EXPECT_LE(max_ulp, config.codec.ulp_bound);
    comm.barrier();
  });
}

// Power-of-two scales make fp32-representable data round-trip bit-exactly.
TEST(Io, GroupScaledExactForFp32RepresentableValues) {
  TempDir tmp;
  const std::string base = tmp.file("gsf");
  par::run(2, [&](par::Comm& comm) {
    SubfileConfig config{base, 2};
    config.codec.codec = io::Codec::kGroupScaled;
    FieldData mine;
    for (int k = 0; k < 64; ++k) {
      mine.ids.push_back(k);
      mine.values.push_back(
          static_cast<double>(static_cast<float>(comm.rank() + 0.03125f * k)));
    }
    io::write_subfiles(comm, config, mine);
    comm.barrier();
    const FieldData back = io::read_subfiles(comm, config, mine.ids);
    EXPECT_EQ(back.values, mine.values);  // bit-exact
    comm.barrier();
  });
}

// An impossible bound must hard-fail the WRITE (where the fp64 reference
// still exists), not silently corrupt the restore.
TEST(Io, GroupScaledUlpBoundHardFailsAtEncode) {
  TempDir tmp;
  const std::string base = tmp.file("gs0");
  par::run(1, [&](par::Comm& comm) {
    SubfileConfig config{base, 1};
    config.codec.codec = io::Codec::kGroupScaled;
    config.codec.ulp_bound = 0;  // demands losslessness the codec cannot give
    const FieldData mine = make_irrational_local(comm.rank(), 16);
    EXPECT_THROW(io::write_subfiles(comm, config, mine), ap3::Error);
  });
}

// Group-scaled records must actually be about half the fp64 size at whole-
// file granularity (ids are run-length encoded, so the payload dominates).
TEST(Io, GroupScaledHalvesRecordBytes) {
  TempDir tmp;
  par::run(1, [&](par::Comm& comm) {
    const FieldData mine = make_irrational_local(0, 4096);
    SubfileConfig fp64{tmp.file("w64"), 1};
    SubfileConfig gs{tmp.file("wgs"), 1};
    gs.codec.codec = io::Codec::kGroupScaled;
    gs.codec.group_size = 32;
    const auto bytes_fp64 = io::write_subfiles(comm, fp64, mine);
    const auto bytes_gs = io::write_subfiles(comm, gs, mine);
    const double ratio =
        static_cast<double>(bytes_fp64) / static_cast<double>(bytes_gs);
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.2);
  });
}

// ---- checkpoint writer: async mode, atomic commit, fault injection ---------

io::CheckpointOptions two_subfile_options() {
  io::CheckpointOptions options;
  options.num_subfiles = 2;
  return options;
}

void write_snapshot(par::Comm& comm, const std::string& dir, bool async,
                    io::CodecSpec codec = {}) {
  io::CheckpointOptions options = two_subfile_options();
  options.codec = codec;
  io::CheckpointWriter writer(comm, dir, options, async);
  writer.add_section("alpha", io::local_field(
                                  make_irrational_local(comm.rank(), 40)
                                      .values));
  writer.add_section("beta", make_local(comm.rank(), 7));
  writer.set_scalar("clock.steps", 42.0);
  writer.finalize();
}

// The async writer must produce byte-identical files to the sync writer —
// same record format, same checksum, same manifest inventory.
TEST(IoCheckpoint, AsyncWriterMatchesSyncByteForByte) {
  TempDir tmp;
  const std::string sync_dir = tmp.file("sync");
  const std::string async_dir = tmp.file("async");
  par::run(4, [&](par::Comm& comm) {
    write_snapshot(comm, sync_dir, /*async=*/false);
    write_snapshot(comm, async_dir, /*async=*/true);
    comm.barrier();
  });
  for (const char* name : {"alpha.0.bin", "alpha.1.bin", "beta.0.bin",
                           "beta.1.bin"}) {
    std::ifstream a(sync_dir + "/" + name, std::ios::binary);
    std::ifstream b(async_dir + "/" + name, std::ios::binary);
    ASSERT_TRUE(a && b) << name;
    const std::string sa((std::istreambuf_iterator<char>(a)),
                         std::istreambuf_iterator<char>());
    const std::string sb((std::istreambuf_iterator<char>(b)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(sa, sb) << name;
  }
}

// Double-buffering: the async writer snapshots section data at add_section
// time; mutating the caller's buffers afterwards must not leak into the
// files written later by the background lane.
TEST(IoCheckpoint, AsyncWriterSnapshotsDataAtAddTime) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  par::run(2, [&](par::Comm& comm) {
    FieldData mine = make_local(comm.rank(), 50);
    const FieldData original = mine;
    {
      io::CheckpointWriter writer(comm, dir, two_subfile_options(), true);
      writer.add_section("alpha", mine);
      for (double& v : mine.values) v = -1e9;  // mutate after the gather
      writer.finalize();
    }
    comm.barrier();
    io::CheckpointReader reader(comm, dir);
    const FieldData back = reader.read_section("alpha", original.ids);
    EXPECT_EQ(back.values, original.values);
    comm.barrier();
  });
}

// A deferred async write failure (here: a ULP bound the codec cannot meet)
// must surface at the collective fence on EVERY rank, not just the
// aggregator that ran the task.
TEST(IoCheckpoint, AsyncWriteFailureThrowsOnAllRanksAtWait) {
  TempDir tmp;
  const std::string dir = tmp.file("fail");
  par::run(4, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir, two_subfile_options(), true);
    io::CodecSpec impossible;
    impossible.codec = io::Codec::kGroupScaled;
    impossible.ulp_bound = 0;
    writer.add_section("alpha",
                       io::local_field(
                           make_irrational_local(comm.rank(), 30).values),
                       impossible);
    EXPECT_THROW(writer.wait(), ap3::Error);  // all 4 ranks, no deadlock
    comm.barrier();
  });
}

// Same deferral contract in sync mode: the error surfaces at finalize() on
// every rank (add_section must not throw on the aggregator alone).
TEST(IoCheckpoint, SyncWriteFailureThrowsOnAllRanksAtFinalize) {
  TempDir tmp;
  const std::string dir = tmp.file("fails");
  par::run(4, [&](par::Comm& comm) {
    io::CodecSpec impossible;
    impossible.codec = io::Codec::kGroupScaled;
    impossible.ulp_bound = 0;
    io::CheckpointWriter writer(comm, dir, two_subfile_options());
    writer.add_section("alpha",
                       io::local_field(
                           make_irrational_local(comm.rank(), 30).values),
                       impossible);
    EXPECT_THROW(writer.finalize(), ap3::Error);
    comm.barrier();
  });
}

// Codec policy is per section and recorded in the manifest.
TEST(IoCheckpoint, PerSectionCodecRecordedInManifest) {
  TempDir tmp;
  const std::string dir = tmp.file("mixed");
  par::run(2, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir, two_subfile_options());
    io::CodecSpec gs;
    gs.codec = io::Codec::kGroupScaled;
    const FieldData mine = make_irrational_local(comm.rank(), 20);
    writer.add_section("exact", io::local_field(mine.values));
    writer.add_section("lossy", io::local_field(mine.values), gs);
    writer.finalize();
    comm.barrier();
    io::CheckpointReader reader(comm, dir);
    EXPECT_EQ(reader.section_codec("exact"), io::Codec::kFp64);
    EXPECT_EQ(reader.section_codec("lossy"), io::Codec::kGroupScaled);
    const FieldData exact =
        reader.read_section("exact", io::local_field(mine.values).ids);
    EXPECT_EQ(exact.values, mine.values);
    comm.barrier();
  });
}

// Swapping two sections' subfiles must be caught: the manifest's codec and
// the record's stored codec disagree.
TEST(IoCheckpoint, SubfileCodecMustMatchManifest) {
  TempDir tmp;
  const std::string dir = tmp.file("swap");
  par::run(1, [&](par::Comm& comm) {
    io::CheckpointWriter writer(comm, dir);
    io::CodecSpec gs;
    gs.codec = io::Codec::kGroupScaled;
    const FieldData mine = make_irrational_local(0, 24);
    writer.add_section("exact", io::local_field(mine.values));
    writer.add_section("lossy", io::local_field(mine.values), gs);
    writer.finalize();
  });
  std::filesystem::rename(dir + "/exact.0.bin", dir + "/swap.tmp");
  std::filesystem::rename(dir + "/lossy.0.bin", dir + "/exact.0.bin");
  std::filesystem::rename(dir + "/swap.tmp", dir + "/lossy.0.bin");
  par::run(1, [&](par::Comm& comm) {
    io::CheckpointReader reader(comm, dir);
    const FieldData tmpl = io::local_field(
        make_irrational_local(0, 24).values);
    EXPECT_THROW(reader.read_section("exact", tmpl.ids), ap3::Error);
    EXPECT_THROW(reader.read_section("lossy", tmpl.ids), ap3::Error);
  });
}

// ---- fault-injection suite: every corruption throws on every rank ----------

struct FaultCase {
  const char* name;
  void (*corrupt)(const std::string& dir);
};

TEST(IoFault, CorruptionThrowsSymmetricallyOnAllRanks) {
  const FaultCase cases[] = {
      {"bit-flip subfile payload",
       [](const std::string& dir) { flip_byte(dir + "/alpha.1.bin", 70); }},
      {"bit-flip manifest byte",
       [](const std::string& dir) { flip_byte(dir + "/MANIFEST.bin", 20); }},
      {"drop a section file",
       [](const std::string& dir) {
         std::filesystem::remove(dir + "/beta.0.bin");
       }},
      {"truncate a subfile",
       [](const std::string& dir) {
         truncate_to(dir + "/alpha.0.bin", 33);
       }},
  };
  for (const FaultCase& fault : cases) {
    TempDir tmp;
    const std::string dir = tmp.file("snap");
    par::run(4, [&](par::Comm& comm) {
      write_snapshot(comm, dir, /*async=*/false);
    });
    fault.corrupt(dir);
    par::run(4, [&](par::Comm& comm) {
      // Either the manifest is rejected at construction or the section read
      // fails — on EVERY rank. Completing par::run proves no deadlock.
      try {
        io::CheckpointReader reader(comm, dir);
        const FieldData alpha_tmpl = io::local_field(
            make_irrational_local(comm.rank(), 40).values);
        const FieldData beta_tmpl = make_local(comm.rank(), 7);
        reader.read_section("alpha", alpha_tmpl.ids);
        reader.read_section("beta", beta_tmpl.ids);
        ADD_FAILURE() << fault.name << ": rank " << comm.rank()
                      << " accepted corrupt snapshot";
      } catch (const ap3::Error&) {
        // expected, on all ranks
      }
      comm.barrier();
    });
  }
}

TEST(IoFault, WrongSizeCommThrowsOnAllRanks) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  par::run(4, [&](par::Comm& comm) {
    write_snapshot(comm, dir, /*async=*/false);
  });
  par::run(3, [&](par::Comm& comm) {
    EXPECT_THROW(io::CheckpointReader(comm, dir), ap3::Error);
    comm.barrier();
  });
}

// ---- atomic commit protocol ------------------------------------------------

// Window 1: re-checkpointing into a reused directory. The old manifest must
// disappear BEFORE any section is rewritten, so a crash mid-rewrite reads
// as "no snapshot" — never as the old manifest vouching for torn sections.
TEST(IoCommit, RewriteInvalidatesOldManifestBeforeSections) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  par::run(2, [&](par::Comm& comm) {
    write_snapshot(comm, dir, /*async=*/false);
    comm.barrier();
    EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.bin"));
    comm.barrier();  // keep the check ahead of the next writer's invalidation
    {
      // Simulated crash: a second writer rewrites one section, then dies
      // before finalize.
      io::CheckpointWriter writer(comm, dir, two_subfile_options());
      EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.bin"))
          << "old manifest still claims completeness during rewrite";
      writer.add_section("alpha",
                         io::local_field(std::vector<double>(40, 7.0)));
    }
    comm.barrier();
    EXPECT_THROW(io::CheckpointReader(comm, dir), ap3::Error);
    comm.barrier();
  });
}

// Window 2: crash between staging MANIFEST.bin.tmp and the rename. Readers
// never look at the tmp; the next writer cleans it up.
TEST(IoCommit, HalfStagedManifestIsInvisibleAndCleanedUp) {
  TempDir tmp;
  const std::string dir = tmp.file("snap");
  par::run(2, [&](par::Comm& comm) {
    write_snapshot(comm, dir, /*async=*/false);
  });
  // Simulate the crash window: manifest staged but never renamed.
  std::filesystem::rename(dir + "/MANIFEST.bin", dir + "/MANIFEST.bin.tmp");
  par::run(2, [&](par::Comm& comm) {
    EXPECT_THROW(io::CheckpointReader(comm, dir), ap3::Error);
    comm.barrier();
    write_snapshot(comm, dir, /*async=*/false);  // recovery path
    comm.barrier();
    io::CheckpointReader reader(comm, dir);  // must succeed now
    EXPECT_EQ(reader.scalar("clock.steps"), 42.0);
    comm.barrier();
  });
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.bin.tmp"))
      << "stale staging file survived a successful commit";
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.bin"));
}

// ---- bytes accounting ------------------------------------------------------

// Summed across ranks, bytes_written() must equal what is actually on disk:
// each subfile counted once (by its aggregator) and the manifest counted
// once (by global rank 0).
TEST(IoCheckpoint, BytesWrittenMatchesDisk) {
  for (const bool async : {false, true}) {
    TempDir tmp;
    const std::string dir = tmp.file("snap");
    par::run(4, [&](par::Comm& comm) {
      io::CheckpointWriter writer(comm, dir, two_subfile_options(), async);
      writer.add_section("alpha",
                         io::local_field(
                             make_irrational_local(comm.rank(), 40).values));
      writer.add_section("beta", make_local(comm.rank(), 7));
      writer.finalize();
      const auto mine = static_cast<std::uint64_t>(writer.bytes_written());
      const auto total =
          comm.allreduce_value(mine, par::ReduceOp::kSum);
      if (comm.rank() == 0) {
        std::uint64_t on_disk = 0;
        for (const auto& entry : std::filesystem::directory_iterator(dir))
          on_disk += static_cast<std::uint64_t>(entry.file_size());
        EXPECT_EQ(total, on_disk) << (async ? "async" : "sync");
      }
      comm.barrier();
    });
  }
}

// ---- wire traffic and communicator splits ----------------------------------

// Each section is gathered onto its group's aggregator and sent nowhere else.
// Summed over ranks, a writer's wire traffic is the ids and values owned by
// the non-aggregator ranks plus a fixed allowance per section for the size
// words of its two gathers and the commit fence's allreduce. A gather that
// broadcast each section back to the group would send about 4x as much.
TEST(IoCheckpoint, WriterSendsOnlyNonAggregatorBytes) {
  constexpr int kSections = 6;
  constexpr double kAllowancePerSection = 64.0;  // bytes
  obs::set_enabled(true);
  for (const int nsub : {1, 2}) {
    TempDir tmp;
    const std::string dir = tmp.file("traffic");
    par::run(4, [&](par::Comm& comm) {
      const int group = io::subfile_group(comm.rank(), comm.size(), nsub);
      const bool aggregator =
          comm.rank() == 0 ||
          io::subfile_group(comm.rank() - 1, comm.size(), nsub) != group;
      io::CheckpointOptions options;
      options.num_subfiles = nsub;
      double owned = 0.0;
      const double before = obs::local().counter("par:bytes:total");
      {
        io::CheckpointWriter writer(comm, dir, options);
        for (int s = 0; s < kSections; ++s) {
          const FieldData mine =
              make_local(comm.rank(), 40 + 10 * s + comm.rank());
          if (!aggregator)  // int64 ids and fp64 values
            owned += 8.0 * static_cast<double>(mine.ids.size() +
                                               mine.values.size());
          writer.add_section("s" + std::to_string(s), mine);
        }
        writer.finalize();
      }
      const double sent = obs::local().counter("par:bytes:total") - before;
      const double total_sent = comm.allreduce_value(sent, par::ReduceOp::kSum);
      const double total_owned =
          comm.allreduce_value(owned, par::ReduceOp::kSum);
      EXPECT_GE(total_sent, total_owned) << "nsub " << nsub;
      EXPECT_LE(total_sent, total_owned + kAllowancePerSection * kSections)
          << "nsub " << nsub;
    });
  }
}

// A writer and a reader each split their subfile group once, however many
// sections they move.
TEST(IoCheckpoint, OneSplitPerWriterAndPerReader) {
  obs::set_enabled(true);
  TempDir tmp;
  const std::string dir = tmp.file("splits");
  par::run(4, [&](par::Comm& comm) {
    const auto splits = [] { return obs::local().counter("par:splits"); };
    double before = splits();
    {
      io::CheckpointWriter writer(comm, dir, two_subfile_options());
      for (int s = 0; s < 5; ++s)
        writer.add_section("s" + std::to_string(s), make_local(comm.rank(), 9));
      writer.finalize();
    }
    EXPECT_EQ(splits() - before, 1.0);
    before = splits();
    io::CheckpointReader reader(comm, dir);
    for (int s = 0; s < 5; ++s) {
      const FieldData back = reader.read_section(
          "s" + std::to_string(s), make_local(comm.rank(), 9).ids);
      EXPECT_EQ(back.values, make_local(comm.rank(), 9).values);
    }
    EXPECT_EQ(splits() - before, 1.0);
  });
}

}  // namespace
