// Tests for the in-process message-passing runtime: point-to-point
// semantics, non-blocking requests, collectives, communicator split, and
// traffic accounting.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using ap3::testing::run_ranks;
using par::Comm;
using par::ReduceOp;

TEST(Par, SendRecvRoundTrip) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data = {1.0, 2.0, 3.0};
      comm.send(std::span<const double>(data), 1, 42);
    } else {
      std::vector<double> buffer(3);
      const size_t n = comm.recv(std::span<double>(buffer), 0, 42);
      EXPECT_EQ(n, 3u);
      EXPECT_EQ(buffer[2], 3.0);
    }
  });
}

TEST(Par, MessagesFromSameSourceArriveInOrder) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(i, 1, 7);
    } else {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 7), i);
    }
  });
}

TEST(Par, TagSelectsMessage) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1.0, 1, 10);
      comm.send_value(2.0, 1, 20);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<double>(0, 20), 2.0);
      EXPECT_EQ(comm.recv_value<double>(0, 10), 1.0);
    }
  });
}

TEST(Par, WildcardSourceReceivesFromAnyRank) {
  run_ranks(4, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(comm.rank(), 0, 5);
    } else {
      int sum = 0;
      for (int i = 0; i < 3; ++i) sum += comm.recv_value<int>(par::kAnySource, 5);
      EXPECT_EQ(sum, 1 + 2 + 3);
    }
  });
}

TEST(Par, TypeMismatchThrows) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1.5, 1, 3);
      // Also absorb the exception side: rank 1 will throw; nothing to do.
    } else {
      EXPECT_THROW(comm.recv_value<int>(0, 3), ap3::Error);
    }
  });
}

TEST(Par, IsendIrecvWaitAll) {
  run_ranks(2, [](Comm& comm) {
    std::vector<double> recv_buffer(4);
    const std::vector<double> send_buffer = {10, 20, 30, 40};
    std::vector<par::Request> requests;
    const int peer = 1 - comm.rank();
    requests.push_back(comm.irecv(std::span<double>(recv_buffer), peer, 1));
    requests.push_back(
        comm.isend(std::span<const double>(send_buffer), peer, 1));
    par::wait_all(requests);
    EXPECT_EQ(recv_buffer[3], 40.0);
  });
}

TEST(Par, BarrierSynchronizes) {
  // All ranks increment before the barrier; after it every rank must see the
  // full count.
  static std::atomic<int> counter;
  counter = 0;
  run_ranks(4, [](Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(counter.load(), 4);
  });
}

TEST(Par, BcastDistributesRootData) {
  run_ranks(4, [](Comm& comm) {
    std::vector<int> data(3);
    if (comm.rank() == 2) data = {7, 8, 9};
    comm.bcast(std::span<int>(data), 2);
    EXPECT_EQ(data[0], 7);
    EXPECT_EQ(data[2], 9);
  });
}

TEST(Par, GatherCollectsInRankOrder) {
  run_ranks(4, [](Comm& comm) {
    const int mine = comm.rank() * 10;
    const auto all = comm.gather(std::span<const int>(&mine, 1), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r], r * 10);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Par, AllgatherEveryoneSeesAll) {
  run_ranks(3, [](Comm& comm) {
    const double mine = comm.rank() + 0.5;
    const auto all = comm.allgather(std::span<const double>(&mine, 1));
    ASSERT_EQ(all.size(), 3u);
    EXPECT_DOUBLE_EQ(all[0], 0.5);
    EXPECT_DOUBLE_EQ(all[2], 2.5);
  });
}

TEST(Par, AllgathervVariableSizes) {
  run_ranks(3, [](Comm& comm) {
    std::vector<int> mine(static_cast<size_t>(comm.rank()), comm.rank());
    std::vector<size_t> counts;
    const auto all = comm.allgatherv(std::span<const int>(mine), &counts);
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 0u);
    EXPECT_EQ(counts[2], 2u);
    ASSERT_EQ(all.size(), 3u);  // 0 + 1 + 2
    EXPECT_EQ(all[0], 1);
    EXPECT_EQ(all[1], 2);
    EXPECT_EQ(all[2], 2);
  });
}

// gatherv delivers to the root only: a non-zero root gets the rank-order
// concatenation and the counts, every other rank gets nothing back, and the
// wire carries each non-root's block plus one size word, not a broadcast.
TEST(Par, GathervDeliversToRootOnly) {
  obs::set_enabled(true);
  run_ranks(4, [](Comm& comm) {
    constexpr int kRoot = 2;
    std::vector<double> mine(static_cast<size_t>(comm.rank()) + 1,
                             comm.rank() + 0.25);
    std::vector<size_t> counts = {99};
    const auto before = obs::local().counter("par:bytes:total");
    const auto got =
        comm.gatherv(std::span<const double>(mine), kRoot, &counts);
    const auto sent = obs::local().counter("par:bytes:total") - before;
    if (comm.rank() == kRoot) {
      EXPECT_EQ(counts, (std::vector<size_t>{1, 2, 3, 4}));
      ASSERT_EQ(got.size(), 10u);
      EXPECT_EQ(got[0], 0.25);
      EXPECT_EQ(got[2], 1.25);
      EXPECT_EQ(got[9], 3.25);
      EXPECT_EQ(sent, 0.0);
    } else {
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(counts, (std::vector<size_t>{99}));
      EXPECT_EQ(sent, static_cast<double>(sizeof(std::uint64_t) +
                                          mine.size() * sizeof(double)));
    }
  });
}

// scatterv hands each rank its own block; the block's size travels with the
// message, so non-roots need not know it in advance.
TEST(Par, ScattervHandsEachRankItsBlock) {
  run_ranks(3, [](Comm& comm) {
    constexpr int kRoot = 1;
    const std::vector<int> data = {7, 1, 2, 3, 4, 5};
    const std::vector<size_t> counts = {1, 0, 5};
    const bool root = comm.rank() == kRoot;
    const auto mine = comm.scatterv(
        std::span<const int>(root ? data.data() : nullptr, root ? 6 : 0),
        std::span<const size_t>(root ? counts.data() : nullptr, root ? 3 : 0),
        kRoot);
    const std::vector<int> want =
        comm.rank() == 0 ? std::vector<int>{7}
        : comm.rank() == 1 ? std::vector<int>{}
                           : std::vector<int>{1, 2, 3, 4, 5};
    EXPECT_EQ(mine, want) << "rank " << comm.rank();
  });
}

TEST(Par, AllreduceSumMinMax) {
  run_ranks(4, [](Comm& comm) {
    const double v = comm.rank() + 1.0;  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce_value(v, ReduceOp::kSum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_value(v, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_value(v, ReduceOp::kMax), 4.0);
  });
}

TEST(Par, AlltoallTransposesBlocks) {
  run_ranks(3, [](Comm& comm) {
    // Rank r sends value 100*r + c to rank c.
    std::vector<int> send(3);
    for (int c = 0; c < 3; ++c) send[static_cast<size_t>(c)] = 100 * comm.rank() + c;
    const auto got = comm.alltoall(std::span<const int>(send), 1);
    ASSERT_EQ(got.size(), 3u);
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(got[static_cast<size_t>(r)], 100 * r + comm.rank());
  });
}

TEST(Par, AlltoallvVariableBlocks) {
  run_ranks(3, [](Comm& comm) {
    // Rank r sends r+1 copies of its rank to every peer.
    std::vector<int> send;
    std::vector<size_t> send_counts(3, static_cast<size_t>(comm.rank() + 1));
    for (int c = 0; c < 3; ++c)
      for (int k = 0; k <= comm.rank(); ++k) send.push_back(comm.rank());
    std::vector<size_t> recv_counts;
    const auto got =
        comm.alltoallv(std::span<const int>(send),
                       std::span<const size_t>(send_counts), recv_counts);
    ASSERT_EQ(recv_counts.size(), 3u);
    EXPECT_EQ(recv_counts[0], 1u);
    EXPECT_EQ(recv_counts[2], 3u);
    EXPECT_EQ(got.size(), 6u);  // 1 + 2 + 3
    // First block is from rank 0, last three from rank 2.
    EXPECT_EQ(got.front(), 0);
    EXPECT_EQ(got.back(), 2);
  });
}

TEST(Par, SplitFormsTaskDomains) {
  // 6 ranks -> atmosphere domain (4 ranks) + ocean domain (2 ranks), the
  // AP3ESM task-level decomposition of §5.1.2.
  run_ranks(6, [](Comm& comm) {
    const int color = comm.rank() < 4 ? 0 : 1;
    Comm domain = comm.split(color, comm.rank());
    if (color == 0) {
      EXPECT_EQ(domain.size(), 4);
      EXPECT_EQ(domain.rank(), comm.rank());
    } else {
      EXPECT_EQ(domain.size(), 2);
      EXPECT_EQ(domain.rank(), comm.rank() - 4);
    }
    // Collectives work inside the sub-communicator and do not cross domains.
    const int sum = domain.allreduce_value(1, ReduceOp::kSum);
    EXPECT_EQ(sum, domain.size());
  });
}

TEST(Par, SplitKeyReordersRanks) {
  run_ranks(4, [](Comm& comm) {
    // Reverse order by key.
    Comm flipped = comm.split(0, -comm.rank());
    EXPECT_EQ(flipped.rank(), comm.size() - 1 - comm.rank());
  });
}

// Every split record is released once its last member has copied it, so a
// long run's split table stays empty between splits; the 1000th split still
// forms the same groups as the first.
TEST(Par, SplitRecordsAreReleased) {
  run_ranks(4, [](Comm& comm) {
    for (int i = 0; i < 1000; ++i) {
      const Comm sub = comm.split(comm.rank() % 2, comm.rank());
      EXPECT_EQ(sub.size(), 2);
      EXPECT_EQ(sub.rank(), comm.rank() / 2);
    }
    comm.barrier();  // every member has returned from its last split
    EXPECT_EQ(comm.world().open_split_records(), 0u);
  });
}

// A copy of a Comm shares its id and split epoch, so splitting the copy and
// then the original uses one split-table key twice. The second split must
// form its own groups from its own colors, not read the first one's record.
TEST(Par, SplitsOfACopyAndItsOriginalDoNotMix) {
  run_ranks(8, [](Comm& comm) {
    for (int i = 0; i < 200; ++i) {
      const Comm copy = comm;
      const Comm halves = copy.split(comm.rank() % 2, comm.rank());
      const Comm whole = comm.split(0, comm.rank());
      EXPECT_EQ(halves.size(), 4);
      EXPECT_EQ(whole.size(), 8);
      EXPECT_EQ(whole.rank(), comm.rank());
    }
    comm.barrier();
    EXPECT_EQ(comm.world().open_split_records(), 0u);
  });
}

TEST(Par, MessagesInDifferentCommsDoNotMix) {
  run_ranks(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Global rank 0 <-> 2 are sub ranks 0 <-> 1 of color 0; likewise 1 <-> 3.
    if (sub.rank() == 0) {
      sub.send_value(comm.rank() + 1000, 1, 9);
    } else {
      const int got = sub.recv_value<int>(0, 9);
      EXPECT_EQ(got, (comm.rank() % 2) + 1000);
    }
  });
}

TEST(Par, TrafficAccountingCounts) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data(100, 1.0);
      comm.send(std::span<const double>(data), 1, 1);
    } else {
      std::vector<double> buffer(100);
      comm.recv(std::span<double>(buffer), 0, 1);
      const auto traffic = comm.world().traffic();
      EXPECT_GE(traffic.messages, 1u);
      EXPECT_GE(traffic.bytes, 100u * sizeof(double));
    }
    comm.barrier();
  });
}

TEST(Par, ExceptionInRankPropagates) {
  EXPECT_THROW(run_ranks(1, [](Comm&) { throw ap3::Error("boom"); }),
               ap3::Error);
}

TEST(Par, ManyRanksStress) {
  // Ring pass-through with 16 ranks exercises the mailbox matching under
  // contention.
  run_ranks(16, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value(comm.rank(), next, 0);
    const int got = comm.recv_value<int>(prev, 0);
    EXPECT_EQ(got, prev);
    const int total = comm.allreduce_value(got, ReduceOp::kSum);
    EXPECT_EQ(total, 16 * 15 / 2);
  });
}

}  // namespace
