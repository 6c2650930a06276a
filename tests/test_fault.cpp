// Deterministic fault injection and transparent recovery (src/fault + the
// fault-mode transport in src/par/comm.cpp).
//
// The contract under test: with a seeded FaultConfig, (1) the injection
// schedule is a pure function of the seed and the message coordinates, so
// replays are bit-identical; (2) drop/duplicate/delay faults are recovered
// transparently — receivers still observe every payload exactly once, in
// send order; (3) recovery uses timeout + exponential backoff, never
// deadlocks; and (4) the stats/log/obs counters agree with each other.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using ap3::testing::drop_plan;
using ap3::testing::heavy_fault_plan;
using ap3::testing::reorder_plan;
using ap3::testing::run_ranks;

// ---- the decision function -------------------------------------------------

TEST(FaultDecide, PureFunctionOfSeedAndPoint) {
  fault::FaultConfig config;
  config.seed = 42;
  config.drop_rate = 0.2;
  config.duplicate_rate = 0.2;
  config.delay_rate = 0.2;
  config.stall_rate = 0.3;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const fault::FaultPoint point{/*comm_id=*/1, /*tag=*/7, /*src=*/0,
                                  /*dst=*/1, seq};
    const fault::Decision first = fault::decide(config, point);
    const fault::Decision again = fault::decide(config, point);
    EXPECT_EQ(first.action, again.action) << "seq " << seq;
    EXPECT_EQ(first.delay_deliveries, again.delay_deliveries);
    EXPECT_EQ(first.stall_microseconds, again.stall_microseconds);
  }
}

TEST(FaultDecide, DifferentSeedsGiveDifferentSchedules) {
  fault::FaultConfig a = heavy_fault_plan(1);
  fault::FaultConfig b = heavy_fault_plan(1);
  b.seed ^= 0x1ULL;
  int differing = 0;
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const fault::FaultPoint point{0, 100, 0, 1, seq};
    if (fault::decide(a, point).action != fault::decide(b, point).action)
      ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultDecide, RatesRoughlyHonored) {
  fault::FaultConfig config;
  config.seed = 7;
  config.drop_rate = 0.25;
  const int kTrials = 4000;
  int drops = 0;
  for (std::uint64_t seq = 1; seq <= kTrials; ++seq) {
    const fault::FaultPoint point{0, 5, 2, 3, seq};
    if (fault::decide(config, point).action == fault::Action::kDrop) ++drops;
  }
  const double rate = static_cast<double>(drops) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(FaultDecide, ZeroRatesNeverFault) {
  const fault::FaultConfig config;  // all rates default to 0
  EXPECT_FALSE(config.any_faults());
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    const fault::Decision d = fault::decide(config, {0, 0, 0, 1, seq});
    EXPECT_FALSE(d.faulted());
  }
}

TEST(FaultDecide, TagWindowTargetsOneTrafficClass) {
  fault::FaultConfig config;
  config.seed = 11;
  config.drop_rate = 0.3;
  config.delay_rate = 0.3;
  config.stall_rate = 0.2;
  config.tag_min = 9300;
  config.tag_max = 9399;
  int in_window_faults = 0;
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    // Outside the window (halo-style and collective tags): never perturbed.
    EXPECT_FALSE(fault::decide(config, {0, 9101, 0, 1, seq}).faulted());
    EXPECT_FALSE(fault::decide(config, {0, -1000, 0, 1, seq}).faulted());
    // Inside the window: decisions match the unwindowed config exactly.
    fault::FaultConfig open = config;
    open.tag_min = std::numeric_limits<int>::min();
    open.tag_max = std::numeric_limits<int>::max();
    const fault::FaultPoint point{0, 9300, 0, 1, seq};
    const fault::Decision windowed = fault::decide(config, point);
    const fault::Decision unwindowed = fault::decide(open, point);
    EXPECT_EQ(windowed.action, unwindowed.action);
    EXPECT_EQ(windowed.stall_microseconds, unwindowed.stall_microseconds);
    if (windowed.faulted()) ++in_window_faults;
  }
  EXPECT_GT(in_window_faults, 0);
}

// ---- schedule determinism end to end ---------------------------------------

// Runs a fixed traffic pattern (every rank sends 50 tagged messages to every
// other rank) and returns the sorted injection log.
std::vector<fault::InjectionRecord> run_and_log(
    const fault::FaultConfig& plan) {
  std::vector<fault::InjectionRecord> log;
  run_ranks(4, plan, [&](par::Comm& comm) {
    std::vector<double> payload(8);
    std::iota(payload.begin(), payload.end(), comm.rank() * 100.0);
    for (int peer = 0; peer < comm.size(); ++peer) {
      if (peer == comm.rank()) continue;
      for (int m = 0; m < 50; ++m)
        comm.send(std::span<const double>(payload), peer, /*tag=*/m % 5);
    }
    std::vector<double> in(8);
    for (int peer = 0; peer < comm.size(); ++peer) {
      if (peer == comm.rank()) continue;
      for (int m = 0; m < 50; ++m) comm.recv(std::span<double>(in), peer, m % 5);
    }
    comm.barrier();
    if (comm.rank() == 0) log = comm.world().fault_log()->sorted();
  });
  return log;
}

TEST(FaultSchedule, SameSeedReplaysIdentically) {
  const auto plan = heavy_fault_plan(0xabcdULL);
  const auto first = run_and_log(plan);
  const auto again = run_and_log(plan);
  ASSERT_FALSE(first.empty()) << "plan injected nothing; rates too low";
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(first[i] == again[i])
        << "record " << i << ": " << fault::to_string(first[i]) << " vs "
        << fault::to_string(again[i]);
}

TEST(FaultSchedule, DifferentSeedsDiverge) {
  const auto first = run_and_log(heavy_fault_plan(1));
  const auto other = run_and_log(heavy_fault_plan(2));
  ASSERT_FALSE(first.empty());
  bool same = first.size() == other.size();
  if (same) {
    for (std::size_t i = 0; i < first.size(); ++i)
      if (!(first[i] == other[i])) { same = false; break; }
  }
  EXPECT_FALSE(same);
}

// ---- transparent recovery --------------------------------------------------

TEST(FaultRecovery, DropsRecoveredInOrder) {
  run_ranks(2, drop_plan(0xd20bULL, 0.3), [](par::Comm& comm) {
    constexpr int kMessages = 200;
    if (comm.rank() == 0) {
      for (int m = 0; m < kMessages; ++m)
        comm.send_value(static_cast<double>(m), 1, /*tag=*/3);
    } else {
      for (int m = 0; m < kMessages; ++m)
        EXPECT_EQ(comm.recv_value<double>(0, 3), static_cast<double>(m));
    }
    comm.barrier();
    const fault::FaultStats stats = comm.world().fault_stats();
    EXPECT_GT(stats.injected_drop, 0u) << "plan never dropped anything";
    EXPECT_EQ(stats.recovered_drop, stats.injected_drop);
    EXPECT_EQ(stats.retried, stats.injected_drop);
    EXPECT_GT(stats.timeouts, 0u);  // drops only recover via timeout wakeups
  });
}

TEST(FaultRecovery, ReorderingInvisibleToReceiver) {
  run_ranks(2, reorder_plan(0x5eedULL), [](par::Comm& comm) {
    constexpr int kMessages = 300;
    if (comm.rank() == 0) {
      for (int m = 0; m < kMessages; ++m)
        comm.send_value(static_cast<double>(m), 1, /*tag=*/9);
    } else {
      // Sequenced take must hand messages back in send order even though the
      // plan holds some back and duplicates others.
      for (int m = 0; m < kMessages; ++m)
        ASSERT_EQ(comm.recv_value<double>(0, 9), static_cast<double>(m));
    }
    comm.barrier();
    const fault::FaultStats stats = comm.world().fault_stats();
    EXPECT_GT(stats.injected_delay, 0u);
    EXPECT_GT(stats.injected_duplicate, 0u);
    EXPECT_EQ(stats.recovered_duplicate, stats.injected_duplicate);
    EXPECT_EQ(stats.recovered_delay, stats.injected_delay);
  });
}

TEST(FaultRecovery, DuplicatesNeverSurface) {
  fault::FaultConfig plan;
  plan.seed = 0xd0bULL;
  plan.duplicate_rate = 0.5;
  run_ranks(2, plan, [](par::Comm& comm) {
    constexpr int kMessages = 100;
    if (comm.rank() == 0) {
      for (int m = 0; m < kMessages; ++m) comm.send_value(m, 1, 1);
      comm.send_value(-1, 1, /*tag=*/2);  // sentinel on another tag
    } else {
      for (int m = 0; m < kMessages; ++m)
        EXPECT_EQ(comm.recv_value<int>(0, 1), m);
      // The sentinel arrives after exactly kMessages payloads: duplicates
      // were suppressed at the mailbox, never handed to recv.
      EXPECT_EQ(comm.recv_value<int>(0, 2), -1);
    }
    comm.barrier();
    const fault::FaultStats stats = comm.world().fault_stats();
    EXPECT_GT(stats.injected_duplicate, 0u);
    EXPECT_EQ(stats.recovered_duplicate, stats.injected_duplicate);
  });
}

TEST(FaultRecovery, CollectivesSurviveHeavyFaults) {
  // Collectives are built over the same p2p transport; a heavy mixed plan
  // must not wedge them. Timeout + backoff is the liveness mechanism.
  run_ranks(4, heavy_fault_plan(0xc0ffeeULL), [](par::Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const double sum = comm.allreduce_value(1.0, par::ReduceOp::kSum);
      EXPECT_EQ(sum, 4.0);
      std::vector<double> data(3, comm.rank() + round * 10.0);
      comm.bcast(std::span<double>(data), round % comm.size());
      for (double v : data) EXPECT_EQ(v, round % comm.size() + round * 10.0);
      comm.barrier();
    }
    const fault::FaultStats stats = comm.world().fault_stats();
    EXPECT_GT(stats.recoverable(), 0u);
    EXPECT_EQ(stats.recovered(), stats.recoverable());
  });
}

TEST(FaultRecovery, SplitCommunicatorsInheritFaultTransport) {
  run_ranks(4, reorder_plan(0x9999ULL), [](par::Comm& comm) {
    par::Comm half = comm.split(comm.rank() / 2, comm.rank());
    const double sum =
        half.allreduce_value(static_cast<double>(comm.rank()), par::ReduceOp::kSum);
    EXPECT_EQ(sum, comm.rank() / 2 == 0 ? 1.0 : 5.0);
    comm.barrier();
  });
}

// ---- accounting ------------------------------------------------------------

TEST(FaultAccounting, LogStatsAndCountersAgree) {
  obs::reset_all();
  fault::FaultStats stats;
  std::size_t log_size = 0;
  std::size_t log_drops = 0, log_dups = 0, log_delays = 0, log_stalls = 0;
  run_ranks(2, heavy_fault_plan(0xacc7ULL), [&](par::Comm& comm) {
    constexpr int kMessages = 150;
    if (comm.rank() == 0) {
      for (int m = 0; m < kMessages; ++m)
        comm.send_value(static_cast<double>(m), 1, 4);
    } else {
      for (int m = 0; m < kMessages; ++m)
        EXPECT_EQ(comm.recv_value<double>(0, 4), static_cast<double>(m));
    }
    comm.barrier();
    if (comm.rank() == 0) {
      stats = comm.world().fault_stats();
      const fault::InjectionLog* log = comm.world().fault_log();
      ASSERT_NE(log, nullptr);
      EXPECT_TRUE(comm.world().fault_active());
      log_size = log->size();
      log_drops = log->count(fault::Action::kDrop);
      log_dups = log->count(fault::Action::kDuplicate);
      log_delays = log->count(fault::Action::kDelay);
      log_stalls = log->count_stalls();
    }
  });

  // Log and stats count the same events.
  EXPECT_EQ(log_drops, stats.injected_drop);
  EXPECT_EQ(log_dups, stats.injected_duplicate);
  EXPECT_EQ(log_delays, stats.injected_delay);
  EXPECT_EQ(log_stalls, stats.injected_stall);
  EXPECT_GT(stats.injected(), 0u);

  // Every recoverable fault was recovered; stalls need no recovery.
  EXPECT_EQ(stats.recovered(), stats.recoverable());

  // The obs trail agrees: "fault:injected" fires once per log record, and
  // the recovered counters sum to the stats totals.
  double obs_injected = 0.0, obs_recovered = 0.0, obs_retried = 0.0;
  for (const auto& buffer : obs::buffers()) {
    obs_injected += buffer->counter("fault:injected");
    obs_recovered += buffer->counter("fault:recovered");
    obs_retried += buffer->counter("fault:retried");
  }
  EXPECT_EQ(static_cast<std::size_t>(obs_injected), log_size);
  EXPECT_EQ(static_cast<std::uint64_t>(obs_recovered), stats.recovered());
  EXPECT_EQ(static_cast<std::uint64_t>(obs_retried), stats.retried);
}

TEST(FaultAccounting, FaultFreeWorldReportsNothing) {
  run_ranks(2, [](par::Comm& comm) {
    EXPECT_FALSE(comm.world().fault_active());
    EXPECT_EQ(comm.world().fault_log(), nullptr);
    const fault::FaultStats stats = comm.world().fault_stats();
    EXPECT_EQ(stats.injected(), 0u);
    EXPECT_EQ(stats.recovered(), 0u);
    if (comm.rank() == 0) comm.send_value(1, 1, 0);
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 0), 1);
    }
  });
}

TEST(FaultAccounting, SortedLogIsOrdered) {
  const auto log = run_and_log(heavy_fault_plan(0x50a7ULL));
  ASSERT_FALSE(log.empty());
  for (std::size_t i = 1; i < log.size(); ++i) {
    const auto& a = log[i - 1].point;
    const auto& b = log[i].point;
    const auto key = [](const fault::FaultPoint& p) {
      return std::tuple(p.comm_id, p.src, p.dst, p.tag, p.seq);
    };
    EXPECT_LE(key(a), key(b)) << "log not sorted at " << i;
  }
}

}  // namespace
