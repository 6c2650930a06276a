// Tests for the async execution engine: pp::Stream / pp::Event ordering and
// failure semantics, async-vs-sync bitwise determinism across execution
// spaces, the ThreadPool re-entry guard, split-phase rearrange equivalence
// under fault plans, and the coupled driver's overlap bit-exactness contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "base/error.hpp"
#include "coupler/driver.hpp"
#include "harness.hpp"
#include "mct/attrvect.hpp"
#include "mct/gsmap.hpp"
#include "mct/rearranger.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "pp/exec.hpp"
#include "pp/pool.hpp"
#include "pp/stream.hpp"

namespace {

using namespace ap3;
using ap3::testing::block_ids;
using ap3::testing::heavy_fault_plan;
using ap3::testing::run_ranks;

// --- events -----------------------------------------------------------------

TEST(Event, DefaultConstructedIsNullAndReady) {
  pp::Event event;
  EXPECT_FALSE(event.valid());
  EXPECT_TRUE(event.ready());
  EXPECT_NO_THROW(event.wait());
}

TEST(Event, WaitObservesTaskSideEffects) {
  pp::Stream stream;
  int value = 0;
  pp::Event event = stream.enqueue("set", [&] { value = 42; });
  event.wait();
  EXPECT_TRUE(event.ready());
  EXPECT_EQ(value, 42);
}

TEST(Event, DependencyOrdersAcrossStreams) {
  pp::Stream a, b;
  std::vector<int> order;
  std::mutex mutex;
  pp::Event first = a.enqueue("first", [&] {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(1);
  });
  pp::Event second = b.enqueue(
      "second",
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(2);
      },
      {first});
  second.wait();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Event, WaitRethrowsTaskException) {
  pp::Stream stream;
  pp::Event event =
      stream.enqueue("boom", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(event.wait(), std::runtime_error);
  EXPECT_TRUE(event.ready());  // failed counts as finished
}

TEST(Event, FailedDependencyFailsDependent) {
  pp::Stream stream;
  pp::Event bad =
      stream.enqueue("boom", [] { throw std::runtime_error("boom"); });
  bool ran = false;
  pp::Event dependent = stream.enqueue("after", [&] { ran = true; }, {bad});
  EXPECT_THROW(dependent.wait(), std::runtime_error);
  EXPECT_FALSE(ran);
}

// --- streams ----------------------------------------------------------------

TEST(Stream, TasksRunInFifoOrder) {
  pp::Stream stream;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    stream.enqueue("task", [&order, i] { order.push_back(i); });
  stream.sync();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Stream, SyncIsIdempotentAndReusable) {
  pp::Stream stream;
  int count = 0;
  stream.enqueue("a", [&] { ++count; });
  stream.sync();
  stream.sync();
  stream.enqueue("b", [&] { ++count; });
  stream.sync();
  EXPECT_EQ(count, 2);
}

TEST(Stream, DestructorQuiescesPendingTasks) {
  std::atomic<int> count{0};
  {
    pp::Stream stream;
    for (int i = 0; i < 20; ++i)
      stream.enqueue("task", [&] { ++count; });
  }
  EXPECT_EQ(count.load(), 20);
}

// --- async launches: correctness and determinism ----------------------------

std::vector<double> sync_reference(pp::ExecSpace space, std::size_t n,
                                   std::size_t chunk) {
  std::vector<double> data(n, 0.0);
  pp::RangePolicy policy = pp::RangePolicy(0, n).on(space);
  if (chunk != 0) policy = policy.chunked(chunk);
  pp::parallel_for(policy, [&](std::size_t i) {
    data[i] = std::sin(static_cast<double>(i) * 0.37) * 1.0001;
  });
  return data;
}

TEST(ParallelForAsync, BitwiseMatchesSyncAcrossSpaces) {
  const pp::ExecSpace spaces[] = {pp::ExecSpace::kSerial,
                                  pp::ExecSpace::kHostThreads,
                                  pp::ExecSpace::kSunwayCPE};
  for (pp::ExecSpace space : spaces) {
    const std::size_t n = 1000;
    const std::vector<double> expected = sync_reference(space, n, 0);
    std::vector<double> data(n, 0.0);
    pp::Stream stream;
    pp::Event done = pp::parallel_for_async(
        stream, pp::RangePolicy(0, n).on(space).named("async_fill"),
        [&](std::size_t i) {
          data[i] = std::sin(static_cast<double>(i) * 0.37) * 1.0001;
        });
    done.wait();
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(data[i], expected[i]) << "space/index " << i;
  }
}

TEST(ParallelReduceAsync, BitwiseMatchesSyncAcrossSpacesAndChunks) {
  // Ill-conditioned summands make any partial-combination reordering visible
  // in the low bits; equality here is the determinism contract, not luck.
  const auto term = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 1.7) * 1e8 +
           1e-8 / (1.0 + static_cast<double>(i));
  };
  const pp::ExecSpace spaces[] = {pp::ExecSpace::kSerial,
                                  pp::ExecSpace::kHostThreads,
                                  pp::ExecSpace::kSunwayCPE};
  const std::size_t chunks[] = {0, 7, 64, 1000};
  for (pp::ExecSpace space : spaces) {
    for (std::size_t chunk : chunks) {
      pp::RangePolicy policy = pp::RangePolicy(0, 1000).on(space);
      if (chunk != 0) policy = policy.chunked(chunk);
      const double expected = pp::parallel_reduce(
          policy, [&](std::size_t i, double& acc) { acc += term(i); }, 0.0);
      pp::Stream stream;
      pp::AsyncResult<double> result = pp::parallel_reduce_async(
          stream, policy, [&](std::size_t i, double& acc) { acc += term(i); },
          0.0);
      EXPECT_EQ(result.get(), expected);  // bitwise
    }
  }
}

TEST(ParallelForAsync, ChargesCpeCyclesToEnqueuersBuffer) {
  obs::set_enabled(true);
  obs::reset_all();
  const double before = obs::local().counter("pp:cpe:sim_cycles");
  pp::Stream stream;
  pp::parallel_for_async(stream,
                         pp::RangePolicy(0, 130).on(pp::ExecSpace::kSunwayCPE),
                         [](std::size_t) {})
      .wait();
  // ceil(130 / 64 CPEs) = 3 simulated cycles, attributed to this thread's
  // buffer (the enqueue site), not the anonymous pool worker.
  EXPECT_DOUBLE_EQ(obs::local().counter("pp:cpe:sim_cycles") - before, 3.0);
  obs::reset_all();
}

// --- thread-pool re-entry guard ---------------------------------------------

TEST(ThreadPool, RunChunksReentryFromPoolThreadIsHardError) {
  pp::Stream stream;
  pp::Event event = stream.enqueue("reenter", [] {
    pp::ThreadPool::global().run_chunks(2, [](std::size_t) {});
  });
  EXPECT_THROW(event.wait(), ap3::Error);
}

TEST(ThreadPool, NestedAsyncLaunchInlinesInsteadOfThrowing) {
  // parallel_for from a pool thread must not hit the re-entry guard: the
  // dispatch layer checks on_pool_thread() and inlines chunk-serially.
  pp::Stream stream;
  std::vector<double> data(256, 0.0);
  pp::Event done = stream.enqueue("nested", [&] {
    pp::parallel_for(
        pp::RangePolicy(0, data.size()).on(pp::ExecSpace::kHostThreads),
        [&](std::size_t i) { data[i] = static_cast<double>(i); });
  });
  EXPECT_NO_THROW(done.wait());
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], static_cast<double>(i));
}

TEST(ThreadPool, ChunkExceptionPropagatesToCaller) {
  EXPECT_THROW(
      pp::parallel_for(
          pp::RangePolicy(0, 1000).on(pp::ExecSpace::kHostThreads).chunked(10),
          [](std::size_t i) {
            if (i == 617) throw std::runtime_error("chunk failure");
          }),
      std::runtime_error);
  // The pool must be usable again after an aborted gang.
  double sum = pp::parallel_reduce(
      pp::RangePolicy(0, 100).on(pp::ExecSpace::kHostThreads),
      [](std::size_t, double& acc) { acc += 1.0; }, 0.0);
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

// --- split-phase rearrange --------------------------------------------------

void run_split_phase_equivalence(const std::optional<fault::FaultConfig>& plan) {
  const auto body = [](par::Comm& comm) {
    const std::int64_t n = 48;
    const int nranks = comm.size();
    std::vector<std::vector<std::int64_t>> src_ids(
        static_cast<size_t>(nranks)),
        dst_ids(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      src_ids[static_cast<size_t>(r)] = block_ids(n, r, nranks);
    for (std::int64_t g = 0; g < n; ++g)
      dst_ids[static_cast<size_t>((g * 5) % nranks)].push_back(g);
    const mct::GlobalSegMap src_map = mct::GlobalSegMap::from_all(src_ids);
    const mct::GlobalSegMap dst_map = mct::GlobalSegMap::from_all(dst_ids);
    mct::Rearranger rearranger(
        comm, mct::Router::build(comm.rank(), src_map, dst_map));

    mct::AttrVect src({"u", "v"},
                      static_cast<size_t>(src_map.local_size(comm.rank())));
    const auto my_src = src_map.local_ids(comm.rank());
    for (size_t k = 0; k < my_src.size(); ++k) {
      src.field("u")[k] = std::cos(static_cast<double>(my_src[k]) * 0.311);
      src.field("v")[k] = static_cast<double>(my_src[k]) * 1.5 - 7.0;
    }

    mct::AttrVect via_collective(
        {"u", "v"}, static_cast<size_t>(dst_map.local_size(comm.rank())));
    mct::AttrVect via_split(
        {"u", "v"}, static_cast<size_t>(dst_map.local_size(comm.rank())));
    rearranger.rearrange(src, via_collective, mct::Strategy::kAlltoallv);
    mct::Rearranger::Pending pending =
        rearranger.rearrange_begin(src, via_split);
    EXPECT_TRUE(pending.active());
    rearranger.rearrange_end(pending);
    EXPECT_FALSE(pending.active());
    for (const char* name : {"u", "v"})
      for (size_t k = 0; k < via_split.num_points(); ++k)
        EXPECT_EQ(via_split.field(name)[k], via_collective.field(name)[k]);
  };
  if (plan)
    run_ranks(3, *plan, body);
  else
    run_ranks(3, body);
}

TEST(SplitPhase, MatchesCollectiveFaultFree) {
  run_split_phase_equivalence(std::nullopt);
}

TEST(SplitPhase, MatchesCollectiveUnderHeavyFaults) {
  run_split_phase_equivalence(heavy_fault_plan(0x5eedULL));
}

TEST(SplitPhase, EndWithoutBeginIsHardError) {
  run_ranks(1, [](par::Comm& comm) {
    const mct::GlobalSegMap map = mct::GlobalSegMap::from_all({{0, 1}});
    mct::Rearranger rearranger(comm, mct::Router::build(0, map, map));
    mct::Rearranger::Pending pending;
    EXPECT_FALSE(pending.active());
    EXPECT_THROW(rearranger.rearrange_end(pending), ap3::Error);
  });
}

// --- coupled overlap bit-exactness ------------------------------------------

cpl::CoupledConfig overlap_test_config(bool overlap) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 6;
  config.ocn.grid = grid::TripolarConfig{40, 30, 6};
  config.ocn_couple_ratio = 5;
  config.overlap = overlap;
  return config;
}

std::uint64_t coupled_hash(bool overlap,
                           const std::optional<fault::FaultConfig>& plan) {
  std::atomic<std::uint64_t> hash{0};
  const auto body = [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, {overlap_test_config(overlap)});
    // One full ocean coupling cycle plus a window, so both phases run with
    // every exchange (i2o, o2i, accumulation, SST return) exercised.
    model.run_windows(overlap_test_config(overlap).ocn_couple_ratio + 1);
    const std::uint64_t h = model.state_hash();  // collective, equal on ranks
    if (comm.rank() == 0) hash = h;
  };
  if (plan)
    run_ranks(3, *plan, body);
  else
    run_ranks(3, body);
  return hash.load();
}

TEST(Overlap, CoupledStateBitExactFaultFree) {
  EXPECT_EQ(coupled_hash(false, std::nullopt), coupled_hash(true, std::nullopt));
}

TEST(Overlap, CoupledStateBitExactUnderHeavyFaults) {
  const fault::FaultConfig plan = heavy_fault_plan(0xc0f3ULL);
  EXPECT_EQ(coupled_hash(false, plan), coupled_hash(true, plan));
}

}  // namespace
