// Tests for the runtime load balancer (src/balance) and its grid plumbing:
// weighted_cuts invariants, explicit-cut block partitions, measured-cost
// active compaction, the hysteresis-guarded rebalance decision, bit-exact
// column migration (ocean and ice), and — the headline contract — identical
// coupled state_hash with rebalancing on vs off, in both task layouts,
// fault-free and under a heavy fault plan, including through a checkpoint
// written on a rebalanced decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "balance/balance.hpp"
#include "base/error.hpp"
#include "coupler/driver.hpp"
#include "grid/partition.hpp"
#include "harness.hpp"
#include "ice/ice.hpp"
#include "mct/attrvect.hpp"
#include "obs/obs.hpp"
#include "ocn/model.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;
using ap3::testing::expect_fields_equal;
using ap3::testing::heavy_fault_plan;
using ap3::testing::run_ranks;
using ap3::testing::TempDir;

// --- weighted_cuts ----------------------------------------------------------

TEST(WeightedCuts, CoverageAndBalance) {
  std::vector<double> w(100);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = 1.0 + static_cast<double>(i % 7);
  const std::vector<std::int64_t> cuts = grid::weighted_cuts(w, 4);
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_EQ(cuts.front(), 0);
  EXPECT_EQ(cuts.back(), 100);
  double total = 0.0;
  for (const double v : w) total += v;
  const double target = total / 4.0;
  for (int p = 0; p < 4; ++p) {
    ASSERT_LT(cuts[static_cast<std::size_t>(p)],
              cuts[static_cast<std::size_t>(p) + 1]);
    double load = 0.0;
    for (std::int64_t i = cuts[static_cast<std::size_t>(p)];
         i < cuts[static_cast<std::size_t>(p) + 1]; ++i)
      load += w[static_cast<std::size_t>(i)];
    // Greedy prefix rule: each piece misses the target by at most one weight.
    EXPECT_NEAR(load, target, 7.0) << "piece " << p;
  }
}

TEST(WeightedCuts, NonemptyGuaranteeWithZeroWeightRuns) {
  // All weight at the front: without the guarantee every later piece would
  // collapse to nothing.
  std::vector<double> w(10, 0.0);
  w[0] = 1.0;
  const std::vector<std::int64_t> cuts = grid::weighted_cuts(w, 5, true);
  ASSERT_EQ(cuts.size(), 6u);
  for (std::size_t p = 0; p + 1 < cuts.size(); ++p)
    EXPECT_LT(cuts[p], cuts[p + 1]);
  EXPECT_EQ(cuts.front(), 0);
  EXPECT_EQ(cuts.back(), 10);
}

TEST(WeightedCuts, RejectsBadInputs) {
  std::vector<double> w(3, 1.0);
  EXPECT_THROW(grid::weighted_cuts(w, 0), ap3::Error);
  EXPECT_THROW(grid::weighted_cuts(w, 5, true), ap3::Error);  // parts > n
  w[1] = -1.0;
  EXPECT_THROW(grid::weighted_cuts(w, 2), ap3::Error);
}

// --- explicit-cut block partitions ------------------------------------------

TEST(BlockPartition, ExplicitCutsRoundTrip) {
  const grid::BlockPartition2D uniform =
      grid::BlockPartition2D::balanced(48, 32, 4);
  const grid::BlockCuts cuts = uniform.cuts();
  const grid::BlockPartition2D explicit_part(48, 32, cuts);
  EXPECT_EQ(explicit_part.cuts(), cuts);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(explicit_part.x_range(r).begin, uniform.x_range(r).begin);
    EXPECT_EQ(explicit_part.x_range(r).end, uniform.x_range(r).end);
    EXPECT_EQ(explicit_part.y_range(r).begin, uniform.y_range(r).begin);
    EXPECT_EQ(explicit_part.y_range(r).end, uniform.y_range(r).end);
  }
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 48; ++i)
      ASSERT_EQ(explicit_part.owner(i, j), uniform.owner(i, j))
          << "(" << i << "," << j << ")";
}

TEST(BlockPartition, SkewedCutsOwnEveryCellExactlyOnce) {
  grid::BlockCuts cuts;
  cuts.x = {0, 5, 48};
  cuts.y = {0, 30, 32};
  const grid::BlockPartition2D part(48, 32, cuts);
  std::vector<std::int64_t> owned(4, 0);
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 48; ++i) {
      const int r = part.owner(i, j);
      ASSERT_GE(r, 0);
      ASSERT_LT(r, 4);
      ++owned[static_cast<std::size_t>(r)];
    }
  for (int r = 0; r < 4; ++r) {
    const auto xr = part.x_range(r);
    const auto yr = part.y_range(r);
    EXPECT_EQ(owned[static_cast<std::size_t>(r)], xr.size() * yr.size());
  }
  EXPECT_EQ(owned[0] + owned[1] + owned[2] + owned[3], 48 * 32);
}

TEST(BlockPartition, BoundsChecksThrow) {
  const grid::BlockPartition2D part =
      grid::BlockPartition2D::balanced(16, 12, 4);
  EXPECT_THROW(part.x_range(-1), ap3::Error);
  EXPECT_THROW(part.x_range(4), ap3::Error);
  EXPECT_THROW(part.y_range(4), ap3::Error);
  EXPECT_THROW(part.owner(-1, 0), ap3::Error);
  EXPECT_THROW(part.owner(0, 12), ap3::Error);
  EXPECT_THROW(part.owner(16, 0), ap3::Error);
}

TEST(BlockPartition, RejectsMalformedCuts) {
  grid::BlockCuts cuts;
  cuts.x = {0, 20, 16};  // not ascending / overruns nx
  cuts.y = {0, 12};
  EXPECT_THROW(grid::BlockPartition2D(16, 12, cuts), ap3::Error);
  cuts.x = {2, 8, 16};  // does not start at 0
  EXPECT_THROW(grid::BlockPartition2D(16, 12, cuts), ap3::Error);
}

// --- measured-cost active compaction ----------------------------------------

TEST(ActiveCompaction, ColumnsBoundsCheckThrows) {
  const grid::TripolarGrid g(grid::TripolarConfig{24, 16, 4});
  const grid::ActiveCompaction compaction(g, 3);
  EXPECT_THROW(compaction.columns(-1), ap3::Error);
  EXPECT_THROW(compaction.columns(3), ap3::Error);
  EXPECT_NO_THROW(compaction.columns(2));
}

TEST(ActiveCompaction, KmtCostsReproduceStaticSplit) {
  const grid::TripolarGrid g(grid::TripolarConfig{24, 16, 4});
  const grid::ActiveCompaction by_kmt(g, 3);
  // Costs equal to each column's kmt must reproduce the static split.
  std::vector<double> cost;
  for (int j = 0; j < g.ny(); ++j)
    for (int i = 0; i < g.nx(); ++i)
      if (g.kmt(i, j) > 0) cost.push_back(static_cast<double>(g.kmt(i, j)));
  const grid::ActiveCompaction by_cost(g, 3, cost);
  for (int r = 0; r < 3; ++r) {
    const auto& a = by_kmt.columns(r);
    const auto& b = by_cost.columns(r);
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].i, b[c].i);
      EXPECT_EQ(a[c].j, b[c].j);
    }
  }
}

TEST(ActiveCompaction, MeasuredCostsShiftSplitAndCoverEveryColumn) {
  const grid::TripolarGrid g(grid::TripolarConfig{24, 16, 4});
  const grid::ActiveCompaction uniform(g, 3);
  // Make the first rank's columns 50x more expensive than the rest.
  const std::int64_t first_rank_columns =
      static_cast<std::int64_t>(uniform.columns(0).size());
  std::vector<double> cost;
  std::int64_t at = 0;
  for (int j = 0; j < g.ny(); ++j)
    for (int i = 0; i < g.nx(); ++i)
      if (g.kmt(i, j) > 0) cost.push_back(at++ < first_rank_columns ? 50.0 : 1.0);
  const grid::ActiveCompaction skewed(g, 3, cost);

  EXPECT_LT(skewed.columns(0).size(), uniform.columns(0).size());

  // Every active column still owned exactly once, in the same global order.
  std::vector<std::pair<int, int>> all;
  for (int r = 0; r < 3; ++r)
    for (const grid::CompactColumn& c : skewed.columns(r))
      all.emplace_back(c.j, c.i);
  EXPECT_EQ(static_cast<std::int64_t>(all.size()), skewed.total_columns());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(skewed.total_columns(), uniform.total_columns());
}

// --- decision rule ----------------------------------------------------------

TEST(MeasuredCost, ImbalanceMath) {
  balance::MeasuredCost cost;
  cost.per_rank_seconds = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(cost.max_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(cost.mean_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(cost.imbalance(), 1.5);
  balance::MeasuredCost idle;
  idle.per_rank_seconds = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(idle.imbalance(), 1.0);
}

TEST(PlanRebalance, ShiftsCutTowardSlowRank) {
  const int nx = 8, ny = 4;
  std::vector<double> weight(static_cast<std::size_t>(nx * ny), 1.0);
  const grid::BlockPartition2D old_part(nx, ny, 2, 1);
  balance::MeasuredCost cost;
  cost.per_rank_seconds = {3.0, 1.0};  // rank 0 (left half) is the straggler
  const balance::CutPlan plan =
      balance::plan_rebalance(weight, nx, ny, old_part, cost);
  ASSERT_EQ(plan.cuts.x.size(), 3u);
  EXPECT_LT(plan.cuts.x[1], 4);  // slow rank sheds columns
  EXPECT_LT(plan.predicted_max_seconds, plan.current_max_seconds);
  EXPECT_GT(plan.moved_weight, 0);
  EXPECT_EQ(plan.total_weight, nx * ny);
}

TEST(LoadBalancer, HysteresisAndCooldown) {
  const int nx = 8, ny = 4;
  std::vector<double> weight(static_cast<std::size_t>(nx * ny), 1.0);
  const grid::BlockPartition2D part(nx, ny, 2, 1);

  balance::RebalancePolicy policy;
  policy.min_improvement = 0.0;
  policy.ignore_migration_cost = true;
  policy.cooldown = 1;
  balance::LoadBalancer balancer("test", policy);

  balance::MeasuredCost even;
  even.per_rank_seconds = {1.0, 1.05};  // below the 1.15 enter threshold
  balance::Decision d = balancer.consider(weight, nx, ny, part, even, 8.0);
  EXPECT_FALSE(d.migrate);
  EXPECT_STREQ(d.reason, "balanced");

  balance::MeasuredCost skew;
  skew.per_rank_seconds = {3.0, 1.0};
  d = balancer.consider(weight, nx, ny, part, skew, 8.0);
  EXPECT_TRUE(d.migrate);
  EXPECT_STREQ(d.reason, "migrate");

  // Immediately after a migration the cooldown rejects reconsideration even
  // under the same skew — the anti-thrash hysteresis.
  d = balancer.consider(weight, nx, ny, part, skew, 8.0);
  EXPECT_FALSE(d.migrate);
  EXPECT_STREQ(d.reason, "cooldown");

  // Cooldown expired and the load is now even: stay put.
  d = balancer.consider(weight, nx, ny, part, even, 8.0);
  EXPECT_FALSE(d.migrate);
  EXPECT_STREQ(d.reason, "balanced");
}

TEST(LoadBalancer, MigrationCostCanVeto) {
  const int nx = 8, ny = 4;
  std::vector<double> weight(static_cast<std::size_t>(nx * ny), 1.0);
  const grid::BlockPartition2D part(nx, ny, 2, 1);
  balance::MeasuredCost skew;
  skew.per_rank_seconds = {3.0e-9, 1.0e-9};  // big ratio, negligible seconds

  balance::RebalancePolicy policy;
  policy.min_improvement = 0.0;
  policy.amortize_windows = 1;
  policy.min_phase_seconds = 0.0;  // bypass the noise floor: test the veto
  balance::LoadBalancer strict("strict", policy);
  const balance::Decision d =
      strict.consider(weight, nx, ny, part, skew, 8.0);
  // Nanosecond-scale savings can never pay for a real migration.
  EXPECT_FALSE(d.migrate);
  EXPECT_STREQ(d.reason, "migration_cost");
  EXPECT_GT(d.migration_cost_seconds, d.predicted_savings_seconds);
}

TEST(LoadBalancer, NoiseFloorSkipsCheapPhases) {
  const int nx = 8, ny = 4;
  std::vector<double> weight(static_cast<std::size_t>(nx * ny), 1.0);
  const grid::BlockPartition2D part(nx, ny, 2, 1);

  // A few ms of scheduler preemption on a ms-scale phase reads as a 3x
  // imbalance; the absolute floor must reject it before the ratio gate.
  balance::RebalancePolicy policy;
  policy.min_improvement = 0.0;
  policy.ignore_migration_cost = true;
  balance::LoadBalancer balancer("floor", policy);
  balance::MeasuredCost tiny;
  tiny.per_rank_seconds = {0.003, 0.001};
  const balance::Decision d =
      balancer.consider(weight, nx, ny, part, tiny, 8.0);
  EXPECT_FALSE(d.migrate);
  EXPECT_STREQ(d.reason, "negligible");
}

TEST(LoadBalancer, SupernodeTopologyLowersMigrationCost) {
  const int nx = 8, ny = 4;
  std::vector<double> weight(static_cast<std::size_t>(nx * ny), 1.0);
  const grid::BlockPartition2D part(nx, ny, 2, 1);
  balance::MeasuredCost skew;
  skew.per_rank_seconds = {3.0, 1.0};

  balance::RebalancePolicy policy;
  policy.min_improvement = 0.0;
  policy.amortize_windows = 1;

  // Same plan, three cost models: default (all-inter), supernode-aware (both
  // owners share a supernode, so the moves stay on the fast level), and the
  // fraction set directly. The decision inputs are identical; only the
  // modeled migration cost may differ — and only downward.
  balance::LoadBalancer allinter("allinter", policy);
  const balance::Decision base =
      allinter.consider(weight, nx, ny, part, skew, 1e6);

  balance::LoadBalancer local("local", policy);
  local.set_block_topology(grid::SupernodeBlockMap(2, 1, 2));
  EXPECT_DOUBLE_EQ(local.intra_migration_fraction(), 1.0);
  const balance::Decision cheap =
      local.consider(weight, nx, ny, part, skew, 1e6);
  EXPECT_LT(cheap.migration_cost_seconds, base.migration_cost_seconds);

  balance::LoadBalancer half("half", policy);
  half.set_intra_migration_fraction(0.5);
  const balance::Decision mid = half.consider(weight, nx, ny, part, skew, 1e6);
  EXPECT_LT(mid.migration_cost_seconds, base.migration_cost_seconds);
  EXPECT_GT(mid.migration_cost_seconds, cheap.migration_cost_seconds);
}

// --- bit-exact column migration ---------------------------------------------

TEST(Migration, OceanRoundTripIsBitExact) {
  run_ranks(4, [](par::Comm& comm) {
    ocn::OcnConfig config;
    config.grid = grid::TripolarConfig{32, 24, 4};
    ocn::OcnModel a(comm, config);
    a.run(0.0, 3600.0);  // build up non-trivial state

    const std::vector<std::string> fields =
        ocn::OcnModel::migration_fields(config.grid.nz);
    mct::AttrVect a_cols(fields, a.ocean_gids().size());
    a.export_migration_fields(a_cols);
    const std::uint64_t hash_a =
        comm.allreduce_value(a.column_state_hash(), par::ReduceOp::kSum);

    // Migrate to a deliberately skewed decomposition...
    grid::BlockCuts skew = a.cuts();
    ASSERT_EQ(skew.px(), 2);
    ASSERT_EQ(skew.py(), 2);
    skew.x[1] = 5;
    skew.y[1] = 17;
    ocn::OcnModel b(comm, config, skew);
    balance::ColumnMigrator a2b(comm, a.ocean_gids(), b.ocean_gids());
    mct::AttrVect b_cols(fields, b.ocean_gids().size());
    a2b.migrate(a_cols, b_cols);
    b.import_migration_fields(b_cols);
    EXPECT_EQ(comm.allreduce_value(b.column_state_hash(), par::ReduceOp::kSum),
              hash_a);

    // ...where every global column is still owned exactly once...
    std::vector<std::int64_t> all_b = comm.allgatherv(
        std::span<const std::int64_t>(b.ocean_gids()), nullptr);
    std::vector<std::int64_t> all_a = comm.allgatherv(
        std::span<const std::int64_t>(a.ocean_gids()), nullptr);
    std::sort(all_a.begin(), all_a.end());
    std::sort(all_b.begin(), all_b.end());
    EXPECT_EQ(all_a, all_b);
    EXPECT_EQ(std::adjacent_find(all_b.begin(), all_b.end()), all_b.end());

    // ...and back to the original cuts: byte-identical column records.
    ocn::OcnModel c(comm, config, a.cuts());
    mct::AttrVect b_export(fields, b.ocean_gids().size());
    b.export_migration_fields(b_export);
    balance::ColumnMigrator b2c(comm, b.ocean_gids(), c.ocean_gids());
    mct::AttrVect c_cols(fields, c.ocean_gids().size());
    b2c.migrate(b_export, c_cols);
    c.import_migration_fields(c_cols);
    ASSERT_EQ(c.ocean_gids(), a.ocean_gids());
    mct::AttrVect c_export(fields, c.ocean_gids().size());
    c.export_migration_fields(c_export);
    for (std::size_t f = 0; f < c_export.num_fields(); ++f)
      expect_fields_equal(c_export.field(f), a_cols.field(f), 0, fields[f]);
  });
}

TEST(Migration, IceRoundTripIsBitExact) {
  run_ranks(2, [](par::Comm& comm) {
    ice::IceConfig config;
    config.grid = grid::TripolarConfig{32, 24, 3};
    config.dt_seconds = 1800.0;
    ice::IceModel a(comm, config);
    a.run(0.0, 3600.0);

    const std::vector<std::string> fields = ice::IceModel::migration_fields();
    mct::AttrVect a_cols(fields, a.ocean_gids().size());
    a.export_migration_fields(a_cols);
    const std::uint64_t hash_a =
        comm.allreduce_value(a.column_state_hash(), par::ReduceOp::kSum);

    grid::BlockCuts skew = a.cuts();
    ASSERT_EQ(skew.px(), 2);
    skew.x[1] = 7;
    ice::IceModel b(comm, config, skew);
    balance::ColumnMigrator a2b(comm, a.ocean_gids(), b.ocean_gids());
    mct::AttrVect b_cols(fields, b.ocean_gids().size());
    a2b.migrate(a_cols, b_cols);
    b.import_migration_fields(b_cols);
    EXPECT_EQ(comm.allreduce_value(b.column_state_hash(), par::ReduceOp::kSum),
              hash_a);
  });
}

// --- coupled: rebalancing on == rebalancing off ------------------------------

cpl::CoupledConfig rebalance_test_config(cpl::Layout layout, bool rebalance) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{48, 24, 3};
  config.layout = layout;
  config.atm_ranks = 1;
  config.ocn_couple_ratio = 2;
  // Sleep-based synthetic straggler on the right half of the ocean grid:
  // models waiting-dominated imbalance without touching model state.
  config.ocn.stall_seconds_per_point = 1.0e-5;
  config.ocn.stall_i_begin = 24;
  if (rebalance) {
    config.rebalance_every = 1;
    // Permissive policy so the test exercises real migrations quickly.
    config.rebalance.imbalance_enter = 1.01;
    config.rebalance.min_improvement = 0.0;
    config.rebalance.ignore_migration_cost = true;
    config.rebalance.cooldown = 0;
  }
  return config;
}

std::uint64_t run_coupled(par::Comm& comm, cpl::Layout layout, bool rebalance,
                          int windows, long long* migrations = nullptr) {
  cpl::CoupledModel model(comm, {rebalance_test_config(layout, rebalance)});
  model.run_windows(windows);
  if (migrations) *migrations = model.rebalance_migrations();
  return model.state_hash();
}

TEST(CoupledRebalance, BitExactSequential) {
  run_ranks(2, [](par::Comm& comm) {
    const std::uint64_t off =
        run_coupled(comm, cpl::Layout::kSequential, false, 6);
    long long migrations = 0;
    const std::uint64_t on =
        run_coupled(comm, cpl::Layout::kSequential, true, 6, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without a migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, BitExactConcurrent) {
  run_ranks(3, [](par::Comm& comm) {
    const std::uint64_t off =
        run_coupled(comm, cpl::Layout::kConcurrent, false, 6);
    long long migrations = 0;
    const std::uint64_t on =
        run_coupled(comm, cpl::Layout::kConcurrent, true, 6, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without a migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, BitExactSequentialUnderHeavyFaults) {
  run_ranks(2, heavy_fault_plan(0xBA1A57), [](par::Comm& comm) {
    const std::uint64_t off =
        run_coupled(comm, cpl::Layout::kSequential, false, 4);
    long long migrations = 0;
    const std::uint64_t on =
        run_coupled(comm, cpl::Layout::kSequential, true, 4, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without a migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, BitExactConcurrentUnderHeavyFaults) {
  run_ranks(3, heavy_fault_plan(0x1CEB01), [](par::Comm& comm) {
    const std::uint64_t off =
        run_coupled(comm, cpl::Layout::kConcurrent, false, 4);
    long long migrations = 0;
    const std::uint64_t on =
        run_coupled(comm, cpl::Layout::kConcurrent, true, 4, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without a migration";
    EXPECT_EQ(on, off);
  });
}

// --- per-component busy channels: ice-only and atm-only stragglers -----------

enum class Straggler { kIce, kAtm };

cpl::CoupledConfig straggler_test_config(cpl::Layout layout, bool rebalance,
                                         Straggler who) {
  cpl::CoupledConfig config = rebalance_test_config(layout, rebalance);
  // Replace the legacy ocean straggler with the requested component's band:
  // only ONE component stalls, so any migration must come from its channel.
  config.ocn.stall_seconds_per_point = 0.0;
  config.ocn.stall_i_begin = -1;
  if (who == Straggler::kIce) {
    config.ice.stall_seconds_per_point = 1.0e-4;
    config.ice.stall_i_begin = 24;  // right half of the 48-wide ocean grid
  } else {
    config.atm.stall_seconds_per_point = 2.0e-4;
    config.atm.stall_cell_begin = 250;  // upper half of the 20·5² cells
  }
  // The ice steps once per window and the bands sleep tens of ms: drop the
  // noise floor so the short test windows clear the negligible gate.
  if (rebalance) config.rebalance.min_phase_seconds = 1.0e-3;
  return config;
}

std::uint64_t run_straggler(par::Comm& comm, const cpl::CoupledConfig& config,
                            int windows, long long* migrations = nullptr) {
  cpl::CoupledModel model(comm, {config});
  model.run_windows(windows);
  if (migrations) *migrations = model.rebalance_migrations();
  return model.state_hash();
}

TEST(CoupledRebalance, IceStragglerBitExactSequential) {
  run_ranks(2, [](par::Comm& comm) {
    const std::uint64_t off = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, false, Straggler::kIce),
        6);
    long long migrations = 0;
    const std::uint64_t on = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kIce),
        6, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without an ice migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, IceStragglerBitExactConcurrent) {
  run_ranks(3, [](par::Comm& comm) {
    // Two atm-domain ranks so the ice has a block decomposition to re-cut.
    cpl::CoupledConfig off_config =
        straggler_test_config(cpl::Layout::kConcurrent, false, Straggler::kIce);
    off_config.atm_ranks = 2;
    const std::uint64_t off = run_straggler(comm, off_config, 6);
    cpl::CoupledConfig on_config =
        straggler_test_config(cpl::Layout::kConcurrent, true, Straggler::kIce);
    on_config.atm_ranks = 2;
    long long migrations = 0;
    const std::uint64_t on = run_straggler(comm, on_config, 6, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without an ice migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, IceStragglerBitExactUnderHeavyFaults) {
  run_ranks(2, heavy_fault_plan(0x1CEFA1), [](par::Comm& comm) {
    const std::uint64_t off = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, false, Straggler::kIce),
        4);
    long long migrations = 0;
    const std::uint64_t on = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kIce),
        4, &migrations);
    EXPECT_GT(migrations, 0) << "test is vacuous without an ice migration";
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, IceStragglerCheckpointOnRebalancedLayoutRestores) {
  TempDir dir;  // shared across rank threads: checkpoint I/O is collective
  run_ranks(2, [&dir](par::Comm& comm) {
    const cpl::CoupledConfig config =
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kIce);

    cpl::CoupledModel a(comm, {config});
    a.run_windows(4);
    EXPECT_GT(a.rebalance_migrations(), 0)
        << "checkpoint must land on a rebalanced ice decomposition";
    a.checkpoint(dir.path());
    a.run_windows(2);
    const std::uint64_t hash_a = a.state_hash();

    cpl::CoupledModel b(comm, {config});
    b.restore(dir.path());
    b.run_windows(2);
    EXPECT_EQ(b.state_hash(), hash_a);
  });
}

TEST(CoupledRebalance, AtmStragglerAssessesWithoutMigration) {
  run_ranks(2, [](par::Comm& comm) {
    const std::uint64_t off = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, false, Straggler::kAtm),
        6);
    long long migrations = -1;
    const std::uint64_t on = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kAtm),
        6, &migrations);
    // The 1-D icosahedral partition has no block cuts: the busy channel must
    // flow through the assessment path and never propose a migration.
    EXPECT_EQ(obs::local().counter("balance:atm:migrations"), 0.0);
    EXPECT_GT(obs::local().counter("balance:atm:considered"), 0.0);
    EXPECT_GT(obs::local().counter("balance:atm:skipped_immovable"), 0.0);
#ifndef AP3_SANITIZE_BUILD
    // With the only straggler on the atmosphere, nothing moves at all.
    // Sanitizer builds inflate compute unevenly enough that the deliberately
    // hair-trigger test policy can shift an ocean cut on noise; the atm
    // invariant above and the bitwise hash below hold regardless.
    EXPECT_EQ(migrations, 0);
#endif
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, AtmStragglerBitExactUnderHeavyFaults) {
  run_ranks(2, heavy_fault_plan(0xA73FA1), [](par::Comm& comm) {
    const std::uint64_t off = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, false, Straggler::kAtm),
        4);
    long long migrations = -1;
    const std::uint64_t on = run_straggler(
        comm,
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kAtm),
        4, &migrations);
    EXPECT_EQ(obs::local().counter("balance:atm:migrations"), 0.0);
#ifndef AP3_SANITIZE_BUILD
    EXPECT_EQ(migrations, 0);  // see AtmStragglerAssessesWithoutMigration
#endif
    EXPECT_EQ(on, off);
  });
}

TEST(CoupledRebalance, RestoredBusyWatermarkReproducesFirstDecision) {
#ifdef AP3_SANITIZE_BUILD
  // The decision hinge below is calibrated in absolute seconds (busy sleeps
  // against the min_phase_seconds floor). Sanitizers inflate compute 2-10x
  // while the sleeps stay real, which flips the gates; the watermark
  // persistence itself is covered bit-for-bit by the restore tests above.
  GTEST_SKIP() << "timing-calibrated decision test skipped under sanitizers";
#endif
  TempDir dir;
  run_ranks(2, [&dir](par::Comm& comm) {
    cpl::CoupledConfig config =
        straggler_test_config(cpl::Layout::kSequential, true, Straggler::kIce);
    // Scale the stall so the straggler rank sleeps ~0.1 s per ice step
    // regardless of the land mask: rank 1 of the 2-way split owns exactly
    // the i >= 24 band.
    const grid::TripolarGrid g(config.ocn.grid);
    std::int64_t band = 0;
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 24; i < g.nx(); ++i)
        if (g.kmt(i, j) > 0) ++band;
    ASSERT_GT(band, 0);
    config.ice.stall_seconds_per_point = 0.1 / static_cast<double>(band);
    // One decision only, at window 4, measuring windows 0–3.
    config.rebalance_every = 2;
    // Floor calibrated between the post-restore-only busy time (~one window,
    // mean ≈ 0.1 s) and the watermark-restored measurement (~five window
    // equivalents, mean ≈ 0.25 s): dropping the checkpointed watermark
    // would leave the restored run below the floor and flip the decision.
    config.rebalance.min_phase_seconds = 0.17;

    cpl::CoupledModel a(comm, {config});
    a.run_windows(3);  // busy accumulates mid-measurement-window
    ASSERT_EQ(a.rebalance_migrations(), 0);
    a.checkpoint(dir.path());
    a.run_windows(3);  // first decision fires at window 4
    const long long a_migrations = a.rebalance_migrations();
    EXPECT_GT(a_migrations, 0) << "uninterrupted run must decide to migrate";
    const std::uint64_t hash_a = a.state_hash();

    // The restored run must reach the same first decision: its measurement
    // window only spans post-restore spans, so the checkpointed busy
    // watermark supplies the missing pre-checkpoint stall seconds.
    cpl::CoupledModel b(comm, {config});
    b.restore(dir.path());
    b.run_windows(3);
    EXPECT_EQ(b.rebalance_migrations(), a_migrations);
    EXPECT_EQ(b.state_hash(), hash_a);
    if (b.has_ice()) {
      EXPECT_EQ(b.ice().cuts(), a.ice().cuts());
    }
  });
}

TEST(CoupledRebalance, CheckpointOnRebalancedLayoutRestoresBitExact) {
  TempDir dir;  // shared across rank threads: checkpoint I/O is collective
  run_ranks(2, [&dir](par::Comm& comm) {
    const cpl::CoupledConfig config =
        rebalance_test_config(cpl::Layout::kSequential, true);

    cpl::CoupledModel a(comm, {config});
    a.run_windows(4);
    EXPECT_GT(a.rebalance_migrations(), 0)
        << "checkpoint must land on a rebalanced decomposition";
    a.checkpoint(dir.path());
    a.run_windows(2);
    const std::uint64_t hash_a = a.state_hash();

    // A fresh model starts on the default decomposition; restore must adopt
    // the checkpointed cuts before reading sections.
    cpl::CoupledModel b(comm, {config});
    b.restore(dir.path());
    b.run_windows(2);
    EXPECT_EQ(b.state_hash(), hash_a);
  });
}

}  // namespace
