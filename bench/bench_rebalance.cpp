// Benchmark: runtime load rebalancing of the coupled ocean decomposition.
//
// Runs the same toy coupled configuration with CoupledConfig::rebalance_every
// off and on, under four load conditions, and reports wall time plus the
// collective state hash for each run. The hash is the bit-exactness witness:
// migrating columns between ranks must not change a single bit of the coupled
// state relative to never migrating at all.
//
// Where the win comes from on this transport: each "-skewed" condition arms
// one component's synthetic straggler stall (<comp>:busy_seconds channel) on
// half of that component's domain, so the rank owning that half sleeps off a
// fixed busy-time per step while its neighbor idles in waits. The balancer
// reads the per-rank phase+busy cost from the obs layer and, for a migratable
// component (ocn, ice), shifts the block cut toward the straggler and
// migrates the columns; after that the stall band is split across the ranks,
// whose sleeps overlap in wall time, so the per-step critical path roughly
// halves. The atm-skewed condition is the negative control for migratability:
// the atmosphere's contiguous 1-D mesh partition has no cut lines to shift,
// so the balancer must assess the imbalance through the same decision channel
// yet never migrate. The "uniform" condition runs with no stall anywhere: the
// balancer must recognize the balanced load and never migrate
// (migrations == 0), and the measured speedup is the honest no-win baseline.
//
// Prints a table and writes BENCH_rebalance.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "coupler/driver.hpp"
#include "par/comm.hpp"

namespace {

using namespace ap3;

constexpr int kRanks = 2;
constexpr int kReps = 3;
constexpr int kWindows = 6;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Skew { kNone, kOcn, kIce, kAtm };

cpl::CoupledConfig bench_config(bool rebalance, Skew skew) {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 5;  // 500 cells
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{48, 32, 6};
  config.ocn_couple_ratio = 1;
  // Straggler band on half of one component's domain: waiting-dominated
  // imbalance (I/O stalls, fault retransmissions) that leaves state alone.
  switch (skew) {
    case Skew::kNone:
      break;
    case Skew::kOcn:
      config.ocn.stall_seconds_per_point = 4.0e-6;
      config.ocn.stall_i_begin = 24;
      break;
    case Skew::kIce:
      // Ice steps once per coupling window, so the per-point stall must be
      // larger than the ocean's per-baroclinic-step one to dominate the
      // window the same way.
      config.ice.stall_seconds_per_point = 1.0e-3;
      config.ice.stall_i_begin = 24;
      break;
    case Skew::kAtm:
      config.atm.stall_seconds_per_point = 4.0e-4;
      config.atm.stall_cell_begin = 250;  // the whole second half of the mesh
      break;
  }
  if (rebalance) {
    config.rebalance_every = 1;
    // Stock hysteresis policy: the skewed conditions must clear the 1.15×
    // imbalance gate on merit, and the uniform condition must not.
  }
  return config;
}

struct RunResult {
  double best_seconds = 1e300;
  std::uint64_t state_hash = 0;
  long long migrations = 0;
};

/// One timed run: wall time over kWindows coupled windows plus the final
/// collective state hash (identical across reps — the whole run is
/// deterministic by construction).
RunResult run_once(bool rebalance, Skew skew) {
  std::atomic<double> wall{0.0};
  std::atomic<std::uint64_t> hash{0};
  std::atomic<long long> migrations{0};
  par::run(kRanks, [&](par::Comm& comm) {
    cpl::CoupledModel model(comm, {bench_config(rebalance, skew)});
    comm.barrier();
    const double t0 = now_seconds();
    model.run_windows(kWindows);
    comm.barrier();
    const double t1 = now_seconds();
    const std::uint64_t h = model.state_hash();  // collective
    if (comm.rank() == 0) {
      wall = t1 - t0;
      hash = h;
      migrations = model.rebalance_migrations();
    }
  });
  return {wall.load(), hash.load(), migrations.load()};
}

}  // namespace

int main() {
  std::printf(
      "coupled rebalance benchmark: %d ranks, %d windows, best of %d\n\n",
      kRanks, kWindows, kReps);

  struct Cell {
    const char* condition;
    Skew skew;
    bool expect_migrations;  // migratable straggler must move; others must not
    RunResult off, on;
  };
  Cell cells[] = {{"ocn-skewed", Skew::kOcn, true, {}, {}},
                  {"ice-skewed", Skew::kIce, true, {}, {}},
                  {"atm-skewed", Skew::kAtm, false, {}, {}},
                  {"uniform", Skew::kNone, false, {}, {}}};
  constexpr std::size_t kCells = sizeof(cells) / sizeof(cells[0]);

  std::printf("  %-10s %16s %15s %9s %11s %10s\n", "condition",
              "rebalance off [s]", "rebalance on [s]", "speedup", "migrations",
              "bit-exact");
  for (Cell& cell : cells) {
    // Interleave the off/on runs rep by rep so ambient machine drift hits
    // both modes equally; best-of-kReps per mode on top of that.
    for (int rep = 0; rep < kReps; ++rep) {
      const RunResult off = run_once(/*rebalance=*/false, cell.skew);
      const RunResult on = run_once(/*rebalance=*/true, cell.skew);
      cell.off.best_seconds = std::min(cell.off.best_seconds, off.best_seconds);
      cell.on.best_seconds = std::min(cell.on.best_seconds, on.best_seconds);
      cell.off.state_hash = off.state_hash;
      cell.on.state_hash = on.state_hash;
      cell.on.migrations = on.migrations;
    }
    const double speedup = cell.off.best_seconds / cell.on.best_seconds;
    const bool exact = cell.off.state_hash == cell.on.state_hash;
    std::printf("  %-10s %16.4f %15.4f %8.3fx %11lld %10s\n", cell.condition,
                cell.off.best_seconds, cell.on.best_seconds, speedup,
                cell.on.migrations, exact ? "yes" : "NO");
    if (!exact) {
      std::fprintf(stderr,
                   "error: rebalancing changed the coupled state under %s "
                   "(%016llx vs %016llx)\n",
                   cell.condition,
                   static_cast<unsigned long long>(cell.off.state_hash),
                   static_cast<unsigned long long>(cell.on.state_hash));
      return 1;
    }
    if (cell.expect_migrations && cell.on.migrations <= 0) {
      std::fprintf(stderr,
                   "error: %s never migrated — benchmark vacuous\n",
                   cell.condition);
      return 1;
    }
    if (!cell.expect_migrations && cell.on.migrations != 0) {
      std::fprintf(stderr,
                   "error: %s migrated %lld times — %s\n", cell.condition,
                   cell.on.migrations,
                   cell.skew == Skew::kAtm
                       ? "the atmosphere has no cut lines to shift"
                       : "hysteresis gate failed");
      return 1;
    }
  }

  const double headline = cells[0].off.best_seconds / cells[0].on.best_seconds;
  const double ice_speedup =
      cells[1].off.best_seconds / cells[1].on.best_seconds;
  std::printf("\nheadline (ocn-skewed): %.3fx, ice-skewed: %.3fx from "
              "migrating the straggler band across ranks\n",
              headline, ice_speedup);

  FILE* f = std::fopen("BENCH_rebalance.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"ranks\": %d,\n  \"windows\": %d,\n  \"cases\": [\n",
                 kRanks, kWindows);
    for (std::size_t c = 0; c < kCells; ++c) {
      const Cell& cell = cells[c];
      std::fprintf(
          f,
          "    {\"condition\": \"%s\", \"off_seconds\": %.6f, "
          "\"on_seconds\": %.6f, \"speedup\": %.4f, "
          "\"state_hash_off\": \"%016llx\", \"state_hash_on\": \"%016llx\", "
          "\"hashes_equal\": %s, \"migrations\": %lld}%s\n",
          cell.condition, cell.off.best_seconds, cell.on.best_seconds,
          cell.off.best_seconds / cell.on.best_seconds,
          static_cast<unsigned long long>(cell.off.state_hash),
          static_cast<unsigned long long>(cell.on.state_hash),
          cell.off.state_hash == cell.on.state_hash ? "true" : "false",
          cell.on.migrations, c + 1 < kCells ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"skewed_speedup\": %.4f,\n"
                 "  \"ice_skewed_speedup\": %.4f\n"
                 "}\n",
                 headline, ice_speedup);
    std::fclose(f);
    std::printf("wrote BENCH_rebalance.json\n");
  }
  return 0;
}
