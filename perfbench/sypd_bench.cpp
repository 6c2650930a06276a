// Coupled-SYPD benchmark: drives cpl::CoupledModel from outside, through its
// public API, at one of three pinned workloads and prints one JSON result
// line (the last line of standard output).
//
//   sypd_bench --workload ocean_r4|ocean_r1|ai_coupled --seed N --seconds S
//              --trace 0|1 --workdir DIR [--expect-hash HEX]
//
// --trace 0 reports the end-to-end metrics from untraced reps: observability
// is off and the benchmark's own steady clock times the window loop between
// comm.barrier()s. --trace 1 alternates untraced and traced reps and reports
// the per-layer ledger: span self times and counters the program records,
// plus direct timings of single layers' public functions; it also writes the
// traced rep's Chrome trace and a ledger JSON into DIR. Every run starts
// with an untimed control rep (seed 0) whose final state hash must equal the
// hash pinned for the workload; --expect-hash overrides that pin (the
// self-check uses it to show a wrong hash is caught). README.md in this
// directory documents the workloads and the metric -> layer map.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ai/engine.hpp"
#include "ai/suite.hpp"
#include "atm/physics.hpp"
#include "base/constants.hpp"
#include "coupler/driver.hpp"
#include "grid/halo.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "ocn/model.hpp"
#include "par/comm.hpp"

#ifndef AP3_BENCH_BUILD_TYPE
#define AP3_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ap3;
using SteadyClock = std::chrono::steady_clock;

#if defined(AP3_SANITIZE_BUILD) || !defined(__OPTIMIZE__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Seconds on the process-wide steady clock, comparable across rank threads.
double clock_seconds() {
  return std::chrono::duration<double>(SteadyClock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- metrics ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --self-check compares them).
constexpr MetricDef kEndToEnd[] = {
    {"sypd", "yr/day"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ckpt_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"cpl.run_s", "s"},
    {"cpl.ocn_phase_s", "s"},
    {"cpl.atm_ice_phase_s", "s"},
    {"cpl.self_s", "s"},
    {"cpl.unattributed_s", "s"},
    {"ocn.run_s", "s"},
    {"ocn.steps", "count"},
    {"ocn.tracer_s", "s"},
    {"ocn.ns_per_point_step", "ns"},
    {"ocn.gflops_est", "GFLOP/s"},
    {"grid.halo_us", "us"},
    {"grid.halo_msgs_per_call", "count"},
    {"grid.halo_calls_est", "count"},
    {"grid.halo_share_est", "fraction"},
    {"par.p2p_msgs", "msgs/day"},
    {"par.bytes", "B/day"},
    {"par.coll_calls", "calls/day"},
    {"atm.run_s", "s"},
    {"atm.steps", "count"},
    {"atm.self_s", "s"},
    {"ai.engine_s", "s"},
    {"ai.cnn_s", "s"},
    {"ai.mlp_s", "s"},
    {"ai.columns", "count"},
    {"ai.columns_per_s", "1/s"},
    {"ai.infer_cols_per_s", "1/s"},
    {"pp.items", "count"},
    {"pp.launches", "count"},
    {"pp.pack_tiles", "count"},
    {"ice.run_s", "s"},
    {"mct.rearrange_s", "s"},
    {"mct.regrid_a2o_us", "us"},
    {"mct.rearrange_o2i_us", "us"},
    {"io.ckpt_bytes", "B"},
    {"io.gather_s", "s"},
    {"io.write_s", "s"},
    {"io.write_mb_per_s", "MB/s"},
    {"io.restore_s", "s"},
    {"obs.trace_overhead", "fraction"},
    {"obs.dropped_events", "count"},
    {"obs.sypd_report_delta", "fraction"},
};

// --- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  int ranks = 1;
  int windows = 0;      ///< per rep; a whole number of ocean coupling windows
  int ckpt_every = 0;   ///< sync checkpoint every N windows in the loop (0: none)
  int post_ckpts = 0;   ///< sync checkpoints after the loop, outside sypd
  bool ai = false;      ///< install the toy AI physics suite
  std::uint64_t pinned_hash = 0;  ///< control (seed 0) hash after `windows`
  cpl::CoupledConfig config;
};

/// Quickstart's pinned config: atm mesh_n 6 x 10 levels, ocean tripolar
/// 48x36x10, ocean coupling every 5 windows, sequential, overlap off,
/// conventional physics, every kernel on kSerial.
cpl::CoupledConfig ocean_config() {
  cpl::CoupledConfig c;
  c.atm.mesh_n = 6;
  c.atm.nlev = 10;
  c.ocn.grid = grid::TripolarConfig{48, 36, 10};
  c.layout = cpl::Layout::kSequential;
  c.overlap = false;
  c.ocn_couple_ratio = 5;
  return c;
}

/// AI-dominated config: a finer, deeper atmosphere over a small ocean that
/// couples every window.
cpl::CoupledConfig ai_config() {
  cpl::CoupledConfig c;
  c.atm.mesh_n = 16;
  c.atm.nlev = 30;
  c.ocn.grid = grid::TripolarConfig{24, 18, 6};
  c.layout = cpl::Layout::kSequential;
  c.overlap = false;
  c.ocn_couple_ratio = 1;
  return c;
}

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ocean_r4" || name == "ocean_r1") {
    w.ranks = name == "ocean_r4" ? 4 : 1;
    w.windows = 10;
    w.post_ckpts = 8;
    w.pinned_hash =
        name == "ocean_r4" ? 0x72cb9456d740b843ull : 0x86e81d6710a1989cull;
    w.config = ocean_config();
    return w;
  }
  if (name == "ai_coupled") {
    w.ranks = 4;
    w.windows = 16;
    w.ckpt_every = 2;
    w.ai = true;
    w.pinned_hash = 0xdc6899605bfb437eull;
    w.config = ai_config();
    return w;
  }
  return std::nullopt;
}

/// The toy AI suite of quickstart: 16 x 4 training columns, 6 epochs,
/// cnn_hidden 8, mlp_hidden 16. Every rank trains the same suite
/// deterministically; the training columns double as the fixed inference
/// batch of the direct engine timing.
struct AiKit {
  atm::TrainingData data;
  std::shared_ptr<ai::AiPhysicsSuite> suite;
};

AiKit train_suite(const cpl::CoupledConfig& config) {
  atm::ConventionalPhysics conventional;
  AiKit kit;
  kit.data = atm::generate_training_data(
      conventional, 16, 4, static_cast<std::size_t>(config.atm.nlev), 11,
      config.atm.model_dt_seconds());
  ai::SuiteConfig suite_config;
  suite_config.levels = config.atm.nlev;
  suite_config.cnn_hidden = 8;
  suite_config.mlp_hidden = 16;
  kit.suite = atm::train_ai_physics(kit.data, suite_config, 6, 3e-3f).suite;
  return kit;
}

// --- span ledger ----------------------------------------------------------------

struct SpanTotals {
  long long calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time its child spans cover
};
using SpanTable = std::map<std::string, SpanTotals>;
using Counters = std::map<std::string, obs::CounterValue>;

/// Per-name totals and self times of one rank's span events. Events arrive
/// in completion order and nest by depth, so every child closes before its
/// parent: the child time pending at depth d+1 belongs to the next span
/// that closes at depth d.
SpanTable span_table(const obs::RankBuffer& buffer) {
  const std::vector<obs::SpanEvent> events = buffer.events();
  const std::vector<std::string> names = buffer.names();
  std::vector<double> child(2, 0.0);
  SpanTable table;
  for (const obs::SpanEvent& e : events) {
    const std::size_t d = e.depth;
    if (child.size() < d + 2) child.resize(d + 2, 0.0);
    const double dur = e.end_seconds - e.start_seconds;
    SpanTotals& t = table[names[e.name_id]];
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - child[d + 1];
    child[d + 1] = 0.0;
    child[d] += dur;
  }
  return table;
}

double span_total(const SpanTable& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_s;
}

double span_self(const SpanTable& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_s;
}

double counter_value(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second.value;
}

/// Sum of every counter whose name starts with `prefix`.
double counter_family(const Counters& c, const std::string& prefix) {
  double sum = 0.0;
  for (auto it = c.lower_bound(prefix);
       it != c.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it)
    sum += it->second.value;
  return sum;
}

/// Collective observability toggle: rank 0 flips the process-wide switch
/// while every rank waits, so no rank records half a phase.
void set_obs(const par::Comm& comm, bool on, bool reset) {
  comm.barrier();
  if (comm.rank() == 0) {
    if (reset) obs::reset_all();
    obs::set_enabled(on);
  }
  comm.barrier();
}

/// Median microseconds of `n` back-to-back calls of a collective `fn`.
double median_call_us(const par::Comm& comm, int n,
                      const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(n));
  comm.barrier();
  for (int i = 0; i < n; ++i) {
    const auto t0 = SteadyClock::now();
    fn();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(std::move(us));
}

// --- one rep --------------------------------------------------------------------

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// What one rank measured in one rep (reduced over ranks by run_rep).
struct RankOut {
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::vector<Interval> ckpt;  ///< start and end of each sync checkpoint
  double ocn_flops = 0.0;  ///< traced: computed ocean flops over the loop
  std::map<std::string, double> layer;  ///< traced: per-rank layer metrics
  SpanTable spans;                      ///< traced: the loop's span ledger
  std::uint64_t dropped_events = 0;
};

/// One rep reduced over ranks (max, the getTiming convention).
struct RepResult {
  double setup_s = 0.0;
  double sypd = 0.0;
  double sypd_report = 0.0;  ///< traced: timing_summary().sypd()
  std::vector<double> ckpt_s;
  std::uint64_t hash = 0;           ///< state hash after the loop
  std::uint64_t restored_hash = 0;  ///< state hash after restore()
  cpl::CoupledDiagnostics diag;
  std::map<std::string, double> layer;  ///< traced
  SpanTable spans;                      ///< traced
  std::uint64_t dropped_events = 0;     ///< traced, summed over ranks
};

void timed_checkpoint(cpl::CoupledModel& model, const std::string& dir,
                      std::vector<Interval>& out) {
  const double start = clock_seconds();
  model.checkpoint(dir);
  out.push_back({start, clock_seconds()});
}

/// The loop the sypd clock covers: `windows` master windows, with a sync
/// checkpoint every `ckpt_every` windows when the workload asks for one.
void run_loop(cpl::CoupledModel& model, const Workload& w,
              const std::string& ckpt_dir, std::vector<Interval>& ckpt) {
  if (w.ckpt_every == 0) {
    model.run_windows(w.windows);
    return;
  }
  for (int done = 0; done < w.windows; done += w.ckpt_every) {
    model.run_windows(w.ckpt_every);
    timed_checkpoint(model, ckpt_dir, ckpt);
  }
}

/// Model-side work counts over the loop.
struct LoopCounts {
  long long ocn_steps = 0;
  long long atm_steps = 0;
  long long column_iters = 0;
};

LoopCounts loop_counts(cpl::CoupledModel& model) {
  return {model.ocn().baroclinic_steps(), model.atm().model_steps(),
          model.ocn().column_iterations()};
}

/// Per-rank layer metrics of the traced loop. `spans`/`counters` cover the
/// window loop only; `io_spans`/`io_counters` add the post-loop checkpoints
/// and the restore.
void loop_layers(const SpanTable& spans, const Counters& counters,
                 const SpanTable& io_spans, const Counters& io_counters,
                 double sim_days, const LoopCounts& n,
                 std::map<std::string, double>& m) {
  const double run = span_total(spans, "run");
  const double ocn_phase = span_total(spans, "run:ocn_phase");
  const double atm_ice_phase = span_total(spans, "run:atm_ice_phase");
  const double ocn_run = span_total(spans, "run:ocn_phase:ocn_run");
  const double atm_run = span_total(spans, "run:atm_ice_phase:atm_run");
  const double ice_run = span_total(spans, "run:atm_ice_phase:ice_run");
  const double engine = span_total(spans, "ai:engine:run");
  m["cpl.run_s"] = run;
  m["cpl.ocn_phase_s"] = ocn_phase;
  m["cpl.atm_ice_phase_s"] = atm_ice_phase;
  m["cpl.self_s"] = (ocn_phase - ocn_run) + (atm_ice_phase - atm_run - ice_run);
  m["cpl.unattributed_s"] =
      run - ocn_phase - atm_ice_phase - span_total(spans, "run:rebalance");

  m["ocn.run_s"] = ocn_run;
  m["ocn.steps"] = static_cast<double>(n.ocn_steps);
  m["ocn.tracer_s"] = span_total(spans, "ocn:advect_diffuse:packed") +
                      span_total(spans, "ocn:advect_diffuse");
  m["ocn.ns_per_point_step"] =
      n.column_iters > 0 ? ocn_run * 1e9 / static_cast<double>(n.column_iters)
                         : 0.0;

  m["par.p2p_msgs"] = counter_value(counters, "par:p2p:messages") / sim_days;
  m["par.bytes"] = counter_value(counters, "par:bytes:total") / sim_days;
  m["par.coll_calls"] = counter_family(counters, "par:coll:calls[") / sim_days;

  m["atm.run_s"] = atm_run;
  m["atm.steps"] = static_cast<double>(n.atm_steps);
  m["atm.self_s"] = atm_run - engine;

  const double columns = counter_value(counters, "ai:engine:columns");
  m["ai.engine_s"] = engine;
  m["ai.cnn_s"] = span_total(spans, "ai:engine:cnn");
  m["ai.mlp_s"] = span_total(spans, "ai:engine:mlp");
  m["ai.columns"] = columns;
  m["ai.columns_per_s"] = engine > 0.0 ? columns / engine : 0.0;
  m["pp.items"] = counter_family(counters, "pp:items:");
  m["pp.launches"] = counter_family(counters, "pp:launches:");
  m["pp.pack_tiles"] = counter_value(counters, "pp:pack:tiles");

  m["ice.run_s"] = ice_run;

  double rearrange = 0.0;
  for (const auto& [name, t] : spans)
    if (name.rfind("mct:rearrange:", 0) == 0) rearrange += t.total_s;
  m["mct.rearrange_s"] = rearrange;

  const double writes = counter_value(io_counters, "ckpt:writes");
  const double bytes = counter_value(io_counters, "ckpt:bytes");
  // A sync checkpoint's encode and file writes carry no span of their own:
  // they are the "checkpoint" span's self time, next to its gathers.
  const double gather = span_total(io_spans, "io:subfile:gather");
  const double write = span_self(io_spans, "checkpoint");
  m["io.ckpt_bytes"] = writes > 0.0 ? bytes / writes : 0.0;
  m["io.gather_s"] = writes > 0.0 ? gather / writes : 0.0;
  m["io.write_s"] = writes > 0.0 ? write / writes : 0.0;
  m["io.write_mb_per_s"] = write > 0.0 ? bytes / write / 1e6 : 0.0;
  m["io.restore_s"] = span_total(io_spans, "restore");
}

/// Direct timings of single layers' public functions, on the model a traced
/// rep has finished with (its state no longer matters). Collective.
void direct_layers(const par::Comm& comm, cpl::CoupledModel& model,
                   AiKit* kit, const Workload& w, long long loop_ocn_steps,
                   std::map<std::string, double>& m) {
  // grid: one BlockHalo on the ocean's own cuts, north fold on. Messages
  // per call and per ocean step are counted with obs on for one call each.
  ocn::OcnModel& ocean = model.ocn();
  const grid::TripolarConfig& g = ocean.config().grid;
  grid::BlockHalo halo(comm, g.nx, g.ny, ocean.cuts(), true);
  std::vector<double> field(static_cast<std::size_t>(halo.ny_local() + 2) *
                                static_cast<std::size_t>(halo.nx_local() + 2),
                            1.0);
  set_obs(comm, true, false);
  double msgs = obs::local().counter("par:p2p:messages");
  halo.exchange(field);
  const double msgs_per_call = obs::local().counter("par:p2p:messages") - msgs;
  msgs = obs::local().counter("par:p2p:messages");
  ocean.run(0.0, ocean.config().baroclinic_dt_seconds());  // one step
  const double msgs_per_step = obs::local().counter("par:p2p:messages") - msgs;
  set_obs(comm, false, false);

  const double halo_us =
      median_call_us(comm, 2000, [&] { halo.exchange(field); });
  const double loop_calls =
      msgs_per_call > 0.0
          ? msgs_per_step / msgs_per_call * static_cast<double>(loop_ocn_steps)
          : 0.0;
  const double ocn_windows =
      static_cast<double>(w.windows / w.config.ocn_couple_ratio);
  const double ocn_run = m["ocn.run_s"];
  m["grid.halo_us"] = halo_us;
  m["grid.halo_msgs_per_call"] = msgs_per_call;
  m["grid.halo_calls_est"] = loop_calls / ocn_windows;
  m["grid.halo_share_est"] =
      ocn_run > 0.0 ? loop_calls * halo_us * 1e-6 / ocn_run : 0.0;

  // mct: the coupler's own plans, the a2o regrid and the o2i rearrange.
  const cpl::CouplingPlans& plans = *model.coupling_plans();
  const std::vector<double> atm_src(model.atm().dycore().mesh().num_owned(),
                                    1.0);
  std::vector<double> a2o_out;
  m["mct.regrid_a2o_us"] =
      median_call_us(comm, 200, [&] { a2o_out = plans.a2o->apply(atm_src); });
  mct::AttrVect o2x(ocn::OcnModel::export_fields(), ocean.ocean_gids().size());
  o2x.fill(1.0);
  mct::AttrVect o2i(ocn::OcnModel::export_fields(),
                    model.ice().ocean_gids().size());
  m["mct.rearrange_o2i_us"] =
      median_call_us(comm, 200, [&] { plans.o2i->rearrange(o2x, o2i); });

  // ai: the suite's engine on a fixed batch (the training columns).
  double cols_per_s = 0.0;
  if (kit != nullptr) {
    ai::InferenceEngine& engine = kit->suite->engine();
    const tensor::Tensor& cols = kit->data.columns;
    ai::SuiteOutput out;
    const double us = median_call_us(comm, 20, [&] {
      out = engine.run(cols, kit->data.tskin, kit->data.coszr);
    });
    cols_per_s = static_cast<double>(cols.dim(0)) / (us * 1e-6);
  }
  m["ai.infer_cols_per_s"] = cols_per_s;
}

struct RepOptions {
  bool traced = false;
  std::string ckpt_dir;
  std::string trace_path;  ///< traced: write the Chrome trace here ("" = no)
};

RepResult run_rep(const Workload& w, std::uint64_t seed,
                  const RepOptions& opt) {
  std::vector<RankOut> out(static_cast<std::size_t>(w.ranks));
  RepResult r;
  double sim_seconds = 0.0;
  par::run(w.ranks, [&](par::Comm& comm) {
    RankOut& mine = out[static_cast<std::size_t>(comm.rank())];

    // Set-up: construction plus AI training/install, up to the first window.
    comm.barrier();
    const auto t_setup = SteadyClock::now();
    cpl::ScenarioSpec spec;
    spec.config = w.config;
    spec.perturbation_seed = seed;
    cpl::CoupledModel model(comm, spec);
    std::optional<AiKit> kit;
    if (w.ai) {
      kit = train_suite(w.config);
      model.install_ai_physics(
          cpl::AiInstallOptions{kit->suite, ai::EngineConfig{}, std::nullopt});
    }
    mine.setup_s = seconds_since(t_setup);
    if (comm.rank() == 0) sim_seconds = w.windows * model.atm_window_seconds();

    // The timed window loop; a traced rep records spans over it only.
    if (opt.traced) set_obs(comm, true, true);
    const LoopCounts before = loop_counts(model);
    comm.barrier();
    const auto t_loop = SteadyClock::now();
    run_loop(model, w, opt.ckpt_dir, mine.ckpt);
    comm.barrier();
    mine.loop_s = seconds_since(t_loop);
    const LoopCounts after = loop_counts(model);

    SpanTable loop_spans;
    Counters loop_counters;
    if (opt.traced) {
      loop_spans = span_table(obs::local());
      loop_counters = obs::local().counters();
      const double sypd_report = model.timing_summary().sypd();  // collective
      if (comm.rank() == 0) r.sypd_report = sypd_report;
    }

    // Correctness witnesses (collective), then the restore round trip from
    // the last checkpoint, which holds the final state.
    const std::uint64_t hash = model.state_hash();
    const cpl::CoupledDiagnostics diag = model.diagnostics();
    for (int i = 0; i < w.post_ckpts; ++i) {
      comm.barrier();
      timed_checkpoint(model, opt.ckpt_dir, mine.ckpt);
    }
    model.restore(opt.ckpt_dir);
    const std::uint64_t restored = model.state_hash();
    if (comm.rank() == 0) {
      r.hash = hash;
      r.diag = diag;
      r.restored_hash = restored;
    }
    if (!opt.traced) return;

    const SpanTable io_spans = span_table(obs::local());
    const Counters io_counters = obs::local().counters();
    mine.dropped_events = obs::local().dropped_events();
    set_obs(comm, false, false);
    if (comm.rank() == 0 && !opt.trace_path.empty())
      obs::write_chrome_trace(opt.trace_path);
    comm.barrier();

    const LoopCounts n{after.ocn_steps - before.ocn_steps,
                       after.atm_steps - before.atm_steps,
                       after.column_iters - before.column_iters};
    const double sim_days = static_cast<double>(w.windows) *
                            model.atm_window_seconds() /
                            constants::kSecondsPerDay;
    loop_layers(loop_spans, loop_counters, io_spans, io_counters, sim_days, n,
                mine.layer);
    // ocn.gflops_est is computed, not counted: the model's published
    // per-point flop densities times this rank's block times the steps.
    const ocn::OcnModel& ocean = model.ocn();
    const ocn::OcnConfig& oc = ocean.config();
    mine.ocn_flops =
        static_cast<double>(n.ocn_steps) *
        static_cast<double>(ocean.nx_local()) *
        static_cast<double>(ocean.ny_local()) *
        (ocn::OcnModel::barotropic_flops_per_point() *
             oc.barotropic_substeps +
         (ocn::OcnModel::baroclinic_flops_per_point_level() +
          ocn::OcnModel::tracer_flops_per_point_level()) *
             oc.grid.nz);
    mine.spans = std::move(loop_spans);
    direct_layers(comm, model, kit ? &*kit : nullptr, w, n.ocn_steps,
                  mine.layer);
  });

  double loop_s = 0.0;
  double flops = 0.0;
  for (const RankOut& o : out) {
    r.setup_s = std::max(r.setup_s, o.setup_s);
    loop_s = std::max(loop_s, o.loop_s);
    for (const auto& [k, v] : o.layer) r.layer[k] = std::max(r.layer[k], v);
    for (const auto& [k, s] : o.spans) {
      SpanTotals& t = r.spans[k];
      t.calls = std::max(t.calls, s.calls);
      t.total_s = std::max(t.total_s, s.total_s);
      t.self_s = std::max(t.self_s, s.self_s);
    }
    flops += o.ocn_flops;
    r.dropped_events += o.dropped_events;
  }
  // A checkpoint is collective: it runs from the last rank's arrival to the
  // last rank's return, so ranks arriving early do not charge their wait.
  for (std::size_t i = 0; i < out.front().ckpt.size(); ++i) {
    double start = 0.0, end = 0.0;
    for (const RankOut& o : out) {
      start = std::max(start, o.ckpt[i].start);
      end = std::max(end, o.ckpt[i].end);
    }
    r.ckpt_s.push_back(end - start);
  }
  r.sypd = (sim_seconds / constants::kSecondsPerYear) /
           (loop_s / constants::kSecondsPerDay);
  if (opt.traced) {
    const double ocn_run = r.layer["ocn.run_s"];
    r.layer["ocn.gflops_est"] = ocn_run > 0.0 ? flops / ocn_run / 1e9 : 0.0;
  }
  return r;
}

// --- checks, context, output ----------------------------------------------------

/// Operations attempted and failed; every correctness check is one.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The per-rep witnesses: the final hash, finite diagnostics with a
/// plausible mean SST, and a restore that reproduces the checkpointed state.
void check_rep(const RepResult& r, std::uint64_t expected_hash,
               const std::string& label, Tally& tally) {
  tally.check(r.hash == expected_hash, label + ": state hash " + hex(r.hash) +
                                           " != expected " +
                                           hex(expected_hash));
  const cpl::CoupledDiagnostics& d = r.diag;
  const bool finite =
      std::isfinite(d.mean_sst_k) && std::isfinite(d.mean_precip) &&
      std::isfinite(d.ice_fraction) && std::isfinite(d.max_surface_current);
  tally.check(finite && d.mean_sst_k >= 271.0 && d.mean_sst_k <= 320.0,
              label + ": diagnostics not finite or mean SST " +
                  std::to_string(d.mean_sst_k) + " K outside [271, 320]");
  tally.check(r.restored_hash == r.hash,
              label + ": restore() gave hash " + hex(r.restored_hash) +
                  ", checkpoint held " + hex(r.hash));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  std::optional<std::uint64_t> expect_hash;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
      if (a.trace != 0 && a.trace != 1) return false;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--expect-hash") {
      a.expect_hash = std::strtoull(v, &end, 16);
    } else {
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) return false;
  }
  return !a.workload.empty() && !a.workdir.empty();
}

/// The run-context record: where and how the numbers were taken.
std::string context_json(const Args& a, const Workload& w) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << a.seed
     << ", \"trace\": " << a.trace << ", \"ranks\": " << w.ranks
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"build_type\": " << json_string(AP3_BENCH_BUILD_TYPE)
     << ", \"optimized\": " << (kTimingBuild ? "true" : "false")
     << ", \"llc_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE) << "}";
  return os.str();
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t ndefs) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = values.find(defs[i].name);
    os << (i ? ", " : "") << json_string(defs[i].name)
       << ": {\"value\": "
       << json_number(it == values.end() ? 0.0 : it->second)
       << ", \"unit\": " << json_string(defs[i].unit) << '}';
  }
  os << '}';
  return os.str();
}

/// The traced run's ledger beside its Chrome trace: context, the per-layer
/// medians, and every span of the first traced rep with its self time.
void write_ledger(const std::string& path, const std::string& context,
                  const std::string& layers, const SpanTable& spans) {
  std::ofstream f(path);
  f << "{\"context\": " << context << ",\n \"per_layer\": " << layers
    << ",\n \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : spans) {
    f << (first ? "\n  " : ",\n  ") << json_string(name)
      << ": {\"calls\": " << t.calls << ", \"total_s\": "
      << json_number(t.total_s) << ", \"self_s\": " << json_number(t.self_s)
      << '}';
    first = false;
  }
  f << "\n }}\n";
}

void print_spans(const SpanTable& spans) {
  std::printf("\n  %-36s %8s %12s %12s\n", "span (max over ranks)", "calls",
              "total [s]", "self [s]");
  for (const auto& [name, t] : spans)
    std::printf("  %-36s %8lld %12.6f %12.6f\n", name.c_str(), t.calls,
                t.total_s, t.self_s);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sypd_bench --workload ocean_r4|ocean_r1|ai_coupled "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--expect-hash HEX]\n");
    return 2;
  }
  const std::optional<Workload> found = find_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const std::string context = context_json(args, w);
  std::printf("context %s\n", context.c_str());
  if (!kTimingBuild) {
    // Timings from a sanitizer or unoptimised build are not reported.
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }

  obs::set_enabled(false);
  namespace fs = std::filesystem;
  // One file set per workload: a later traced run replaces the earlier one
  // (the ledger's context records the seed), so repeated runs do not pile up.
  const fs::path work(args.workdir);
  const std::string ckpt_dir = (work / (w.name + "-ckpt")).string();
  const std::string trace_file = (work / (w.name + "-trace.json")).string();
  const std::string ledger_file = (work / (w.name + "-ledger.json")).string();
  fs::create_directories(args.workdir);

  Tally tally;
  std::vector<RepResult> plain, traced;
  try {
    // Untimed control rep: warms caches and lazy set-up, and pins the hash.
    const std::uint64_t pinned = args.expect_hash.value_or(w.pinned_hash);
    const RepResult control = run_rep(w, 0, {false, ckpt_dir, ""});
    check_rep(control, pinned, "control rep", tally);
    std::printf("control rep (seed 0): state hash %s\n",
                hex(control.hash).c_str());

    std::optional<std::uint64_t> first_hash;
    if (args.seed == 0) first_hash = pinned;
    const auto t0 = SteadyClock::now();
    do {
      plain.push_back(run_rep(w, args.seed, {false, ckpt_dir, ""}));
      const RepResult& p = plain.back();
      if (!first_hash) first_hash = p.hash;
      check_rep(p, *first_hash, "rep " + std::to_string(plain.size()), tally);
      std::printf("rep %zu: setup %.4f s, sypd %.3f, ckpt %.4f s, hash %s\n",
                  plain.size(), p.setup_s, p.sypd, median(p.ckpt_s),
                  hex(p.hash).c_str());
      if (args.trace == 1) {
        traced.push_back(run_rep(w, args.seed,
                                 {true, ckpt_dir,
                                  traced.empty() ? trace_file : ""}));
        const RepResult& t = traced.back();
        check_rep(t, *first_hash, "traced rep " + std::to_string(traced.size()),
                  tally);
        std::printf("traced rep %zu: sypd %.3f (report %.3f)\n", traced.size(),
                    t.sypd, t.sypd_report);
      }
    } while (seconds_since(t0) < args.seconds);
  } catch (const std::exception& e) {
    tally.check(false, std::string("exception: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);

  std::map<std::string, double> values;
  auto collect = [](const std::vector<RepResult>& reps, auto get) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(get(r));
    return median(std::move(v));
  };
  std::string metrics;
  if (args.trace == 0) {
    std::vector<double> ckpt;
    for (const RepResult& r : plain)
      ckpt.insert(ckpt.end(), r.ckpt_s.begin(), r.ckpt_s.end());
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    values["sypd"] = collect(plain, [](const RepResult& r) { return r.sypd; });
    values["setup_s"] =
        collect(plain, [](const RepResult& r) { return r.setup_s; });
    values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    values["ckpt_s"] = median(std::move(ckpt));
    metrics = metrics_json(values, kEndToEnd, std::size(kEndToEnd));
  } else {
    for (const MetricDef& d : kPerLayer) {
      const std::string name = d.name;
      values[name] = collect(traced, [&](const RepResult& r) {
        const auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second;
      });
    }
    const double plain_sypd =
        collect(plain, [](const RepResult& r) { return r.sypd; });
    const double traced_sypd =
        collect(traced, [](const RepResult& r) { return r.sypd; });
    values["obs.trace_overhead"] =
        traced_sypd > 0.0 ? plain_sypd / traced_sypd - 1.0 : 0.0;
    values["obs.sypd_report_delta"] = collect(traced, [](const RepResult& r) {
      return std::abs(r.sypd_report - r.sypd) / r.sypd;
    });
    double dropped = 0.0;
    for (const RepResult& r : traced)
      dropped = std::max(dropped, static_cast<double>(r.dropped_events));
    values["obs.dropped_events"] = dropped;
    tally.check(dropped == 0.0, "traced reps dropped span events");
    metrics = metrics_json(values, kPerLayer, std::size(kPerLayer));
    if (!traced.empty()) {
      print_spans(traced.front().spans);
      write_ledger(ledger_file, context, metrics, traced.front().spans);
      std::printf("ledger: %s\ntrace:  %s\n", ledger_file.c_str(),
                  trace_file.c_str());
    }
  }
  for (const auto& [name, v] : values)
    std::printf("  %-26s %.6g\n", name.c_str(), v);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics.c_str());
  return tally.failed == 0 ? 0 : 1;
}
