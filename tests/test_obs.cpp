// Tests for the unified observability layer (src/obs): RAII span nesting,
// the enabled/disabled toggle, counter determinism across execution spaces,
// traffic accounting for par collectives, the cross-rank merge collective,
// the getTiming report built on it (CoupledModel::timing_summary), and the
// Chrome-trace exporter (round-tripped through a real coupled-model run, the
// quickstart --trace path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/constants.hpp"
#include "coupler/driver.hpp"
#include "obs/export.hpp"
#include "obs/merge.hpp"
#include "obs/obs.hpp"
#include "par/comm.hpp"
#include "pp/exec.hpp"
#include "sunway/athread.hpp"

namespace {

using namespace ap3;

void fresh_obs() {
  obs::set_enabled(true);
  obs::reset_all();
}

cpl::CoupledConfig tiny_coupled_config() {
  cpl::CoupledConfig config;
  config.atm.mesh_n = 4;
  config.atm.nlev = 4;
  config.ocn.grid = grid::TripolarConfig{32, 24, 4};
  return config;
}

// --- minimal recursive-descent JSON validator --------------------------------

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  explicit JsonParser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool consume(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool parse_string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  bool parse_number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      digits = true;
      ++i;
    }
    return digits && i > start;
  }
  bool parse_literal(const char* lit) {
    ws();
    const std::size_t n = std::string(lit).size();
    if (s.compare(i, n, lit) == 0) {
      i += n;
      return true;
    }
    return false;
  }
  bool parse_value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }
  bool parse_object() {
    if (!consume('{')) return false;
    ws();
    if (consume('}')) return true;
    for (;;) {
      if (!parse_string() || !consume(':') || !parse_value()) return false;
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool parse_array() {
    if (!consume('[')) return false;
    ws();
    if (consume(']')) return true;
    for (;;) {
      if (!parse_value()) return false;
      if (consume(',')) continue;
      return consume(']');
    }
  }
  bool parse_document() {
    if (!parse_value()) return false;
    ws();
    return i == s.size();
  }
};

std::size_t count_occurrences(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + what.size()))
    ++count;
  return count;
}

}  // namespace

// --- spans -------------------------------------------------------------------

TEST(ObsSpan, NestingRecordsDepthsAndContainment) {
  fresh_obs();
  {
    AP3_SPAN("outer");
    {
      AP3_SPAN("outer:inner");
    }
    {
      AP3_SPAN("outer:inner");
    }
  }
  const auto events = obs::local().events();
  const auto names = obs::local().names();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: the two inners first, the outer last.
  EXPECT_EQ(names[events[0].name_id], "outer:inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(names[events[1].name_id], "outer:inner");
  EXPECT_EQ(names[events[2].name_id], "outer");
  EXPECT_EQ(events[2].depth, 0u);
  // Inner spans lie within the outer span's interval.
  for (int e = 0; e < 2; ++e) {
    EXPECT_GE(events[e].start_seconds, events[2].start_seconds);
    EXPECT_LE(events[e].end_seconds, events[2].end_seconds);
  }
  // Aggregation: inner called twice, total bounded by outer.
  for (const auto& agg : obs::local().aggregate_spans()) {
    if (agg.name == "outer:inner") {
      EXPECT_EQ(agg.calls, 2);
    } else if (agg.name == "outer") {
      EXPECT_EQ(agg.calls, 1);
    }
  }
}

TEST(ObsSpan, DisabledRecordsNothing) {
  fresh_obs();
  obs::set_enabled(false);
  {
    AP3_SPAN("ghost");
  }
  obs::counter_add("ghost_counter", 5.0);
  obs::gauge_max("ghost_gauge", 5.0);
  pp::parallel_for(pp::RangePolicy(0, 100), [](std::size_t) {});
  EXPECT_EQ(obs::local().event_count(), 0u);
  EXPECT_EQ(obs::local().counter("ghost_counter"), 0.0);
  EXPECT_EQ(obs::local().counter("pp:launches:Serial"), 0.0);
  obs::set_enabled(true);
  {
    AP3_SPAN("visible");
  }
  EXPECT_EQ(obs::local().event_count(), 1u);
}

// --- counters ----------------------------------------------------------------

TEST(ObsCounter, KeyedFamilyAndGauge) {
  fresh_obs();
  obs::counter_add_keyed("bytes:tag", 7, 100.0);
  obs::counter_add_keyed("bytes:tag", 7, 50.0);
  obs::counter_add_keyed("bytes:tag", 8, 1.0);
  EXPECT_DOUBLE_EQ(obs::local().counter("bytes:tag[7]"), 150.0);
  EXPECT_DOUBLE_EQ(obs::local().counter("bytes:tag[8]"), 1.0);
  obs::gauge_max("hwm", 10.0);
  obs::gauge_max("hwm", 4.0);
  EXPECT_DOUBLE_EQ(obs::local().counter("hwm"), 10.0);
  EXPECT_DOUBLE_EQ(obs::total_counter("hwm"), 10.0);
}

TEST(ObsCounter, LaunchCountersDeterministicAcrossExecSpaces) {
  fresh_obs();
  const std::size_t n = 1000;
  std::vector<double> data(n, 1.0);
  const struct {
    pp::ExecSpace space;
    const char* launches;
    const char* items;
  } cases[] = {
      {pp::ExecSpace::kSerial, "pp:launches:Serial", "pp:items:Serial"},
      {pp::ExecSpace::kHostThreads, "pp:launches:HostThreads",
       "pp:items:HostThreads"},
      {pp::ExecSpace::kSunwayCPE, "pp:launches:SunwayCPE",
       "pp:items:SunwayCPE"},
  };
  double sums[3] = {0, 0, 0};
  int c = 0;
  for (const auto& test_case : cases) {
    sums[c++] = pp::parallel_reduce<double>(
        pp::RangePolicy(0, n).on(test_case.space).named("obs_test_reduce"),
        [&](std::size_t i, double& acc) { acc += data[i]; });
    pp::parallel_for(pp::RangePolicy(0, n).on(test_case.space),
                     [&](std::size_t i) { data[i] = data[i]; });
  }
  // Identical results (bit-for-bit discipline) and identical accounting:
  // exactly one reduce + one for launch and n items each, in every space.
  EXPECT_DOUBLE_EQ(sums[0], sums[1]);
  EXPECT_DOUBLE_EQ(sums[0], sums[2]);
  for (const auto& test_case : cases) {
    EXPECT_DOUBLE_EQ(obs::local().counter(test_case.launches), 2.0)
        << test_case.launches;
    EXPECT_DOUBLE_EQ(obs::local().counter(test_case.items), 2.0 * n)
        << test_case.items;
  }
  // The named policy labeled the reduce span.
  bool saw_label = false;
  for (const auto& agg : obs::local().aggregate_spans())
    if (agg.name == "obs_test_reduce") saw_label = true;
  EXPECT_TRUE(saw_label);
}

// --- sunway bridge -----------------------------------------------------------

TEST(ObsSunway, DmaBytesLdmPeakAndSpawnSpans) {
  fresh_obs();
  sunway::DmaEngine dma;
  std::vector<double> host(1024, 2.0);
  std::vector<double> back(1024, 0.0);
  sunway::athread_spawn_join(
      [&](sunway::CpeContext& ctx) {
        const auto range =
            sunway::cpe_partition(host.size(), ctx.cpe_id, ctx.num_cpes);
        const std::size_t count = range.end - range.begin;
        if (count == 0) return;
        double* ldm = ctx.ldm->alloc_array<double>(count);
        ctx.dma->get(ldm, host.data() + range.begin, count * sizeof(double));
        ctx.dma->put(back.data() + range.begin, ldm, count * sizeof(double));
        ctx.ldm->free_last(ldm);
      },
      dma);
  EXPECT_EQ(back, host);
  // obs counters (summed over CPE worker threads) mirror the DMA engine.
  EXPECT_DOUBLE_EQ(obs::total_counter("sunway:dma:bytes"),
                   static_cast<double>(dma.total_bytes()));
  EXPECT_DOUBLE_EQ(obs::total_counter("sunway:dma:transfers"),
                   static_cast<double>(dma.transfers()));
  // LDM high-water gauge: each CPE staged 1024/64 doubles.
  EXPECT_GE(obs::total_counter("sunway:ldm:peak_bytes"),
            1024.0 / 64.0 * sizeof(double));
  EXPECT_DOUBLE_EQ(obs::local().counter("sunway:athread:spawns"), 1.0);
  bool saw_spawn_span = false;
  for (const auto& agg : obs::local().aggregate_spans())
    if (agg.name == "sunway:athread:spawn") saw_spawn_span = true;
  EXPECT_TRUE(saw_spawn_span);
}

// --- par traffic + cross-rank merge ------------------------------------------

TEST(ObsPar, CollectiveTrafficAccountedPerFamily) {
  fresh_obs();
  par::run(3, [](par::Comm& comm) {
    std::vector<double> payload(100, comm.rank() == 0 ? 3.5 : 0.0);
    comm.bcast(std::span<double>(payload), 0);
    std::vector<double> in(10, 1.0), out(10, 0.0);
    comm.reduce(std::span<const double>(in), std::span<double>(out),
                par::ReduceOp::kSum, 0);
    comm.barrier();
    const auto traffic = comm.world().traffic();
    // Second barrier: no rank may start posting merge messages until every
    // rank has snapshotted the traffic totals above.
    comm.barrier();

    const obs::MergedReport report = obs::merge(comm);
    // bcast: root sent 100 doubles to each of 2 peers. Without a topology the
    // algorithm tag is "flat" and every message counts as intra-supernode.
    EXPECT_DOUBLE_EQ(report.counter("par:coll:bytes[bcast/flat/intra]"),
                     2 * 100 * 8.0);
    EXPECT_DOUBLE_EQ(report.counter("par:coll:calls[bcast/flat]"), 3.0);
    // reduce: 2 non-root ranks each sent 10 doubles to root.
    EXPECT_DOUBLE_EQ(report.counter("par:coll:bytes[reduce/flat/intra]"),
                     2 * 10 * 8.0);
    EXPECT_DOUBLE_EQ(report.counter("par:coll:calls[reduce/flat]"), 3.0);
    EXPECT_DOUBLE_EQ(report.counter("par:coll:bytes[bcast/flat/inter]"), 0.0);
    // The obs grand total matches the World's own accounting exactly.
    EXPECT_DOUBLE_EQ(report.counter("par:bytes:total"),
                     static_cast<double>(traffic.bytes));
    EXPECT_DOUBLE_EQ(report.counter("par:messages:total"),
                     static_cast<double>(traffic.messages));
  });
}

TEST(ObsPar, AllreduceAccountsBytesAndPerTagBreakdown) {
  fresh_obs();
  par::run(2, [](par::Comm& comm) {
    (void)comm.allreduce_value(1.0, par::ReduceOp::kSum);
    // User point-to-point traffic keeps its per-tag family.
    if (comm.rank() == 0) {
      comm.send_value(42, 1, /*tag=*/7);
    } else {
      (void)comm.recv_value<int>(0, 7);
    }
    comm.barrier();
    const obs::MergedReport report = obs::merge(comm);
    EXPECT_DOUBLE_EQ(report.counter("par:coll:calls[allreduce/flat]"), 2.0);
    // allreduce = reduce + bcast on this transport; the inner collective's
    // scope owns the bytes, so they land in the reduce/bcast families.
    EXPECT_GT(report.counter("par:coll:bytes[reduce/flat/intra]"), 0.0);
    EXPECT_GT(report.counter("par:coll:bytes[bcast/flat/intra]"), 0.0);
    EXPECT_DOUBLE_EQ(report.counter("par:p2p:bytes:tag[7]"),
                     static_cast<double>(sizeof(int)));
  });
}

TEST(ObsMerge, SumsCountersAndMaxesSpansAcrossRanks) {
  fresh_obs();
  par::run(4, [](par::Comm& comm) {
    obs::counter_add("test:per_rank", comm.rank() + 1.0);
    obs::gauge_max("test:gauge", 10.0 * (comm.rank() + 1));
    {
      AP3_SPAN("test:span");
    }
    const obs::MergedReport report = obs::merge(comm);
    EXPECT_EQ(report.ranks, 4);
    EXPECT_DOUBLE_EQ(report.counter("test:per_rank"), 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(report.counter("test:gauge"), 40.0);  // gauge: max
    bool saw = false;
    for (const auto& span : report.spans) {
      if (span.name != "test:span") continue;
      saw = true;
      EXPECT_EQ(span.calls, 1);
      EXPECT_GE(span.total_max, span.total_mean);
      EXPECT_GT(span.total_max, 0.0);
    }
    EXPECT_TRUE(saw);
    // Every rank computed the identical deterministic report.
    const std::string mine = report.to_string();
    std::vector<char> flat(mine.begin(), mine.end());
    const std::vector<char> all =
        comm.allgatherv(std::span<const char>(flat), nullptr);
    const std::string everyone(all.begin(), all.end());
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(everyone.substr(r * mine.size(), mine.size()), mine);
    }
  });
}

// --- getTiming report ---------------------------------------------------------

// timing_summary() is obs::merge over the spans recorded since construction,
// filtered to the driver's "run" subtree: earlier spans and other namespaces
// stay out, and every phase reduces as max and mean over every rank, also a
// phase seen on one rank only.
TEST(ObsTiming, SummaryKeepsRunPhasesSinceConstruction) {
  fresh_obs();
  constexpr int kRanks = 2;
  std::vector<cpl::TimingSummary> summaries(kRanks);
  std::vector<double> run_totals(kRanks, 0.0);  // each rank's own "run" total
  double probe_total = 0.0;  // rank 1's own "run:probe" total
  par::run(kRanks, [&](par::Comm& comm) {
    {
      AP3_SPAN("run:before_construction");
    }
    cpl::CoupledModel model(comm, {tiny_coupled_config()});
    model.run_windows(1);
    {
      AP3_SPAN("cpl:probe");
    }
    {
      AP3_SPAN("runner:probe");
    }
    if (comm.rank() == 1) {
      AP3_SPAN("run:probe");
      volatile double sink = 0.0;
      for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
    }
    for (const obs::SpanStats& s : obs::local().aggregate_spans()) {
      if (s.name == "run")
        run_totals[static_cast<std::size_t>(comm.rank())] = s.total_seconds;
      if (s.name == "run:probe") probe_total = s.total_seconds;
    }
    summaries[static_cast<std::size_t>(comm.rank())] = model.timing_summary();
  });

  ASSERT_GT(probe_total, 0.0);
  for (const cpl::TimingSummary& summary : summaries) {
    bool saw_run = false, saw_probe = false;
    for (const obs::MergedSpan& phase : summary.phases) {
      EXPECT_TRUE(phase.name == "run" || phase.name.starts_with("run:"))
          << "non-run span in phases: " << phase.name;
      EXPECT_NE(phase.name, "run:before_construction")
          << "span recorded before construction leaked into phases";
      if (phase.name == "run") {
        saw_run = true;
        EXPECT_EQ(phase.total_max, std::max(run_totals[0], run_totals[1]));
        EXPECT_EQ(phase.total_mean, (run_totals[0] + run_totals[1]) / 2.0);
        EXPECT_EQ(summary.wall_seconds, phase.total_max);
      }
      if (phase.name == "run:probe") {
        saw_probe = true;
        EXPECT_EQ(phase.total_max, probe_total);
        EXPECT_EQ(phase.total_mean, probe_total / 2.0);
        EXPECT_EQ(phase.calls, 1);
      }
    }
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(saw_probe);
  }
  // The reduction happened once, in the collective: both ranks agree.
  EXPECT_EQ(summaries[0].to_string(), summaries[1].to_string());
}

TEST(ObsExport, TreeReportListsSpansAndCounters) {
  fresh_obs();
  {
    AP3_SPAN("a");
    {
      AP3_SPAN("a:b");
    }
  }
  obs::counter_add("some:counter", 3.0);
  const std::string report = obs::tree_report();
  EXPECT_NE(report.find("a:b"), std::string::npos);
  EXPECT_NE(report.find("some:counter"), std::string::npos);
  EXPECT_NE(report.find("calls"), std::string::npos);
}

// --- Chrome-trace export through the coupled driver --------------------------

TEST(ObsTrace, CoupledRunRoundTripsThroughChromeTrace) {
  fresh_obs();
  const std::string path = "obs_trace_test.json";

  par::run(2, [&](par::Comm& comm) {
    cpl::CoupledConfig config = tiny_coupled_config();
    cpl::CoupledModel model(comm, {config});
    model.run_windows(config.ocn_couple_ratio);
    const cpl::TimingSummary summary = model.timing_summary();
    const obs::MergedReport merged = obs::merge(comm);

    // The report's wall time is exactly merge's "run" total (max across
    // ranks), and its SYPD is the simulated span over that wall time.
    double run_max = -1.0;
    for (const obs::MergedSpan& span : merged.spans)
      if (span.name == "run") run_max = span.total_max;
    EXPECT_EQ(summary.wall_seconds, run_max);
    const double simulated =
        static_cast<double>(model.windows_run()) * model.atm_window_seconds();
    EXPECT_EQ(summary.simulated_seconds, simulated);
    EXPECT_EQ(summary.sypd(),
              (simulated / constants::kSecondsPerYear) /
                  (summary.wall_seconds / constants::kSecondsPerDay));
    EXPECT_GT(summary.sypd(), 0.0);

    // Driver phases present, fed from spans.
    bool saw_ocn = false, saw_atm = false;
    for (const auto& phase : summary.phases) {
      if (phase.name == "run:ocn_phase") saw_ocn = true;
      if (phase.name == "run:atm_ice_phase") saw_atm = true;
    }
    EXPECT_TRUE(saw_ocn);
    EXPECT_TRUE(saw_atm);
  });

  // Per-rank coupler phase spans nest correctly inside their "run" span.
  std::size_t expected_events = 0;
  int ranks_with_rows = 0;
  for (const auto& buffer : obs::buffers()) {
    expected_events += buffer->event_count();
    if (buffer->rank() < 0 || buffer->event_count() == 0) continue;
    ++ranks_with_rows;
    const auto events = buffer->events();
    const auto names = buffer->names();
    const obs::SpanEvent* run = nullptr;
    for (const auto& event : events)
      if (names[event.name_id] == "run") run = &event;
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->depth, 0u);
    for (const auto& event : events) {
      const std::string& name = names[event.name_id];
      if (name.rfind("run:", 0) != 0) continue;
      EXPECT_GE(event.depth, 1u);
      EXPECT_GE(event.start_seconds, run->start_seconds - 1e-9);
      EXPECT_LE(event.end_seconds, run->end_seconds + 1e-9);
    }
  }
  EXPECT_EQ(ranks_with_rows, 2);

  // Write (the quickstart --trace path), re-read, validate.
  obs::write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  const std::string json = content.str();

  JsonParser parser(json);
  EXPECT_TRUE(parser.parse_document()) << "chrome trace is not valid JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One timeline row per simulated rank.
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  // Exactly one complete event per recorded span.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), expected_events);
  // Counter families made it into the export.
  EXPECT_NE(json.find("par:bytes:total"), std::string::npos);

  std::remove(path.c_str());
}
