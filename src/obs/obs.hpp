// Unified observability layer (§6.2 generalized): RAII spans, counters,
// and gauges behind one runtime toggle.
//
// Every simulated rank (thread) owns a RankBuffer: an append-only list of
// completed span events plus a family of named counters/gauges. Buffers are
// registered process-wide so exporters (obs/export.hpp) can render one
// timeline row per simulated rank, and the cross-rank merge collective
// (obs/merge.hpp) can reduce span totals and counters over ap3::par the way
// getTiming reduces timers.
//
// Span names follow `component:phase:subphase` (e.g. "cpl:run:atm" or the
// driver's "run:ocn_phase:ocn_run"); the ':' separators drive tree-report
// indentation, and cpl::summarize_timing keeps the "run" subtree as its
// getTiming phases.
//
// The whole layer sits behind obs::set_enabled(): when disabled, a span or
// counter update is a single relaxed atomic load — cheap enough to leave the
// instrumentation compiled into hot kernels (see bench/bench_obs_overhead).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ap3::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global runtime toggle. Defaults to enabled so the paper's timing pipeline
/// works out of the box; benches flip it off to measure bare dispatch.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotonic seconds since the process's observability epoch (first use).
double now_seconds();

/// One completed (closed) span on one rank's timeline.
struct SpanEvent {
  std::uint32_t name_id = 0;  ///< index into RankBuffer::names()
  std::uint32_t depth = 0;    ///< nesting depth at which the span ran
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// A named counter (monotonic sum) or gauge (high-water maximum).
struct CounterValue {
  double value = 0.0;
  std::uint64_t updates = 0;
  bool is_gauge = false;
};

/// Per-name span aggregate over one rank's events.
struct SpanStats {
  std::string name;
  long long calls = 0;
  double total_seconds = 0.0;
};

/// Span/counter storage for one simulated rank (one recording thread).
///
/// Recording is single-writer (the owning thread) but snapshots may be taken
/// from other threads (exporters after par::run joins), so every operation
/// takes a short internal lock. Buffers outlive their thread: the process
/// registry holds shared ownership until reset.
class RankBuffer {
 public:
  /// Hard cap per buffer so unbounded bench loops cannot exhaust memory;
  /// overflowing events are dropped (counted in dropped_events()).
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 22;

  int rank() const;
  void set_rank(int rank);

  // --- recording (called by Span and the counter helpers) -------------------
  std::uint32_t span_enter(std::string_view name);
  void span_exit(std::uint32_t name_id, double start_seconds,
                 double end_seconds);
  /// Records one completed span at an explicit nesting depth without touching
  /// the live depth counter. Used by async launches, which capture the
  /// enqueue-site depth and complete on a worker thread later.
  void record_span(std::string_view name, std::uint32_t depth,
                   double start_seconds, double end_seconds);
  /// Current live nesting depth (open spans on the owning thread).
  std::uint32_t depth() const;
  void counter_add(std::string_view name, double delta);
  void gauge_max(std::string_view name, double value);

  // --- snapshots (thread-safe copies) ---------------------------------------
  std::size_t event_count() const;
  std::uint64_t dropped_events() const;
  /// Completed events from index `first_event` onward, in completion order.
  std::vector<SpanEvent> events(std::size_t first_event = 0) const;
  /// Interned span names; index is SpanEvent::name_id.
  std::vector<std::string> names() const;
  std::map<std::string, CounterValue> counters() const;
  double counter(std::string_view name) const;
  /// Per-name aggregation of events from `first_event` onward, sorted by
  /// descending total time.
  std::vector<SpanStats> aggregate_spans(std::size_t first_event = 0) const;

  void clear();

 private:
  std::uint32_t intern_locked(std::string_view name);

  mutable std::mutex mutex_;
  int rank_ = -1;
  std::uint32_t depth_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<SpanEvent> events_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, CounterValue, std::less<>> counters_;
};

/// This thread's buffer (created and registered on first use) — unless a
/// BufferScope is active, in which case the adopted buffer is returned.
RankBuffer& local();

/// Adopts another thread's RankBuffer for the current scope: while alive,
/// local() (and therefore Span / counter_add) on this thread records into the
/// adopted buffer instead of the thread's own. This is how async launches
/// executed on pool workers attribute their spans and counters to the
/// simulated rank that enqueued them. RankBuffer operations are internally
/// locked, so concurrent recording from the owner and an adopter is safe
/// (events land in completion order either way). Scopes nest; each restores
/// the previous adoption on destruction.
class BufferScope {
 public:
  explicit BufferScope(RankBuffer& buffer);
  ~BufferScope();
  BufferScope(const BufferScope&) = delete;
  BufferScope& operator=(const BufferScope&) = delete;

 private:
  RankBuffer* previous_ = nullptr;
};

/// Shared snapshot of every buffer ever registered, in registration order.
std::vector<std::shared_ptr<RankBuffer>> buffers();

/// Clears the contents of every registered buffer (the buffers themselves
/// stay registered so live threads keep recording into them).
void reset_all();

/// Label this thread's buffer with its simulated rank (par::run does this).
void set_rank(int rank);

// --- counter convenience entry points (this thread's buffer) ----------------
void counter_add(std::string_view name, double delta);
/// Keyed family member, recorded as "family[key]" (e.g. per-tag bytes).
void counter_add_keyed(std::string_view family, long long key, double delta);
void gauge_max(std::string_view name, double value);

/// Counter reduced across every registered buffer: counters sum, gauges max.
double total_counter(std::string_view name);

/// RAII scoped span: records one SpanEvent on this thread's buffer between
/// construction and destruction. No-op (one atomic load) when disabled.
class Span {
 public:
  explicit Span(std::string_view name) {
    if (!enabled()) return;
    buffer_ = &local();
    name_id_ = buffer_->span_enter(name);
    start_seconds_ = now_seconds();
  }
  ~Span() {
    if (buffer_ != nullptr)
      buffer_->span_exit(name_id_, start_seconds_, now_seconds());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  RankBuffer* buffer_ = nullptr;
  std::uint32_t name_id_ = 0;
  double start_seconds_ = 0.0;
};

}  // namespace ap3::obs

#define AP3_OBS_CONCAT_IMPL(a, b) a##b
#define AP3_OBS_CONCAT(a, b) AP3_OBS_CONCAT_IMPL(a, b)
/// Scoped span covering the rest of the enclosing block:
///   AP3_SPAN("cpl:run:atm");
#define AP3_SPAN(name) \
  ::ap3::obs::Span AP3_OBS_CONCAT(ap3_obs_span_, __LINE__)(name)
