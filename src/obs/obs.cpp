#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>

namespace ap3::obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

// --- RankBuffer --------------------------------------------------------------

int RankBuffer::rank() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rank_;
}

void RankBuffer::set_rank(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  rank_ = rank;
}

std::uint32_t RankBuffer::intern_locked(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::uint32_t RankBuffer::span_enter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++depth_;
  return intern_locked(name);
}

void RankBuffer::span_exit(std::uint32_t name_id, double start_seconds,
                           double end_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (depth_ > 0) --depth_;
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({name_id, depth_, start_seconds, end_seconds});
}

void RankBuffer::record_span(std::string_view name, std::uint32_t depth,
                             double start_seconds, double end_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t name_id = intern_locked(name);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({name_id, depth, start_seconds, end_seconds});
}

std::uint32_t RankBuffer::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

void RankBuffer::counter_add(std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), CounterValue{}).first;
  it->second.value += delta;
  ++it->second.updates;
}

void RankBuffer::gauge_max(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), CounterValue{}).first;
  it->second.is_gauge = true;
  it->second.value = std::max(it->second.value, value);
  ++it->second.updates;
}

std::size_t RankBuffer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t RankBuffer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SpanEvent> RankBuffer::events(std::size_t first_event) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_event >= events_.size()) return {};
  return {events_.begin() + static_cast<std::ptrdiff_t>(first_event),
          events_.end()};
}

std::vector<std::string> RankBuffer::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_;
}

std::map<std::string, CounterValue> RankBuffer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

double RankBuffer::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second.value;
}

std::vector<SpanStats> RankBuffer::aggregate_spans(
    std::size_t first_event) const {
  std::map<std::uint32_t, SpanStats> by_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t e = first_event; e < events_.size(); ++e) {
      const SpanEvent& event = events_[e];
      SpanStats& agg = by_id[event.name_id];
      if (agg.calls == 0) agg.name = names_[event.name_id];
      agg.calls += 1;
      agg.total_seconds += event.end_seconds - event.start_seconds;
    }
  }
  std::vector<SpanStats> out;
  out.reserve(by_id.size());
  for (auto& [id, agg] : by_id) out.push_back(std::move(agg));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.total_seconds > b.total_seconds;
  });
  return out;
}

void RankBuffer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  depth_ = 0;
  names_.clear();
  ids_.clear();
  events_.clear();
  dropped_ = 0;
  counters_.clear();
}

// --- process-wide registry ----------------------------------------------------

namespace {

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<RankBuffer>> buffers;
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry();  // never destroyed:
  return *r;  // thread_local buffers may outlive static destruction order
}

}  // namespace

namespace {
// Active BufferScope adoption for this thread (nullptr: use the thread's own
// buffer). Plain thread_local pointer — the adopted buffer is kept alive by
// the process registry, and the adopting scope is strictly nested.
thread_local RankBuffer* t_adopted_buffer = nullptr;
}  // namespace

RankBuffer& local() {
  if (t_adopted_buffer != nullptr) return *t_adopted_buffer;
  thread_local std::shared_ptr<RankBuffer> buffer = [] {
    auto b = std::make_shared<RankBuffer>();
    BufferRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

BufferScope::BufferScope(RankBuffer& buffer) : previous_(t_adopted_buffer) {
  t_adopted_buffer = &buffer;
}

BufferScope::~BufferScope() { t_adopted_buffer = previous_; }

std::vector<std::shared_ptr<RankBuffer>> buffers() {
  BufferRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.buffers;
}

void reset_all() {
  for (const auto& buffer : buffers()) buffer->clear();
}

void set_rank(int rank) { local().set_rank(rank); }

void counter_add(std::string_view name, double delta) {
  if (!enabled()) return;
  local().counter_add(name, delta);
}

void counter_add_keyed(std::string_view family, long long key, double delta) {
  if (!enabled()) return;
  std::string name;
  name.reserve(family.size() + 24);
  name.append(family);
  name.push_back('[');
  name.append(std::to_string(key));
  name.push_back(']');
  local().counter_add(name, delta);
}

void gauge_max(std::string_view name, double value) {
  if (!enabled()) return;
  local().gauge_max(name, value);
}

double total_counter(std::string_view name) {
  double sum = 0.0;
  double max = 0.0;
  bool gauge = false;
  for (const auto& buffer : buffers()) {
    const auto counters = buffer->counters();
    auto it = counters.find(std::string(name));
    if (it == counters.end()) continue;
    sum += it->second.value;
    max = std::max(max, it->second.value);
    gauge = gauge || it->second.is_gauge;
  }
  return gauge ? max : sum;
}

}  // namespace ap3::obs
