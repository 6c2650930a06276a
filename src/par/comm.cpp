#include "par/comm.hpp"

#include <chrono>
#include <set>
#include <thread>

#include "obs/obs.hpp"

namespace ap3::par {

namespace {

/// Per-message obs accounting: inside a collective (a CollScope is active on
/// this thread) bytes land in the tagged family
/// "par:coll:{bytes,messages}[<op>/<algo>/<level>]" where level says whether
/// the message crossed a supernode boundary; user point-to-point traffic
/// keeps a per-tag breakdown ("par:p2p:bytes:tag[<tag>]"); "par:bytes:total"
/// is the grand total that must match World::traffic().bytes.
void account_obs(int tag, std::size_t bytes, bool inter_supernode) {
  if (!obs::enabled()) return;
  const auto delta = static_cast<double>(bytes);
  const detail::CollScope* scope = detail::CollScope::current();
  if (scope != nullptr && scope->armed()) {
    obs::counter_add(scope->bytes_name(inter_supernode), delta);
    obs::counter_add(scope->messages_name(inter_supernode), 1.0);
  } else if (scope == nullptr) {
    obs::counter_add_keyed("par:p2p:bytes:tag", tag, delta);
    obs::counter_add("par:p2p:messages", 1.0);
  }
  obs::counter_add("par:bytes:total", delta);
  obs::counter_add("par:messages:total", 1.0);
}

}  // namespace

namespace detail {

namespace {
thread_local const CollScope* tls_coll_scope = nullptr;
}  // namespace

CollScope::CollScope(const char* op, const char* algo)
    : prev_(tls_coll_scope) {
  tls_coll_scope = this;
  if (!obs::enabled()) return;
  armed_ = true;
  const std::string key = std::string(op) + '/' + algo;
  obs::counter_add("par:coll:calls[" + key + ']', 1.0);
  bytes_intra_ = "par:coll:bytes[" + key + "/intra]";
  bytes_inter_ = "par:coll:bytes[" + key + "/inter]";
  messages_intra_ = "par:coll:messages[" + key + "/intra]";
  messages_inter_ = "par:coll:messages[" + key + "/inter]";
}

CollScope::~CollScope() { tls_coll_scope = prev_; }

const CollScope* CollScope::current() { return tls_coll_scope; }

std::uint64_t FaultState::next_seq(int comm_id, int src, int dst_world,
                                   int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++stream_seq_[{comm_id, src, dst_world, tag}];
}

void FaultState::stash_dropped(int dst_world, Message message) {
  std::lock_guard<std::mutex> lock(mutex_);
  dropped_[dst_world].push_back(std::move(message));
}

std::size_t FaultState::retransmit_for(int dst_world, Mailbox& box) {
  std::vector<Message> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = dropped_.find(dst_world);
    if (it == dropped_.end() || it->second.empty()) return 0;
    pending = std::move(it->second);
    it->second.clear();
  }
  const std::size_t n = pending.size();
  for (Message& m : pending) box.deliver(std::move(m));
  retried.fetch_add(n, std::memory_order_relaxed);
  recovered_drop.fetch_add(n, std::memory_order_relaxed);
  obs::counter_add("fault:retried", static_cast<double>(n));
  obs::counter_add("fault:recovered:drop", static_cast<double>(n));
  obs::counter_add("fault:recovered", static_cast<double>(n));
  return n;
}

void Mailbox::enable_fault_mode(FaultState* state, int world_rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_ = state;
  world_rank_ = world_rank;
}

bool Mailbox::in_sequence_locked(const Message& m) const {
  const auto it = next_expected_.find({m.comm_id, m.src, m.tag});
  const std::uint64_t expected = it == next_expected_.end() ? 1 : it->second;
  return m.seq == expected;
}

void Mailbox::admit_locked(Message&& m) {
  // Duplicate suppression: discard if the stream already consumed this
  // sequence number or an identical copy is still queued.
  const auto it = next_expected_.find({m.comm_id, m.src, m.tag});
  const std::uint64_t expected = it == next_expected_.end() ? 1 : it->second;
  bool duplicate = m.seq < expected;
  if (!duplicate) {
    for (const Message& q : queue_) {
      if (q.comm_id == m.comm_id && q.src == m.src && q.tag == m.tag &&
          q.seq == m.seq) {
        duplicate = true;
        break;
      }
    }
  }
  if (duplicate) {
    fault_->recovered_duplicate.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add("fault:recovered:duplicate", 1.0);
    obs::counter_add("fault:recovered", 1.0);
    return;
  }
  queue_.push_back(std::move(m));
}

void Mailbox::release_delayed_locked(bool force) {
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (!force) --it->countdown;
    if (force || it->countdown <= 0) {
      fault_->recovered_delay.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add("fault:recovered:delay", 1.0);
      obs::counter_add("fault:recovered", 1.0);
      admit_locked(std::move(it->message));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

void Mailbox::deliver(Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fault_ == nullptr) {
      queue_.push_back(std::move(message));
    } else {
      // Every delivery ages the held-back messages first, so a delayed
      // message overtaken by `countdown` successors is released (reordered)
      // exactly when its schedule says.
      release_delayed_locked(/*force=*/false);
      admit_locked(std::move(message));
    }
  }
  cv_.notify_all();
}

void Mailbox::deliver_delayed(Message message, int countdown) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AP3_REQUIRE(fault_ != nullptr);
    if (countdown <= 0) {
      admit_locked(std::move(message));
    } else {
      delayed_.push_back({std::move(message), countdown});
    }
  }
  cv_.notify_all();
}

std::deque<Message>::iterator Mailbox::find_locked(int comm_id, int src,
                                                   int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!matches(*it, comm_id, src, tag)) continue;
    if (fault_ != nullptr && !in_sequence_locked(*it)) continue;
    return it;
  }
  return queue_.end();
}

Message Mailbox::take_at_locked(std::deque<Message>::iterator it) {
  Message out = std::move(*it);
  queue_.erase(it);
  if (fault_ != nullptr)
    next_expected_[{out.comm_id, out.src, out.tag}] = out.seq + 1;
  return out;
}

Message Mailbox::take(int comm_id, int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (fault_ == nullptr) {
    for (;;) {
      auto it = find_locked(comm_id, src, tag);
      if (it != queue_.end()) return take_at_locked(it);
      cv_.wait(lock);
    }
  }
  // Fault mode: wait for the next in-sequence match; on timeout run the
  // recovery protocol — flush held-back (delayed) messages, then ask the
  // fault layer to retransmit anything dropped on the way to this rank —
  // with exponential backoff between polls so a stalled peer is not spammed.
  auto timeout = std::chrono::microseconds(
      std::max(1, fault_->config.retry_timeout_microseconds));
  const auto max_timeout = std::chrono::microseconds(
      std::max(1, fault_->config.max_timeout_microseconds));
  for (;;) {
    auto it = find_locked(comm_id, src, tag);
    if (it != queue_.end()) return take_at_locked(it);
    if (cv_.wait_for(lock, timeout) == std::cv_status::timeout) {
      fault_->timeouts.fetch_add(1, std::memory_order_relaxed);
      release_delayed_locked(/*force=*/true);
      FaultState* fault = fault_;
      const int me = world_rank_;
      lock.unlock();
      fault->retransmit_for(me, *this);
      lock.lock();
      timeout = std::min(timeout * 2, max_timeout);
    }
  }
}

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
}

}  // namespace detail

World::World(int nranks) : World(nranks, WorldOptions{}) {}

World::World(int nranks, const WorldOptions& options) : nranks_(nranks) {
  AP3_REQUIRE_MSG(nranks > 0, "World needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  if (options.fault.any_faults()) {
    fault_state_ = std::make_unique<detail::FaultState>(options.fault);
    for (int r = 0; r < nranks; ++r)
      mailboxes_[static_cast<std::size_t>(r)]->enable_fault_mode(
          fault_state_.get(), r);
  }
}

const fault::InjectionLog* World::fault_log() const {
  return fault_state_ ? &fault_state_->log : nullptr;
}

fault::FaultStats World::fault_stats() const {
  fault::FaultStats out;
  if (!fault_state_) return out;
  const detail::FaultState& fs = *fault_state_;
  out.injected_drop = fs.injected_drop.load(std::memory_order_relaxed);
  out.injected_duplicate = fs.injected_duplicate.load(std::memory_order_relaxed);
  out.injected_delay = fs.injected_delay.load(std::memory_order_relaxed);
  out.injected_stall = fs.injected_stall.load(std::memory_order_relaxed);
  out.retried = fs.retried.load(std::memory_order_relaxed);
  out.timeouts = fs.timeouts.load(std::memory_order_relaxed);
  out.recovered_drop = fs.recovered_drop.load(std::memory_order_relaxed);
  out.recovered_duplicate =
      fs.recovered_duplicate.load(std::memory_order_relaxed);
  out.recovered_delay = fs.recovered_delay.load(std::memory_order_relaxed);
  return out;
}

std::size_t World::open_split_records() const {
  std::lock_guard<std::mutex> lock(split_table_.mutex);
  return split_table_.entries.size();
}

TrafficStats World::traffic() const {
  return {messages_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed)};
}

detail::Barrier& World::barrier_for(int comm_id, int parties) {
  std::lock_guard<std::mutex> lock(barrier_mutex_);
  auto it = barriers_.find(comm_id);
  if (it == barriers_.end()) {
    it = barriers_
             .emplace(comm_id, std::make_unique<detail::Barrier>(parties))
             .first;
  }
  return *it->second;
}

void World::account(std::size_t bytes) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void Request::wait() {
  if (action_) {
    action_();
    action_ = nullptr;
  }
}

void wait_all(std::span<Request> requests) {
  for (Request& request : requests) request.wait();
}

void Comm::post(int dest, int tag, std::size_t type_hash,
                std::span<const std::byte> bytes) const {
  AP3_REQUIRE_MSG(dest >= 0 && dest < size(),
                  "send to invalid rank " << dest << " (comm size " << size()
                                          << ")");
  detail::Message m;
  m.comm_id = comm_id_;
  m.src = rank_;
  m.tag = tag;
  m.type_hash = type_hash;
  m.data.assign(bytes.begin(), bytes.end());
  world_->account(bytes.size());
  const bool inter_supernode =
      topology_ != nullptr &&
      topology_->supernode_of(rank_) != topology_->supernode_of(dest);
  account_obs(tag, bytes.size(), inter_supernode);
  const int dst_world = world_rank_of(dest);
  detail::Mailbox& box = world_->mailbox(dst_world);

  detail::FaultState* fs = world_->fault_state();
  if (fs == nullptr) {
    box.deliver(std::move(m));
    return;
  }

  // Fault mode: every message gets a stream sequence number; the injector's
  // pure decision function then says what (if anything) goes wrong with it.
  m.seq = fs->next_seq(comm_id_, rank_, dst_world, tag);
  const fault::FaultPoint point{comm_id_, tag, world_rank_of(rank_), dst_world,
                                m.seq};
  const fault::Decision decision = fault::decide(fs->config, point);
  if (decision.faulted()) {
    fs->log.record({point, decision.action, decision.stall_microseconds});
    obs::counter_add("fault:injected", 1.0);
  }
  if (decision.stall_microseconds > 0) {
    fs->injected_stall.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add("fault:injected:stall", 1.0);
    std::this_thread::sleep_for(
        std::chrono::microseconds(decision.stall_microseconds));
  }
  switch (decision.action) {
    case fault::Action::kDeliver:
      box.deliver(std::move(m));
      break;
    case fault::Action::kDrop:
      fs->injected_drop.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add("fault:injected:drop", 1.0);
      fs->stash_dropped(dst_world, std::move(m));
      break;
    case fault::Action::kDuplicate: {
      fs->injected_duplicate.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add("fault:injected:duplicate", 1.0);
      detail::Message copy = m;
      box.deliver(std::move(m));
      box.deliver(std::move(copy));
      break;
    }
    case fault::Action::kDelay:
      fs->injected_delay.fetch_add(1, std::memory_order_relaxed);
      obs::counter_add("fault:injected:delay", 1.0);
      box.deliver_delayed(std::move(m), decision.delay_deliveries);
      break;
  }
}

detail::Message Comm::take(int src, int tag) const {
  AP3_REQUIRE_MSG(src == kAnySource || (src >= 0 && src < size()),
                  "recv from invalid rank " << src);
  return world_->mailbox(world_rank_of(rank_)).take(comm_id_, src, tag);
}

int Comm::world_rank_of(int comm_rank) const {
  return group_[static_cast<std::size_t>(comm_rank)];
}

void Comm::barrier() const {
  world_->barrier_for(comm_id_, size()).arrive_and_wait();
}

Comm Comm::with_topology(std::shared_ptr<const Topology> topology,
                         CollectiveAlgo default_algo) const {
  AP3_REQUIRE_MSG(topology == nullptr || topology->nranks() == size(),
                  "with_topology: topology spans "
                      << (topology ? topology->nranks() : 0)
                      << " ranks but the communicator has " << size());
  AP3_REQUIRE_MSG(default_algo != CollectiveAlgo::kDefault,
                  "with_topology: default algorithm must be concrete");
  Comm out = *this;
  out.topology_ = std::move(topology);
  out.default_algo_ =
      out.topology_ != nullptr ? default_algo : CollectiveAlgo::kFlat;
  return out;
}

Comm Comm::split(int color, int key) const {
  AP3_REQUIRE_MSG(color >= 0, "split color must be non-negative");
  detail::SplitTable& table = world_->split_table();
  const std::uint64_t epoch = split_epoch_++;
  const auto table_key = std::make_pair(comm_id_, epoch);
  obs::counter_add("par:splits", 1.0);
  std::map<int, std::pair<int, int>> entries;
  {
    std::unique_lock<std::mutex> lock(table.mutex);
    // A copy of a Comm shares its id but counts epochs on its own, so a split
    // on the copy and one on the original can share a key. If this rank is
    // already in the key's record, that record belongs to the earlier split:
    // wait until it is erased instead of joining it.
    table.cv.wait(lock, [&] {
      const auto it = table.entries.find(table_key);
      return it == table.entries.end() || !it->second.members.count(rank_);
    });
    detail::SplitTable::Record& record = table.entries[table_key];
    record.members[rank_] = {color, key};
    const auto complete = [&] {
      return static_cast<int>(record.members.size()) == size();
    };
    if (complete())
      table.cv.notify_all();
    else
      table.cv.wait(lock, complete);
    entries = record.members;
    // Last one out erases the record, so the table only holds splits in
    // flight instead of growing by one record per split for the whole run.
    if (++record.copied == size()) {
      table.entries.erase(table_key);
      table.cv.notify_all();
    }
  }

  // Every rank now computes the identical split deterministically.
  // Order the ranks of my color by (key, old rank).
  std::vector<std::pair<std::pair<int, int>, int>> mine;  // ((key, old), old)
  for (const auto& [old_rank, ck] : entries) {
    if (ck.first == color) mine.push_back({{ck.second, old_rank}, old_rank});
  }
  std::sort(mine.begin(), mine.end());

  std::vector<int> new_group;
  int new_rank = -1;
  for (const auto& [sort_key, old_rank] : mine) {
    if (old_rank == rank_) new_rank = static_cast<int>(new_group.size());
    new_group.push_back(world_rank_of(old_rank));
  }
  AP3_REQUIRE(new_rank >= 0);

  // Deterministic distinct id per (parent, epoch, color-index).
  std::set<int> colors;
  for (const auto& [old_rank, ck] : entries) colors.insert(ck.first);
  int color_index = 0;
  for (int c : colors) {
    if (c == color) break;
    ++color_index;
  }
  const int new_id =
      comm_id_ * 4096 + static_cast<int>(epoch % 64) * 64 + color_index + 1;

  Comm out(world_, std::move(new_group), new_rank, new_id, 0);
  if (topology_ != nullptr) {
    // Project the machine shape onto the subgroup: new rank i descends from
    // parent comm rank mine[i].second, whose supernode it keeps.
    std::vector<int> parent_ranks;
    parent_ranks.reserve(mine.size());
    for (const auto& [sort_key, old_rank] : mine) parent_ranks.push_back(old_rank);
    out.topology_ =
        std::make_shared<Topology>(topology_->induced(parent_ranks));
    out.default_algo_ = default_algo_;
  }
  return out;
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, WorldOptions{}, fn);
}

void run(int nranks, const WorldOptions& options,
         const std::function<void(Comm&)>& fn) {
  World world(nranks, options);
  std::vector<int> group(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) group[static_cast<std::size_t>(r)] = r;

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        // Label this thread's observability buffer so exporters render one
        // timeline row per simulated rank.
        obs::set_rank(r);
        Comm comm(&world, group, r, /*comm_id=*/0, /*split_epoch=*/0);
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ap3::par
