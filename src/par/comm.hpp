// In-process message-passing runtime (the repository's MPI substitute).
//
// The paper runs components over MPI across up to 37.2 M Sunway cores; this
// machine has one CPU, so ranks are threads and the transport is a mailbox
// hub. Everything above this layer — halo exchanges, MCT routers, coupler
// rearrangement — is written against the same rank/tag/communicator semantics
// an MPI program would use, so the communication *patterns* of the paper are
// reproduced even though the wire is shared memory.
//
// Semantics implemented:
//  - typed, tagged, eager point-to-point send/recv (FIFO per source),
//  - non-blocking isend/irecv with Request/wait/wait_all,
//  - wildcard source/tag receives,
//  - collectives: barrier, bcast, reduce, allreduce, gather(v), scatterv,
//    allgather(v), alltoall, alltoallv (built over p2p; deterministic), each
//    taking an optional CollectivePolicy selecting the algorithm,
//  - topology-aware hierarchical collectives: a Comm can carry a
//    par::Topology (rank -> supernode map, see topology.hpp); allreduce and
//    alltoallv then stage traffic through supernode leaders so each
//    supernode pair exchanges one combined message instead of all-pairs
//    crossing the oversubscribed uplinks. Reductions use a canonical
//    supernode-blocked fold order fixed by the topology — not by the
//    algorithm — so hierarchical and flat results are bitwise identical,
//  - communicator split (task domains of §5.1.2); split() projects the
//    attached topology onto each subgroup,
//  - per-world traffic accounting (messages/bytes) feeding the perf model,
//  - deterministic fault injection at the mailbox boundary (src/fault):
//    seed-driven drop/duplicate/delay/stall schedules with transparent
//    receiver-side recovery (sequenced reassembly, timeout + exponential
//    backoff, retransmission of dropped messages), surfaced through
//    WorldOptions and the "fault:*" obs counters.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "base/error.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "par/topology.hpp"

namespace ap3::par {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

enum class ReduceOp { kSum, kMin, kMax };

/// Which wire pattern a collective uses. kFlat is the reference (the original
/// root-star / all-pairs exchanges); kHierarchical stages traffic through
/// supernode leaders and requires a Topology attached to the Comm (falls back
/// to flat without one). kDefault defers to the Comm's default algorithm
/// (flat on a bare Comm; set by with_topology()).
enum class CollectiveAlgo { kDefault, kFlat, kHierarchical };

/// Optional per-call policy accepted by every collective. This is the single
/// extension point for algorithm selection — new knobs land here instead of
/// growing parallel entry points.
struct CollectivePolicy {
  CollectiveAlgo algo = CollectiveAlgo::kDefault;
};

/// Aggregate message-traffic counters for one World.
///
/// Kept for the perf model's coarse totals; the observability layer carries
/// the richer breakdown as counter families ("par:coll:<name>:bytes",
/// "par:p2p:bytes:tag[<tag>]", "par:bytes:total") — see src/obs.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

namespace detail {

struct Message {
  int comm_id = 0;  ///< messages are scoped to one communicator
  int src = 0;      ///< sender's rank within that communicator
  int tag = 0;
  /// Position in the (comm_id, src, tag) stream to this destination; only
  /// assigned (starting at 1) when fault injection is active, where it
  /// drives receiver-side reassembly and duplicate suppression.
  std::uint64_t seq = 0;
  std::size_t type_hash = 0;
  std::vector<std::byte> data;
};

class Mailbox;

/// Shared fault-injection state for one World: the immutable config, the
/// replayable injection log, per-stream sequence counters (sender side),
/// the store of dropped messages awaiting retransmission, and recovery
/// statistics. Null on a World without faults — the transport fast path is
/// then a single pointer check.
struct FaultState {
  explicit FaultState(const fault::FaultConfig& config) : config(config) {}

  fault::FaultConfig config;
  fault::InjectionLog log;

  /// Next sequence number for a (comm_id, src_rank, dst_world, tag) stream.
  std::uint64_t next_seq(int comm_id, int src, int dst_world, int tag);
  /// Park a dropped message until a receiver timeout asks for it again.
  void stash_dropped(int dst_world, Message message);
  /// Re-deliver every dropped message parked for `dst_world`; returns count.
  std::size_t retransmit_for(int dst_world, Mailbox& box);

  // Recovery accounting (see fault::FaultStats).
  std::atomic<std::uint64_t> injected_drop{0}, injected_duplicate{0},
      injected_delay{0}, injected_stall{0};
  std::atomic<std::uint64_t> retried{0}, timeouts{0};
  std::atomic<std::uint64_t> recovered_drop{0}, recovered_duplicate{0},
      recovered_delay{0};

 private:
  std::mutex mutex_;
  std::map<std::array<int, 4>, std::uint64_t> stream_seq_;
  std::map<int, std::vector<Message>> dropped_;
};

class Mailbox {
 public:
  void deliver(Message message);
  /// Hold `message` back until `countdown` further deliveries reach this
  /// mailbox (or a receiver timeout flushes it) — the delay/reorder fault.
  void deliver_delayed(Message message, int countdown);
  /// Blocks until a message matching (comm, src, tag) is available. In fault
  /// mode, waits for the *next in-sequence* message of the matching stream
  /// and runs timeout/backoff recovery (flush delayed, retransmit dropped).
  Message take(int comm_id, int src, int tag);
  /// Switch this mailbox to sequenced (fault-tolerant) matching.
  void enable_fault_mode(FaultState* state, int world_rank);

 private:
  static bool matches(const Message& m, int comm_id, int src, int tag) {
    return m.comm_id == comm_id && (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }
  /// Fault mode: message is the next expected of its own stream.
  bool in_sequence_locked(const Message& m) const;
  /// Fault mode: admit to the queue with duplicate suppression.
  void admit_locked(Message&& m);
  /// Decrement delay countdowns (unless `force`), admit matured messages.
  void release_delayed_locked(bool force);
  std::deque<Message>::iterator find_locked(int comm_id, int src, int tag);
  Message take_at_locked(std::deque<Message>::iterator it);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;

  // Fault mode only.
  FaultState* fault_ = nullptr;
  int world_rank_ = -1;
  struct Delayed {
    Message message;
    int countdown = 0;
  };
  std::vector<Delayed> delayed_;
  /// (comm_id, src, tag) -> next sequence number the receiver will accept.
  std::map<std::array<int, 3>, std::uint64_t> next_expected_;
};

/// Reusable sense-reversing barrier.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}
  void arrive_and_wait();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
};

struct SplitTable {
  /// One split in flight: every member's (color, key), and how many members
  /// have copied them. The last member to copy erases the record.
  struct Record {
    std::map<int, std::pair<int, int>> members;
    int copied = 0;
  };
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::map<std::pair<int, std::uint64_t>, Record> entries;  ///< (id, epoch)
};

/// Traffic-attribution scope for one collective call. While alive on this
/// thread, every message posted is charged to the tagged counter family
///   par:coll:bytes[<op>/<algo>/<level>]   (level: intra | inter supernode)
///   par:coll:messages[<op>/<algo>/<level>]
/// and the constructor bumps par:coll:calls[<op>/<algo>] once. Scopes nest
/// and the innermost wins, so e.g. a flat allreduce's bytes land under its
/// constituent reduce/bcast — the wire really is a reduce plus a bcast.
/// Replaces the old per-name "par:coll:<name>:{bytes,calls}" counters and the
/// tag -> collective-name mapping.
class CollScope {
 public:
  CollScope(const char* op, const char* algo);
  ~CollScope();
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;

  /// Innermost active scope on this thread (nullptr outside collectives).
  static const CollScope* current();

  /// False when obs was disabled at construction (names not built).
  bool armed() const { return armed_; }
  const std::string& bytes_name(bool inter) const {
    return inter ? bytes_inter_ : bytes_intra_;
  }
  const std::string& messages_name(bool inter) const {
    return inter ? messages_inter_ : messages_intra_;
  }

 private:
  bool armed_ = false;
  const CollScope* prev_ = nullptr;
  std::string bytes_intra_, bytes_inter_;
  std::string messages_intra_, messages_inter_;
};

}  // namespace detail

class Comm;

/// Per-World knobs. `fault` with any non-zero rate arms deterministic fault
/// injection on every message crossing the mailbox boundary.
struct WorldOptions {
  fault::FaultConfig fault;
};

/// Shared state for one parallel job: mailboxes, barriers, counters, and the
/// optional fault-injection layer.
class World {
 public:
  explicit World(int nranks);
  World(int nranks, const WorldOptions& options);

  int size() const { return nranks_; }
  TrafficStats traffic() const;

  /// True when this World injects faults into its transport.
  bool fault_active() const { return fault_state_ != nullptr; }
  /// Replayable record of injected faults (null when inactive).
  const fault::InjectionLog* fault_log() const;
  /// Injection/recovery totals so far (all zeros when inactive).
  fault::FaultStats fault_stats() const;
  /// Splits some member has entered but not every member has returned from.
  std::size_t open_split_records() const;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

 private:
  friend class Comm;
  detail::Mailbox& mailbox(int world_rank) {
    return *mailboxes_[static_cast<std::size_t>(world_rank)];
  }
  detail::Barrier& barrier_for(int comm_id, int parties);
  void account(std::size_t bytes);
  detail::SplitTable& split_table() { return split_table_; }
  detail::FaultState* fault_state() { return fault_state_.get(); }

  int nranks_;
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::unique_ptr<detail::FaultState> fault_state_;
  std::mutex barrier_mutex_;
  std::map<int, std::unique_ptr<detail::Barrier>> barriers_;
  detail::SplitTable split_table_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Handle for a pending non-blocking operation.
class Request {
 public:
  Request() = default;
  void wait();
  bool valid() const { return static_cast<bool>(action_); }

 private:
  friend class Comm;
  explicit Request(std::function<void()> action) : action_(std::move(action)) {}
  std::function<void()> action_;
};

void wait_all(std::span<Request> requests);

/// A communicator: a group of world ranks plus this thread's position in it.
///
/// Copies are cheap views; split() creates sub-communicators (task domains).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  World& world() const { return *world_; }

  // --- point-to-point -----------------------------------------------------
  template <typename T>
  void send(std::span<const T> data, int dest, int tag) const {
    post(dest, tag, typeid(T).hash_code(),
         {reinterpret_cast<const std::byte*>(data.data()),
          data.size() * sizeof(T)});
  }

  template <typename T>
  void send_value(const T& value, int dest, int tag) const {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  /// Receives into `data`; returns the element count actually received
  /// (must be <= data.size()). Throws CommError on type mismatch.
  template <typename T>
  std::size_t recv(std::span<T> data, int src, int tag) const {
    detail::Message m = take(src, tag);
    check_type<T>(m);
    const std::size_t count = m.data.size() / sizeof(T);
    AP3_REQUIRE_MSG(count <= data.size(),
                    "recv buffer too small: need " << count << " elements, have "
                                                   << data.size());
    if (!m.data.empty())  // empty recv leaves data.data() null — no memcpy
      std::memcpy(data.data(), m.data.data(), m.data.size());
    return count;
  }

  template <typename T>
  T recv_value(int src, int tag) const {
    T value{};
    const std::size_t n = recv(std::span<T>(&value, 1), src, tag);
    AP3_REQUIRE(n == 1);
    return value;
  }

  template <typename T>
  Request isend(std::span<const T> data, int dest, int tag) const {
    // Eager buffered transport: the send completes immediately; the Request
    // exists so call sites keep MPI-shaped structure.
    send(data, dest, tag);
    return Request([] {});
  }

  template <typename T>
  Request irecv(std::span<T> data, int src, int tag) const {
    const Comm* self = this;
    return Request([self, data, src, tag] {
      const std::size_t n = self->recv(data, src, tag);
      AP3_REQUIRE_MSG(n == data.size(),
                      "irecv expected exactly " << data.size()
                                                << " elements, got " << n);
    });
  }

  // --- topology -------------------------------------------------------------
  /// Returns a view of this communicator carrying `topology` (rank count must
  /// match size(); nullptr detaches). Collectives on the returned Comm use
  /// the topology's canonical supernode-blocked reduction order and default
  /// to `default_algo` when called without an explicit policy. The bare Comm
  /// is untouched — attaching a topology never changes existing call sites.
  Comm with_topology(std::shared_ptr<const Topology> topology,
                     CollectiveAlgo default_algo =
                         CollectiveAlgo::kHierarchical) const;
  /// Attached topology (nullptr on a bare Comm).
  const Topology* topology() const { return topology_.get(); }
  CollectiveAlgo default_algo() const { return default_algo_; }

  // --- collectives ----------------------------------------------------------
  void barrier() const;

  template <typename T>
  void bcast(std::span<T> data, int root, CollectivePolicy policy = {}) const;

  template <typename T>
  std::vector<T> gather(std::span<const T> local, int root,
                        CollectivePolicy policy = {}) const;

  template <typename T>
  std::vector<T> allgather(std::span<const T> local,
                           CollectivePolicy policy = {}) const;

  /// Variable-size gather onto `root`: the root gets the concatenation in
  /// rank order (and, when asked, the per-rank counts); other ranks get an
  /// empty vector and leave `counts` untouched.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root,
                         std::vector<std::size_t>* counts = nullptr,
                         CollectivePolicy policy = {}) const;

  /// Inverse of gatherv: the root holds every rank's block concatenated in
  /// rank order, `counts[r]` elements for rank r, and each rank gets its own
  /// block. Non-roots pass empty `data` and `counts`; a block's size travels
  /// with its message.
  template <typename T>
  std::vector<T> scatterv(std::span<const T> data,
                          std::span<const std::size_t> counts, int root,
                          CollectivePolicy policy = {}) const;

  /// Variable-size allgather; returns concatenation in rank order plus
  /// per-rank counts.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::size_t>* counts = nullptr,
                            CollectivePolicy policy = {}) const;

  template <typename T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op, int root,
              CollectivePolicy policy = {}) const;

  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                 CollectivePolicy policy = {}) const;

  template <typename T>
  T allreduce_value(T value, ReduceOp op, CollectivePolicy policy = {}) const {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op,
              policy);
    return out;
  }

  /// Fixed-block all-to-all: send_data has size()*block elements.
  template <typename T>
  std::vector<T> alltoall(std::span<const T> send_data, std::size_t block,
                          CollectivePolicy policy = {}) const;

  /// Variable all-to-all: send_counts[r] elements go to rank r; returns the
  /// received concatenation and fills recv_counts. With a topology and the
  /// hierarchical algorithm, inter-supernode chunks are aggregated at
  /// supernode leaders so each ordered supernode pair exchanges one combined
  /// message; the result is assembled in source-rank order and is bitwise
  /// identical to the flat exchange.
  template <typename T>
  std::vector<T> alltoallv(std::span<const T> send_data,
                           std::span<const std::size_t> send_counts,
                           std::vector<std::size_t>& recv_counts,
                           CollectivePolicy policy = {}) const;

  /// Split into sub-communicators by color; rank order within a color follows
  /// (key, rank). This is how AP3ESM partitions ranks into task domains —
  /// and, with Topology, the only way to build subgroups. An attached
  /// topology is projected onto each subgroup (Topology::induced), so task
  /// domains inherit the machine shape. Each call bumps the "par:splits"
  /// obs counter.
  Comm split(int color, int key) const;

 private:
  friend void run(int, const std::function<void(Comm&)>&);
  friend void run(int, const WorldOptions&, const std::function<void(Comm&)>&);
  Comm(World* world, std::vector<int> group, int rank, int comm_id,
       std::uint64_t split_epoch)
      : world_(world),
        group_(std::move(group)),
        rank_(rank),
        comm_id_(comm_id),
        split_epoch_(split_epoch) {}

  template <typename T>
  static void check_type(const detail::Message& m) {
    AP3_REQUIRE_MSG(m.type_hash == typeid(T).hash_code(),
                    "message type mismatch (tag " << m.tag << " from rank "
                                                  << m.src << ")");
  }

  void post(int dest, int tag, std::size_t type_hash,
            std::span<const std::byte> bytes) const;
  detail::Message take(int src, int tag) const;
  int world_rank_of(int comm_rank) const;

  /// Resolve a per-call policy against the Comm default. Hierarchical needs
  /// an attached topology; without one it degrades to flat.
  bool hierarchical(CollectivePolicy policy) const {
    const CollectiveAlgo algo = policy.algo == CollectiveAlgo::kDefault
                                    ? default_algo_
                                    : policy.algo;
    return algo == CollectiveAlgo::kHierarchical && topology_ != nullptr;
  }

  // Hierarchical / topology-blocked implementations (see bottom of file).
  template <typename T>
  void bcast_hier(std::span<T> data, int root) const;
  template <typename T>
  void reduce_blocked(std::span<const T> in, std::span<T> out, ReduceOp op,
                      int root) const;
  template <typename T>
  void reduce_hier(std::span<const T> in, std::span<T> out, ReduceOp op,
                   int root) const;
  template <typename T>
  std::vector<T> alltoallv_hier(std::span<const T> send_data,
                                std::span<const std::size_t> send_counts,
                                std::vector<std::size_t>& recv_counts) const;

  template <typename T>
  static void apply_op(std::span<T> acc, std::span<const T> in, ReduceOp op) {
    for (std::size_t i = 0; i < acc.size(); ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] = acc[i] + in[i]; break;
        case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
        case ReduceOp::kMax: acc[i] = acc[i] < in[i] ? in[i] : acc[i]; break;
      }
    }
  }

  World* world_ = nullptr;
  std::vector<int> group_;  // comm rank -> world rank
  int rank_ = 0;
  int comm_id_ = 0;
  mutable std::uint64_t split_epoch_ = 0;
  /// Machine shape for this communicator's ranks (nullptr: bare/flat Comm).
  /// Shared between copies and propagated by split().
  std::shared_ptr<const Topology> topology_;
  CollectiveAlgo default_algo_ = CollectiveAlgo::kFlat;
};

/// Launch `fn` on `nranks` ranks (threads) sharing one World. Exceptions in
/// any rank are captured and rethrown (first by rank order) after join.
void run(int nranks, const std::function<void(Comm&)>& fn);

/// Same, with World options (e.g. a deterministic fault schedule). Ranks can
/// inspect injection state during the run via `comm.world().fault_log()` /
/// `fault_stats()`.
void run(int nranks, const WorldOptions& options,
         const std::function<void(Comm&)>& fn);

// ---- template implementations ---------------------------------------------
//
// Reserved internal tag space (tags < -999):
//   -1000 bcast         -1001 gather        -1002 gatherv payload
//   -1003 reduce        -1004 alltoall      -1005 alltoallv
//   -1006 scatterv
//   -1010 hier reduce up (member -> leader)
//   -1011 hier reduce mid (leader -> root)
//   -1012 hier bcast (root -> leaders)      -1013 hier bcast (leader -> members)
//   -1014 hier alltoallv intra (peer -> peer, count then payload)
//   -1015 hier alltoallv up   (member -> leader, header then payload)
//   -1016 hier alltoallv mid  (leader -> leader, header then payload)
//   -1017 hier alltoallv down (leader -> member, header then payload)

template <typename T>
void Comm::bcast(std::span<T> data, int root, CollectivePolicy policy) const {
  AP3_REQUIRE(root >= 0 && root < size());
  const bool hier = hierarchical(policy);
  detail::CollScope scope("bcast", hier ? "hier" : "flat");
  if (hier) {
    bcast_hier(data, root);
    return;
  }
  constexpr int kTag = -1000;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send(std::span<const T>(data.data(), data.size()), r, kTag);
    }
  } else {
    const std::size_t n = recv(data, root, kTag);
    AP3_REQUIRE(n == data.size());
  }
}

template <typename T>
void Comm::bcast_hier(std::span<T> data, int root) const {
  // Two-level fan-out: root -> supernode leaders over the (oversubscribed)
  // inter-supernode links, then each leader -> its members intra-supernode.
  // Pure data movement, so bitwise identical to the flat star.
  const Topology& topo = *topology_;
  constexpr int kTagLeaders = -1012;
  constexpr int kTagMembers = -1013;
  const int my_sn = topo.supernode_of(rank_);
  if (rank_ == root) {
    for (int s = 0; s < topo.num_supernodes(); ++s) {
      const int l = topo.leader(s);
      if (l == root) continue;
      send(std::span<const T>(data.data(), data.size()), l, kTagLeaders);
    }
  } else if (topo.is_leader(rank_)) {
    const std::size_t n = recv(data, root, kTagLeaders);
    AP3_REQUIRE(n == data.size());
  }
  if (topo.is_leader(rank_)) {
    for (int m : topo.members(my_sn)) {
      if (m == rank_ || m == root) continue;
      send(std::span<const T>(data.data(), data.size()), m, kTagMembers);
    }
  } else if (rank_ != root) {
    const std::size_t n = recv(data, topo.leader(my_sn), kTagMembers);
    AP3_REQUIRE(n == data.size());
  }
}

template <typename T>
std::vector<T> Comm::gather(std::span<const T> local, int root,
                            CollectivePolicy policy) const {
  // Root-star wire regardless of policy (a gather concentrates all bytes at
  // the root either way); the policy still labels the traffic counters.
  detail::CollScope scope("gather", hierarchical(policy) ? "hier" : "flat");
  constexpr int kTag = -1001;
  if (rank_ == root) {
    std::vector<T> out(local.size() * static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) {
        std::copy(local.begin(), local.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(r * local.size()));
      } else {
        std::span<T> slot(out.data() + r * local.size(), local.size());
        const std::size_t n = recv(slot, r, kTag);
        AP3_REQUIRE(n == local.size());
      }
    }
    return out;
  }
  send(local, root, kTag);
  return {};
}

template <typename T>
std::vector<T> Comm::allgather(std::span<const T> local,
                               CollectivePolicy policy) const {
  detail::CollScope scope("allgather", hierarchical(policy) ? "hier" : "flat");
  std::vector<T> out = gather(local, 0, policy);
  if (rank_ != 0) out.resize(local.size() * static_cast<std::size_t>(size()));
  bcast(std::span<T>(out), 0, policy);  // hierarchical policy pays off here
  return out;
}

template <typename T>
std::vector<T> Comm::gatherv(std::span<const T> local, int root,
                             std::vector<std::size_t>* counts,
                             CollectivePolicy policy) const {
  detail::CollScope scope("gatherv", hierarchical(policy) ? "hier" : "flat");
  const std::uint64_t mine = local.size();
  const std::vector<std::uint64_t> sizes =
      gather(std::span<const std::uint64_t>(&mine, 1), root, policy);
  constexpr int kTag = -1002;
  if (rank_ != root) {
    if (!local.empty()) send(local, root, kTag);
    return {};
  }
  std::size_t total = 0;
  for (std::uint64_t s : sizes) total += s;
  std::vector<T> out(total);
  std::size_t offset = 0;
  for (int r = 0; r < size(); ++r) {
    std::span<T> slot(out.data() + offset, sizes[static_cast<size_t>(r)]);
    if (r == root) {
      std::copy(local.begin(), local.end(), slot.begin());
    } else if (!slot.empty()) {
      const std::size_t n = recv(slot, r, kTag);
      AP3_REQUIRE(n == slot.size());
    }
    offset += slot.size();
  }
  if (counts) counts->assign(sizes.begin(), sizes.end());
  return out;
}

template <typename T>
std::vector<T> Comm::scatterv(std::span<const T> data,
                              std::span<const std::size_t> counts, int root,
                              CollectivePolicy policy) const {
  // Root-star wire regardless of policy, like gather.
  detail::CollScope scope("scatterv", hierarchical(policy) ? "hier" : "flat");
  constexpr int kTag = -1006;
  if (rank_ != root) {
    const detail::Message m = take(root, kTag);
    check_type<T>(m);
    std::vector<T> out(m.data.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), m.data.data(), m.data.size());
    return out;
  }
  AP3_REQUIRE(counts.size() == static_cast<std::size_t>(size()));
  std::vector<T> mine;
  std::size_t offset = 0;
  for (int r = 0; r < size(); ++r) {
    const std::span<const T> block =
        data.subspan(offset, counts[static_cast<std::size_t>(r)]);
    if (r == root)
      mine.assign(block.begin(), block.end());
    else
      send(block, r, kTag);
    offset += block.size();
  }
  return mine;
}

template <typename T>
std::vector<T> Comm::allgatherv(std::span<const T> local,
                                std::vector<std::size_t>* counts,
                                CollectivePolicy policy) const {
  // gatherv onto rank 0, then broadcast the counts and the concatenation:
  // per (source, destination, tag) stream, the same messages in the same
  // order as gathering and broadcasting the counts first.
  detail::CollScope scope("allgatherv", hierarchical(policy) ? "hier" : "flat");
  std::vector<std::size_t> sizes(static_cast<std::size_t>(size()));
  std::vector<T> out = gatherv(local, 0, &sizes, policy);
  bcast(std::span<std::size_t>(sizes), 0, policy);
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  out.resize(total);
  bcast(std::span<T>(out), 0, policy);
  if (counts) *counts = std::move(sizes);
  return out;
}

template <typename T>
void Comm::reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                  int root, CollectivePolicy policy) const {
  AP3_REQUIRE(in.size() == out.size());
  const bool hier = hierarchical(policy);
  detail::CollScope scope("reduce", hier ? "hier" : "flat");
  if (hier) {
    reduce_hier(in, out, op, root);
    return;
  }
  if (topology_ != nullptr) {
    // A topology fixes the canonical supernode-blocked fold order for every
    // algorithm, so flat and hierarchical agree bitwise (kSum is not
    // associative in floating point; the order must be pinned somewhere).
    reduce_blocked(in, out, op, root);
    return;
  }
  constexpr int kTag = -1003;
  if (rank_ == root) {
    std::copy(in.begin(), in.end(), out.begin());
    std::vector<T> buffer(in.size());
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      const std::size_t n = recv(std::span<T>(buffer), r, kTag);
      AP3_REQUIRE(n == buffer.size());
      apply_op(out, std::span<const T>(buffer), op);
    }
  } else {
    send(in, root, kTag);
  }
}

template <typename T>
void Comm::reduce_blocked(std::span<const T> in, std::span<T> out,
                          ReduceOp op, int root) const {
  // Flat wire (everyone -> root), canonical blocked fold at the root: fold
  // each supernode's members in rank order into a partial, then fold the
  // partials in supernode order. reduce_hier computes the identical
  // sequence with the partials formed at the leaders.
  const Topology& topo = *topology_;
  constexpr int kTag = -1003;
  if (rank_ != root) {
    send(in, root, kTag);
    return;
  }
  std::vector<T> partial(in.size());
  std::vector<T> buffer(in.size());
  bool first_sn = true;
  for (int s = 0; s < topo.num_supernodes(); ++s) {
    bool first_member = true;
    for (int m : topo.members(s)) {
      std::span<const T> contrib;
      if (m == rank_) {
        contrib = in;
      } else {
        const std::size_t n = recv(std::span<T>(buffer), m, kTag);
        AP3_REQUIRE(n == buffer.size());
        contrib = buffer;
      }
      if (first_member) {
        std::copy(contrib.begin(), contrib.end(), partial.begin());
        first_member = false;
      } else {
        apply_op(std::span<T>(partial), contrib, op);
      }
    }
    if (first_sn) {
      std::copy(partial.begin(), partial.end(), out.begin());
      first_sn = false;
    } else {
      apply_op(out, std::span<const T>(partial), op);
    }
  }
}

template <typename T>
void Comm::reduce_hier(std::span<const T> in, std::span<T> out, ReduceOp op,
                       int root) const {
  // Members -> leader (intra links), leaders -> root (one partial per
  // supernode over the inter links), identical blocked fold order to
  // reduce_blocked: leaders fold members in rank order (the leader is the
  // lowest member, so its own contribution seeds the partial), the root
  // folds partials in supernode order.
  const Topology& topo = *topology_;
  constexpr int kTagUp = -1010;
  constexpr int kTagMid = -1011;
  const int my_sn = topo.supernode_of(rank_);
  std::vector<T> partial;
  if (topo.is_leader(rank_)) {
    partial.assign(in.begin(), in.end());
    std::vector<T> buffer(in.size());
    for (int m : topo.members(my_sn)) {
      if (m == rank_) continue;
      const std::size_t n = recv(std::span<T>(buffer), m, kTagUp);
      AP3_REQUIRE(n == buffer.size());
      apply_op(std::span<T>(partial), std::span<const T>(buffer), op);
    }
    if (rank_ != root)
      send(std::span<const T>(partial), root, kTagMid);
  } else {
    send(in, topo.leader(my_sn), kTagUp);
  }
  if (rank_ == root) {
    std::vector<T> buffer(in.size());
    bool first = true;
    for (int s = 0; s < topo.num_supernodes(); ++s) {
      const int l = topo.leader(s);
      std::span<const T> contrib;
      if (l == rank_) {
        contrib = partial;
      } else {
        const std::size_t n = recv(std::span<T>(buffer), l, kTagMid);
        AP3_REQUIRE(n == buffer.size());
        contrib = buffer;
      }
      if (first) {
        std::copy(contrib.begin(), contrib.end(), out.begin());
        first = false;
      } else {
        apply_op(out, contrib, op);
      }
    }
  }
}

template <typename T>
void Comm::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                     CollectivePolicy policy) const {
  // Built over reduce+bcast, whose own (innermost) scopes attribute the
  // bytes — the traffic really is a reduce followed by a bcast on this
  // transport. This scope records the allreduce call itself.
  detail::CollScope scope("allreduce", hierarchical(policy) ? "hier" : "flat");
  reduce(in, out, op, 0, policy);
  bcast(out, 0, policy);
}

template <typename T>
std::vector<T> Comm::alltoall(std::span<const T> send_data, std::size_t block,
                              CollectivePolicy policy) const {
  AP3_REQUIRE(send_data.size() == block * static_cast<std::size_t>(size()));
  detail::CollScope scope("alltoall", hierarchical(policy) ? "hier" : "flat");
  constexpr int kTag = -1004;
  std::vector<T> out(send_data.size());
  // Post all sends (eager), then receive in rank order.
  for (int r = 0; r < size(); ++r) {
    std::span<const T> chunk(send_data.data() + r * block, block);
    if (r == rank_) {
      std::copy(chunk.begin(), chunk.end(),
                out.begin() + static_cast<std::ptrdiff_t>(r * block));
    } else {
      send(chunk, r, kTag);
    }
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    std::span<T> slot(out.data() + r * block, block);
    const std::size_t n = recv(slot, r, kTag);
    AP3_REQUIRE(n == block);
  }
  return out;
}

template <typename T>
std::vector<T> Comm::alltoallv(std::span<const T> send_data,
                               std::span<const std::size_t> send_counts,
                               std::vector<std::size_t>& recv_counts,
                               CollectivePolicy policy) const {
  AP3_REQUIRE(send_counts.size() == static_cast<std::size_t>(size()));
  std::size_t check = 0;
  for (std::size_t c : send_counts) check += c;
  AP3_REQUIRE(check == send_data.size());
  const bool hier = hierarchical(policy);
  detail::CollScope scope("alltoallv", hier ? "hier" : "flat");
  if (hier) return alltoallv_hier(send_data, send_counts, recv_counts);

  // Exchange counts with a fixed-block alltoall, then the payloads.
  std::vector<std::uint64_t> counts64(send_counts.begin(), send_counts.end());
  std::vector<std::uint64_t> got =
      alltoall(std::span<const std::uint64_t>(counts64), 1, policy);
  recv_counts.assign(got.begin(), got.end());

  constexpr int kTag = -1005;
  std::size_t total = 0;
  for (std::size_t c : recv_counts) total += c;
  std::vector<T> out(total);

  std::size_t send_offset = 0;
  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    send_offsets[static_cast<size_t>(r)] = send_offset;
    send_offset += send_counts[static_cast<size_t>(r)];
  }
  std::size_t recv_offset = 0;
  std::vector<std::size_t> recv_offsets(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    recv_offsets[static_cast<size_t>(r)] = recv_offset;
    recv_offset += recv_counts[static_cast<size_t>(r)];
  }

  for (int r = 0; r < size(); ++r) {
    std::span<const T> chunk(send_data.data() + send_offsets[static_cast<size_t>(r)],
                             send_counts[static_cast<size_t>(r)]);
    if (r == rank_) {
      std::copy(chunk.begin(), chunk.end(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  recv_offsets[static_cast<size_t>(r)]));
    } else if (!chunk.empty()) {
      send(chunk, r, kTag);
    }
  }
  for (int r = 0; r < size(); ++r) {
    if (r == rank_ || recv_counts[static_cast<size_t>(r)] == 0) continue;
    std::span<T> slot(out.data() + recv_offsets[static_cast<size_t>(r)],
                      recv_counts[static_cast<size_t>(r)]);
    const std::size_t n = recv(slot, r, kTag);
    AP3_REQUIRE(n == slot.size());
  }
  return out;
}

template <typename T>
std::vector<T> Comm::alltoallv_hier(
    std::span<const T> send_data, std::span<const std::size_t> send_counts,
    std::vector<std::size_t>& recv_counts) const {
  // Three-hop exchange. Intra-supernode chunks go peer-to-peer directly
  // (count, then payload). Inter-supernode chunks climb to the supernode
  // leader (header of (dst, count) entries plus one combined payload), the
  // leaders exchange ONE combined message per ordered supernode pair —
  // header of (src, dst, count) entries sorted by (src, dst) — and each
  // leader redistributes to its members with (src, count) headers. Output is
  // assembled in global source-rank order, so the bytes are identical to the
  // flat exchange; only the routing differs.
  //
  // Deadlock-free on the eager transport: every rank posts all sends that do
  // not depend on a receive before blocking (members: intra + up, then
  // receive; leaders: intra, then up-receives gate only the mid sends).
  const Topology& topo = *topology_;
  constexpr int kTagIntra = -1014;
  constexpr int kTagUp = -1015;
  constexpr int kTagMid = -1016;
  constexpr int kTagDown = -1017;
  const int n = size();
  const int my_sn = topo.supernode_of(rank_);
  const int my_leader = topo.leader(my_sn);
  const int num_sn = topo.num_supernodes();

  std::vector<std::size_t> send_offsets(static_cast<std::size_t>(n));
  std::size_t acc = 0;
  for (int r = 0; r < n; ++r) {
    send_offsets[static_cast<std::size_t>(r)] = acc;
    acc += send_counts[static_cast<std::size_t>(r)];
  }
  const auto chunk = [&](int r) {
    return std::span<const T>(
        send_data.data() + send_offsets[static_cast<std::size_t>(r)],
        send_counts[static_cast<std::size_t>(r)]);
  };

  // Phase 0 — intra-supernode chunks peer-to-peer: count then payload.
  for (int r : topo.members(my_sn)) {
    if (r == rank_) continue;
    const std::uint64_t cnt = send_counts[static_cast<std::size_t>(r)];
    send_value(cnt, r, kTagIntra);
    if (cnt > 0) send(chunk(r), r, kTagIntra);
  }

  // Phase 1 (up) — non-leaders ship all inter-supernode chunks to the
  // leader: header [k, (dst, cnt) x k] (nonzero entries only, dst ascending),
  // then the concatenated payload when non-empty.
  if (rank_ != my_leader) {
    std::vector<std::uint64_t> header{0};
    std::vector<T> payload;
    for (int r = 0; r < n; ++r) {
      if (topo.supernode_of(r) == my_sn ||
          send_counts[static_cast<std::size_t>(r)] == 0)
        continue;
      header.push_back(static_cast<std::uint64_t>(r));
      header.push_back(send_counts[static_cast<std::size_t>(r)]);
      const auto c = chunk(r);
      payload.insert(payload.end(), c.begin(), c.end());
      ++header[0];
    }
    send(std::span<const std::uint64_t>(header), my_leader, kTagUp);
    if (!payload.empty())
      send(std::span<const T>(payload), my_leader, kTagUp);
  }

  recv_counts.assign(static_cast<std::size_t>(n), 0);
  recv_counts[static_cast<std::size_t>(rank_)] =
      send_counts[static_cast<std::size_t>(rank_)];
  // Payload destined to me, bucketed by source rank for final assembly.
  std::vector<std::vector<T>> from_src(static_cast<std::size_t>(n));

  if (rank_ == my_leader) {
    // Collect this supernode's outbound inter traffic, grouped by
    // destination supernode. Iterating members in ascending rank order (the
    // leader first) with destinations ascending inside each header keeps
    // every group sorted by (src, dst) without an explicit sort.
    struct Entry {
      int src;
      int dst;
      std::vector<T> data;
    };
    std::vector<std::vector<Entry>> outbound(static_cast<std::size_t>(num_sn));
    for (int r = 0; r < n; ++r) {
      const int sn = topo.supernode_of(r);
      if (sn == my_sn || send_counts[static_cast<std::size_t>(r)] == 0)
        continue;
      const auto c = chunk(r);
      outbound[static_cast<std::size_t>(sn)].push_back(
          {rank_, r, std::vector<T>(c.begin(), c.end())});
    }
    for (int m : topo.members(my_sn)) {
      if (m == rank_) continue;
      std::vector<std::uint64_t> header(1 + 2 * static_cast<std::size_t>(n));
      const std::size_t got =
          recv(std::span<std::uint64_t>(header), m, kTagUp);
      const std::uint64_t k = header[0];
      AP3_REQUIRE(got == 1 + 2 * k);
      std::size_t total = 0;
      for (std::uint64_t e = 0; e < k; ++e) total += header[2 + 2 * e];
      std::vector<T> payload(total);
      if (total > 0) {
        const std::size_t pn = recv(std::span<T>(payload), m, kTagUp);
        AP3_REQUIRE(pn == total);
      }
      std::size_t offset = 0;
      for (std::uint64_t e = 0; e < k; ++e) {
        const int dst = static_cast<int>(header[1 + 2 * e]);
        const std::size_t cnt = header[2 + 2 * e];
        outbound[static_cast<std::size_t>(topo.supernode_of(dst))].push_back(
            {m, dst,
             std::vector<T>(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                            payload.begin() +
                                static_cast<std::ptrdiff_t>(offset + cnt))});
        offset += cnt;
      }
    }

    // Phase 2 (mid) — one combined message per ordered supernode pair, sent
    // even when empty so every leader's receive sequence is deterministic.
    for (int t = 0; t < num_sn; ++t) {
      if (t == my_sn) continue;
      const std::vector<Entry>& entries =
          outbound[static_cast<std::size_t>(t)];
      std::vector<std::uint64_t> header{
          static_cast<std::uint64_t>(entries.size())};
      std::vector<T> payload;
      for (const Entry& e : entries) {
        header.push_back(static_cast<std::uint64_t>(e.src));
        header.push_back(static_cast<std::uint64_t>(e.dst));
        header.push_back(static_cast<std::uint64_t>(e.data.size()));
        payload.insert(payload.end(), e.data.begin(), e.data.end());
      }
      send(std::span<const std::uint64_t>(header), topo.leader(t), kTagMid);
      if (!payload.empty())
        send(std::span<const T>(payload), topo.leader(t), kTagMid);
    }

    // Receive mid from every other leader in supernode order; entries arrive
    // (src asc, dst asc) within each message, so per-member collections end
    // up sorted by (supernode(src), src) — the down-header order.
    struct InEntry {
      int src;
      std::vector<T> data;
    };
    std::vector<std::vector<InEntry>> for_member(static_cast<std::size_t>(n));
    for (int s = 0; s < num_sn; ++s) {
      if (s == my_sn) continue;
      const std::size_t max_entries =
          topo.members(s).size() * topo.members(my_sn).size();
      std::vector<std::uint64_t> header(1 + 3 * max_entries);
      const std::size_t got =
          recv(std::span<std::uint64_t>(header), topo.leader(s), kTagMid);
      const std::uint64_t k = header[0];
      AP3_REQUIRE(got == 1 + 3 * k);
      std::size_t total = 0;
      for (std::uint64_t e = 0; e < k; ++e) total += header[3 + 3 * e];
      std::vector<T> payload(total);
      if (total > 0) {
        const std::size_t pn =
            recv(std::span<T>(payload), topo.leader(s), kTagMid);
        AP3_REQUIRE(pn == total);
      }
      std::size_t offset = 0;
      for (std::uint64_t e = 0; e < k; ++e) {
        const int src = static_cast<int>(header[1 + 3 * e]);
        const int dst = static_cast<int>(header[2 + 3 * e]);
        const std::size_t cnt = header[3 + 3 * e];
        std::vector<T> data(
            payload.begin() + static_cast<std::ptrdiff_t>(offset),
            payload.begin() + static_cast<std::ptrdiff_t>(offset + cnt));
        offset += cnt;
        if (dst == rank_) {
          recv_counts[static_cast<std::size_t>(src)] = cnt;
          from_src[static_cast<std::size_t>(src)] = std::move(data);
        } else {
          for_member[static_cast<std::size_t>(dst)].push_back(
              {src, std::move(data)});
        }
      }
    }

    // Phase 3 (down) — redistribute to members: header [k, (src, cnt) x k],
    // then the concatenated payload when non-empty.
    for (int m : topo.members(my_sn)) {
      if (m == rank_) continue;
      const std::vector<InEntry>& entries =
          for_member[static_cast<std::size_t>(m)];
      std::vector<std::uint64_t> header{
          static_cast<std::uint64_t>(entries.size())};
      std::vector<T> payload;
      for (const InEntry& e : entries) {
        header.push_back(static_cast<std::uint64_t>(e.src));
        header.push_back(static_cast<std::uint64_t>(e.data.size()));
        payload.insert(payload.end(), e.data.begin(), e.data.end());
      }
      send(std::span<const std::uint64_t>(header), m, kTagDown);
      if (!payload.empty()) send(std::span<const T>(payload), m, kTagDown);
    }
  } else {
    // Non-leader: one down message from the leader carries everything that
    // originated outside this supernode.
    std::vector<std::uint64_t> header(1 + 2 * static_cast<std::size_t>(n));
    const std::size_t got =
        recv(std::span<std::uint64_t>(header), my_leader, kTagDown);
    const std::uint64_t k = header[0];
    AP3_REQUIRE(got == 1 + 2 * k);
    std::size_t total = 0;
    for (std::uint64_t e = 0; e < k; ++e) total += header[2 + 2 * e];
    std::vector<T> payload(total);
    if (total > 0) {
      const std::size_t pn =
          recv(std::span<T>(payload), my_leader, kTagDown);
      AP3_REQUIRE(pn == total);
    }
    std::size_t offset = 0;
    for (std::uint64_t e = 0; e < k; ++e) {
      const int src = static_cast<int>(header[1 + 2 * e]);
      const std::size_t cnt = header[2 + 2 * e];
      recv_counts[static_cast<std::size_t>(src)] = cnt;
      from_src[static_cast<std::size_t>(src)]
          .assign(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.begin() + static_cast<std::ptrdiff_t>(offset + cnt));
      offset += cnt;
    }
  }

  // Intra receives (count then payload), any member order is fine — sources
  // are explicit.
  for (int r : topo.members(my_sn)) {
    if (r == rank_) continue;
    const std::uint64_t cnt = recv_value<std::uint64_t>(r, kTagIntra);
    recv_counts[static_cast<std::size_t>(r)] = cnt;
    if (cnt > 0) {
      from_src[static_cast<std::size_t>(r)].resize(cnt);
      const std::size_t pn = recv(
          std::span<T>(from_src[static_cast<std::size_t>(r)]), r, kTagIntra);
      AP3_REQUIRE(pn == cnt);
    }
  }

  // Assemble in global source-rank order — byte-for-byte the flat layout.
  std::size_t total = 0;
  for (std::size_t c : recv_counts) total += c;
  std::vector<T> out;
  out.reserve(total);
  for (int r = 0; r < n; ++r) {
    if (r == rank_) {
      const auto c = chunk(rank_);
      out.insert(out.end(), c.begin(), c.end());
    } else {
      const std::vector<T>& data = from_src[static_cast<std::size_t>(r)];
      out.insert(out.end(), data.begin(), data.end());
    }
  }
  return out;
}

}  // namespace ap3::par
