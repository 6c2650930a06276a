// GlobalSegMap — MCT's decomposition descriptor (§5.2.4).
//
// A GSMap is a globally replicated run-length description of which rank owns
// which global grid points: a list of (global_start, length, pe) segments.
// The paper notes that *building* GSMaps and Router tables at init exceeds
// the memory of a Sunway core group, so both structures support offline
// generation: serialize() writes a compact binary blob as a preprocessing
// step and deserialize() loads it at model init.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "par/comm.hpp"

namespace ap3::mct {

struct Segment {
  std::int64_t gstart = 0;
  std::int64_t length = 0;
  int pe = 0;
};

class GlobalSegMap {
 public:
  GlobalSegMap() = default;

  /// Collective constructor: every rank passes its sorted owned global ids;
  /// the segments are assembled by an allgather (the expensive online path).
  static GlobalSegMap build(const par::Comm& comm,
                            const std::vector<std::int64_t>& owned_ids);

  /// Sequential constructor for offline preprocessing: all ranks' id lists.
  static GlobalSegMap from_all(
      const std::vector<std::vector<std::int64_t>>& ids_by_rank);

  std::int64_t gsize() const { return gsize_; }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Owning rank of a global id; throws if unmapped.
  int owner(std::int64_t gid) const;
  bool contains(std::int64_t gid) const;

  /// Local position of `gid` within rank `pe`'s point ordering (points are
  /// ordered by segment order, then offset within segment).
  std::int64_t local_index(int pe, std::int64_t gid) const;
  /// Number of points owned by `pe`.
  std::int64_t local_size(int pe) const;
  /// The owned global ids of `pe`, in local point order.
  std::vector<std::int64_t> local_ids(int pe) const;

  // --- offline precompute (§5.2.4) ---------------------------------------
  std::vector<std::uint8_t> serialize() const;
  static GlobalSegMap deserialize(const std::vector<std::uint8_t>& blob);
  void save(const std::string& path) const;
  static GlobalSegMap load(const std::string& path);

  bool operator==(const GlobalSegMap& other) const {
    return gsize_ == other.gsize_ && num_pes_ == other.num_pes_ &&
           segments_.size() == other.segments_.size() &&
           std::equal(segments_.begin(), segments_.end(),
                      other.segments_.begin(),
                      [](const Segment& a, const Segment& b) {
                        return a.gstart == b.gstart && a.length == b.length &&
                               a.pe == b.pe;
                      });
  }

 private:
  void finalize();
  std::vector<Segment> segments_;  // sorted by (pe, gstart)
  std::int64_t gsize_ = 0;
  int num_pes_ = 0;
};

}  // namespace ap3::mct
