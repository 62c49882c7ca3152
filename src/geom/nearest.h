/// \file nearest.h
/// L1 nearest-neighbour queries over a dynamic (shrinking) point set.
///
/// The goal-oriented path searches (paper Section III-C) need, per label
/// relaxation, a lower bound on the distance to the nearest *active* terminal
/// position. Terminal positions only disappear as components merge, so a
/// bucket grid with lazy deletion suffices: queries expand rings of buckets
/// around the query point until the best candidate can no longer improve.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.h"
#include "util/assert.h"
#include "util/simd.h"
#include "util/sparse_map.h"

namespace cdst {

/// Bucketed L1 nearest-neighbour structure over 2D integer points.
/// Points are identified by caller-chosen dense ids so they can be
/// deactivated in O(1).
///
/// Small active sets (the typical cost-distance solve keeps at most t+1
/// terminals live) skip the ring walk entirely: a compact structure-of-
/// arrays mirror of the active points is scanned with a branch-light
/// min-reduction — a few cache lines of sequential int32 arithmetic beats a
/// hash probe per ring bucket by an order of magnitude. Both paths return
/// the same (minimum) distance, so the switch is invisible to callers.
class L1NearestNeighbor {
 public:
  /// Active-set size up to which queries linearly scan the SoA mirror
  /// instead of walking bucket rings.
  static constexpr std::size_t kLinearScanMax = 512;

  /// \param bucket_size side length of square buckets in grid units.
  explicit L1NearestNeighbor(std::int32_t bucket_size = 8)
      : bucket_size_(std::max(1, bucket_size)) {}

  /// Empties the structure and sets a new bucket size, keeping every
  /// allocation (point table, SoA mirror, bucket index and the buckets'
  /// storage). Afterwards it answers exactly like a freshly constructed
  /// one. Costs O(points active + buckets used).
  void reset(std::int32_t bucket_size) {
    bucket_size_ = std::max(1, bucket_size);
    for (const std::uint32_t id : act_ids_) points_[id].active = false;
    xs_.clear();
    ys_.clear();
    xd_.clear();
    yd_.clear();
    act_ids_.clear();
    bucket_index_.clear_covering([this](auto&& visit) {
      for (std::size_t b = 0; b < num_buckets_; ++b) {
        if (bucket_keys_[b] != SparseMap<std::uint32_t>::kEmpty) {
          visit(bucket_keys_[b]);
        }
      }
    });
    for (std::size_t b = 0; b < num_buckets_; ++b) buckets_[b].clear();
    num_buckets_ = 0;
    corner_slot_ = 0;
    org_x_ = org_y_ = 0;
    lo_x_ = hi_x_ = lo_y_ = hi_y_ = 0;
    active_count_ = 0;
  }

  /// Inserts point p with identifier id. Ids must be unique.
  void insert(std::uint32_t id, const Point2& p) {
    if (id >= points_.size()) {
      points_.resize(static_cast<std::size_t>(id) + 1,
                     Entry{Point2{}, false, 0});
    }
    CDST_ASSERT(!points_[id].active);
    points_[id] = Entry{p, true, static_cast<std::uint32_t>(act_ids_.size())};
    xs_.push_back(p.x);
    ys_.push_back(p.y);
    xd_.push_back(static_cast<double>(p.x));
    yd_.push_back(static_cast<double>(p.y));
    act_ids_.push_back(id);
    bucket_of(p).push_back(id);
    ++active_count_;
  }

  /// Removes id: O(1) swap-removal from the SoA mirror; bucket entries are
  /// removed lazily (skipped at ring-walk query time).
  void erase(std::uint32_t id) {
    CDST_ASSERT(id < points_.size() && points_[id].active);
    points_[id].active = false;
    const std::uint32_t pos = points_[id].compact_pos;
    const std::uint32_t last = act_ids_.back();
    xs_[pos] = xs_.back();
    ys_[pos] = ys_.back();
    xd_[pos] = xd_.back();
    yd_[pos] = yd_.back();
    act_ids_[pos] = last;
    points_[last].compact_pos = pos;
    xs_.pop_back();
    ys_.pop_back();
    xd_.pop_back();
    yd_.pop_back();
    act_ids_.pop_back();
    --active_count_;
  }

  bool active(std::uint32_t id) const {
    return id < points_.size() && points_[id].active;
  }

  std::size_t active_count() const { return active_count_; }

  struct Result {
    std::uint32_t id{0xffffffffu};
    std::int64_t distance{std::numeric_limits<std::int64_t>::max()};
    bool found{false};
  };

  /// Nearest active point to q, optionally excluding one id.
  Result nearest(const Point2& q,
                 std::uint32_t exclude_id = 0xffffffffu) const {
    Result best;
    if (active_count_ == 0 ||
        (active_count_ == 1 && active(exclude_id))) {
      return best;
    }
    if (active_count_ <= kLinearScanMax) return nearest_linear(q, exclude_id);
    const std::int32_t qbx = bucket_coord(q.x);
    const std::int32_t qby = bucket_coord(q.y);
    // Expand square rings of buckets. A ring at radius r contains all points
    // with L1 distance >= (r-1)*bucket_size from q, so once the best found
    // distance is below that bound we can stop. The query point may lie
    // outside the occupied bucket extent, so size the sweep to reach every
    // occupied bucket from the query bucket.
    const std::int32_t max_ring =
        std::max({qbx - lo_x_, hi_x_ - qbx, qby - lo_y_, hi_y_ - qby}) + 1;
    for (std::int32_t r = 0; r <= max_ring; ++r) {
      const std::int64_t ring_lb =
          static_cast<std::int64_t>(std::max(0, r - 1)) * bucket_size_;
      if (best.found && best.distance <= ring_lb) break;
      visit_ring(qbx, qby, r, [&](const std::vector<std::uint32_t>& bucket) {
        for (const std::uint32_t id : bucket) {
          if (!points_[id].active || id == exclude_id) continue;
          const std::int64_t d = l1_distance(points_[id].p, q);
          if (d < best.distance) {
            best = Result{id, d, true};
          }
        }
      });
    }
    return best;
  }

  /// Distance to the nearest active point (max() if none), optionally
  /// excluding one id. This is the solver's bound path: it never needs the
  /// winning id, so the linear-scan regime runs Vec4d-wide over a double
  /// mirror of the SoA — int32 coordinates and their L1 sums are exact
  /// doubles, and the minimum of exact values is the same value under any
  /// association order, so this returns bit-identically what
  /// nearest(q, exclude_id).distance would (ids break ties there, never
  /// the distance).
  std::int64_t nearest_distance(const Point2& q,
                                std::uint32_t exclude_id = 0xffffffffu) const {
    constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
    if (active_count_ == 0 || (active_count_ == 1 && active(exclude_id))) {
      return kNone;
    }
    if (active_count_ > kLinearScanMax) return nearest(q, exclude_id).distance;
    const std::size_t n = act_ids_.size();
    // The excluded point's lanes blend to +inf instead of branching per
    // element; `epos - i` wraps for groups left of it, keeping the group
    // test a single compare.
    const std::size_t epos =
        active(exclude_id) ? points_[exclude_id].compact_pos : n;
    const double qx = static_cast<double>(q.x);
    const double qy = static_cast<double>(q.y);
    const Vec4d qx4 = Vec4d::broadcast(qx);
    const Vec4d qy4 = Vec4d::broadcast(qy);
    const Vec4d inf4 =
        Vec4d::broadcast(std::numeric_limits<double>::infinity());
    Vec4d best4 = inf4;
    std::size_t i = 0;
    for (; i + Vec4d::kLanes <= n; i += Vec4d::kLanes) {
      Vec4d d = Vec4d::abs(Vec4d::load(xd_.data() + i) - qx4) +
                Vec4d::abs(Vec4d::load(yd_.data() + i) - qy4);
      if (epos - i < Vec4d::kLanes) {
        d = Vec4d::blend(d, inf4, 1 << (epos - i));
      }
      best4 = Vec4d::min(best4, d);
    }
    double bd = best4.hmin();
    for (; i < n; ++i) {
      if (i == epos) continue;
      const double d = std::abs(xd_[i] - qx) + std::abs(yd_[i] - qy);
      bd = d < bd ? d : bd;
    }
    return bd == std::numeric_limits<double>::infinity()
               ? kNone
               : static_cast<std::int64_t>(bd);
  }

 private:
  struct Entry {
    Point2 p;
    bool active{false};
    std::uint32_t compact_pos{0};  ///< index in the SoA mirror while active
  };

  /// Branch-light SoA min-reduction over the active set (conditional moves,
  /// no hash probes, sequential loads).
  Result nearest_linear(const Point2& q, std::uint32_t exclude_id) const {
    const std::size_t n = act_ids_.size();
    std::int64_t bd = std::numeric_limits<std::int64_t>::max();
    std::uint32_t bid = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t d =
          std::abs(static_cast<std::int64_t>(xs_[i]) - q.x) +
          std::abs(static_cast<std::int64_t>(ys_[i]) - q.y);
      const bool better = d < bd && act_ids_[i] != exclude_id;
      bd = better ? d : bd;
      bid = better ? act_ids_[i] : bid;
    }
    if (bid == 0xffffffffu) return {};
    return Result{bid, bd, true};
  }

  std::int32_t bucket_coord(std::int32_t v) const {
    // Floor division for negatives.
    return v >= 0 ? v / bucket_size_ : -((-v + bucket_size_ - 1) / bucket_size_);
  }

  /// Whether bucket coordinates fit the packed uint32 key space. Keys are
  /// taken relative to the first inserted point's bucket, so the +-32k span
  /// bounds the structure's *extent* in buckets (any chip fits), not its
  /// absolute position. Ring sweeps may step outside this range; only
  /// inserts must stay inside it.
  bool packable(std::int32_t bx, std::int32_t by) const {
    const std::int32_t rx = bx - org_x_;
    const std::int32_t ry = by - org_y_;
    return rx >= -0x8000 && rx < 0x8000 && ry >= -0x8000 && ry < 0x8000;
  }

  std::uint32_t bucket_key(std::int32_t bx, std::int32_t by) const {
    CDST_ASSERT(packable(bx, by));
    return (static_cast<std::uint32_t>(bx - org_x_ + 0x8000) << 16) |
           static_cast<std::uint32_t>(by - org_y_ + 0x8000);
  }

  std::vector<std::uint32_t>& bucket_of(const Point2& p) {
    const std::int32_t bx = bucket_coord(p.x);
    const std::int32_t by = bucket_coord(p.y);
    if (num_buckets_ == 0) {
      org_x_ = bx;  // anchor the packed key space at the first point
      org_y_ = by;
    }
    // Hard input-domain check (survives Release): a wrapped key would file
    // the point under an aliased bucket and silently corrupt queries.
    CDST_CHECK_MSG(packable(bx, by),
                   "L1NearestNeighbor: point set spans > 32k buckets");
    const std::uint32_t key = bucket_key(bx, by);
    // Exactly one coordinate pair packs to the SparseMap's reserved empty
    // marker; route it to a dedicated slot instead of the map.
    std::uint32_t& slot = key == SparseMap<std::uint32_t>::kEmpty
                              ? corner_slot_
                              : bucket_index_[key];
    if (slot == 0) {
      if (num_buckets_ == buckets_.size()) {
        buckets_.emplace_back();
        bucket_keys_.push_back(key);
      } else {
        bucket_keys_[num_buckets_] = key;
      }
      slot = static_cast<std::uint32_t>(++num_buckets_);  // index + 1
      track_extent(bx, by);
    }
    return buckets_[slot - 1];
  }

  const std::vector<std::uint32_t>* find_bucket(std::int32_t bx,
                                                std::int32_t by) const {
    // Ring sweeps around edge-of-range buckets probe coords with no
    // representable key; those buckets cannot exist (inserts assert).
    if (!packable(bx, by)) return nullptr;
    const std::uint32_t key = bucket_key(bx, by);
    if (key == SparseMap<std::uint32_t>::kEmpty) {
      return corner_slot_ == 0 ? nullptr : &buckets_[corner_slot_ - 1];
    }
    const std::uint32_t* slot = bucket_index_.find(key);
    return slot == nullptr ? nullptr : &buckets_[*slot - 1];
  }

  void track_extent(std::int32_t bx, std::int32_t by) {
    lo_x_ = std::min(lo_x_, bx);
    hi_x_ = std::max(hi_x_, bx);
    lo_y_ = std::min(lo_y_, by);
    hi_y_ = std::max(hi_y_, by);
  }

  template <typename F>
  void visit_ring(std::int32_t cx, std::int32_t cy, std::int32_t r,
                  F&& f) const {
    if (r == 0) {
      if (const auto* b = find_bucket(cx, cy)) f(*b);
      return;
    }
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      if (const auto* b = find_bucket(cx + dx, cy - r)) f(*b);
      if (const auto* b = find_bucket(cx + dx, cy + r)) f(*b);
    }
    for (std::int32_t dy = -r + 1; dy <= r - 1; ++dy) {
      if (const auto* b = find_bucket(cx - r, cy + dy)) f(*b);
      if (const auto* b = find_bucket(cx + r, cy + dy)) f(*b);
    }
  }

  std::int32_t bucket_size_;
  std::vector<Entry> points_;
  // SoA mirror of the active set (parallel arrays, swap-removal on erase).
  // xd_/yd_ duplicate xs_/ys_ as doubles so nearest_distance loads lanes
  // without per-element int->double conversion.
  std::vector<std::int32_t> xs_;
  std::vector<std::int32_t> ys_;
  std::vector<double> xd_;
  std::vector<double> yd_;
  std::vector<std::uint32_t> act_ids_;
  // Open-addressed coord -> bucket index. Ring queries probe O(r) buckets
  // per ring, so the lookup must be O(1) — a linear scan over the bucket
  // list turns large-terminal-count queries quadratic (it was ~80% of the
  // solver profile at t = 128 before this index existed).
  SparseMap<std::uint32_t> bucket_index_;
  std::uint32_t corner_slot_{0};  ///< bucket whose key packs to kEmpty
  /// Buckets [0, num_buckets_) are live; later ones are emptied storage
  /// kept for reuse after reset().
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> bucket_keys_;  ///< packed key of each bucket
  std::size_t num_buckets_{0};
  std::int32_t org_x_{0}, org_y_{0};  ///< key-space anchor (first bucket)
  std::int32_t lo_x_{0}, hi_x_{0}, lo_y_{0}, hi_y_{0};
  std::size_t active_count_{0};
};

}  // namespace cdst
