/// \file two_level_heap.h
/// Two-level heap structure from Section III-B of the paper.
///
/// Global routing graphs satisfy m = O(n), so binary heaps beat Fibonacci
/// heaps in practice. The cost-distance solver runs one Dijkstra *per active
/// sink*; this structure keeps one sub-heap per search plus a top-level heap
/// over the per-search minima, so extracting the globally cheapest label is
/// O(log #searches + log #labels) and work can stay inside a single sub-heap
/// while its minimum remains globally minimal. The per-group heaps default
/// to the cache-aligned 4-ary heap (see d_ary_heap.h); any addressable heap
/// with the BinaryHeap API works.
///
/// The structure is built to be recycled: clear() visits only the groups
/// used since the last clear, and every sub-heap keeps its storage and its
/// position map, so a solver that reuses one instance across solves stops
/// allocating once it has seen its largest solve.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/d_ary_heap.h"

namespace cdst {

/// Min-heap of min-heaps. Sub-heaps ("groups") and entries are identified by
/// dense uint32 ids chosen by the caller. Each (group, entry) pair may be
/// present at most once.
template <typename Key, typename SubHeap = DAryHeap<Key, 4>>
class TwoLevelHeap {
 public:
  using GroupId = std::uint32_t;
  using EntryId = std::uint32_t;

  struct Min {
    GroupId group;
    EntryId entry;
    Key key;
  };

  /// Creates/activates an empty group. Groups can be reused after erase.
  void ensure_group(GroupId g) {
    if (g >= subs_.size()) subs_.resize(static_cast<std::size_t>(g) + 1);
    groups_used_ = std::max(groups_used_, static_cast<std::size_t>(g) + 1);
  }

  bool empty() const { return top_.empty(); }

  /// Total number of entries across all groups (O(#groups)).
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t g = 0; g < groups_used_; ++g) n += subs_[g].size();
    return n;
  }

  bool group_empty(GroupId g) const {
    return g >= subs_.size() || subs_[g].empty();
  }

  /// Inserts or decreases (group, entry) with the given key.
  /// Returns true if the entry's key changed (inserted or lowered).
  bool push_or_decrease(GroupId g, EntryId e, const Key& key) {
    ensure_group(g);
    const bool changed = subs_[g].push_or_decrease(e, key);
    if (changed) refresh_top(g);
    return changed;
  }

  bool contains(GroupId g, EntryId e) const {
    return g < subs_.size() && subs_[g].contains(e);
  }

  /// Peeks the global minimum. Precondition: !empty().
  Min global_min() const {
    CDST_ASSERT(!top_.empty());
    const GroupId g = top_.min_id();
    return Min{g, subs_[g].min_id(), subs_[g].min_key()};
  }

  /// Pops and returns the global minimum. Precondition: !empty().
  Min pop_global_min() {
    CDST_ASSERT(!top_.empty());
    const GroupId g = top_.min_id();
    CDST_ASSERT(!subs_[g].empty());
    Min out{g, subs_[g].min_id(), subs_[g].min_key()};
    subs_[g].pop_min();
    refresh_top(g);
    return out;
  }

  /// Removes every entry of group g (e.g. when a search is deactivated).
  void erase_group(GroupId g) {
    if (g >= subs_.size()) return;
    subs_[g].clear();
    if (top_.contains(g)) top_.erase(g);
  }

  /// Empties every group, including entries a caller abandoned mid-way
  /// (an unwound solve). Costs O(groups used + entries held) since the last
  /// clear and keeps every allocation.
  void clear() {
    for (std::size_t g = 0; g < groups_used_; ++g) subs_[g].clear();
    groups_used_ = 0;
    top_.clear();
  }

 private:
  /// Re-synchronizes group g's key in the top-level heap with its sub-heap
  /// minimum (the sub minimum may have moved either way).
  void refresh_top(GroupId g) {
    if (subs_[g].empty()) {
      if (top_.contains(g)) top_.erase(g);
      return;
    }
    const Key& k = subs_[g].min_key();
    if (top_.contains(g)) {
      if (k < top_.key_of(g)) {
        top_.decrease_key(g, k);
      } else if (top_.key_of(g) < k) {
        top_.erase(g);
        top_.push(g, k);
      }
    } else {
      top_.push(g, k);
    }
  }

  std::vector<SubHeap> subs_;
  std::size_t groups_used_{0};  ///< groups [0, groups_used_) touched since clear
  SubHeap top_;
};

}  // namespace cdst
