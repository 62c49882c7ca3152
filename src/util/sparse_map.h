/// \file sparse_map.h
/// Open-addressing hash map from uint32 keys to small values.
///
/// The cost-distance solver keeps one Dijkstra label set *per active sink*;
/// label sets are sparse relative to |V(G)|, so a dense array per search
/// would cost O(t * n) memory. This map gives near-array speed at
/// memory proportional to labels actually touched.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace cdst {

/// Linear-probing hash map. Key 0xffffffff is reserved as the empty marker.
template <typename V>
class SparseMap {
 public:
  using Key = std::uint32_t;
  static constexpr Key kEmpty = 0xffffffffu;

  SparseMap() { rehash(16); }
  explicit SparseMap(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    rehash(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.assign(keys_.size(), kEmpty);
    size_ = 0;
  }

  /// clear() at the cost of the given keys' probe runs instead of the
  /// capacity. `for_each_key(visit)` calls visit(k) for keys that cover
  /// every key the map holds; repeats and absent keys are fine. Each visit
  /// empties the run from k's probe start to the next empty slot, and since
  /// nothing is ever erased, every held key sits in the run of its own
  /// probe start, so covering keys empty every slot. If the visited keys
  /// missed one, the emptied-slot count shows it and this falls back to
  /// clear().
  template <typename F>
  void clear_covering(F&& for_each_key) {
    std::size_t emptied = 0;
    for_each_key([&](Key k) {
      for (std::size_t i = probe_start(k); keys_[i] != kEmpty;
           i = (i + 1) & mask_) {
        keys_[i] = kEmpty;
        ++emptied;
      }
    });
    if (emptied != size_) {
      clear();
      return;
    }
    size_ = 0;
  }

  /// Returns a pointer to the value for key, or nullptr if absent.
  V* find(Key key) {
    CDST_ASSERT(key != kEmpty);
    std::size_t i = probe_start(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  const V* find(Key key) const {
    return const_cast<SparseMap*>(this)->find(key);
  }

  /// Returns the value for key, inserting a default-constructed one if
  /// absent.
  V& operator[](Key key) {
    CDST_ASSERT(key != kEmpty);
    if ((size_ + 1) * 4 > keys_.size() * 3) rehash(keys_.size() * 2);
    std::size_t i = probe_start(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    vals_[i] = V{};
    ++size_;
    return vals_[i];
  }

  bool contains(Key key) const { return find(key) != nullptr; }

  /// Visits every (key, value) pair; f(Key, V&).
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) f(keys_[i], vals_[i]);
    }
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) f(keys_[i], vals_[i]);
    }
  }

 private:
  std::size_t probe_start(Key key) const {
    // Fibonacci hashing spreads sequential grid ids well.
    return (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull >> 32) &
           mask_;
  }

  void rehash(std::size_t new_cap) {
    CDST_ASSERT((new_cap & (new_cap - 1)) == 0);
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = probe_start(old_keys[i]);
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
      ++size_;
    }
  }

  std::vector<Key> keys_;
  std::vector<V> vals_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

}  // namespace cdst
