/// \file d_ary_heap.h
/// Cache-aligned addressable d-ary min-heap (default arity 4) plus a plain
/// (non-addressable) d-ary priority queue.
///
/// A 4-ary heap stores siblings contiguously, so sift-down touches about
/// half as many cache lines as a binary heap at the price of three extra key
/// comparisons per level. On the Dijkstra-shaped workloads of this repo
/// (push/decrease-heavy, m = O(n)) that trade wins — see bench_heaps'
/// BinaryHeapChurn and DAryHeapChurn rows. The addressable variant is
/// the backend of the search kernels (BinaryHeap is its arity-2 instance)
/// and of the two-level solver queue.
///
/// Layout: keys and ids live in separate line-aligned arrays, and the root
/// sits at storage index Arity - 1, so the children of every node — one
/// sibling group, the block sift-down scans — start at a multiple of Arity.
/// With a power-of-two arity no group straddles a line: a 4-ary group of
/// double keys is one aligned 32-byte block. The min-child scan reads only the key array. The layout
/// changes no comparison: every operation performs exactly the comparisons
/// and moves of the textbook array-of-structs heap, in the same order, so
/// the pop order among equal keys — which decides the solver's trees — is
/// the same (pinned by util_test's tie-order differential test).

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/simd.h"

namespace cdst {

/// Addressable d-ary min-heap over (id, key) pairs with O(1) contains and
/// decrease-key lookup via a position map. Each id may be present at most
/// once. clear() costs O(size) and keeps every allocation, so one heap can
/// be recycled across searches without re-touching its position map.
template <typename Key, unsigned Arity = 4>
class DAryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Id = std::uint32_t;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  DAryHeap() = default;
  explicit DAryHeap(std::size_t capacity) { reserve(capacity); }

  void reserve(std::size_t capacity) {
    if (keys_.size() < kRoot + capacity) grow_to(kRoot + capacity);
    if (pos_.size() < capacity) pos_.resize(capacity, kNpos);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  bool contains(Id id) const { return id < pos_.size() && pos_[id] != kNpos; }

  const Key& key_of(Id id) const {
    CDST_ASSERT(contains(id));
    return keys_[pos_[id]];
  }

  /// Smallest key in the heap. Precondition: !empty().
  const Key& min_key() const {
    CDST_ASSERT(!empty());
    return keys_[kRoot];
  }

  /// Id with the smallest key. Precondition: !empty().
  Id min_id() const {
    CDST_ASSERT(!empty());
    return ids_[kRoot];
  }

  /// Inserts id with the given key. Precondition: !contains(id).
  void push(Id id, const Key& key) {
    const Key k = key;  // `key` may point into keys_, which may grow
    ensure_pos(id);
    CDST_ASSERT(pos_[id] == kNpos);
    const std::size_t i = end();
    if (i >= keys_.size()) grow_to(std::max<std::size_t>(2 * i, kMinSlots));
    ++size_;
    sift_up(i, k, id);
  }

  /// Inserts or lowers the key of id; returns true if the heap changed.
  bool push_or_decrease(Id id, const Key& key) {
    if (!contains(id)) {
      push(id, key);
      return true;
    }
    if (key < keys_[pos_[id]]) {
      sift_up(pos_[id], key, id);
      return true;
    }
    return false;
  }

  /// Lowers the key of an existing id. Precondition: key <= current key.
  void decrease_key(Id id, const Key& key) {
    CDST_ASSERT(contains(id));
    CDST_ASSERT(!(keys_[pos_[id]] < key));
    sift_up(pos_[id], key, id);
  }

  /// Removes and returns the id with the smallest key.
  Id pop_min() {
    CDST_ASSERT(!empty());
    const Id top = ids_[kRoot];
    remove_at(kRoot);
    return top;
  }

  /// Removes an arbitrary contained id.
  void erase(Id id) {
    CDST_ASSERT(contains(id));
    remove_at(pos_[id]);
  }

  void clear() {
    for (std::size_t i = kRoot; i < end(); ++i) pos_[ids_[i]] = kNpos;
    size_ = 0;
  }

 private:
  /// Storage index of the root: the padding in front of it aligns every
  /// sibling group (storage [Arity * k, Arity * k + Arity)) to Arity slots.
  static constexpr std::size_t kRoot = Arity - 1;
  /// Storage slots of the first allocation: two lines of double keys, a
  /// multiple of every arity the repo uses.
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kLineBytes = 64;

  template <typename T>
  using LineVector = std::vector<T, AlignedAllocator<T, kLineBytes>>;

  std::size_t end() const { return kRoot + size_; }

  /// Parent and first child in storage indices: logical position l lives
  /// at l + kRoot, with parent (l - 1) / Arity and children Arity * l + 1..
  static std::size_t parent(std::size_t i) { return i / Arity + Arity - 2; }
  static std::size_t first_child(std::size_t i) {
    return Arity * (i + 2 - Arity);
  }

  void grow_to(std::size_t slots) {
    keys_.resize(slots);
    ids_.resize(slots);
  }

  void ensure_pos(Id id) {
    if (id >= pos_.size()) pos_.resize(static_cast<std::size_t>(id) + 1, kNpos);
  }

  void place(std::size_t i, const Key& key, Id id) {
    keys_[i] = key;
    ids_[i] = id;
    pos_[id] = static_cast<std::uint32_t>(i);
  }

  void remove_at(std::size_t i) {
    pos_[ids_[i]] = kNpos;
    const std::size_t last = end() - 1;
    --size_;
    if (i == last) return;
    // The last element fills the hole and may need to go either way.
    const Key key = keys_[last];
    const Id id = ids_[last];
    if (i > kRoot && key < keys_[parent(i)]) {
      sift_up(i, key, id);
    } else {
      sift_down(i, key, id);
    }
  }

  /// Moves (key, id) from slot i toward the root, shifting larger parents
  /// down, and stores it where it stops. The key is taken by value: a
  /// caller may pass a reference into this heap's own storage.
  void sift_up(std::size_t i, const Key key, Id id) {
    while (i > kRoot) {
      const std::size_t p = parent(i);
      if (!(key < keys_[p])) break;
      place(i, keys_[p], ids_[p]);
      i = p;
    }
    place(i, key, id);
  }

  /// Moves (key, id) from slot i toward the leaves, pulling up the first
  /// smallest child of each sibling group, and stores it where it stops.
  void sift_down(std::size_t i, const Key key, Id id) {
    const std::size_t n = end();
    while (true) {
      const std::size_t first = first_child(i);
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      // The same comparisons as `keys_[c] < keys_[best]`, with the running
      // minimum held in a register so the selection compiles to
      // conditional moves.
      std::size_t best = first;
      Key best_key = keys_[first];
      for (std::size_t c = first + 1; c < last; ++c) {
        const Key k = keys_[c];
        const bool lower = k < best_key;
        best = lower ? c : best;
        best_key = lower ? k : best_key;
      }
      if (!(best_key < key)) break;
      place(i, best_key, ids_[best]);
      i = best;
    }
    place(i, key, id);
  }

  LineVector<Key> keys_;  ///< storage; slots [kRoot, end()) hold the heap
  LineVector<Id> ids_;    ///< parallel to keys_
  std::vector<std::uint32_t> pos_;  ///< id -> storage index, kNpos if absent
  std::size_t size_{0};
};

/// Plain d-ary min-queue over values ordered by operator<: push/top/pop only,
/// duplicates allowed. The lazy-deletion variant of the solver queue pushes
/// many duplicate entries per label, so it needs exactly this (an
/// addressable heap's position map would be wasted work there).
template <typename T, unsigned Arity = 4>
class DAryQueue {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }
  void clear() { heap_.clear(); }

  const T& top() const {
    CDST_ASSERT(!empty());
    return heap_[0];
  }

  void push(T value) {
    std::size_t i = heap_.size();
    heap_.push_back(std::move(value));
    while (i > 0) {
      const std::size_t p = (i - 1) / Arity;
      if (!(heap_[i] < heap_[p])) break;
      std::swap(heap_[i], heap_[p]);
      i = p;
    }
  }

  void pop() {
    CDST_ASSERT(!empty());
    heap_[0] = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (!(heap_[best] < heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

 private:
  std::vector<T> heap_;
};

}  // namespace cdst
