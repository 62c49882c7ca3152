// Tests for the utility substrate: heaps, DSU, RNG, sparse map, stats, args.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>

#include "util/args.h"
#include "util/binary_heap.h"
#include "util/d_ary_heap.h"
#include "util/disjoint_set.h"
#include "util/rng.h"
#include "util/sparse_map.h"
#include "util/stats.h"
#include "util/two_level_heap.h"

namespace cdst {
namespace {

TEST(BinaryHeap, BasicOrdering) {
  BinaryHeap<double> h;
  h.push(3, 3.0);
  h.push(1, 1.0);
  h.push(2, 2.0);
  EXPECT_EQ(h.min_id(), 1u);
  EXPECT_DOUBLE_EQ(h.min_key(), 1.0);
  EXPECT_EQ(h.pop_min(), 1u);
  EXPECT_EQ(h.pop_min(), 2u);
  EXPECT_EQ(h.pop_min(), 3u);
  EXPECT_TRUE(h.empty());
}

TEST(BinaryHeap, DecreaseKeyMovesItemUp) {
  BinaryHeap<double> h;
  for (std::uint32_t i = 0; i < 10; ++i) h.push(i, 100.0 + i);
  h.decrease_key(7, 1.0);
  EXPECT_EQ(h.min_id(), 7u);
  EXPECT_TRUE(h.contains(7));
  EXPECT_DOUBLE_EQ(h.key_of(7), 1.0);
}

TEST(BinaryHeap, PushOrDecreaseIgnoresLargerKey) {
  BinaryHeap<double> h;
  h.push(0, 5.0);
  EXPECT_FALSE(h.push_or_decrease(0, 9.0));
  EXPECT_DOUBLE_EQ(h.key_of(0), 5.0);
  EXPECT_TRUE(h.push_or_decrease(0, 2.0));
  EXPECT_DOUBLE_EQ(h.key_of(0), 2.0);
}

TEST(BinaryHeap, EraseArbitrary) {
  BinaryHeap<int> h;
  for (std::uint32_t i = 0; i < 20; ++i) h.push(i, static_cast<int>(i));
  h.erase(0);
  h.erase(10);
  EXPECT_FALSE(h.contains(0));
  EXPECT_FALSE(h.contains(10));
  int prev = -1;
  while (!h.empty()) {
    const int k = h.min_key();
    EXPECT_GT(k, prev);
    prev = k;
    h.pop_min();
  }
}

class HeapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapPropertyTest, BinaryHeapMatchesStdPriorityQueue) {
  Rng rng(GetParam());
  BinaryHeap<double> heap;
  std::map<std::uint32_t, double> reference;  // id -> key
  for (int step = 0; step < 3000; ++step) {
    const double action = rng.uniform_double();
    if (action < 0.55 || reference.empty()) {
      const auto id = static_cast<std::uint32_t>(rng.uniform(500));
      const double key = rng.uniform_double(0.0, 1000.0);
      if (reference.count(id) != 0u) {
        if (key < reference[id]) {
          heap.decrease_key(id, key);
          reference[id] = key;
        }
      } else {
        heap.push(id, key);
        reference[id] = key;
      }
    } else {
      const std::uint32_t id = heap.pop_min();
      auto min_it = reference.begin();
      for (auto it = reference.begin(); it != reference.end(); ++it) {
        if (it->second < min_it->second) min_it = it;
      }
      EXPECT_DOUBLE_EQ(min_it->second, reference[id]);
      reference.erase(id);
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
}

TEST(DAryHeap, BasicOrderingAndDecrease) {
  DAryHeap<double, 4> h;
  for (std::uint32_t i = 0; i < 20; ++i) h.push(i, 100.0 + i);
  h.decrease_key(13, 1.0);
  EXPECT_EQ(h.min_id(), 13u);
  EXPECT_FALSE(h.push_or_decrease(5, 999.0));
  EXPECT_TRUE(h.push_or_decrease(5, 2.0));
  EXPECT_EQ(h.pop_min(), 13u);
  EXPECT_EQ(h.pop_min(), 5u);
  h.erase(7);
  EXPECT_FALSE(h.contains(7));
  double prev = -1.0;
  while (!h.empty()) {
    EXPECT_GT(h.min_key(), prev);
    prev = h.min_key();
    h.pop_min();
  }
}

TEST_P(HeapPropertyTest, DAryHeapMatchesBinaryHeap) {
  // Random push/decrease/pop/erase ops: the 4-ary heap must stay in lockstep
  // with the binary reference (unique keys so min ids never tie).
  Rng rng(GetParam() ^ 0x4a4a4a);
  BinaryHeap<double> bin;
  DAryHeap<double, 4> dary;
  for (int step = 0; step < 4000; ++step) {
    const double action = rng.uniform_double();
    if (action < 0.5 || bin.empty()) {
      const auto id = static_cast<std::uint32_t>(rng.uniform(400));
      const double key =
          rng.uniform_double(0.0, 1000.0) + static_cast<double>(id) * 1e-7;
      EXPECT_EQ(bin.push_or_decrease(id, key),
                dary.push_or_decrease(id, key));
    } else if (action < 0.58) {
      const std::uint32_t id = bin.min_id();
      bin.erase(id);
      dary.erase(id);
      EXPECT_FALSE(dary.contains(id));
    } else {
      ASSERT_DOUBLE_EQ(bin.min_key(), dary.min_key());
      ASSERT_EQ(bin.pop_min(), dary.pop_min());
    }
    ASSERT_EQ(bin.size(), dary.size());
  }
}

TEST_P(HeapPropertyTest, DAryQueueMatchesStdPriorityQueue) {
  // The plain (non-addressable, duplicates allowed) d-ary queue against the
  // std::priority_queue it replaces in the solver's lazy mode.
  Rng rng(GetParam() + 4096);
  DAryQueue<double, 4> dary;
  std::priority_queue<double, std::vector<double>, std::greater<>> ref;
  for (int step = 0; step < 6000; ++step) {
    if (rng.uniform_double() < 0.55 || ref.empty()) {
      const double key = rng.uniform_double(0.0, 1000.0);
      dary.push(key);
      ref.push(key);
    } else {
      ASSERT_DOUBLE_EQ(dary.top(), ref.top());
      dary.pop();
      ref.pop();
    }
    ASSERT_EQ(dary.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_DOUBLE_EQ(dary.top(), ref.top());
    dary.pop();
    ref.pop();
  }
  EXPECT_TRUE(dary.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(TwoLevelHeap, GlobalMinAcrossGroups) {
  TwoLevelHeap<double> h;
  h.push_or_decrease(0, 5, 50.0);
  h.push_or_decrease(1, 7, 10.0);
  h.push_or_decrease(2, 9, 30.0);
  auto m = h.pop_global_min();
  EXPECT_EQ(m.group, 1u);
  EXPECT_EQ(m.entry, 7u);
  EXPECT_DOUBLE_EQ(m.key, 10.0);
  m = h.pop_global_min();
  EXPECT_EQ(m.group, 2u);
  m = h.pop_global_min();
  EXPECT_EQ(m.group, 0u);
  EXPECT_TRUE(h.empty());
}

TEST(TwoLevelHeap, EraseGroupRemovesAllEntries) {
  TwoLevelHeap<double> h;
  for (std::uint32_t e = 0; e < 10; ++e) h.push_or_decrease(3, e, e * 1.0);
  h.push_or_decrease(1, 0, 100.0);
  h.erase_group(3);
  EXPECT_FALSE(h.empty());
  const auto m = h.pop_global_min();
  EXPECT_EQ(m.group, 1u);
  EXPECT_TRUE(h.empty());
}

TEST_P(HeapPropertyTest, TwoLevelMatchesFlatHeap) {
  Rng rng(GetParam() * 31337);
  TwoLevelHeap<double> two;
  // Reference: map from (group, entry) -> key.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> reference;
  for (int step = 0; step < 3000; ++step) {
    if (rng.uniform_double() < 0.6 || reference.empty()) {
      const auto g = static_cast<std::uint32_t>(rng.uniform(8));
      const auto e = static_cast<std::uint32_t>(rng.uniform(100));
      const double key = rng.uniform_double(0.0, 100.0);
      two.push_or_decrease(g, e, key);
      auto it = reference.find({g, e});
      if (it == reference.end()) {
        reference[{g, e}] = key;
      } else {
        it->second = std::min(it->second, key);
      }
    } else {
      const auto m = two.pop_global_min();
      double best = 1e18;
      for (const auto& [k, v] : reference) best = std::min(best, v);
      EXPECT_DOUBLE_EQ(m.key, best);
      reference.erase({m.group, m.entry});
    }
  }
}

// ---------------------------------------------------------------------------
// Tie-order differential test. The solver's trees depend on which of several
// equal-key labels pops first, and that order is fixed by the exact sequence
// of sift steps. The reference below is a frozen copy of the original
// array-of-structs heap and two-level heap; the production heaps must match
// it operation for operation with keys drawn from {0, 1, 2, 3}, so nearly
// every comparison ties.
namespace tie_ref {

template <typename Key, unsigned Arity>
class AosDAryHeap {
 public:
  using Id = std::uint32_t;
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(Id id) const { return id < pos_.size() && pos_[id] != kNpos; }
  const Key& key_of(Id id) const { return heap_[pos_[id]].key; }
  const Key& min_key() const { return heap_[0].key; }
  Id min_id() const { return heap_[0].id; }

  void push(Id id, const Key& key) {
    if (id >= pos_.size()) pos_.resize(static_cast<std::size_t>(id) + 1, kNpos);
    heap_.push_back(Entry{key, id});
    pos_[id] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }
  bool push_or_decrease(Id id, const Key& key) {
    if (!contains(id)) {
      push(id, key);
      return true;
    }
    if (key < heap_[pos_[id]].key) {
      heap_[pos_[id]].key = key;
      sift_up(pos_[id]);
      return true;
    }
    return false;
  }
  void decrease_key(Id id, const Key& key) {
    heap_[pos_[id]].key = key;
    sift_up(pos_[id]);
  }
  Id pop_min() {
    const Id top = heap_[0].id;
    remove_at(0);
    return top;
  }
  void erase(Id id) { remove_at(pos_[id]); }
  void clear() {
    for (const Entry& e : heap_) pos_[e.id] = kNpos;
    heap_.clear();
  }

 private:
  struct Entry {
    Key key;
    Id id;
  };
  static std::size_t parent(std::size_t i) { return (i - 1) / Arity; }
  void remove_at(std::size_t i) {
    pos_[heap_[i].id] = kNpos;
    if (i + 1 != heap_.size()) {
      heap_[i] = heap_.back();
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      heap_.pop_back();
      if (i > 0 && heap_[i].key < heap_[parent(i)].key) {
        sift_up(i);
      } else {
        sift_down(i);
      }
    } else {
      heap_.pop_back();
    }
  }
  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0 && e.key < heap_[parent(i)].key) {
      heap_[i] = heap_[parent(i)];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = parent(i);
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }
  void sift_down(std::size_t i) {
    Entry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = Arity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
      if (!(heap_[best].key < e.key)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = e;
    pos_[e.id] = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> pos_;
};

template <typename Key>
class TwoLevelHeap {
 public:
  using SubHeap = AosDAryHeap<Key, 4>;
  struct Min {
    std::uint32_t group;
    std::uint32_t entry;
    Key key;
  };

  bool empty() const { return top_.empty(); }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : subs_) n += s.size();
    return n;
  }
  bool group_empty(std::uint32_t g) const {
    return g >= subs_.size() || subs_[g].empty();
  }
  bool contains(std::uint32_t g, std::uint32_t e) const {
    return g < subs_.size() && subs_[g].contains(e);
  }
  bool push_or_decrease(std::uint32_t g, std::uint32_t e, const Key& key) {
    if (g >= subs_.size()) subs_.resize(static_cast<std::size_t>(g) + 1);
    const bool changed = subs_[g].push_or_decrease(e, key);
    if (changed) refresh_top(g);
    return changed;
  }
  Min global_min() const {
    const std::uint32_t g = top_.min_id();
    return Min{g, subs_[g].min_id(), subs_[g].min_key()};
  }
  Min pop_global_min() {
    const std::uint32_t g = top_.min_id();
    Min out{g, subs_[g].min_id(), subs_[g].min_key()};
    subs_[g].pop_min();
    refresh_top(g);
    return out;
  }
  void erase_group(std::uint32_t g) {
    if (g >= subs_.size()) return;
    subs_[g].clear();
    if (top_.contains(g)) top_.erase(g);
  }
  void clear() {
    for (auto& s : subs_) s.clear();
    top_.clear();
  }

 private:
  void refresh_top(std::uint32_t g) {
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
  SubHeap top_;
};

}  // namespace tie_ref

constexpr std::uint32_t kTieIds = 500;

template <typename Heap, typename Ref>
void expect_same_heap_state(const Heap& heap, const Ref& ref, int step) {
  ASSERT_EQ(heap.size(), ref.size()) << "step " << step;
  ASSERT_EQ(heap.empty(), ref.empty()) << "step " << step;
  if (!ref.empty()) {
    ASSERT_EQ(heap.min_id(), ref.min_id()) << "step " << step;
    ASSERT_EQ(heap.min_key(), ref.min_key()) << "step " << step;
  }
  for (std::uint32_t id = 0; id <= kTieIds; ++id) {
    ASSERT_EQ(heap.contains(id), ref.contains(id))
        << "step " << step << " id " << id;
  }
}

/// Random push / push_or_decrease / decrease_key / pop_min / erase / clear
/// over tie-heavy keys, checked against the frozen reference after every
/// operation.
template <unsigned Arity>
void run_tie_order_differential(std::uint64_t seed) {
  Rng rng(seed);
  DAryHeap<double, Arity> heap;
  tie_ref::AosDAryHeap<double, Arity> ref;
  const auto key = [&] { return static_cast<double>(rng.uniform(4)); };
  for (int step = 0; step < 6000; ++step) {
    const double action = rng.uniform_double();
    const auto id = static_cast<std::uint32_t>(rng.uniform(kTieIds));
    if (action < 0.30 || ref.empty()) {
      const double k = key();
      if (ref.contains(id)) {
        ASSERT_EQ(heap.push_or_decrease(id, k), ref.push_or_decrease(id, k));
      } else {
        heap.push(id, k);
        ref.push(id, k);
      }
    } else if (action < 0.50) {
      const double k = key();
      ASSERT_EQ(heap.push_or_decrease(id, k), ref.push_or_decrease(id, k));
    } else if (action < 0.62) {
      if (ref.contains(id)) {
        const double k =
            std::min(ref.key_of(id), static_cast<double>(rng.uniform(4)));
        heap.decrease_key(id, k);
        ref.decrease_key(id, k);
      }
    } else if (action < 0.92) {
      ASSERT_EQ(heap.pop_min(), ref.pop_min()) << "step " << step;
    } else if (action < 0.998) {
      // Erase a contained id: the probed one if present, else the minimum.
      const std::uint32_t victim = ref.contains(id) ? id : ref.min_id();
      heap.erase(victim);
      ref.erase(victim);
    } else {
      heap.clear();
      ref.clear();
    }
    expect_same_heap_state(heap, ref, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(HeapPropertyTest, BinaryHeapTieOrderMatchesReference) {
  run_tie_order_differential<2>(GetParam() * 7919 + 1);
}

TEST_P(HeapPropertyTest, DAryHeapTieOrderMatchesReference) {
  run_tie_order_differential<4>(GetParam() * 7919 + 2);
}

TEST_P(HeapPropertyTest, TwoLevelTieOrderMatchesReference) {
  // Few groups with many entries each, groups erased and reused mid-run,
  // and whole-structure clears: the solver's recycled-queue pattern.
  Rng rng(GetParam() * 7919 + 3);
  TwoLevelHeap<double> two;
  tie_ref::TwoLevelHeap<double> ref;
  constexpr std::uint32_t kGroups = 9;
  for (int step = 0; step < 6000; ++step) {
    const double action = rng.uniform_double();
    const auto g = static_cast<std::uint32_t>(rng.uniform(kGroups));
    if (action < 0.55 || ref.empty()) {
      const auto e = static_cast<std::uint32_t>(rng.uniform(kTieIds));
      const auto k = static_cast<double>(rng.uniform(4));
      ASSERT_EQ(two.push_or_decrease(g, e, k), ref.push_or_decrease(g, e, k));
    } else if (action < 0.95) {
      const auto a = two.pop_global_min();
      const auto b = ref.pop_global_min();
      ASSERT_EQ(a.group, b.group) << "step " << step;
      ASSERT_EQ(a.entry, b.entry) << "step " << step;
      ASSERT_EQ(a.key, b.key) << "step " << step;
    } else if (action < 0.995) {
      two.erase_group(g);
      ref.erase_group(g);
    } else {
      two.clear();
      ref.clear();
    }
    ASSERT_EQ(two.empty(), ref.empty()) << "step " << step;
    ASSERT_EQ(two.size(), ref.size()) << "step " << step;
    if (!ref.empty()) {
      const auto a = two.global_min();
      const auto b = ref.global_min();
      ASSERT_EQ(a.group, b.group) << "step " << step;
      ASSERT_EQ(a.entry, b.entry) << "step " << step;
      ASSERT_EQ(a.key, b.key) << "step " << step;
    }
    for (std::uint32_t gg = 0; gg <= kGroups; ++gg) {
      ASSERT_EQ(two.group_empty(gg), ref.group_empty(gg)) << "step " << step;
      for (std::uint32_t e = 0; e <= kTieIds; e += 7) {
        ASSERT_EQ(two.contains(gg, e), ref.contains(gg, e))
            << "step " << step << " group " << gg << " entry " << e;
      }
    }
  }
}

TEST(DisjointSet, UniteAndFind) {
  DisjointSet d(10);
  EXPECT_EQ(d.num_sets(), 10u);
  EXPECT_TRUE(d.unite(1, 2));
  EXPECT_TRUE(d.unite(2, 3));
  EXPECT_FALSE(d.unite(1, 3));
  EXPECT_TRUE(d.same(1, 3));
  EXPECT_FALSE(d.same(0, 1));
  EXPECT_EQ(d.num_sets(), 8u);
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  bool all_same = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    all_same = all_same && (va == vb);
    any_diff_c = any_diff_c || (va != vc);
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(1234);
  std::array<int, 10> buckets{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.uniform(10)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // within 10% relative
  }
}

TEST(SparseMap, InsertFindClear) {
  SparseMap<int> m;
  EXPECT_TRUE(m.empty());
  m[5] = 50;
  m[123456] = 7;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
  EXPECT_EQ(m.find(6), nullptr);
  m.clear();
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST_P(HeapPropertyTest, SparseMapClearCoveringEmptiesTheMap) {
  // Rounds of inserts with clustered keys (long probe runs), each ended by
  // clear_covering with the held keys shuffled, repeated and mixed with
  // absent ones — or, every third round, with one held key left out, which
  // must fall back to a full clear. After each round the map must be empty
  // and then behave like a fresh map against the reference.
  Rng rng(GetParam() + 777);
  SparseMap<std::uint32_t> sm;
  for (int round = 0; round < 40; ++round) {
    std::unordered_map<std::uint32_t, std::uint32_t> ref;
    const auto base = static_cast<std::uint32_t>(rng.uniform(1000));
    const auto count = 1 + rng.uniform(300);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto key =
          base + static_cast<std::uint32_t>(rng.uniform(2 * count + 1));
      const auto val = static_cast<std::uint32_t>(rng());
      sm[key] = val;
      ref[key] = val;
    }
    ASSERT_EQ(sm.size(), ref.size());
    for (const auto& [k, v] : ref) {
      ASSERT_NE(sm.find(k), nullptr);
      ASSERT_EQ(*sm.find(k), v);
    }
    std::vector<std::uint32_t> cover;
    for (const auto& [k, v] : ref) cover.push_back(k);
    if (round % 3 == 2) cover.pop_back();  // incomplete: must fall back
    for (int extra = 0; extra < 20; ++extra) {
      cover.push_back(static_cast<std::uint32_t>(rng.uniform(5000)));
      cover.push_back(cover[rng.uniform(cover.size())]);
    }
    std::shuffle(cover.begin(), cover.end(), rng);
    sm.clear_covering([&](auto&& visit) {
      for (const std::uint32_t k : cover) visit(k);
    });
    ASSERT_TRUE(sm.empty()) << "round " << round;
    for (std::uint32_t k = 0; k < 5000; ++k) {
      ASSERT_EQ(sm.find(k), nullptr) << "round " << round << " key " << k;
    }
  }
}

TEST_P(HeapPropertyTest, SparseMapMatchesUnorderedMap) {
  Rng rng(GetParam() + 555);
  SparseMap<std::uint64_t> sm;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.uniform(5000));
    if (rng.uniform_double() < 0.7) {
      const std::uint64_t val = rng();
      sm[key] = val;
      ref[key] = val;
    } else {
      const auto* p = sm.find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(p, nullptr);
      } else {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, it->second);
      }
    }
  }
  EXPECT_EQ(sm.size(), ref.size());
  std::size_t visited = 0;
  sm.for_each([&](std::uint32_t k, std::uint64_t& v) {
    EXPECT_EQ(ref.at(k), v);
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(Stats, AccumulatorMoments) {
  StatAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

TEST(Args, ParsesOptionsAndFlags) {
  ArgParser p("prog", "test");
  p.add_option("count", "10", "a count");
  p.add_flag("fast", false, "go fast");
  p.add_option("name", "x", "a name");
  const char* argv[] = {"prog", "--count=42", "--fast", "--name", "hello"};
  p.parse(5, argv);
  EXPECT_EQ(p.get_int("count"), 42);
  EXPECT_TRUE(p.get_bool("fast"));
  EXPECT_EQ(p.get_string("name"), "hello");
}

TEST(Args, UnknownOptionThrows) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(p.parse(2, argv), ContractViolation);
}

TEST(Args, DefaultsUsedWhenAbsent) {
  ArgParser p("prog", "test");
  p.add_option("scale", "0.5", "scale");
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_DOUBLE_EQ(p.get_double("scale"), 0.5);
}

}  // namespace
}  // namespace cdst
