// Tests for geometry primitives and the bucketed L1 nearest-neighbour
// structure used by the goal-oriented searches.

#include <gtest/gtest.h>

#include <limits>

#include "geom/nearest.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "util/rng.h"

namespace cdst {
namespace {

TEST(Point, L1Distance) {
  EXPECT_EQ(l1_distance(Point2{0, 0}, Point2{3, 4}), 7);
  EXPECT_EQ(l1_distance(Point2{-3, -4}, Point2{3, 4}), 14);
  EXPECT_EQ(l1_distance(Point3{1, 2, 0}, Point3{4, 6, 3}), 7)
      << "layer difference must not contribute to plane L1";
}

TEST(Rect, ExpandAndContain) {
  Rect r;
  EXPECT_TRUE(r.empty());
  r.expand(Point2{2, 3});
  r.expand(Point2{-1, 7});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.half_perimeter(), 3 + 4);
  EXPECT_TRUE(r.contains(Point2{0, 5}));
  EXPECT_FALSE(r.contains(Point2{3, 5}));
}

TEST(Rect, L1ToPoint) {
  Rect r;
  r.expand(Point2{0, 0});
  r.expand(Point2{10, 10});
  EXPECT_EQ(r.l1_to(Point2{5, 5}), 0);
  EXPECT_EQ(r.l1_to(Point2{-3, 5}), 3);
  EXPECT_EQ(r.l1_to(Point2{12, 13}), 2 + 3);
}

TEST(Rect, Inflated) {
  Rect r;
  r.expand(Point2{5, 5});
  const Rect big = r.inflated(2);
  EXPECT_TRUE(big.contains(Point2{3, 3}));
  EXPECT_TRUE(big.contains(Point2{7, 7}));
  EXPECT_FALSE(big.contains(Point2{8, 5}));
}

TEST(Nearest, SimpleQueries) {
  L1NearestNeighbor nn(4);
  nn.insert(0, Point2{0, 0});
  nn.insert(1, Point2{10, 0});
  nn.insert(2, Point2{0, 10});
  auto r = nn.nearest(Point2{1, 1});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.id, 0u);
  EXPECT_EQ(r.distance, 2);

  r = nn.nearest(Point2{1, 1}, /*exclude_id=*/0);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.distance, 10);

  nn.erase(0);
  r = nn.nearest(Point2{1, 1});
  EXPECT_TRUE(r.found);
  EXPECT_NE(r.id, 0u);
}

TEST(Nearest, CornerBucketAtReservedKeyStaysVisible) {
  // Bucket keys are anchored at the first inserted point; a point +32767
  // buckets away in both axes packs to the SparseMap's reserved
  // empty-marker key and must still be found (it lives in a dedicated side
  // slot, not the map).
  L1NearestNeighbor nn(2);
  nn.insert(0, Point2{0, 0});          // anchors the key space
  nn.insert(1, Point2{65534, 65534});  // relative bucket (32767, 32767)
  const auto r = nn.nearest(Point2{65534, 65533});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.distance, 1);
}

TEST(Nearest, FarFromOriginSmallExtent) {
  // The packed key range bounds the point set's *extent*, not its absolute
  // position: a tight cluster far from the origin must work even with a
  // tiny bucket size.
  L1NearestNeighbor nn(1);
  nn.insert(0, Point2{70000000, -70000000});
  nn.insert(1, Point2{70000004, -70000000});
  const auto r = nn.nearest(Point2{70000001, -70000000});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.id, 0u);
  EXPECT_EQ(r.distance, 1);
  const auto r1 = nn.nearest(Point2{70000001, -70000000}, /*exclude_id=*/0);
  EXPECT_TRUE(r1.found);
  EXPECT_EQ(r1.id, 1u);
}

TEST(Nearest, EmptyAndSingleExcluded) {
  L1NearestNeighbor nn(4);
  EXPECT_FALSE(nn.nearest(Point2{0, 0}).found);
  nn.insert(3, Point2{5, 5});
  EXPECT_FALSE(nn.nearest(Point2{0, 0}, 3).found);
  EXPECT_TRUE(nn.nearest(Point2{0, 0}).found);
}

class NearestPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NearestPropertyTest, MatchesBruteForceUnderChurn) {
  Rng rng(GetParam());
  L1NearestNeighbor nn(static_cast<std::int32_t>(1 + rng.uniform(16)));
  struct Pt {
    Point2 p;
    bool active;
  };
  std::vector<Pt> ref;
  for (int step = 0; step < 600; ++step) {
    const double action = rng.uniform_double();
    if (action < 0.5 || ref.empty()) {
      const Point2 p{static_cast<std::int32_t>(rng.uniform_int(-100, 100)),
                     static_cast<std::int32_t>(rng.uniform_int(-100, 100))};
      nn.insert(static_cast<std::uint32_t>(ref.size()), p);
      ref.push_back(Pt{p, true});
    } else if (action < 0.65) {
      const auto id = static_cast<std::uint32_t>(rng.uniform(ref.size()));
      if (ref[id].active) {
        nn.erase(id);
        ref[id].active = false;
      }
    } else {
      const Point2 q{static_cast<std::int32_t>(rng.uniform_int(-120, 120)),
                     static_cast<std::int32_t>(rng.uniform_int(-120, 120))};
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (const Pt& pt : ref) {
        if (pt.active) best = std::min(best, l1_distance(pt.p, q));
      }
      const auto got = nn.nearest(q);
      if (best == std::numeric_limits<std::int64_t>::max()) {
        EXPECT_FALSE(got.found);
      } else {
        ASSERT_TRUE(got.found);
        EXPECT_EQ(got.distance, best);
      }
    }
  }
}

TEST_P(NearestPropertyTest, ResetAnswersLikeFresh) {
  // One structure reset between rounds against a fresh one per round, on
  // identical inserts and erasures: small rounds answer from the linear
  // scan, large ones (above kLinearScanMax) from the bucket rings, and the
  // anchor, extent and bucket size all change from round to round. Large
  // rounds pack their points densely, so equal distances are common and
  // the reported id exposes any stale bucket entry that is visited first.
  Rng rng(GetParam() * 131);
  L1NearestNeighbor recycled;
  for (int round = 0; round < 12; ++round) {
    const auto bucket = static_cast<std::int32_t>(1 + rng.uniform(16));
    const std::size_t n =
        round % 3 == 2 ? 2 * L1NearestNeighbor::kLinearScanMax
                       : 1 + rng.uniform(40);
    const auto origin = static_cast<std::int32_t>(rng.uniform_int(-500, 500));
    const std::uint64_t span = n > L1NearestNeighbor::kLinearScanMax ? 40 : 300;
    recycled.reset(bucket);
    L1NearestNeighbor fresh(bucket);
    for (std::size_t i = 0; i < n; ++i) {
      const Point2 p{origin + static_cast<std::int32_t>(rng.uniform(span)),
                     origin + static_cast<std::int32_t>(rng.uniform(span))};
      recycled.insert(static_cast<std::uint32_t>(i), p);
      fresh.insert(static_cast<std::uint32_t>(i), p);
    }
    for (std::size_t i = 0; i < n; i += 3) {
      recycled.erase(static_cast<std::uint32_t>(i));
      fresh.erase(static_cast<std::uint32_t>(i));
    }
    ASSERT_EQ(recycled.active_count(), fresh.active_count());
    for (int q = 0; q < 60; ++q) {
      const auto off = [&] {
        return origin + static_cast<std::int32_t>(rng.uniform(span + 60)) - 30;
      };
      const Point2 at{off(), off()};
      const auto exclude = static_cast<std::uint32_t>(rng.uniform(n + 1));
      const auto a = recycled.nearest(at, exclude);
      const auto b = fresh.nearest(at, exclude);
      ASSERT_EQ(a.found, b.found) << "round " << round;
      ASSERT_EQ(a.id, b.id) << "round " << round;
      ASSERT_EQ(a.distance, b.distance) << "round " << round;
      ASSERT_EQ(recycled.nearest_distance(at, exclude),
                fresh.nearest_distance(at, exclude))
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearestPropertyTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace cdst
