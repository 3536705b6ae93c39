#include "support/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "support/rng.h"

namespace cr::support {
namespace {

TEST(IntervalSet, EmptyBasics) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.interval_count(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(IntervalSet, RangeConstruction) {
  auto s = IntervalSet::range(3, 10);
  EXPECT_EQ(s.size(), 7u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(9));
  EXPECT_FALSE(s.contains(10));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.bounds(), (Interval{3, 10}));
}

TEST(IntervalSet, EmptyRangeIsEmpty) {
  EXPECT_TRUE(IntervalSet::range(5, 5).empty());
  EXPECT_TRUE(IntervalSet::range(7, 5).empty());
}

TEST(IntervalSet, FromPointsCoalesces) {
  auto s = IntervalSet::from_points({5, 1, 2, 3, 9, 2});
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.interval_count(), 3u);  // [1,4) [5,6) [9,10)
  EXPECT_TRUE(s.contains(1) && s.contains(2) && s.contains(3));
  EXPECT_TRUE(s.contains(5) && s.contains(9));
  EXPECT_FALSE(s.contains(4) && s.contains(0));
}

TEST(IntervalSet, AddCoalescesAdjacent) {
  IntervalSet s;
  s.add(0, 5);
  s.add(5, 10);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 10u);
}

TEST(IntervalSet, AddOutOfOrder) {
  IntervalSet s;
  s.add(10, 20);
  s.add(0, 5);
  s.add(4, 12);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.size(), 20u);
}

TEST(IntervalSet, AppendFastPath) {
  IntervalSet s;
  for (uint64_t i = 0; i < 100; i += 2) s.append_point(i);
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(s.interval_count(), 50u);
}

TEST(IntervalSet, UnionDisjointAndOverlap) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(20, 30);
  auto u = a.set_union(b);
  EXPECT_EQ(u.size(), 20u);
  EXPECT_EQ(u.interval_count(), 2u);

  auto c = IntervalSet::range(5, 25);
  auto u2 = u.set_union(c);
  EXPECT_EQ(u2.interval_count(), 1u);
  EXPECT_EQ(u2.size(), 30u);
}

TEST(IntervalSet, IntersectBasic) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(5, 15);
  auto i = a.set_intersect(b);
  EXPECT_EQ(i, IntervalSet::range(5, 10));
}

TEST(IntervalSet, IntersectDisjointIsEmpty) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(10, 20);
  EXPECT_TRUE(a.set_intersect(b).empty());
  EXPECT_TRUE(a.disjoint(b));
}

TEST(IntervalSet, SubtractSplitsInterval) {
  auto a = IntervalSet::range(0, 10);
  auto b = IntervalSet::range(3, 7);
  auto d = a.set_subtract(b);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d.interval_count(), 2u);
  EXPECT_TRUE(d.contains(2) && d.contains(7));
  EXPECT_FALSE(d.contains(3) || d.contains(6));
}

TEST(IntervalSet, ContainsAll) {
  auto a = IntervalSet::range(0, 100);
  auto b = IntervalSet::from_points({1, 50, 99});
  EXPECT_TRUE(a.contains_all(b));
  EXPECT_FALSE(b.contains_all(a));
  b.add_point(100);
  EXPECT_FALSE(a.contains_all(b));
}

TEST(IntervalSet, NthPoint) {
  auto s = IntervalSet::from_points({2, 3, 10, 11, 12});
  EXPECT_EQ(s.nth_point(0), 2u);
  EXPECT_EQ(s.nth_point(1), 3u);
  EXPECT_EQ(s.nth_point(2), 10u);
  EXPECT_EQ(s.nth_point(4), 12u);
}

TEST(IntervalSet, ForEachPointVisitsInOrder) {
  auto s = IntervalSet::from_points({7, 1, 3});
  std::vector<uint64_t> seen;
  s.for_each_point([&](uint64_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 7}));
}

// ---- Property tests against a brute-force std::set oracle. ----

IntervalSet random_set(Rng& rng, uint64_t universe, int ops) {
  IntervalSet s;
  for (int i = 0; i < ops; ++i) {
    uint64_t lo = rng.next_below(universe);
    uint64_t hi = lo + rng.next_below(universe / 4 + 1);
    s.add(lo, std::min(hi, universe));
  }
  return s;
}

std::set<uint64_t> to_oracle(const IntervalSet& s) {
  std::set<uint64_t> out;
  s.for_each_point([&](uint64_t p) { out.insert(p); });
  return out;
}

class IntervalSetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetProperty, AlgebraMatchesSetOracle) {
  Rng rng(GetParam());
  const uint64_t universe = 200;
  auto a = random_set(rng, universe, 6);
  auto b = random_set(rng, universe, 6);
  auto oa = to_oracle(a);
  auto ob = to_oracle(b);

  // union
  std::set<uint64_t> ou = oa;
  ou.insert(ob.begin(), ob.end());
  EXPECT_EQ(to_oracle(a.set_union(b)), ou);

  // intersect
  std::set<uint64_t> oi;
  for (uint64_t p : oa) {
    if (ob.count(p)) oi.insert(p);
  }
  EXPECT_EQ(to_oracle(a.set_intersect(b)), oi);

  // subtract
  std::set<uint64_t> od;
  for (uint64_t p : oa) {
    if (!ob.count(p)) od.insert(p);
  }
  EXPECT_EQ(to_oracle(a.set_subtract(b)), od);

  // predicates
  EXPECT_EQ(a.overlaps(b), !oi.empty());
  EXPECT_EQ(a.size(), oa.size());

  // representation invariants: sorted, disjoint, coalesced
  const IntervalSet u3 = a.set_union(b);
  const auto& ivs = u3.intervals();
  for (size_t i = 1; i < ivs.size(); ++i) {
    EXPECT_LT(ivs[i - 1].hi, ivs[i].lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range<uint64_t>(0, 50));

// ---- Galloping merges against the plain two-finger merges. ----

// Reference merges that step one interval at a time (no skipping).
std::vector<Interval> plain_intersect(const IntervalSet& a,
                                      const IntervalSet& b) {
  std::vector<Interval> out;
  const auto& x = a.intervals();
  const auto& y = b.intervals();
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    const uint64_t lo = std::max(x[i].lo, y[j].lo);
    const uint64_t hi = std::min(x[i].hi, y[j].hi);
    if (lo < hi) out.push_back({lo, hi});
    if (x[i].hi < y[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::vector<Interval> plain_subtract(const IntervalSet& a,
                                     const IntervalSet& b) {
  std::vector<Interval> out;
  const auto& y = b.intervals();
  size_t j = 0;
  for (Interval iv : a.intervals()) {
    while (j < y.size() && y[j].hi <= iv.lo) ++j;
    uint64_t lo = iv.lo;
    for (size_t k = j; k < y.size() && y[k].lo < iv.hi && lo < iv.hi; ++k) {
      if (y[k].lo > lo) out.push_back({lo, y[k].lo});
      lo = std::max(lo, y[k].hi);
    }
    if (lo < iv.hi) out.push_back({lo, iv.hi});
  }
  return out;
}

// `count` random intervals with gaps, from `start`; widths and gaps in
// [1, max_step].
IntervalSet random_run(Rng& rng, uint64_t start, int count,
                       uint64_t max_step) {
  IntervalSet s;
  uint64_t at = start;
  for (int k = 0; k < count; ++k) {
    at += 1 + rng.next_below(max_step);
    const uint64_t hi = at + 1 + rng.next_below(max_step);
    s.append(at, hi);
    at = hi;
  }
  return s;
}

void expect_matches_plain(const IntervalSet& a, const IntervalSet& b) {
  EXPECT_EQ(a.set_intersect(b).intervals(), plain_intersect(a, b));
  EXPECT_EQ(b.set_intersect(a).intervals(), plain_intersect(b, a));
  EXPECT_EQ(a.set_subtract(b).intervals(), plain_subtract(a, b));
  EXPECT_EQ(b.set_subtract(a).intervals(), plain_subtract(b, a));
  EXPECT_EQ(a.overlaps(b), !plain_intersect(a, b).empty());
  EXPECT_EQ(b.overlaps(a), a.overlaps(b));
  EXPECT_EQ(a.contains_all(b), plain_subtract(b, a).empty());
  EXPECT_EQ(b.contains_all(a), plain_subtract(a, b).empty());
}

class IntervalSetGallop : public ::testing::TestWithParam<uint64_t> {};

// A few intervals against a thousand: the shape of a tile's halo reach
// intersected with a whole boundary region.
TEST_P(IntervalSetGallop, LopsidedMatchesPlainMerges) {
  Rng rng(GetParam() * 7 + 3);
  const IntervalSet large = random_run(rng, 0, 1000, 8);
  const uint64_t span = large.bounds().hi;
  for (int trial = 0; trial < 20; ++trial) {
    const IntervalSet small = random_run(
        rng, rng.next_below(span), 1 + static_cast<int>(rng.next_below(4)),
        1 + rng.next_below(40));
    expect_matches_plain(small, large);
    // Subsets and supersets exercise contains_all's both answers.
    const IntervalSet inside = large.set_intersect(small);
    expect_matches_plain(inside, large);
    expect_matches_plain(small.set_union(large), large);
  }
}

// Interleaved sets: every skip is a single interval, so the galloping
// merge must degrade to the plain one.
TEST_P(IntervalSetGallop, InterleavedMatchesPlainMerges) {
  Rng rng(GetParam() * 5 + 1);
  const IntervalSet a = random_run(rng, 0, 300, 4);
  const IntervalSet b = random_run(rng, rng.next_below(4), 300, 4);
  expect_matches_plain(a, b);
  expect_matches_plain(a, a);
  expect_matches_plain(a, IntervalSet());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetGallop,
                         ::testing::Range<uint64_t>(0, 20));

TEST(IntervalSet, UnionIdentityAndIdempotence) {
  Rng rng(42);
  auto a = random_set(rng, 500, 10);
  EXPECT_EQ(a.set_union(IntervalSet()), a);
  EXPECT_EQ(a.set_union(a), a);
  EXPECT_EQ(a.set_intersect(a), a);
  EXPECT_TRUE(a.set_subtract(a).empty());
}

TEST(IntervalSet, FromPointsEmptyInput) {
  EXPECT_TRUE(IntervalSet::from_points({}).empty());
}

TEST(IntervalSet, FromPointsAdjacentPointsCoalesce) {
  auto s = IntervalSet::from_points({7, 8, 9});
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.bounds(), (Interval{7, 10}));
}

TEST(IntervalSet, FromPointsNearMaxValues) {
  // The duplicate check used to compute `back().hi >= p + 1`, which
  // wraps at p == UINT64_MAX - 1 only after the point is inserted (hi
  // becomes UINT64_MAX); these must survive without overflow.
  auto s = IntervalSet::from_points(
      {UINT64_MAX - 2, UINT64_MAX - 1, UINT64_MAX - 2});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.contains(UINT64_MAX - 1));
  EXPECT_FALSE(s.contains(UINT64_MAX));
  EXPECT_EQ(s.bounds(), (Interval{UINT64_MAX - 2, UINT64_MAX}));
}

TEST(IntervalSetDeath, MaxPointIsRejectedLoudly) {
  // UINT64_MAX is unrepresentable as a half-open point ([MAX, MAX+1)
  // wraps to [MAX, 0)); it used to be dropped silently, corrupting any
  // set algebra downstream. Now it aborts.
  EXPECT_DEATH(IntervalSet::from_points({UINT64_MAX}), "UINT64_MAX");
  EXPECT_DEATH(
      [] {
        IntervalSet s;
        s.add_point(UINT64_MAX);
      }(),
      "UINT64_MAX");
}

}  // namespace
}  // namespace cr::support
