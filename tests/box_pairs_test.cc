// Equivalence of the sort-and-sweep pair enumeration
// (ForEachIntersectingPair) and of its two callers, OverlapComponents
// and PredicatesDisjoint, with the all-pairs scan they replaced. That
// scan lives on here as the test-only oracle.

#include "predicate/box_pairs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "pc/pc_set.h"
#include "serve/partitioner.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using Pairs = std::vector<std::pair<size_t, size_t>>;

std::vector<const Box*> Pointers(const std::vector<Box>& boxes) {
  std::vector<const Box*> out;
  for (const Box& b : boxes) out.push_back(&b);
  return out;
}

/// The oracle: every pair i < j, tested exactly, in index order.
Pairs AllPairs(const std::vector<Box>& boxes,
               const std::vector<AttrDomain>& domains) {
  Pairs out;
  for (size_t i = 0; i < boxes.size(); ++i) {
    for (size_t j = i + 1; j < boxes.size(); ++j) {
      if (!boxes[i].IntersectionEmpty(boxes[j], domains)) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

/// The oracle's components in OverlapComponents' normal form: ordered
/// by smallest member, members ascending.
std::vector<std::vector<size_t>> ComponentsOf(size_t n, const Pairs& edges) {
  std::vector<size_t> label(n);
  std::iota(label.begin(), label.end(), size_t{0});
  // Relabel to the smallest reachable index until nothing changes.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [i, j] : edges) {
      const size_t m = std::min(label[i], label[j]);
      if (label[i] != m || label[j] != m) changed = true;
      label[i] = label[j] = m;
    }
  }
  std::vector<std::vector<size_t>> comps;
  std::vector<size_t> comp_of_label(n, SIZE_MAX);
  for (size_t i = 0; i < n; ++i) {
    if (comp_of_label[label[i]] == SIZE_MAX) {
      comp_of_label[label[i]] = comps.size();
      comps.emplace_back();
    }
    comps[comp_of_label[label[i]]].push_back(i);
  }
  return comps;
}

Pairs SweepPairs(const std::vector<Box>& boxes,
                 const std::vector<AttrDomain>& domains) {
  Pairs out;
  ForEachIntersectingPair(Pointers(boxes), domains, [&](size_t i, size_t j) {
    EXPECT_LT(i, j);
    out.emplace_back(i, j);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

PredicateConstraintSet SetOf(const std::vector<Box>& boxes) {
  PredicateConstraintSet pcs;
  for (const Box& b : boxes) {
    pcs.Add(PredicateConstraint(Predicate(b), Box(b.num_attrs()), {0.0, 1.0}));
  }
  return pcs;
}

/// The pair set, the components and the disjointness verdict all match
/// the all-pairs oracle.
void ExpectMatchesOracle(const std::vector<Box>& boxes,
                         const std::vector<AttrDomain>& domains) {
  const Pairs expected = AllPairs(boxes, domains);
  EXPECT_EQ(SweepPairs(boxes, domains), expected);
  const PredicateConstraintSet pcs = SetOf(boxes);
  EXPECT_EQ(OverlapComponents(pcs, domains),
            ComponentsOf(boxes.size(), expected));
  EXPECT_EQ(pcs.PredicatesDisjoint(domains), expected.empty());
}

Box Box1(const Interval& iv) {
  Box b(1);
  b.SetDim(0, iv);
  return b;
}

Box Box2(const Interval& x, const Interval& y) {
  Box b(2);
  b.SetDim(0, x);
  b.SetDim(1, y);
  return b;
}

TEST(BoxPairsTest, TouchingOpenAndClosedEndpoints) {
  const std::vector<Box> boxes = {
      Box1(Interval::Closed(0, 1)),       // meets 1 at 1: closed/closed
      Box1(Interval::Closed(1, 2)),       // meets 2 at 2: closed/open
      Box1(Interval{2, 3, true, false}),  // meets 3 at 3: closed/closed
      Box1(Interval::Closed(3, 4)),       // meets 4 at 4: closed/open
      Box1(Interval{4, 5, true, true}),   // meets 5 at 4: open/open
      Box1(Interval{-1, 4, false, true})};
  EXPECT_EQ(SweepPairs(boxes, {}),
            (Pairs{{0, 1}, {0, 5}, {1, 5}, {2, 3}, {2, 5}, {3, 5}}));
  ExpectMatchesOracle(boxes, {});
}

TEST(BoxPairsTest, IntegerDomainsDecideOpenGaps) {
  // [0,1) and (0.5,1.5) share (0.5,1) over the reals but no integer.
  const std::vector<Box> boxes = {Box1(Interval{0, 1, false, true}),
                                  Box1(Interval{0.5, 1.5, true, true})};
  EXPECT_EQ(SweepPairs(boxes, {}), (Pairs{{0, 1}}));
  EXPECT_TRUE(SweepPairs(boxes, {AttrDomain::kInteger}).empty());
  ExpectMatchesOracle(boxes, {});
  ExpectMatchesOracle(boxes, {AttrDomain::kInteger});
}

TEST(BoxPairsTest, InfiniteEmptyAndInvertedIntervals) {
  const std::vector<Box> boxes = {
      Box1(Interval::All()),
      Box1(Interval::AtMost(-5)),
      Box1(Interval::GreaterThan(5)),
      Box1(Interval::Closed(3, 1)),            // inverted: empty
      Box1(Interval{2, 2, true, false}),       // (2,2]: empty
      Box1(Interval::Closed(kInf, kInf)),      // empty over the reals
      Box1(Interval::Closed(-kInf, -kInf)),    // likewise
      Box1(Interval::Closed(2, 2))};           // a point
  ExpectMatchesOracle(boxes, {});
  ExpectMatchesOracle(boxes, {AttrDomain::kInteger});
  EXPECT_EQ(SweepPairs(boxes, {}),
            (Pairs{{0, 1}, {0, 2}, {0, 7}}));
}

TEST(BoxPairsTest, NaNEndsAreSettledByTheExactTest) {
  const std::vector<Box> boxes = {
      Box1(Interval{kNaN, 1, false, false}), Box1(Interval::Closed(5, 10)),
      Box1(Interval{3, kNaN, false, false}), Box1(Interval::Closed(-4, -2))};
  ExpectMatchesOracle(boxes, {});
  ExpectMatchesOracle(boxes, {AttrDomain::kInteger});
}

TEST(BoxPairsTest, DuplicatesAndTiesOnTheSweepAttribute) {
  std::vector<Box> boxes;
  for (int i = 0; i < 6; ++i) {
    // Same x everywhere (every pair ties), y splits them in two groups.
    boxes.push_back(Box2(Interval::Closed(0, 1),
                         Interval::Closed(i % 2 * 10, i % 2 * 10 + 1)));
  }
  boxes.push_back(boxes[0]);
  boxes.push_back(boxes[1]);
  ExpectMatchesOracle(boxes, {});
  EXPECT_EQ(OverlapComponents(SetOf(boxes), {}),
            (std::vector<std::vector<size_t>>{{0, 2, 4, 6}, {1, 3, 5, 7}}));
}

TEST(BoxPairsTest, ZeroAttributesAndTinySets) {
  ExpectMatchesOracle({}, {});
  ExpectMatchesOracle({Box1(Interval::Closed(0, 1))}, {});
  // Boxes over no attributes constrain nothing: every pair intersects.
  const std::vector<Box> none = {Box(0), Box(0), Box(0)};
  EXPECT_EQ(SweepPairs(none, {}), (Pairs{{0, 1}, {0, 2}, {1, 2}}));
  ExpectMatchesOracle(none, {});
  ExpectMatchesOracle({Box(0)}, {});
}

/// One random endpoint from a small pool, so ties, touching ends,
/// infinities and the occasional NaN are common.
double RandomEnd(Rng& rng) {
  static const double kPool[] = {-kInf, -1, 0, 0.5, 1, 1.5, 2, 3, kInf};
  if (rng.UniformInt(0, 60) == 0) return kNaN;
  return kPool[rng.UniformInt(0, 8)];
}

TEST(BoxPairsTest, RandomSetsMatchTheAllPairsOracle) {
  Rng rng(20261020);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t num_attrs = static_cast<size_t>(rng.UniformInt(0, 3));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
    std::vector<AttrDomain> domains;
    // Sometimes fewer domain entries than attributes (the rest default
    // to continuous).
    const size_t num_domains =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(num_attrs)));
    for (size_t a = 0; a < num_domains; ++a) {
      domains.push_back(rng.UniformInt(0, 1) == 0 ? AttrDomain::kContinuous
                                                  : AttrDomain::kInteger);
    }
    std::vector<Box> boxes;
    for (size_t i = 0; i < n; ++i) {
      if (!boxes.empty() && rng.UniformInt(0, 5) == 0) {
        boxes.push_back(boxes[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(boxes.size()) - 1))]);
        continue;
      }
      Box b(num_attrs);
      for (size_t a = 0; a < num_attrs; ++a) {
        if (rng.UniformInt(0, 4) == 0) continue;  // unbounded
        double lo = RandomEnd(rng), hi = RandomEnd(rng);
        // Mostly well-formed; the rest stay inverted on purpose.
        if (lo > hi && rng.UniformInt(0, 3) != 0) std::swap(lo, hi);
        b.SetDim(a, Interval{lo, hi, rng.UniformInt(0, 1) == 0,
                             rng.UniformInt(0, 1) == 0});
      }
      boxes.push_back(std::move(b));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMatchesOracle(boxes, domains);
  }
}

TEST(BoxPairsTest, EarlyExitStopsAtTheFirstReportedPair) {
  std::vector<Box> boxes(50, Box1(Interval::Closed(0, 1)));
  size_t calls = 0;
  const size_t tests =
      ForEachIntersectingPair(Pointers(boxes), {}, [&](size_t, size_t) {
        ++calls;
        return false;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(tests, 1u);
}

TEST(BoxPairsTest, DisjointGridCostsLinearInTheSweepWidth) {
  // A 100 x 100 grid of half-open unit cells [x,x+1) x [y,y+1): pairwise
  // disjoint, yet neighbouring columns touch at closed-comparison
  // precision. Sorted on x, a cell is tested against the rest of its
  // own column (ties on lo) and the whole next column (lo == its hi):
  // 99 * (C(100,2) + 100 * 100) + C(100,2) = 1,485,000 exact tests,
  // against C(10000,2) = 49,995,000 for the all-pairs scan.
  std::vector<Box> boxes;
  for (int x = 0; x < 100; ++x) {
    for (int y = 0; y < 100; ++y) {
      boxes.push_back(Box2(Interval{double(x), x + 1.0, false, true},
                           Interval{double(y), y + 1.0, false, true}));
    }
  }
  size_t pairs = 0;
  const size_t tests =
      ForEachIntersectingPair(Pointers(boxes), {}, [&](size_t, size_t) {
        ++pairs;
        return true;
      });
  EXPECT_EQ(pairs, 0u);
  EXPECT_EQ(tests, 1485000u);
  EXPECT_EQ(OverlapComponents(SetOf(boxes), {}).size(), boxes.size());

  // With a gap between cells only the ties within a column remain:
  // 100 * C(100,2) = 495,000.
  for (Box& b : boxes) {
    b.SetDim(0, Interval::Closed(b.dim(0).lo, b.dim(0).lo + 0.5));
  }
  EXPECT_EQ(ForEachIntersectingPair(Pointers(boxes), {},
                                    [](size_t, size_t) { return true; }),
            495000u);
}

}  // namespace
}  // namespace pcx
