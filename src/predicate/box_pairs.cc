#include "predicate/box_pairs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A box's plain closed extent on the sweep attribute.
struct Span {
  double lo = -kInf;
  double hi = kInf;
};

/// The extent the sweep compares: the interval's ends as they stand, or
/// the whole line when either end is NaN — the exact test's verdict on
/// a NaN end does not follow from plain comparisons, so such a box stays
/// a candidate against every other box.
Span SpanOf(const Interval& iv) {
  if (std::isnan(iv.lo) || std::isnan(iv.hi)) return Span{};
  return Span{iv.lo, iv.hi};
}

}  // namespace

size_t ForEachIntersectingPair(
    const std::vector<const Box*>& boxes,
    const std::vector<AttrDomain>& domains,
    const std::function<bool(size_t i, size_t j)>& fn) {
  const size_t n = boxes.size();
  if (n < 2) return 0;
  const size_t num_attrs = boxes[0]->num_attrs();
  for (const Box* box : boxes) PCX_CHECK_EQ(box->num_attrs(), num_attrs);

  // Pick the sweep attribute. Sorted by lo, the box at position p is
  // tested against every later box whose lo is <= its hi, so the count
  // on an attribute is the sum over p of (upper_bound(hi_p) - p - 1).
  // With no attributes every span is the whole line and every pair is a
  // candidate, as it must be: boxes over no attributes all intersect.
  std::vector<Span> spans(n), best_spans(n);
  std::vector<uint32_t> order(n), best_order(n);
  std::iota(best_order.begin(), best_order.end(), uint32_t{0});
  std::vector<double> sorted_lo(n);
  size_t best_candidates = SIZE_MAX;
  for (size_t a = 0; a < num_attrs && best_candidates > 0; ++a) {
    for (size_t i = 0; i < n; ++i) spans[i] = SpanOf(boxes[i]->dim(a));
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return spans[x].lo < spans[y].lo;
    });
    for (size_t p = 0; p < n; ++p) sorted_lo[p] = spans[order[p]].lo;
    size_t candidates = 0;
    for (size_t p = 0; p < n; ++p) {
      const size_t reach = static_cast<size_t>(
          std::upper_bound(sorted_lo.begin(), sorted_lo.end(),
                           spans[order[p]].hi) -
          sorted_lo.begin());
      if (reach > p + 1) candidates += reach - p - 1;
    }
    if (candidates < best_candidates) {
      best_candidates = candidates;
      spans.swap(best_spans);
      order.swap(best_order);
    }
  }

  // Sweep. A box leaves the active list once its hi falls left of the
  // current lo; lo only grows, so it could never reach a later box.
  std::vector<uint32_t> active;
  size_t tests = 0;
  for (const uint32_t cur : best_order) {
    const double lo = best_spans[cur].lo;
    size_t kept = 0;
    for (const uint32_t other : active) {
      if (best_spans[other].hi < lo) continue;
      active[kept++] = other;
      const size_t i = std::min(other, cur);
      const size_t j = std::max(other, cur);
      ++tests;
      if (!boxes[i]->IntersectionEmpty(*boxes[j], domains) && !fn(i, j)) {
        return tests;
      }
    }
    active.resize(kept);
    active.push_back(cur);
  }
  return tests;
}

}  // namespace pcx
