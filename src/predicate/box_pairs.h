#ifndef PCX_PREDICATE_BOX_PAIRS_H_
#define PCX_PREDICATE_BOX_PAIRS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "predicate/box.h"

namespace pcx {

/// Calls `fn(i, j)`, i < j, for every pair whose intersection
/// boxes[i]->IntersectionEmpty(*boxes[j], domains) reports non-empty,
/// in no particular order; stops as soon as `fn` returns false. All
/// boxes share one attribute count. Returns the number of exact
/// IntersectionEmpty tests made.
///
/// Sort-and-sweep instead of testing all n(n-1)/2 pairs: the boxes are
/// sorted by their lower end on one attribute and swept with an active
/// list of the boxes whose upper end reaches the current lower end;
/// only those pairs are confirmed exactly. The sweep attribute is the
/// one with the fewest such candidate pairs, counted beforehand with
/// one sort and one binary search per box per attribute. As in
/// route::RouteIndex, the endpoint comparisons ignore strictness and
/// integer rounding (and treat a NaN end as unbounded), which can only
/// keep extra candidates, so the reported pairs are exactly those an
/// all-pairs scan finds.
size_t ForEachIntersectingPair(
    const std::vector<const Box*>& boxes,
    const std::vector<AttrDomain>& domains,
    const std::function<bool(size_t i, size_t j)>& fn);

}  // namespace pcx

#endif  // PCX_PREDICATE_BOX_PAIRS_H_
