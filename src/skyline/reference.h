// Reference implementations of the skyline definitions: the verbatim
// row-at-a-time dominance test, the quadratic brute-force oracle and the
// flawed global algorithm of paper Appendix A.
//
// None of these runs inside a query. Tests, the figure benchmarks and
// examples/incomplete_data.cpp use them as oracles and counterexamples for
// the columnar kernels (skyline/columnar.h), which are the engine's only
// dominance path. No code in src/ outside reference.cc calls them.
#pragma once

#include <vector>

#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace sparkline {
namespace skyline {

/// \brief Compares two rows on the given dimensions, value by value through
/// CompareValues (so NaN is the greatest double, as everywhere else).
///
/// Complete semantics: `left` dominates `right` iff all DIFF dims are equal,
/// left is at least as good in every MIN/MAX dim, and strictly better in at
/// least one. Incomplete semantics restrict every check to dimensions where
/// both sides are non-null.
Dominance CompareRows(const Row& left, const Row& right,
                      const std::vector<BoundDimension>& dims,
                      NullSemantics nulls);

/// \brief The *incorrect* global algorithm of Gulzar et al. [20], kept as an
/// executable counterexample: it deletes dominated tuples eagerly while
/// scanning clusters, so cyclic dominance chains leak tuples into the result
/// (paper Appendix A).
std::vector<Row> FlawedGulzarGlobal(const std::vector<Row>& input,
                                    const std::vector<BoundDimension>& dims);

/// \brief Quadratic oracle implementing the skyline definition verbatim:
/// a tuple survives iff no other tuple dominates it (under DISTINCT, also
/// iff no earlier tuple with the same null bitmap is equal to it).
std::vector<Row> BruteForceSkyline(const std::vector<Row>& input,
                                   const std::vector<BoundDimension>& dims,
                                   const SkylineOptions& options);

}  // namespace skyline
}  // namespace sparkline
