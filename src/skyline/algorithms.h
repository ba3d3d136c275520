// Options shared by the skyline kernels (paper sections 5.6, 5.7).
//
// The kernels themselves run over a DominanceMatrix (skyline/columnar.h);
// the row-at-a-time reference implementations used as test oracles live in
// skyline/reference.h. Cancellation is cooperative via an optional deadline,
// which implements the paper's benchmark timeouts.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "common/result.h"
#include "skyline/dominance.h"

namespace sparkline {

class CancellationToken;

namespace skyline {

/// \brief Monotone sort key of the SFS presorting family. Both keys order
/// the input so that no tuple can be strictly dominated by a later one
/// (over MIN-normalized values: MAX dimensions negated, so "smaller is
/// better" everywhere):
///
///   kSum     sum of the normalized coordinates — strictly monotone under
///            dominance (a dominates b => sum(a) < sum(b)); ties keep input
///            order. This is DominanceMatrix::Score, the pre-existing SFS
///            order.
///   kMinMax  SaLSa's minC function: primary key = the smallest normalized
///            coordinate, tie-broken by the sum. min alone is only weakly
///            monotone; the strictly monotone sum tie-break restores the
///            "window only grows" argument. This is the key whose stop
///            bound is tight (see SkylineOptions::sfs_early_stop).
enum class SfsSortKey : uint8_t {
  kSum,
  kMinMax,
};

/// \brief Options shared by all skyline algorithms.
struct SkylineOptions {
  /// SKYLINE OF DISTINCT: among tuples equal in all skyline dimensions,
  /// keep exactly one (the first encountered).
  bool distinct = false;
  /// Complete (Definition 3.1) vs. incomplete (null-restricted) dominance.
  NullSemantics nulls = NullSemantics::kComplete;
  /// If non-null, incremented once per dominance test.
  DominanceCounter* counter = nullptr;
  /// Monotonic-clock deadline in nanoseconds (0 = none); algorithms return
  /// Status::Timeout soon after passing it.
  int64_t deadline_nanos = 0;
  /// If non-null, polled alongside the deadline (same cadence, one relaxed
  /// load per ~1k dominance tests); algorithms return Status::Cancelled soon
  /// after the token flips. Must outlive the call — the executor passes the
  /// token owned (shared_ptr) by its ExecContext.
  const CancellationToken* cancel = nullptr;

  // --- SaLSa-style early termination (SFS family only) ----------------------

  /// Terminate an SFS filter pass as soon as its sort key proves every
  /// remaining tuple strictly dominated. The pass maintains
  /// minC = the smallest max-coordinate over the skyline points seen so far
  /// (its witness dominates everything whose every coordinate strictly
  /// exceeds minC) and stops once the presorted sort key guarantees that for
  /// all remaining tuples: for kMinMax, when the next min-coordinate exceeds
  /// minC; for kSum, when the next sum exceeds minC plus the per-dimension
  /// input maxima correction (sum alone cannot bound a single coordinate).
  ///
  /// Sound only for complete, non-null numeric MIN/MAX input: with NULLs or
  /// incomplete semantics a masked comparison cannot be certified by a
  /// coordinate bound, so the SFS entry points automatically disable the
  /// stop (the BNL fallback never consults it). Only *strictly* dominated
  /// tuples are skipped — never equal ones — so results are identical with
  /// DISTINCT on or off.
  bool sfs_early_stop = true;
  /// Which monotone presort the SFS family uses (see SfsSortKey).
  SfsSortKey sfs_sort_key = SfsSortKey::kSum;
  /// Inherited stop bound in max-coordinate space (+infinity = none): the
  /// tightest minC produced by upstream passes whose witness points belong
  /// to the same relation (e.g. the per-partition bounds a gathered
  /// ColumnarBatch carries into the global merge). Combined with the pass's
  /// own running minC; a tuple eliminated through it is dominated by a
  /// concrete witness somewhere in the original input, which is sound for
  /// the global result under transitive (complete) dominance.
  double sfs_stop_bound = std::numeric_limits<double>::infinity();
  /// If non-null, early-termination accounting (rows skipped, passes that
  /// stopped early).
  EarlyStopStats* early_stop = nullptr;
};

}  // namespace skyline
}  // namespace sparkline
