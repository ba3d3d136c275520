// Columnar dominance testing: the one dominance path behind the skyline
// operators.
//
// The paper calls dominance tests "the main cost factor of skyline
// computation" (section 2), yet a row-oriented test pays a tagged-union type
// dispatch, a null check and possibly a string comparison per dimension per
// test. A DominanceMatrix instead projects the skyline dimensions of an
// input *once* into a packed, normalized form:
//
//   - packed `double` keys, with MAX dimensions negated so every comparison
//     in the hot loop is a plain `<` (MIN); each row's keys are contiguous
//     (a d-dimensional tuple fits one or two cache lines, which is what a
//     pairwise dominance test actually touches),
//   - a per-row null bitmap (one bit per dimension, as in paper section 5.7).
//
// The projection is total and exact. BOOLEAN, DOUBLE and BIGINT within
// ±2^53 keep their value as the key. A column holding anything without an
// exact order-preserving double — VARCHAR, BIGINT beyond ±2^53, NaN — is
// *rank-encoded* instead: the key is the value's dense rank in
// CompareValues order (Spark's: NaN is the greatest double, -0.0 == 0.0),
// and the sorted distinct values are kept as the decode table. Ranks
// compare exactly like the values they encode, but only within one matrix.
//
// The kernels in this header run entirely over row *indices* into the
// matrix and materialize full Rows only for the final survivors. The
// row-at-a-time definitions in skyline/reference.h are their oracle
// (tests/matrix_equivalence_test.cc and tests/skyline_algo_test.cc).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

// The explicit AVX2 dominance-test path needs x86 intrinsics plus a
// compiler that supports per-function target attributes (GCC/Clang). Other
// platforms compile the scalar loop only.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPARKLINE_HAVE_AVX2_COMPARE 1
#else
#define SPARKLINE_HAVE_AVX2_COMPARE 0
#endif

namespace sparkline {
namespace skyline {

/// \brief Which index-based kernel to run (mirrors the exec layer's
/// SkylineKernel without depending on it).
enum class ColumnarKernel : uint8_t {
  kBlockNestedLoop,
  kSortFilterSkyline,
  kGridFilter,
};

/// \brief Raw dominance test over two packed key spans of `d` dimensions.
/// `diff_mask` has one bit per DIFF dimension (equality-only), `skip` one
/// bit per dimension to ignore (the union of the two null bitmaps under
/// incomplete semantics; 0 under complete semantics).
inline Dominance CompareKeySpans(const double* left, const double* right,
                                 size_t d, uint32_t diff_mask, uint32_t skip) {
  bool left_better = false;
  bool right_better = false;
  for (size_t i = 0; i < d; ++i) {
    if ((skip >> i) & 1u) continue;
    const double l = left[i];
    const double r = right[i];
    if (l == r) continue;
    if ((diff_mask >> i) & 1u) {
      // Any difference in a DIFF dimension makes the tuples incomparable.
      return Dominance::kIncomparable;
    }
    if (l < r) {
      if (right_better) return Dominance::kIncomparable;
      left_better = true;
    } else {
      if (left_better) return Dominance::kIncomparable;
      right_better = true;
    }
  }
  if (left_better) return Dominance::kLeftDominates;
  if (right_better) return Dominance::kRightDominates;
  return Dominance::kEqual;
}

/// \brief Branchless dominance test for the common case: complete
/// semantics, no DIFF dimensions. Accumulating the better-on-some-dimension
/// flags without per-dimension early exits leaves a single well-predicted
/// branch per test — measurably faster than the early-exit form on real
/// workloads even though it always scans all d dimensions. This is the
/// scalar reference; CompareKeySpansComplete dispatches to the explicit
/// AVX2 version when the CPU supports it.
inline Dominance CompareKeySpansCompleteScalar(const double* left,
                                               const double* right, size_t d) {
  bool left_better = false;
  bool right_better = false;
  for (size_t i = 0; i < d; ++i) {
    left_better |= left[i] < right[i];
    right_better |= right[i] < left[i];
  }
  if (left_better) {
    return right_better ? Dominance::kIncomparable : Dominance::kLeftDominates;
  }
  return right_better ? Dominance::kRightDominates : Dominance::kEqual;
}

namespace simd {
#if SPARKLINE_HAVE_AVX2_COMPARE
/// \brief Explicit AVX2 compare: both comparison directions run over four
/// dimensions per instruction with OR-accumulated masks, then one movemask
/// per direction. Keys are never NaN (NaN columns are rank-encoded), so the
/// ordered predicate is exact. Only call when Avx2Available() is true.
/// Defined out-of-line with a per-function target attribute so the rest of
/// the binary keeps the baseline ISA.
Dominance CompareKeySpansCompleteAvx2(const double* left, const double* right,
                                      size_t d);

/// \brief Compile-time answer when built with -mavx2, one cached CPUID
/// probe otherwise.
inline bool Avx2Available() {
#if defined(__AVX2__)
  return true;
#else
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#endif
}
#endif  // SPARKLINE_HAVE_AVX2_COMPARE
}  // namespace simd

/// \brief Complete-case dominance test with SIMD dispatch: the AVX2 path
/// when compiled in and supported by this CPU (below 4 dimensions the
/// vector body would be all tail, so the scalar loop wins), the scalar
/// branchless loop otherwise. Results are identical on every path.
inline Dominance CompareKeySpansComplete(const double* left,
                                         const double* right, size_t d) {
#if SPARKLINE_HAVE_AVX2_COMPARE
  if (d >= 4 && simd::Avx2Available()) {
    return simd::CompareKeySpansCompleteAvx2(left, right, d);
  }
#endif
  return CompareKeySpansCompleteScalar(left, right, d);
}

/// \brief Projection of the skyline dimensions of an input relation into
/// packed key rows, normalized so every MIN/MAX comparison is "smaller is
/// better" over doubles.
class DominanceMatrix {
 public:
  /// Hard dimension cap: null bitmaps are 32-bit (see dominance.h).
  static constexpr size_t kMaxDims = 32;

  /// \brief Projects `rows` into columnar form. Never fails: columns whose
  /// values have no exact double key are rank-encoded (see the file
  /// comment), so Compare agrees with CompareRows on every input.
  ///
  /// \pre dims.size() <= kMaxDims (the analyzer rejects more; the row-level
  /// entry points return Status::Invalid via CheckDimensionLimit) and every
  /// dims[i].ordinal is a valid column of every row.
  static DominanceMatrix Build(const std::vector<Row>& rows,
                               const std::vector<BoundDimension>& dims);

  size_t num_rows() const { return n_; }
  size_t num_dims() const { return d_; }

  /// Null bitmap of one row (bit i set = dimension i is NULL).
  uint32_t null_bitmap(uint32_t row) const {
    return nulls_.empty() ? 0 : nulls_[row];
  }
  bool has_nulls() const { return !nulls_.empty(); }

  /// True when every dimension is a raw-keyed numeric MIN/MAX (no DIFF,
  /// BOOLEAN or rank-encoded dimension): only then are keys coordinates —
  /// meaningful for the SFS sort keys, stop bounds and grid cells, and
  /// comparable across independently built matrices (broadcast filter).
  bool all_numeric_minmax() const { return numeric_minmax_; }

  /// True when dimension `dim` holds dense ranks rather than raw values.
  bool rank_encoded(size_t dim) const { return ranked_[dim] != 0; }

  /// The packed keys of one row (d contiguous doubles).
  const double* row_keys(uint32_t row) const { return keys_.data() + row * d_; }

  /// One key (valid for row < num_rows(), dim < num_dims()).
  double key(uint32_t row, size_t dim) const { return row_keys(row)[dim]; }

  /// Monotone SFS score: the sum of the (already negated-for-MAX) keys.
  /// If a dominates b then score(a) < score(b) strictly.
  double Score(uint32_t row) const {
    const double* keys = row_keys(row);
    double s = 0;
    for (size_t d = 0; d < d_; ++d) s += keys[d];
    return s;
  }

  /// Smallest normalized key of one row — SaLSa's minC sort function (the
  /// SfsSortKey::kMinMax primary key). Only meaningful for all-numeric
  /// MIN/MAX matrices without NULLs (NULL slots hold 0.0 placeholders).
  double MinKey(uint32_t row) const {
    const double* keys = row_keys(row);
    double lo = keys[0];
    for (size_t d = 1; d < d_; ++d) lo = std::min(lo, keys[d]);
    return lo;
  }

  /// Largest normalized key of one row — the stop-point coordinate a
  /// skyline point contributes: every tuple whose coordinates all strictly
  /// exceed MaxKey(p) is strictly dominated by p. Same preconditions as
  /// MinKey.
  double MaxKey(uint32_t row) const {
    const double* keys = row_keys(row);
    double hi = keys[0];
    for (size_t d = 1; d < d_; ++d) hi = std::max(hi, keys[d]);
    return hi;
  }

  /// Bitmask of DIFF dimensions (for CompareKeySpans callers).
  uint32_t diff_mask() const { return diff_mask_; }

  /// \brief Byte footprint of the projection: packed keys, null bitmaps and
  /// rank decode tables. This is what the exec layer charges to the query's
  /// MemoryTracker while a matrix lives.
  int64_t MemoryBytes() const;

  /// \brief Concatenates the *selected* rows of several independently built
  /// matrices into one compact matrix — the columnar shuffle primitive.
  /// Row r of the result is the selections[p][k]-th row of parts[p], in
  /// (part, selection) order. Packed keys and null bitmaps are copied; a
  /// dimension any part rank-encoded is re-ranked, in order, over the
  /// union of the selected values (ranks are only comparable within one
  /// matrix; parts that kept raw keys there contribute their decoded
  /// values). No re-projection from row Values happens.
  ///
  /// \pre parts is non-empty, all parts were projected with the same
  /// BoundDimension list, and every selection index is valid for its part.
  static DominanceMatrix ConcatSelected(
      const std::vector<const DominanceMatrix*>& parts,
      const std::vector<const std::vector<uint32_t>*>& selections);

  /// \brief Dominance between rows `i` and `j`, equal to CompareRows over
  /// the original rows. One call == one dominance test.
  Dominance Compare(uint32_t i, uint32_t j, NullSemantics nulls) const {
    const uint32_t skip =
        nulls == NullSemantics::kIncomplete ? null_bitmap(i) | null_bitmap(j)
                                            : 0;
    return CompareKeySpans(row_keys(i), row_keys(j), d_, diff_mask_, skip);
  }

 private:
  DominanceMatrix() = default;

  /// Rank-encodes dimension `d` (column `ordinal` of `rows`), overwriting
  /// its keys and recording its NULLs.
  void EncodeRanks(const std::vector<Row>& rows, size_t ordinal, size_t d,
                   std::vector<uint32_t>* nulls, bool* any_null);
  /// The key of rank `rank` in dimension `dim` (negated for MAX).
  double RankKey(size_t dim, size_t rank) const;
  /// The value behind one non-null key; `raw_type` types a raw key.
  Value DecodeKey(uint32_t row, size_t dim, TypeId raw_type) const;

  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<double> keys_;    ///< row-major packed keys, n_ * d_ entries
  std::vector<uint32_t> nulls_; ///< per-row bitmaps; empty when fully complete
  uint32_t diff_mask_ = 0;      ///< bit per DIFF dimension
  uint32_t max_mask_ = 0;       ///< bit per MAX dimension (keys negated)
  bool numeric_minmax_ = false;
  /// Per dimension: 1 when its keys are dense ranks.
  std::vector<char> ranked_;
  /// Rank decode tables: decode_[dim][rank] is the value of that rank,
  /// ascending in CompareValues order (empty for raw dimensions). Retained
  /// so ConcatSelected can re-rank across independently built matrices.
  std::vector<std::vector<Value>> decode_;
};

/// \brief All row indices 0..n-1 (the identity selection for a kernel run
/// over the whole matrix).
std::vector<uint32_t> AllIndices(const DominanceMatrix& matrix);

// Preconditions shared by every Result-returning kernel below:
//
//   * The matrix must come from DominanceMatrix::Build over the same
//     logical input the index selections refer to; all indices must be
//     < matrix.num_rows().
//   * Keys are MIN/MAX-normalized at projection time: MAX dimensions are
//     negated, so "smaller is better" holds for every key and the kernels
//     never consult SkylineGoal again. DIFF dimensions are equality-only,
//     flagged in diff_mask().
//   * `options.nulls` selects the semantics: kComplete is paper Definition
//     3.1 over non-null values; under kIncomplete each comparison skips the
//     union of the two rows' null bitmaps (transitivity is lost). The BNL
//     kernel then requires bitmap-uniform input (all rows NULL in the same
//     dimensions), within which transitivity holds again (section 5.7).
//   * With `options.deadline_nanos` set, kernels return Status::Timeout
//     soon after the deadline; partial results are discarded.

/// \brief Index-based Block-Nested-Loop (Börzsönyi et al., paper section
/// 5.6) over `input` (indices into the matrix, processed in order): a window
/// of incomparable tuples; a newcomer dominated by (or, under DISTINCT,
/// equal to) a window member is dropped, window members it dominates leave.
Result<std::vector<uint32_t>> ColumnarBlockNestedLoop(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Index-based Sort-Filter-Skyline, the presorting family the paper
/// lists as future work (section 7). Falls back to ColumnarBlockNestedLoop
/// under incomplete semantics or when !all_numeric_minmax(). Sorts by
/// options.sfs_sort_key; after sorting no tuple can be dominated by a later
/// one, so the window only grows. With options.sfs_early_stop the filter
/// pass terminates at the SaLSa stop point (auto-disabled when the matrix
/// has NULL bitmaps — results are identical either way).
Result<std::vector<uint32_t>> ColumnarSortFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief True when ColumnarSortFilterSkyline runs its presort fast path on
/// this matrix (rather than falling back to BNL) — which also means its
/// result view is ascending in DominanceMatrix::Score. The exec layer uses
/// this to tag batches as score-sorted for SFS-order inheritance.
inline bool SfsFastPathApplicable(const DominanceMatrix& matrix,
                                  const SkylineOptions& options) {
  return options.nulls == NullSemantics::kComplete &&
         matrix.all_numeric_minmax();
}

/// \brief Sort-Filter-Skyline over input that is *already* ascending in the
/// active sort key (options.sfs_sort_key) — the inherited-order variant the
/// merge stage runs when its input views come from upstream SFS stages,
/// skipping the re-sort entirely. Honours options.sfs_early_stop and any
/// inherited options.sfs_stop_bound (the tightest per-partition bound the
/// gathered batch carries), so a presorted merge can terminate before
/// scanning most of the gathered input.
///
/// \pre SfsFastPathApplicable(matrix, options) holds and `input` is
/// ascending in the active sort key (equal keys in the caller's intended
/// tie-break order; the window-only-grows argument needs nothing stronger
/// than an ascending monotone key).
Result<std::vector<uint32_t>> ColumnarSortFilterSkylinePresorted(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Merges key-ascending index runs into one key-ascending vector
/// (O(n · k) cascade of stable merges; ties keep earlier runs first, so
/// merging per-partition SFS outputs reproduces the tie-break order of one
/// global stable sort over the concatenated input). `sort_key` selects the
/// comparator: Score for kSum, (MinKey, Score) lexicographic for kMinMax —
/// it must match the key the runs were sorted with.
std::vector<uint32_t> MergeByScore(const DominanceMatrix& matrix,
                                   const std::vector<std::vector<uint32_t>>& runs,
                                   SfsSortKey sort_key = SfsSortKey::kSum);

/// \brief The tightest SaLSa stop bound a (skyline) result view supports:
/// the smallest MaxKey over the view's rows (+infinity for an empty view or
/// a matrix with NULL bitmaps, which cannot certify coordinate bounds).
/// Since the point minimizing the max-coordinate of any input always has a
/// skyline representative with an equal-or-smaller max-coordinate, the
/// bound computed over a skyline equals the bound over its full input.
double ComputeStopBound(const DominanceMatrix& matrix,
                        const std::vector<uint32_t>& view);

/// \brief The pre-gather broadcast filter set (two-phase distributed
/// pruning): the packed normalized keys of a few strong skyline points,
/// nominated per partition and unioned. Because raw keys are
/// MIN/MAX-normalized values, they are comparable *across* independently
/// built matrices — unlike ranks — so a point nominated from one
/// partition's matrix prunes rows of every other partition directly via
/// CompareKeySpansComplete. Valid only for all_numeric_minmax() matrices
/// without NULL bitmaps; producers must check.
struct FilterPointSet {
  size_t num_dims = 0;
  /// Row-major packed keys, num_points() * num_dims entries.
  std::vector<double> keys;

  size_t num_points() const {
    return num_dims == 0 ? 0 : keys.size() / num_dims;
  }
  const double* point(size_t i) const { return keys.data() + i * num_dims; }
};

/// \brief Nominates up to `k` rows of `view` with the smallest MaxKey — the
/// SaLSa minmax-best tuples, whose stop-point coordinate makes them the
/// strongest single-point pruners a partition can offer — and appends their
/// packed keys to `out` (initializing out->num_dims on first use).
///
/// \pre the matrix is all-numeric MIN/MAX, NULL-free, diff_mask() == 0
/// (MinKey/MaxKey preconditions); `view` holds valid row indices.
void NominateFilterPoints(const DominanceMatrix& matrix,
                          const std::vector<uint32_t>& view, size_t k,
                          FilterPointSet* out);

/// \brief Returns the sub-view of `view` whose rows are not *strictly*
/// dominated by any filter point. kEqual never eliminates: a nominated
/// point meeting itself survives, and under DISTINCT the first-encountered
/// tie-break belongs to the merge stage, which only works if ties still
/// reach it — strict-only elimination is what keeps this sound for both
/// DISTINCT settings (see docs/ARCHITECTURE.md). Each comparison counts as
/// one dominance test in options.counter; honours options.deadline_nanos.
///
/// \pre same matrix preconditions as NominateFilterPoints, and
/// filter.num_dims == matrix.num_dims().
Result<std::vector<uint32_t>> PruneAgainstFilter(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& view,
    const FilterPointSet& filter, const SkylineOptions& options);

/// \brief Index-based grid-filter skyline (Tang et al., paper section 2):
/// cell-level pruning over the normalized keys (all dimensions MIN after
/// negation, so no bucket mirroring is needed) — a non-empty cell strictly
/// below another in every dimension eliminates it wholesale — then
/// ColumnarBlockNestedLoop over the survivors. Falls back to plain BNL
/// under incomplete semantics, below 64 rows, when !all_numeric_minmax(),
/// and beyond 16 dimensions (cell keys pack 4 bits per dimension).
Result<std::vector<uint32_t>> ColumnarGridFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Index-based all-pairs incomplete skyline with deferred deletion
/// (paper section 5.7 / Appendix A): compares all pairs and only *flags*
/// dominated tuples, deleting them after the last comparison — which is
/// what makes cyclic dominance safe. Sound for any mix of null bitmaps.
Result<std::vector<uint32_t>> ColumnarAllPairsIncomplete(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options);

/// \brief Candidate stage of the round-based parallel incomplete global
/// skyline: all-pairs with deferred deletion restricted to `chunk`, reusing
/// the matrix's per-row null bitmaps for the restricted comparisons.
/// Returns the surviving chunk indices in input order. Every elimination
/// cites a witness inside the chunk, which excludes the tuple from the
/// global skyline regardless of transitivity; survivors are only candidates
/// until ColumnarValidateAgainstChunk has checked every other chunk. Since
/// a chunk is an ascending slice of the gathered input, index order doubles
/// as the global DISTINCT tie-break order.
///
/// \pre `chunk` holds valid, ascending matrix row indices.
Result<std::vector<uint32_t>> ColumnarIncompleteCandidateScan(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& chunk,
    const SkylineOptions& options);

/// \brief One validation round of the parallel incomplete global skyline:
/// keeps the candidates for which `peer` — one rotating chunk's *full*
/// index set, not its candidate set (a tuple eliminated in its own chunk can
/// still be the only witness against a foreign candidate) — contains no
/// dominating witness; under DISTINCT an equal peer tuple with the same
/// null bitmap and a smaller matrix index also eliminates. Peer rows are
/// read-only, so rounds over disjoint candidate sets can run in parallel.
///
/// \pre `candidates` and `peer` hold valid matrix row indices; matrix row
/// order must be the global input order (the DISTINCT tie-break).
Result<std::vector<uint32_t>> ColumnarValidateAgainstChunk(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<uint32_t>& peer, const SkylineOptions& options);

/// \brief Groups the rows of `input` by their null bitmap, in ascending
/// bitmap order (paper section 5.7). Input order is preserved within each
/// group.
std::vector<std::vector<uint32_t>> PartitionIndicesByNullBitmap(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input);

/// \brief Materializes the selected rows (in index order) from the original
/// input.
std::vector<Row> MaterializeRows(const std::vector<Row>& input,
                                 const std::vector<uint32_t>& indices);

/// \brief Runs the chosen index kernel over an existing matrix view — the
/// batch-aware counterpart of ColumnarSkyline. Complete semantics dispatch
/// the kernel directly; incomplete semantics run one BNL per bitmap-uniform
/// group of the view (the local-stage contract of paper section 5.7).
/// Returns the surviving sub-view.
Result<std::vector<uint32_t>> RunColumnarKernel(
    ColumnarKernel kernel, const DominanceMatrix& matrix,
    const std::vector<uint32_t>& input, const SkylineOptions& options);

/// \brief The unit the columnar exchange ships between skyline stages: one
/// immutable, shared DominanceMatrix over a set of backing rows (matrix row
/// i is the projection of backing row i) plus a row-index *view* selecting
/// the live subset, and an optional inherited SFS sort order.
///
/// Ownership rules: matrix, backing rows and the memory reservation are
/// shared (shared_ptr) and never mutated after construction; copying a
/// batch copies only the view vector. A batch therefore stays valid no
/// matter which operator created it or how many views alias it, and the
/// matrix bytes stay charged to the query's MemoryTracker until the last
/// view dies.
class ColumnarBatch {
 public:
  /// \brief Projects `rows` once — the only projection a partition pays in
  /// a skyline pipeline. Matrix storage is charged to `memory` (if
  /// non-null) for the matrix's lifetime. The backing rows are semantically
  /// immutable while any view aliases them; the non-const element type only
  /// exists so an exclusively owned backing can be *moved* out by Concat /
  /// DecodeConsuming instead of copied.
  static ColumnarBatch Project(
      std::shared_ptr<std::vector<Row>> rows,
      const std::vector<BoundDimension>& dims, MemoryTracker* memory = nullptr);

  /// \brief The columnar shuffle: concatenates the parts' *selected* rows
  /// into one compact batch via DominanceMatrix::ConcatSelected (key/bitmap
  /// copy + rank remap — no re-projection). The backing rows of the result
  /// are the selected rows materialized in view order, so matrix row order
  /// equals gathered input order (the DISTINCT tie-break order downstream
  /// stages rely on). If every part is score-sorted with the same sort key,
  /// the merged view is produced by MergeByScore and stays score-sorted
  /// (SFS-order inheritance across the exchange). The result's stop bound
  /// is the minimum over the parts' bounds — every part's witness row is
  /// shipped, so the tightest local bound survives the gather. When the
  /// concat had to re-rank a dimension, keys are no longer coordinates, so
  /// the result drops the inherited order and stop bound. A single part is
  /// compacted the same way, so the upstream stage's non-survivor rows
  /// never travel past the exchange.
  ///
  /// The parts are consumed (backings moved out where exclusively owned)
  /// but deliberately left alive in the caller's vector: destroying the old
  /// backings — every non-survivor row of the upstream stage — is real
  /// work, and the caller decides where it lands (the exec layer drops them
  /// outside the timed stage, where every other operator destroys its
  /// consumed inputs).
  ///
  /// \pre parts non-empty, all projected with the same dimension list.
  static ColumnarBatch Concat(std::vector<ColumnarBatch>* parts,
                              MemoryTracker* memory = nullptr);

  /// A derived view over the same matrix/rows (e.g. the survivors of a
  /// kernel run). `score_sorted` asserts the new view is ascending in
  /// `sort_key`; `stop_bound` is the SaLSa stop bound the view's rows
  /// support (ComputeStopBound; +infinity = none), carried so the global
  /// merge can inherit the tightest per-partition bound.
  ColumnarBatch WithSelection(
      std::vector<uint32_t> indices, bool score_sorted,
      SfsSortKey sort_key = SfsSortKey::kSum,
      double stop_bound = std::numeric_limits<double>::infinity()) const;

  /// Contiguous sub-view [begin, end) of the current view, inheriting the
  /// sort flag (a slice of an ascending view is ascending) and stop bound.
  ColumnarBatch Slice(size_t begin, size_t end) const;

  const DominanceMatrix& matrix() const { return *matrix_; }
  const std::vector<uint32_t>& indices() const { return indices_; }
  size_t num_rows() const { return indices_.size(); }
  bool score_sorted() const { return score_sorted_; }
  /// The key the view is sorted by; meaningful only when score_sorted().
  SfsSortKey sort_key() const { return sort_key_; }
  /// Tightest inherited SaLSa stop bound (+infinity = none). Its witness is
  /// a row of this batch (or of an upstream batch of the same relation), so
  /// downstream SFS passes over supersets of this view may seed their minC
  /// with it.
  double stop_bound() const { return stop_bound_; }
  const std::vector<Row>& backing_rows() const { return *rows_; }

  /// \brief True when this batch was projected for exactly these skyline
  /// dimensions (ordinals and goals). A consumer whose dimensions differ —
  /// e.g. the outer operator of a nested skyline receiving the inner
  /// skyline's batch — must decode and re-project instead of reusing a
  /// matrix that encodes the wrong columns.
  bool ProjectedFor(const std::vector<BoundDimension>& dims) const {
    if (dims.size() != dims_.size()) return false;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (dims[i].ordinal != dims_[i].ordinal || dims[i].goal != dims_[i].goal) {
        return false;
      }
    }
    return true;
  }

  /// Materializes the view's rows — the plan-root decode (or the decode
  /// before a non-skyline operator consumes the relation).
  std::vector<Row> Decode() const { return MaterializeRows(*rows_, indices_); }

  /// \brief Decode that destroys the batch: when this view is the backing's
  /// sole owner the selected rows are *moved* out; aliased backings fall
  /// back to Decode's copy.
  ///
  /// \pre the view's indices are pairwise distinct (every survivor view the
  /// skyline pipeline produces is).
  std::vector<Row> DecodeConsuming() &&;

 private:
  ColumnarBatch() = default;

  std::shared_ptr<const DominanceMatrix> matrix_;
  /// Backing rows; matrix row i == (*rows_)[i]. Semantically immutable —
  /// non-const only so exclusive owners can move rows out (see Project).
  std::shared_ptr<std::vector<Row>> rows_;
  std::shared_ptr<const ScopedReservation> reservation_;  ///< matrix bytes
  std::vector<BoundDimension> dims_;  ///< what the matrix was projected for
  std::vector<uint32_t> indices_;  ///< the view, in processing order
  bool score_sorted_ = false;
  /// Key the view is ascending in (valid when score_sorted_).
  SfsSortKey sort_key_ = SfsSortKey::kSum;
  /// Tightest SaLSa stop bound of the view (+infinity = none).
  double stop_bound_ = std::numeric_limits<double>::infinity();
};

/// \brief Row-level entry: builds the matrix, runs RunColumnarKernel over
/// all of it and materializes the survivors (the local-stage contract:
/// under incomplete semantics, one BNL per bitmap-uniform group). Returns
/// Status::Invalid beyond 32 dimensions.
Result<std::vector<Row>> ColumnarSkyline(ColumnarKernel kernel,
                                         const std::vector<Row>& input,
                                         const std::vector<BoundDimension>& dims,
                                         const SkylineOptions& options);

/// \brief Row-level entry for the all-pairs global skyline on incomplete
/// data (ColumnarAllPairsIncomplete over a fresh matrix).
Result<std::vector<Row>> ColumnarAllPairsSkyline(
    const std::vector<Row>& input, const std::vector<BoundDimension>& dims,
    const SkylineOptions& options);

/// \brief Outcome of classifying a batch of inserted tuples against an
/// already-computed skyline (the incremental-maintenance kernel,
/// serve/incremental.h).
struct DeltaClassification {
  /// Batch indices (ascending) whose tuples enter the skyline.
  std::vector<uint32_t> entering;
  /// Skyline indices (ascending) evicted because an entering tuple
  /// dominates them.
  std::vector<uint32_t> evicted;
  /// True when exactness cannot be certified and the caller must fall back
  /// to recompute/invalidation: a NULL in a skyline dimension (complete
  /// semantics over NULL placeholders is not a defined skyline), or —
  /// under DISTINCT — a batch tuple dim-equal to a cached
  /// point or to another batch tuple (replaying the first-encountered
  /// tie-break exactly would require the full input order, which the
  /// cached skyline no longer carries).
  bool needs_fallback = false;
};

/// \brief Classifies `batch` against `skyline` under complete dominance
/// semantics: a batch tuple dominated by a cached point (or by another
/// batch tuple) is discarded; the rest enter and evict the cached points
/// they dominate. Exactness (tests/incremental_test.cc proves it
/// differentially): because complete dominance is transitive and `skyline`
/// is the skyline of its input T, any old tuple dominating a batch tuple q
/// has a representative in `skyline` dominating q, so comparing against the
/// cached skyline alone suffices — skyline(T ∪ B) =
/// (skyline \ evicted) ∪ entering. This is NOT sound under incomplete
/// semantics (non-transitive dominance: a dominated non-skyline tuple can
/// dominate q while no skyline point does), so options.nulls must be
/// kComplete — kIncomplete is rejected with Status::Invalid.
///
/// Uses one combined DominanceMatrix projection (skyline rows then batch
/// rows) with the packed-key compare kernel. Cost: O((|S| + |B|)·|B|)
/// dominance tests — independent of the table size.
Result<DeltaClassification> DeltaClassify(const std::vector<Row>& skyline,
                                          const std::vector<Row>& batch,
                                          const std::vector<BoundDimension>& dims,
                                          const SkylineOptions& options);

}  // namespace skyline
}  // namespace sparkline
