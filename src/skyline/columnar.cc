#include "skyline/columnar.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#if SPARKLINE_HAVE_AVX2_COMPARE
#include <immintrin.h>
#endif

#include "skyline/kernel_common.h"

namespace sparkline {
namespace skyline {

#if SPARKLINE_HAVE_AVX2_COMPARE
namespace simd {

__attribute__((target("avx2"))) Dominance CompareKeySpansCompleteAvx2(
    const double* left, const double* right, size_t d) {
  __m256d acc_l = _mm256_setzero_pd();
  __m256d acc_r = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d l = _mm256_loadu_pd(left + i);
    const __m256d r = _mm256_loadu_pd(right + i);
    acc_l = _mm256_or_pd(acc_l, _mm256_cmp_pd(l, r, _CMP_LT_OQ));
    acc_r = _mm256_or_pd(acc_r, _mm256_cmp_pd(r, l, _CMP_LT_OQ));
  }
  bool left_better = _mm256_movemask_pd(acc_l) != 0;
  bool right_better = _mm256_movemask_pd(acc_r) != 0;
  for (; i < d; ++i) {
    left_better |= left[i] < right[i];
    right_better |= right[i] < left[i];
  }
  if (left_better) {
    return right_better ? Dominance::kIncomparable : Dominance::kLeftDominates;
  }
  return right_better ? Dominance::kRightDominates : Dominance::kEqual;
}

}  // namespace simd
#endif  // SPARKLINE_HAVE_AVX2_COMPARE

namespace {

using internal::BatchedCounter;
using internal::DeadlineChecker;

/// Largest BIGINT magnitude exactly representable as double; a column with
/// a larger value is rank-encoded instead.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;

/// The raw double key of one non-null value, or nullopt when the value has
/// no exact order-preserving double (VARCHAR, BIGINT beyond 2^53, NaN) and
/// its column must be rank-encoded.
std::optional<double> RawKey(const Value& v) {
  switch (v.type().id()) {
    case TypeId::kBool:
      return v.bool_value() ? 1.0 : 0.0;
    case TypeId::kInt64: {
      const int64_t i = v.int64_value();
      if (i > kMaxExactInt || i < -kMaxExactInt) return std::nullopt;
      return static_cast<double>(i);
    }
    case TypeId::kDouble:
      if (std::isnan(v.double_value())) return std::nullopt;
      return v.double_value();
    case TypeId::kString:
      break;
  }
  return std::nullopt;
}

bool ValueLess(const Value& a, const Value& b) {
  return CompareValues(a, b) < 0;
}

}  // namespace

DominanceMatrix DominanceMatrix::Build(
    const std::vector<Row>& rows, const std::vector<BoundDimension>& dims) {
  SL_DCHECK(dims.size() <= kMaxDims) << "at most 32 skyline dimensions";
  DominanceMatrix m;
  m.n_ = rows.size();
  m.d_ = dims.size();
  m.keys_.assign(m.n_ * m.d_, 0.0);
  m.numeric_minmax_ = m.d_ > 0;
  m.ranked_.assign(m.d_, 0);
  m.decode_.assign(m.d_, {});

  bool any_null = false;
  std::vector<uint32_t> nulls(m.n_, 0);
  for (size_t d = 0; d < dims.size(); ++d) {
    const BoundDimension& dim = dims[d];
    if (dim.goal == SkylineGoal::kDiff) m.diff_mask_ |= (1u << d);
    if (dim.goal == SkylineGoal::kMax) m.max_mask_ |= (1u << d);
    const double sign = dim.goal == SkylineGoal::kMax ? -1.0 : 1.0;

    bool dim_numeric = dim.goal != SkylineGoal::kDiff;
    bool ranked = false;
    for (size_t r = 0; r < m.n_ && !ranked; ++r) {
      const Value& v = rows[r][dim.ordinal];
      if (v.is_null()) {
        nulls[r] |= (1u << d);
        any_null = true;
        continue;
      }
      // BOOLEAN keys are exact but carry no useful coordinate for the SFS
      // bounds or the grid, so such a dimension is not "numeric".
      if (v.type().id() == TypeId::kBool) dim_numeric = false;
      const std::optional<double> key = RawKey(v);
      if (!key.has_value()) {
        ranked = true;
        break;
      }
      m.keys_[r * m.d_ + d] = sign * *key;
    }
    if (ranked) m.EncodeRanks(rows, dim.ordinal, d, &nulls, &any_null);
    m.numeric_minmax_ = m.numeric_minmax_ && dim_numeric && !ranked;
  }
  if (any_null) m.nulls_ = std::move(nulls);
  return m;
}

void DominanceMatrix::EncodeRanks(const std::vector<Row>& rows, size_t ordinal,
                                  size_t d, std::vector<uint32_t>* nulls,
                                  bool* any_null) {
  // Dense ranks in CompareValues order: sort the non-null rows by value and
  // number the distinct values. Equal values share a rank, so dominance and
  // DIFF equality over ranks are exactly dominance and equality over values.
  std::vector<uint32_t> order;
  order.reserve(n_);
  for (size_t r = 0; r < n_; ++r) {
    if (rows[r][ordinal].is_null()) {
      (*nulls)[r] |= (1u << d);
      *any_null = true;
    } else {
      order.push_back(static_cast<uint32_t>(r));
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return ValueLess(rows[a][ordinal], rows[b][ordinal]);
  });
  ranked_[d] = 1;
  std::vector<Value>& table = decode_[d];
  for (const uint32_t r : order) {
    const Value& v = rows[r][ordinal];
    if (table.empty() || CompareValues(table.back(), v) != 0) {
      table.push_back(v);
    }
    keys_[r * d_ + d] = RankKey(d, table.size() - 1);
  }
}

double DominanceMatrix::RankKey(size_t dim, size_t rank) const {
  const double key = static_cast<double>(rank);
  return ((max_mask_ >> dim) & 1u) ? -key : key;
}

Value DominanceMatrix::DecodeKey(uint32_t row, size_t dim,
                                 TypeId raw_type) const {
  const double key = keys_[row * d_ + dim];
  if (ranked_[dim]) return decode_[dim][static_cast<size_t>(std::fabs(key))];
  const double raw = ((max_mask_ >> dim) & 1u) ? -key : key;
  if (raw_type == TypeId::kInt64) {
    return Value::Int64(static_cast<int64_t>(raw));
  }
  return Value::Double(raw);
}

int64_t DominanceMatrix::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(DominanceMatrix));
  bytes += static_cast<int64_t>(keys_.capacity() * sizeof(double));
  bytes += static_cast<int64_t>(nulls_.capacity() * sizeof(uint32_t));
  for (const auto& table : decode_) {
    for (const Value& v : table) bytes += v.EstimatedBytes();
  }
  return bytes;
}

DominanceMatrix DominanceMatrix::ConcatSelected(
    const std::vector<const DominanceMatrix*>& parts,
    const std::vector<const std::vector<uint32_t>*>& selections) {
  SL_DCHECK(!parts.empty() && parts.size() == selections.size());
  DominanceMatrix out;
  out.d_ = parts[0]->d_;
  out.diff_mask_ = parts[0]->diff_mask_;
  out.max_mask_ = parts[0]->max_mask_;
  out.numeric_minmax_ = true;
  out.ranked_.assign(out.d_, 0);
  out.decode_.assign(out.d_, {});

  size_t total = 0;
  bool any_null = false;
  for (size_t p = 0; p < parts.size(); ++p) {
    SL_DCHECK(parts[p]->d_ == out.d_ &&
              parts[p]->diff_mask_ == out.diff_mask_ &&
              parts[p]->max_mask_ == out.max_mask_);
    total += selections[p]->size();
    any_null |= parts[p]->has_nulls();
    out.numeric_minmax_ &= parts[p]->numeric_minmax_;
  }
  out.n_ = total;
  out.keys_.assign(total * out.d_, 0.0);
  if (any_null) out.nulls_.assign(total, 0);

  size_t cursor = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const DominanceMatrix& part = *parts[p];
    for (const uint32_t r : *selections[p]) {
      std::copy_n(part.row_keys(r), out.d_,
                  out.keys_.begin() + cursor * out.d_);
      if (any_null) out.nulls_[cursor] = part.null_bitmap(r);
      ++cursor;
    }
  }

  // Ranks are only comparable within one matrix. A dimension that any part
  // rank-encoded (with at least one value) is re-ranked over the union of
  // the selected values; parts that kept raw keys there contribute their
  // values decoded from the key, typed like the ranked parts' values.
  for (size_t d = 0; d < out.d_; ++d) {
    const Value* typed = nullptr;
    for (const auto* part : parts) {
      if (part->ranked_[d] && !part->decode_[d].empty()) {
        typed = &part->decode_[d].front();
        break;
      }
    }
    if (typed == nullptr) continue;
    const TypeId raw_type = typed->type().id();
    std::vector<Value> cells(total);
    std::vector<Value> table;
    cursor = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      const DominanceMatrix& part = *parts[p];
      for (const uint32_t r : *selections[p]) {
        if (((part.null_bitmap(r) >> d) & 1u) == 0) {
          cells[cursor] = part.DecodeKey(r, d, raw_type);
          table.push_back(cells[cursor]);
        }
        ++cursor;
      }
    }
    std::sort(table.begin(), table.end(), ValueLess);
    table.erase(std::unique(table.begin(), table.end(),
                            [](const Value& a, const Value& b) {
                              return CompareValues(a, b) == 0;
                            }),
                table.end());
    for (size_t row = 0; row < total; ++row) {
      if (any_null && ((out.nulls_[row] >> d) & 1u)) continue;
      const size_t rank =
          std::lower_bound(table.begin(), table.end(), cells[row], ValueLess) -
          table.begin();
      out.keys_[row * out.d_ + d] = out.RankKey(d, rank);
    }
    out.ranked_[d] = 1;
    out.decode_[d] = std::move(table);
    out.numeric_minmax_ = false;
  }
  return out;
}

std::vector<uint32_t> AllIndices(const DominanceMatrix& matrix) {
  std::vector<uint32_t> idx(matrix.num_rows());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

// --- ColumnarBatch ----------------------------------------------------------

ColumnarBatch ColumnarBatch::Project(std::shared_ptr<std::vector<Row>> rows,
                                     const std::vector<BoundDimension>& dims,
                                     MemoryTracker* memory) {
  DominanceMatrix matrix = DominanceMatrix::Build(*rows, dims);
  ColumnarBatch batch;
  batch.reservation_ =
      std::make_shared<const ScopedReservation>(memory, matrix.MemoryBytes());
  batch.matrix_ = std::make_shared<const DominanceMatrix>(std::move(matrix));
  batch.rows_ = std::move(rows);
  batch.dims_ = dims;
  batch.indices_ = AllIndices(*batch.matrix_);
  return batch;
}

std::vector<Row> ColumnarBatch::DecodeConsuming() && {
  if (rows_.use_count() != 1) return Decode();
  std::vector<Row> out;
  out.reserve(indices_.size());
  for (const uint32_t i : indices_) out.push_back(std::move((*rows_)[i]));
  rows_.reset();
  return out;
}

ColumnarBatch ColumnarBatch::Concat(std::vector<ColumnarBatch>* parts,
                                    MemoryTracker* memory) {
  SL_DCHECK(!parts->empty());
  // A single part is still compacted (not passed through): its backing may
  // hold the stage's full input while the view kept only survivors, and the
  // gather is where non-survivors should stop occupying memory.
  std::vector<const DominanceMatrix*> matrices;
  std::vector<const std::vector<uint32_t>*> selections;
  size_t total = 0;
  bool all_sorted = true;
  const SfsSortKey sort_key = parts->front().sort_key_;
  double stop_bound = std::numeric_limits<double>::infinity();
  for (const ColumnarBatch& part : *parts) {
    matrices.push_back(part.matrix_.get());
    selections.push_back(&part.indices_);
    total += part.num_rows();
    // Sorted inheritance needs every part ascending in the *same* key.
    all_sorted &= part.score_sorted_ && part.sort_key_ == sort_key;
    // Each part's bound witness is one of its shipped rows, so the
    // tightest bound stays valid for the concatenated relation.
    stop_bound = std::min(stop_bound, part.stop_bound_);
  }
  DominanceMatrix merged = DominanceMatrix::ConcatSelected(matrices, selections);
  for (size_t d = 0; d < merged.num_dims(); ++d) {
    if (merged.rank_encoded(d)) {
      // Re-ranked keys are not the coordinates the parts were sorted and
      // bounded by.
      all_sorted = false;
      stop_bound = std::numeric_limits<double>::infinity();
    }
  }

  // Backing rows of the result = the selected rows in view order, so matrix
  // row order is the gathered input order. Exclusively owned part backings
  // are moved (survivor views have distinct indices, so each row moves at
  // most once).
  auto rows = std::make_shared<std::vector<Row>>();
  rows->reserve(total);
  for (ColumnarBatch& part : *parts) {
    const bool exclusive = part.rows_.use_count() == 1;
    for (const uint32_t r : part.indices_) {
      if (exclusive) {
        rows->push_back(std::move((*part.rows_)[r]));
      } else {
        rows->push_back((*part.rows_)[r]);
      }
    }
  }

  ColumnarBatch batch;
  batch.reservation_ =
      std::make_shared<const ScopedReservation>(memory, merged.MemoryBytes());
  batch.matrix_ = std::make_shared<const DominanceMatrix>(std::move(merged));
  batch.rows_ = std::move(rows);
  batch.dims_ = parts->front().dims_;
  batch.stop_bound_ = stop_bound;
  if (all_sorted) {
    // SFS-order inheritance: each part's view became one contiguous run of
    // the new matrix; merge the runs instead of re-sorting downstream.
    std::vector<std::vector<uint32_t>> runs;
    uint32_t offset = 0;
    for (const ColumnarBatch& part : *parts) {
      std::vector<uint32_t> run(part.num_rows());
      for (uint32_t i = 0; i < run.size(); ++i) run[i] = offset + i;
      offset += static_cast<uint32_t>(part.num_rows());
      runs.push_back(std::move(run));
    }
    batch.indices_ = MergeByScore(*batch.matrix_, runs, sort_key);
    batch.score_sorted_ = true;
    batch.sort_key_ = sort_key;
  } else {
    batch.indices_ = AllIndices(*batch.matrix_);
  }
  return batch;
}

ColumnarBatch ColumnarBatch::WithSelection(std::vector<uint32_t> indices,
                                           bool score_sorted,
                                           SfsSortKey sort_key,
                                           double stop_bound) const {
  ColumnarBatch batch = *this;
  batch.indices_ = std::move(indices);
  batch.score_sorted_ = score_sorted;
  batch.sort_key_ = sort_key;
  batch.stop_bound_ = stop_bound;
  return batch;
}

ColumnarBatch ColumnarBatch::Slice(size_t begin, size_t end) const {
  SL_DCHECK(begin <= end && end <= indices_.size());
  ColumnarBatch batch = *this;
  batch.indices_.assign(indices_.begin() + begin, indices_.begin() + end);
  return batch;
}

Result<std::vector<uint32_t>> ColumnarBlockNestedLoop(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  const size_t d = matrix.num_dims();
  const uint32_t diff_mask = matrix.diff_mask();
  const bool incomplete = options.nulls == NullSemantics::kIncomplete;
  const bool branchless = !incomplete && diff_mask == 0;

  // The window is the structure every incoming tuple scans, so its keys are
  // kept in a dense local buffer (window_keys[i*d .. i*d+d)) — the scan
  // reads memory sequentially instead of hopping through the matrix by
  // survivor index.
  std::vector<uint32_t> window;
  std::vector<double> window_keys;
  std::vector<uint32_t> window_nulls;

  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (const uint32_t tuple : input) {
    const double* keys = matrix.row_keys(tuple);
    const uint32_t nulls = matrix.null_bitmap(tuple);
    bool eliminated = false;
    size_t i = 0;
    while (i < window.size()) {
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      const double* wkeys = window_keys.data() + i * d;
      const Dominance dom =
          branchless ? CompareKeySpansComplete(keys, wkeys, d)
                     : CompareKeySpans(keys, wkeys, d, diff_mask,
                                       incomplete ? (nulls | window_nulls[i])
                                                  : 0);
      if (dom == Dominance::kRightDominates ||
          (dom == Dominance::kEqual && options.distinct)) {
        // The newcomer is dominated (or a duplicate under DISTINCT); by
        // transitivity it cannot dominate anything else in the window.
        eliminated = true;
        break;
      }
      if (dom == Dominance::kLeftDominates) {
        // Swap-erase the dominated window tuple, keys included.
        window[i] = window.back();
        window.pop_back();
        window_nulls[i] = window_nulls.back();
        window_nulls.pop_back();
        std::copy_n(window_keys.end() - d, d, window_keys.begin() + i * d);
        window_keys.resize(window_keys.size() - d);
        continue;  // re-examine the swapped-in element at index i
      }
      ++i;
    }
    if (!eliminated) {
      window.push_back(tuple);
      window_nulls.push_back(nulls);
      window_keys.insert(window_keys.end(), keys, keys + d);
    }
  }
  return window;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The kSum stop test converts the max-coordinate bound minC into sort-key
/// (sum) space: a coordinate is only lower-bounded by the sum through the
/// other dimensions' maxima (t_j >= sum(t) - sum_{k != j} hi_k over the
/// pass's input), so the sum threshold is minC + (sum(hi) - min(hi)).
double SumStopOffset(const DominanceMatrix& matrix,
                     const std::vector<uint32_t>& input) {
  const size_t d = matrix.num_dims();
  if (input.empty() || d == 0) return 0;
  std::vector<double> hi(d, -kInf);
  for (const uint32_t r : input) {
    const double* keys = matrix.row_keys(r);
    for (size_t j = 0; j < d; ++j) hi[j] = std::max(hi[j], keys[j]);
  }
  double total = 0, min_hi = kInf;
  for (const double h : hi) {
    total += h;
    min_hi = std::min(min_hi, h);
  }
  return total - min_hi;
}

/// The SFS filter pass over key-ascending input: no later tuple can
/// dominate an earlier one, so the window only grows — an append-only dense
/// key buffer scanned sequentially per incoming tuple. Shared by the
/// sorting entry point and the inherited-order (presorted) one.
///
/// With options.sfs_early_stop the pass maintains the SaLSa stop bound
/// minC = min over window members (and any inherited bound) of MaxKey and
/// terminates once the ascending sort key proves every remaining tuple
/// strictly dominated by the bound's witness. NULL bitmaps disable the stop
/// (NULL key slots hold placeholders, so coordinate bounds are meaningless).
Result<std::vector<uint32_t>> SfsFilterPass(const DominanceMatrix& matrix,
                                            const std::vector<uint32_t>& ordered,
                                            const SkylineOptions& options) {
  const size_t d = matrix.num_dims();
  const bool early_stop = options.sfs_early_stop && !matrix.has_nulls();
  const SfsSortKey sort_key = options.sfs_sort_key;
  const double sum_offset =
      early_stop && sort_key == SfsSortKey::kSum
          ? SumStopOffset(matrix, ordered)
          : 0;
  double min_c = early_stop ? options.sfs_stop_bound : kInf;

  std::vector<uint32_t> window;
  std::vector<double> window_keys;
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (size_t pos = 0; pos < ordered.size(); ++pos) {
    const uint32_t tuple = ordered[pos];
    SL_RETURN_NOT_OK(deadline.Check());
    const double* keys = matrix.row_keys(tuple);
    if (early_stop) {
      // Stop point: once the ascending sort key exceeds the bound, every
      // coordinate of every remaining tuple strictly exceeds minC, so the
      // bound's witness strictly dominates them all. Strict-only
      // elimination never drops equal tuples, so DISTINCT is unaffected.
      const double key =
          sort_key == SfsSortKey::kMinMax ? matrix.MinKey(tuple)
                                          : matrix.Score(tuple);
      const double bound =
          sort_key == SfsSortKey::kMinMax ? min_c : min_c + sum_offset;
      if (key > bound) {
        if (options.early_stop != nullptr) {
          options.early_stop->rows_skipped.fetch_add(
              static_cast<int64_t>(ordered.size() - pos),
              std::memory_order_relaxed);
          options.early_stop->stops.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
    bool eliminated = false;
    for (size_t i = 0; i < window.size(); ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      // SFS runs only on complete numeric MIN/MAX inputs, so the
      // branchless compare applies unconditionally.
      const Dominance dom =
          CompareKeySpansComplete(window_keys.data() + i * d, keys, d);
      if (dom == Dominance::kLeftDominates ||
          (dom == Dominance::kEqual && options.distinct)) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) {
      window.push_back(tuple);
      window_keys.insert(window_keys.end(), keys, keys + d);
      if (early_stop) min_c = std::min(min_c, matrix.MaxKey(tuple));
    }
  }
  return window;
}

}  // namespace

Result<std::vector<uint32_t>> ColumnarSortFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  if (!SfsFastPathApplicable(matrix, options)) {
    return ColumnarBlockNestedLoop(matrix, input, options);
  }
  // Monotone sort key over the negated-for-MAX keys: kSum is strictly
  // monotone under dominance; kMinMax (SaLSa's minC) is weakly monotone and
  // tie-broken by the strictly monotone sum, so in either order the window
  // only grows.
  std::vector<double> scores(input.size());
  for (size_t i = 0; i < input.size(); ++i) scores[i] = matrix.Score(input[i]);
  std::vector<double> min_keys;
  if (options.sfs_sort_key == SfsSortKey::kMinMax) {
    min_keys.resize(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      min_keys[i] = matrix.MinKey(input[i]);
    }
  }
  std::vector<uint32_t> order(input.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (!min_keys.empty() && min_keys[a] != min_keys[b]) {
      return min_keys[a] < min_keys[b];
    }
    return scores[a] < scores[b];
  });
  std::vector<uint32_t> ordered(input.size());
  for (size_t i = 0; i < order.size(); ++i) ordered[i] = input[order[i]];
  return SfsFilterPass(matrix, ordered, options);
}

Result<std::vector<uint32_t>> ColumnarSortFilterSkylinePresorted(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  SL_DCHECK(SfsFastPathApplicable(matrix, options));
  return SfsFilterPass(matrix, input, options);
}

std::vector<uint32_t> MergeByScore(
    const DominanceMatrix& matrix,
    const std::vector<std::vector<uint32_t>>& runs, SfsSortKey sort_key) {
  // Iterative stable two-way merges: std::merge takes from the first range
  // on ties, and earlier runs accumulate on the left, so equal keys keep
  // run order — the same tie-break a global stable sort would produce.
  std::vector<uint32_t> merged;
  auto key_less = [&](uint32_t a, uint32_t b) {
    if (sort_key == SfsSortKey::kMinMax) {
      const double ma = matrix.MinKey(a);
      const double mb = matrix.MinKey(b);
      if (ma != mb) return ma < mb;
    }
    return matrix.Score(a) < matrix.Score(b);
  };
  for (const auto& run : runs) {
    if (merged.empty()) {
      merged = run;
      continue;
    }
    std::vector<uint32_t> next;
    next.reserve(merged.size() + run.size());
    std::merge(merged.begin(), merged.end(), run.begin(), run.end(),
               std::back_inserter(next), key_less);
    merged = std::move(next);
  }
  return merged;
}

double ComputeStopBound(const DominanceMatrix& matrix,
                        const std::vector<uint32_t>& view) {
  if (matrix.has_nulls() || matrix.num_dims() == 0) return kInf;
  double bound = kInf;
  for (const uint32_t r : view) bound = std::min(bound, matrix.MaxKey(r));
  return bound;
}

void NominateFilterPoints(const DominanceMatrix& matrix,
                          const std::vector<uint32_t>& view, size_t k,
                          FilterPointSet* out) {
  SL_DCHECK(matrix.all_numeric_minmax() && !matrix.has_nulls() &&
            matrix.diff_mask() == 0);
  const size_t d = matrix.num_dims();
  if (out->num_dims == 0) out->num_dims = d;
  SL_DCHECK(out->num_dims == d);
  if (k == 0 || view.empty() || d == 0) return;

  // k is tiny (a handful of points per partition), so a linear scan keeping
  // the k smallest MaxKeys beats sorting the view.
  std::vector<std::pair<double, uint32_t>> best;  // (MaxKey, row), ascending
  best.reserve(k + 1);
  for (const uint32_t r : view) {
    const double mk = matrix.MaxKey(r);
    if (best.size() == k && mk >= best.back().first) continue;
    auto pos = std::upper_bound(
        best.begin(), best.end(), mk,
        [](double v, const auto& e) { return v < e.first; });
    best.insert(pos, {mk, r});
    if (best.size() > k) best.pop_back();
  }
  for (const auto& [mk, r] : best) {
    const double* keys = matrix.row_keys(r);
    out->keys.insert(out->keys.end(), keys, keys + d);
  }
}

Result<std::vector<uint32_t>> PruneAgainstFilter(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& view,
    const FilterPointSet& filter, const SkylineOptions& options) {
  SL_DCHECK(matrix.all_numeric_minmax() && !matrix.has_nulls() &&
            matrix.diff_mask() == 0);
  const size_t d = matrix.num_dims();
  SL_DCHECK(filter.num_dims == d);
  const size_t k = filter.num_points();
  if (k == 0) return view;

  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  std::vector<uint32_t> survivors;
  survivors.reserve(view.size());
  for (const uint32_t r : view) {
    SL_RETURN_NOT_OK(deadline.Check());
    const double* keys = matrix.row_keys(r);
    bool dominated = false;
    for (size_t p = 0; p < k; ++p) {
      tests.Tick();
      // Strict-only: kEqual keeps the row (a nominee survives meeting its
      // own broadcast copy; DISTINCT ties are resolved at the merge).
      if (CompareKeySpansComplete(filter.point(p), keys, d) ==
          Dominance::kLeftDominates) {
        dominated = true;
        break;
      }
    }
    if (!dominated) survivors.push_back(r);
  }
  return survivors;
}

Result<std::vector<uint32_t>> ColumnarGridFilterSkyline(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  const size_t n = input.size();
  const size_t num_dims = matrix.num_dims();
  // Cell keys pack 4 bits per dimension into a uint64_t, so beyond 16
  // dimensions the shift would silently wrap — fall back (regression-tested).
  if (options.nulls != NullSemantics::kComplete || n < 64 ||
      !matrix.all_numeric_minmax() || num_dims > 16) {
    return ColumnarBlockNestedLoop(matrix, input, options);
  }
  // Roughly n^(1/d) buckets per dimension, clamped to [2, 16]. All keys are
  // already "smaller is better", so no bucket mirroring is needed: floor
  // bucketing keeps the strictness argument — a point in bucket b lies
  // strictly below the lower edge of bucket b+1, so cell A < cell B in every
  // dimension implies every point of A strictly dominates every point of B.
  size_t buckets = static_cast<size_t>(
      std::round(std::pow(static_cast<double>(n), 1.0 / num_dims)));
  buckets = std::min<size_t>(16, std::max<size_t>(2, buckets));

  std::vector<double> lo(num_dims), hi(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    lo[d] = hi[d] = matrix.key(input[0], d);
  }
  for (const uint32_t r : input) {
    const double* keys = matrix.row_keys(r);
    for (size_t d = 0; d < num_dims; ++d) {
      lo[d] = std::min(lo[d], keys[d]);
      hi[d] = std::max(hi[d], keys[d]);
    }
  }

  auto cell_key = [&](uint32_t r) {
    const double* keys = matrix.row_keys(r);
    uint64_t key = 0;
    for (size_t d = 0; d < num_dims; ++d) {
      const double width = (hi[d] - lo[d]) / static_cast<double>(buckets);
      uint64_t b = 0;
      if (width > 0) {
        b = static_cast<uint64_t>((keys[d] - lo[d]) / width);
        if (b >= buckets) b = buckets - 1;
      }
      key = (key << 4) | b;
    }
    return key;
  };

  std::map<uint64_t, std::vector<uint32_t>> cells;
  for (const uint32_t r : input) cells[cell_key(r)].push_back(r);
  if (cells.size() > 4096) {
    // Too fragmented for the quadratic cell pass to pay off.
    return ColumnarBlockNestedLoop(matrix, input, options);
  }

  auto unpack = [&](uint64_t key, size_t d) {
    return (key >> (4 * (num_dims - 1 - d))) & 0xf;
  };
  std::vector<uint64_t> keys;
  keys.reserve(cells.size());
  for (const auto& [key, rows] : cells) keys.push_back(key);

  std::vector<uint32_t> survivors;
  DeadlineChecker deadline(options);
  for (const uint64_t key : keys) {
    bool eliminated = false;
    for (const uint64_t other : keys) {
      SL_RETURN_NOT_OK(deadline.Check());
      if (other == key) continue;
      bool strictly_better_everywhere = true;
      for (size_t d = 0; d < num_dims; ++d) {
        if (unpack(other, d) >= unpack(key, d)) {
          strictly_better_everywhere = false;
          break;
        }
      }
      if (strictly_better_everywhere) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) {
      for (const uint32_t r : cells[key]) survivors.push_back(r);
    }
  }
  return ColumnarBlockNestedLoop(matrix, survivors, options);
}

Result<std::vector<uint32_t>> ColumnarAllPairsIncomplete(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input,
    const SkylineOptions& options) {
  const size_t n = input.size();
  std::vector<char> dominated(n, 0);
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      // A dominated tuple may still dominate others (Appendix A); only pairs
      // where both are already flagged are irrelevant.
      if (dominated[i] && dominated[j]) continue;
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      const Dominance dom =
          matrix.Compare(input[i], input[j], options.nulls);
      switch (dom) {
        case Dominance::kLeftDominates:
          dominated[j] = 1;
          break;
        case Dominance::kRightDominates:
          dominated[i] = 1;
          break;
        case Dominance::kEqual:
          // Duplicates collapse under DISTINCT only within one null pattern;
          // "equal on common dimensions" across patterns is not equality.
          if (options.distinct &&
              matrix.null_bitmap(input[i]) == matrix.null_bitmap(input[j])) {
            dominated[j] = 1;
          }
          break;
        case Dominance::kIncomparable:
          break;
      }
    }
  }
  // Deferred deletion: only now drop the flagged tuples.
  std::vector<uint32_t> result;
  for (size_t i = 0; i < n; ++i) {
    if (!dominated[i]) result.push_back(input[i]);
  }
  return result;
}

Result<std::vector<uint32_t>> ColumnarIncompleteCandidateScan(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& chunk,
    const SkylineOptions& options) {
  // The candidate stage *is* the all-pairs deferred-deletion scan run over
  // one chunk's index slice: every elimination cites a witness inside the
  // chunk, survivors are the chunk-local candidates. The shared matrix
  // supplies the per-row null bitmaps, so no per-chunk re-projection
  // happens.
  return ColumnarAllPairsIncomplete(matrix, chunk, options);
}

Result<std::vector<uint32_t>> ColumnarValidateAgainstChunk(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<uint32_t>& peer, const SkylineOptions& options) {
  DeadlineChecker deadline(options);
  BatchedCounter tests(options);
  std::vector<uint32_t> survivors;
  survivors.reserve(candidates.size());
  for (const uint32_t c : candidates) {
    const uint32_t bitmap = matrix.null_bitmap(c);
    bool eliminated = false;
    // Early exit on the first witness is sound (peer rows are never
    // eliminated by this pass, so a witness is final).
    for (const uint32_t t : peer) {
      SL_RETURN_NOT_OK(deadline.Check());
      tests.Tick();
      const Dominance dom = matrix.Compare(t, c, options.nulls);
      if (dom == Dominance::kLeftDominates ||
          (dom == Dominance::kEqual && options.distinct && t < c &&
           matrix.null_bitmap(t) == bitmap)) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) survivors.push_back(c);
  }
  return survivors;
}

std::vector<std::vector<uint32_t>> PartitionIndicesByNullBitmap(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& input) {
  std::map<uint32_t, std::vector<uint32_t>> groups;
  for (const uint32_t r : input) {
    groups[matrix.null_bitmap(r)].push_back(r);
  }
  std::vector<std::vector<uint32_t>> out;
  out.reserve(groups.size());
  for (auto& [bitmap, rows] : groups) out.push_back(std::move(rows));
  return out;
}

std::vector<Row> MaterializeRows(const std::vector<Row>& input,
                                 const std::vector<uint32_t>& indices) {
  std::vector<Row> out;
  out.reserve(indices.size());
  for (const uint32_t i : indices) out.push_back(input[i]);
  return out;
}

namespace {

Result<std::vector<uint32_t>> DispatchKernel(ColumnarKernel kernel,
                                             const DominanceMatrix& matrix,
                                             const std::vector<uint32_t>& input,
                                             const SkylineOptions& options) {
  switch (kernel) {
    case ColumnarKernel::kSortFilterSkyline:
      return ColumnarSortFilterSkyline(matrix, input, options);
    case ColumnarKernel::kGridFilter:
      return ColumnarGridFilterSkyline(matrix, input, options);
    case ColumnarKernel::kBlockNestedLoop:
      break;
  }
  return ColumnarBlockNestedLoop(matrix, input, options);
}

}  // namespace

Result<std::vector<uint32_t>> RunColumnarKernel(
    ColumnarKernel kernel, const DominanceMatrix& matrix,
    const std::vector<uint32_t>& input, const SkylineOptions& options) {
  if (options.nulls == NullSemantics::kComplete) {
    return DispatchKernel(kernel, matrix, input, options);
  }
  // Incomplete semantics: one BNL per bitmap-uniform group over the shared
  // matrix (no per-group re-projection).
  std::vector<uint32_t> survivors;
  for (const auto& group : PartitionIndicesByNullBitmap(matrix, input)) {
    SL_ASSIGN_OR_RETURN(std::vector<uint32_t> local,
                        ColumnarBlockNestedLoop(matrix, group, options));
    survivors.insert(survivors.end(), local.begin(), local.end());
  }
  return survivors;
}

Result<std::vector<Row>> ColumnarSkyline(ColumnarKernel kernel,
                                         const std::vector<Row>& input,
                                         const std::vector<BoundDimension>& dims,
                                         const SkylineOptions& options) {
  SL_RETURN_NOT_OK(CheckDimensionLimit(dims));
  const DominanceMatrix matrix = DominanceMatrix::Build(input, dims);
  SL_ASSIGN_OR_RETURN(
      std::vector<uint32_t> survivors,
      RunColumnarKernel(kernel, matrix, AllIndices(matrix), options));
  return MaterializeRows(input, survivors);
}

Result<std::vector<Row>> ColumnarAllPairsSkyline(
    const std::vector<Row>& input, const std::vector<BoundDimension>& dims,
    const SkylineOptions& options) {
  SL_RETURN_NOT_OK(CheckDimensionLimit(dims));
  const DominanceMatrix matrix = DominanceMatrix::Build(input, dims);
  SL_ASSIGN_OR_RETURN(
      std::vector<uint32_t> survivors,
      ColumnarAllPairsIncomplete(matrix, AllIndices(matrix), options));
  return MaterializeRows(input, survivors);
}

Result<DeltaClassification> DeltaClassify(const std::vector<Row>& skyline,
                                          const std::vector<Row>& batch,
                                          const std::vector<BoundDimension>& dims,
                                          const SkylineOptions& options) {
  if (options.nulls != NullSemantics::kComplete) {
    return Status::Invalid(
        "DeltaClassify requires complete dominance semantics (incomplete "
        "dominance is non-transitive, so the cached skyline is not a "
        "sufficient witness set)");
  }
  SL_RETURN_NOT_OK(CheckDimensionLimit(dims));
  DeltaClassification out;
  const size_t n = skyline.size();
  const size_t m = batch.size();
  if (m == 0) return out;

  // One combined projection — skyline rows first, batch rows after — so
  // both sides share packed keys and one rank encoding (ranks are only
  // comparable within a single matrix).
  std::vector<Row> combined;
  combined.reserve(n + m);
  combined.insert(combined.end(), skyline.begin(), skyline.end());
  combined.insert(combined.end(), batch.begin(), batch.end());
  const DominanceMatrix matrix = DominanceMatrix::Build(combined, dims);
  if (matrix.has_nulls()) {
    out.needs_fallback = true;
    return out;
  }

  const auto compare = [&](size_t a, size_t b) {
    internal::CountTest(options);
    return matrix.Compare(static_cast<uint32_t>(a), static_cast<uint32_t>(b),
                          NullSemantics::kComplete);
  };

  // Maintenance runs on the catalog notifier thread, but the classify is
  // still O(|skyline| * |batch|): poll the deadline/cancel state like every
  // other kernel loop so an oversized classify cannot wedge the notifier.
  DeadlineChecker deadline(options);

  // Phase A: a batch tuple survives iff no cached skyline point dominates
  // it (sufficient by transitivity, see header). DISTINCT dim-equality with
  // a cached point cannot be replayed exactly -> conservative fallback.
  std::vector<uint32_t> candidates;
  for (size_t j = 0; j < m; ++j) {
    const size_t bj = n + j;
    bool dominated = false;
    for (size_t i = 0; i < n && !dominated; ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      switch (compare(i, bj)) {
        case Dominance::kLeftDominates:
          dominated = true;
          break;
        case Dominance::kEqual:
          if (options.distinct) {
            out.needs_fallback = true;
            return out;
          }
          break;
        default:
          break;
      }
    }
    if (!dominated) candidates.push_back(static_cast<uint32_t>(j));
  }

  // Phase B: reduce the survivors to their own skyline — a tuple dominated
  // only by another *new* tuple must not enter either. Pairwise elimination
  // is exact under transitive dominance: every dominated candidate has an
  // undominated (hence never-eliminated) dominator that removes it.
  std::vector<char> dead(candidates.size(), 0);
  for (size_t a = 0; a < candidates.size(); ++a) {
    if (dead[a]) continue;
    for (size_t b = a + 1; b < candidates.size() && !dead[a]; ++b) {
      if (dead[b]) continue;
      SL_RETURN_NOT_OK(deadline.Check());
      switch (compare(n + candidates[a], n + candidates[b])) {
        case Dominance::kLeftDominates:
          dead[b] = 1;
          break;
        case Dominance::kRightDominates:
          dead[a] = 1;
          break;
        case Dominance::kEqual:
          if (options.distinct) {
            out.needs_fallback = true;
            return out;
          }
          break;
        default:
          break;
      }
    }
    if (!dead[a]) out.entering.push_back(candidates[a]);
  }

  // Phase C: cached points dominated by an entering tuple are evicted.
  // kEqual never evicts: without DISTINCT equal tuples coexist, and
  // DISTINCT equality already fell back above.
  if (!out.entering.empty()) {
    for (size_t i = 0; i < n; ++i) {
      SL_RETURN_NOT_OK(deadline.Check());
      for (uint32_t j : out.entering) {
        if (compare(n + j, i) == Dominance::kLeftDominates) {
          out.evicted.push_back(static_cast<uint32_t>(i));
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace skyline
}  // namespace sparkline
