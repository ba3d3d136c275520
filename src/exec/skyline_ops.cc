// The skyline physical operators (paper sections 5.5 - 5.7).
//
// Algorithm selection happens in the physical planner (Listing 8); these
// operators only run the algorithm library over partitions:
//
//   distributed complete:   LocalSkylineExec (child partitioning kept)
//                           -> Exchange[AllTuples] -> GlobalSkylineExec
//   non-distributed:        Exchange[AllTuples] -> GlobalSkylineExec
//   distributed incomplete: Exchange[NullBitmapHash] -> LocalSkylineExec
//                           -> Exchange[AllTuples]
//                           -> GlobalSkylineIncompleteExec
//
// Every dominance test runs over a DominanceMatrix (skyline/columnar.h),
// and each operator has one path: reuse the ColumnarBatch its input
// shipped, or project its row input once, then run the index kernels. The
// local stage projects each partition exactly once; the gather exchange
// concatenates the matrix blocks; the global stages slice and merge index
// views over the shared matrix; rows are decoded only at the plan root (or
// by the first non-skyline consumer). The projection is exact for every
// input the analyzer accepts: a column without an exact double key
// (VARCHAR, BIGINT beyond ±2^53, NaN) is rank-encoded in CompareValues
// order, where NaN is the greatest double. QueryMetrics::matrix_builds /
// matrix_reuses record which stages projected vs. reused.
#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/physical_plan.h"
#include "skyline/columnar.h"

namespace sparkline {

namespace {

skyline::ColumnarKernel ToColumnarKernel(SkylineKernel kernel) {
  switch (kernel) {
    case SkylineKernel::kSortFilterSkyline:
      return skyline::ColumnarKernel::kSortFilterSkyline;
    case SkylineKernel::kGridFilter:
      return skyline::ColumnarKernel::kGridFilter;
    case SkylineKernel::kBlockNestedLoop:
      break;
  }
  return skyline::ColumnarKernel::kBlockNestedLoop;
}

/// Projects `rows` once into a batch for `dims`, charging the matrix to the
/// query's MemoryTracker and recording the build under `stage_label`.
skyline::ColumnarBatch ProjectCounted(
    ExecContext* ctx, const std::string& stage_label,
    std::shared_ptr<std::vector<Row>> rows,
    const std::vector<skyline::BoundDimension>& dims) {
  StopWatch project;
  skyline::ColumnarBatch batch =
      skyline::ColumnarBatch::Project(std::move(rows), dims, ctx->memory());
  ctx->AddProjectionMs(project.ElapsedMillis());
  ctx->AddMatrixBuilds(stage_label, 1);
  return batch;
}

/// Balanced contiguous chunk bounds: sizes differ by at most one, so no
/// executor idles and the parallel stage's critical path is as short as the
/// split allows.
std::vector<size_t> ChunkBounds(size_t n, size_t chunks) {
  std::vector<size_t> bounds(chunks + 1, 0);
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  for (size_t i = 0; i < chunks; ++i) {
    bounds[i + 1] = bounds[i] + base + (i < extra ? 1 : 0);
  }
  return bounds;
}

/// Normalized zone-map corners for one partition over the skyline
/// dimensions, in DominanceMatrix key space ("smaller is better": MAX
/// values are negated). `best` is the most optimistic coordinate any row of
/// the partition can have per dimension; `worst` the most pessimistic every
/// row is at least as good as. Returns false when the zone cannot support a
/// sound corner test for these dimensions: invalid / shape-poisoned zone, a
/// dimension with no numeric range, a NULL anywhere in a skyline dimension
/// (NULL coordinates escape the min/max summary), or a DIFF goal (its
/// dictionary codes carry no order).
bool ZoneCorners(const ZoneMap& zone,
                 const std::vector<skyline::BoundDimension>& dims,
                 std::vector<double>* best, std::vector<double>* worst) {
  if (!zone.valid()) return false;
  best->clear();
  worst->clear();
  best->reserve(dims.size());
  worst->reserve(dims.size());
  for (const auto& dim : dims) {
    if (dim.goal == SkylineGoal::kDiff) return false;
    if (dim.ordinal >= zone.columns.size()) return false;
    const ColumnZone& col = zone.columns[dim.ordinal];
    if (!col.has_range() || col.null_count > 0) return false;
    if (dim.goal == SkylineGoal::kMax) {
      best->push_back(-col.max);
      worst->push_back(-col.min);
    } else {
      best->push_back(col.min);
      worst->push_back(col.max);
    }
  }
  return true;
}

/// True when the partition behind `worst` strictly dominates every possible
/// row of the partition behind `best`: worst <= best componentwise with at
/// least one strict dimension. Any row r of the witness and any row s of
/// the candidate satisfy r[d] <= worst[d] <= best[d] <= s[d], strictly at
/// the witness dimension — classic zone-map pruning lifted from scalar
/// ranges to the dominance lattice.
bool CornerDominates(const std::vector<double>& worst,
                     const std::vector<double>& best) {
  bool strict = false;
  for (size_t d = 0; d < worst.size(); ++d) {
    if (worst[d] > best[d]) return false;
    if (worst[d] < best[d]) strict = true;
  }
  return strict;
}

}  // namespace

LocalSkylineExec::LocalSkylineExec(std::vector<skyline::BoundDimension> dims,
                                   bool distinct, skyline::NullSemantics nulls,
                                   PhysicalPlanPtr child, SkylineKernel kernel,
                                   bool sfs_early_stop,
                                   skyline::SfsSortKey sfs_sort_key,
                                   bool zone_map_skipping)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct),
      nulls_(nulls),
      kernel_(kernel),
      sfs_early_stop_(sfs_early_stop),
      sfs_sort_key_(sfs_sort_key),
      zone_map_skipping_(zone_map_skipping) {}

std::string LocalSkylineExec::label() const {
  return StrCat("LocalSkyline [",
                nulls_ == skyline::NullSemantics::kComplete ? "complete"
                                                            : "incomplete",
                ", ", dims_.size(), " dims",
                kernel_ == SkylineKernel::kSortFilterSkyline
                    ? ", sfs"
                    : (kernel_ == SkylineKernel::kGridFilter ? ", grid" : ""),
                "]");
}

Result<PartitionedRelation> LocalSkylineExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // A skyline stage feeding another skyline operator (nested queries)
  // decodes between them: the two matrices project different dimensions.
  DecodeInput(ctx, &in);

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = nulls_;
  options.counter = ctx->dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();
  options.sfs_early_stop = sfs_early_stop_;
  options.sfs_sort_key = sfs_sort_key_;
  options.early_stop = ctx->early_stop();

  const size_t n = in.partitions.size();

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(n, {});
  out.batches.assign(n, std::nullopt);

  // --- Phase-two pruning: zone-map partition skipping -----------------------
  // Drop whole partitions before projection when another partition's zone
  // proves total strict dominance: if the witness partition's worst corner
  // dominates the candidate's best corner (componentwise <=, strict
  // somewhere), every row of the witness strictly dominates every row of
  // the candidate, so the candidate contributes nothing to any skyline.
  // Strict-only elimination keeps DISTINCT ties intact, and mutual or
  // cyclic skipping is impossible because strict corner dominance is a
  // strict partial order. Sound only under complete semantics — incomplete
  // dominance is non-transitive and NULL coordinates escape the min/max
  // summary — so the test auto-disables there. Witnesses must still hold
  // rows: a Filter may have emptied a partition whose scan-time zone still
  // claims a range.
  std::vector<char> skip(n, 0);
  if (zone_map_skipping_ && nulls_ == skyline::NullSemantics::kComplete &&
      n > 1 && in.zone_maps.size() == n) {
    std::vector<std::vector<double>> best(n);
    std::vector<std::vector<double>> worst(n);
    std::vector<char> eligible(n, 0);
    for (size_t i = 0; i < n; ++i) {
      eligible[i] =
          in.PartitionRows(i) > 0 &&
          ZoneCorners(in.zone_maps[i], dims_, &best[i], &worst[i]);
    }
    int64_t skipped = 0;
    for (size_t q = 0; q < n; ++q) {
      if (!eligible[q]) continue;
      for (size_t p = 0; p < n; ++p) {
        if (p == q || !eligible[p]) continue;
        if (CornerDominates(worst[p], best[q])) {
          skip[q] = 1;
          ++skipped;
          break;
        }
      }
    }
    if (skipped > 0) {
      ctx->AddPartitionsSkipped(skipped);
      static metrics::Counter* skipped_counter =
          metrics::MetricsRegistry::Global().GetCounter(
              "sparkline_partitions_skipped_total");
      skipped_counter->Increment(skipped);
    }
  }
  if (in.zone_maps.size() == n) {
    // Output partitions are row subsets of the input partitions with the
    // same columns, so the scan-time zones remain conservative bounds for
    // them. Skipped partitions ship no rows; clear their zones so the
    // broadcast phase never counts a veto against an already-empty
    // partition.
    out.zone_maps = std::move(in.zone_maps);
    for (size_t i = 0; i < n; ++i) {
      if (skip[i]) out.zone_maps[i] = ZoneMap();
    }
  }

  SL_RETURN_NOT_OK(RunStage(ctx, n, [&](size_t i) -> Status {
    if (skip[i]) {
      // Zone-skipped: drop the rows before the projection. The normal path
      // below then runs over zero rows, producing the same (empty) batch
      // shape and sort/stop-bound flags as an actually-empty partition, so
      // the gather's all-batches columnar path survives.
      in.partitions[i].clear();
    }
    // Project this partition exactly once; every downstream skyline stage
    // reuses the matrix through the batch.
    const skyline::ColumnarBatch batch = ProjectCounted(
        ctx, label(),
        std::make_shared<std::vector<Row>>(std::move(in.partitions[i])),
        dims_);
    SL_ASSIGN_OR_RETURN(
        std::vector<uint32_t> survivors,
        skyline::RunColumnarKernel(ToColumnarKernel(kernel_), batch.matrix(),
                                   batch.indices(), options));
    // SFS leaves its window in sort-key order; tag the view so the global
    // stage can inherit the sort instead of re-sorting, and attach this
    // partition's SaLSa stop bound (the tightest max-coordinate over its
    // skyline) so the merge can inherit it too.
    const bool sorted = kernel_ == SkylineKernel::kSortFilterSkyline &&
                        skyline::SfsFastPathApplicable(batch.matrix(), options);
    const double stop_bound =
        sorted && sfs_early_stop_
            ? skyline::ComputeStopBound(batch.matrix(), survivors)
            : std::numeric_limits<double>::infinity();
    out.batches[i] = batch.WithSelection(std::move(survivors), sorted,
                                         sfs_sort_key_, stop_bound);
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- BroadcastFilterExec ----------------------------------------------------

BroadcastFilterExec::BroadcastFilterExec(
    std::vector<skyline::BoundDimension> dims, PhysicalPlanPtr child,
    size_t points_per_partition)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      points_per_partition_(points_per_partition) {}

Result<PartitionedRelation> BroadcastFilterExec::Execute(
    ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));

  // Eligibility (see the class comment): every non-empty partition must
  // carry a batch projected for these dimensions whose matrix supports
  // cross-matrix key comparison. Anything else — row partitions, refused
  // shapes, NULL bitmaps, DIFF dimensions — passes through unchanged; the
  // gather and global merge compute the same result, just without the
  // pre-gather discount.
  const size_t n = in.partitions.size();
  size_t non_empty = 0;
  bool eligible = n > 1 && in.batches.size() == n && points_per_partition_ > 0;
  for (size_t i = 0; eligible && i < n; ++i) {
    if (in.PartitionRows(i) == 0) continue;
    ++non_empty;
    const std::optional<skyline::ColumnarBatch>& b = in.batches[i];
    eligible = b.has_value() && b->ProjectedFor(dims_) &&
               b->matrix().all_numeric_minmax() && !b->matrix().has_nulls() &&
               b->matrix().diff_mask() == 0;
  }
  if (!eligible || non_empty < 2) return in;

  // Degradation contract: the filter is a shuffle discount, never a
  // correctness dependency. Cancellation, timeout and memory exhaustion
  // keep their meaning and propagate; any other stage failure (including
  // injected "exec.broadcast" faults that outlive the retry budget) falls
  // back to the unfiltered input. Both stages only read `in` and write
  // side vectors, so the fallback input is untouched.
  auto degradable = [](const Status& s) {
    return !s.IsCancelled() && !s.IsTimeout() && !s.IsResourceExhausted();
  };

  skyline::SkylineOptions options;
  options.counter = ctx->dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();

  // [nominate]: each partition offers its k SaLSa minmax-best points; the
  // union is the broadcast filter set.
  std::vector<skyline::FilterPointSet> nominated(n);
  Status status =
      RunStage(ctx, StrCat(label(), " [nominate]"), n, [&](size_t i) -> Status {
        if (in.PartitionRows(i) == 0) return Status::OK();
        skyline::NominateFilterPoints(in.batches[i]->matrix(),
                                      in.batches[i]->indices(),
                                      points_per_partition_, &nominated[i]);
        return Status::OK();
      });
  if (!status.ok()) {
    if (!degradable(status)) return status;
    SL_LOG_WARN << "broadcast filter [nominate] degraded to pass-through: "
                << status.ToString();
    return in;
  }

  skyline::FilterPointSet filter;
  for (const auto& part : nominated) {
    if (part.num_points() == 0) continue;
    if (filter.num_dims == 0) filter.num_dims = part.num_dims;
    filter.keys.insert(filter.keys.end(), part.keys.begin(), part.keys.end());
  }
  const int64_t filter_points = static_cast<int64_t>(filter.num_points());
  if (filter_points == 0) return in;
  ctx->AddBroadcastFilterPoints(filter_points);
  static metrics::Counter* points_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_broadcast_filter_points_total");
  points_counter->Increment(filter_points);

  // Zone veto corners: with zone maps still attached (Scan -> Filter ->
  // LocalSkyline chains preserve them), a filter point strictly dominating
  // a partition's *best corner* strictly dominates every row the partition
  // could hold — the whole partition drops without touching a row. A
  // partition can never veto itself (its own rows are >= its best corner
  // componentwise, so at best they compare kEqual), and mutual vetoes are
  // impossible for the same order-theoretic reason as mutual zone skips.
  std::vector<std::vector<double>> best(n);
  std::vector<char> corner_ok(n, 0);
  if (in.zone_maps.size() == n) {
    std::vector<double> worst;
    for (size_t i = 0; i < n; ++i) {
      if (in.PartitionRows(i) == 0) continue;
      corner_ok[i] = ZoneCorners(in.zone_maps[i], dims_, &best[i], &worst) &&
                     best[i].size() == filter.num_dims;
    }
  }

  // [filter]: every partition prunes against the union before the gather.
  std::vector<std::vector<uint32_t>> pruned(n);
  std::vector<char> veto(n, 0);
  status =
      RunStage(ctx, StrCat(label(), " [filter]"), n, [&](size_t i) -> Status {
        if (in.PartitionRows(i) == 0) return Status::OK();
        if (corner_ok[i]) {
          for (size_t p = 0; p < filter.num_points(); ++p) {
            if (skyline::CompareKeySpansComplete(filter.point(p),
                                                 best[i].data(),
                                                 filter.num_dims) ==
                skyline::Dominance::kLeftDominates) {
              veto[i] = 1;
              return Status::OK();
            }
          }
        }
        SL_ASSIGN_OR_RETURN(
            pruned[i],
            skyline::PruneAgainstFilter(in.batches[i]->matrix(),
                                        in.batches[i]->indices(), filter,
                                        options));
        return Status::OK();
      });
  if (!status.ok()) {
    if (!degradable(status)) return status;
    SL_LOG_WARN << "broadcast filter [filter] degraded to pass-through: "
                << status.ToString();
    return in;
  }

  // Apply only after both stages fully succeeded. Pruned views stay
  // subsequences of the input views, so the SFS sort flag, sort key and
  // stop bound all remain valid: a pruned bound witness is itself strictly
  // dominated by a filter point whose domination chain terminates at a
  // surviving row, so every bound-based elimination downstream keeps a
  // surviving witness by transitivity.
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(n, {});
  out.batches.assign(n, std::nullopt);
  out.zone_maps = std::move(in.zone_maps);

  int64_t vetoed = 0;
  int64_t rows_pruned = 0;
  for (size_t i = 0; i < n; ++i) {
    if (in.PartitionRows(i) == 0) {
      out.partitions[i] = std::move(in.partitions[i]);
      if (in.batches[i].has_value()) out.batches[i] = std::move(in.batches[i]);
      continue;
    }
    const skyline::ColumnarBatch& b = *in.batches[i];
    if (veto[i]) {
      ++vetoed;
      rows_pruned += static_cast<int64_t>(b.num_rows());
      out.batches[i] = b.WithSelection({}, b.score_sorted(), b.sort_key(),
                                       b.stop_bound());
      if (out.zone_maps.size() == n) out.zone_maps[i] = ZoneMap();
      continue;
    }
    rows_pruned += static_cast<int64_t>(b.num_rows() - pruned[i].size());
    out.batches[i] = b.WithSelection(std::move(pruned[i]), b.score_sorted(),
                                     b.sort_key(), b.stop_bound());
  }

  if (vetoed > 0) {
    ctx->AddPartitionsSkipped(vetoed);
    static metrics::Counter* skipped_counter =
        metrics::MetricsRegistry::Global().GetCounter(
            "sparkline_partitions_skipped_total");
    skipped_counter->Increment(vetoed);
  }
  if (rows_pruned > 0) {
    ctx->AddRowsPrunedPreGather(rows_pruned);
    static metrics::Counter* pruned_counter =
        metrics::MetricsRegistry::Global().GetCounter(
            "sparkline_rows_pruned_pre_gather_total");
    pruned_counter->Increment(rows_pruned);
  }
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- global stages ----------------------------------------------------------

Result<skyline::ColumnarBatch> PhysicalPlan::GatheredBatch(
    ExecContext* ctx, PartitionedRelation* in,
    const std::vector<skyline::BoundDimension>& dims,
    bool ascending_view) const {
  // Reuse the batch the gather exchange shipped when it was projected for
  // these dimensions (a nested skyline's output feeding this one directly
  // encodes the wrong columns) and, where the caller needs it, its view is
  // ascending in matrix index. ColumnarBatch::Concat always produces an
  // identity view, so the is_sorted scan is an O(n) insurance premium
  // against a plan shape that bypasses it.
  if (in->batches.size() == 1 && in->batches[0].has_value() &&
      in->batches[0]->ProjectedFor(dims) &&
      (!ascending_view || std::is_sorted(in->batches[0]->indices().begin(),
                                         in->batches[0]->indices().end()))) {
    ctx->AddMatrixReuse(label());
    skyline::ColumnarBatch batch = std::move(*in->batches[0]);
    return batch;
  }
  // Row input (non-distributed plans, nested skylines): project once in a
  // dedicated stage and share the matrix across every later stage exactly
  // as if the batch had arrived from upstream.
  DecodeInput(ctx, in);
  auto rows = std::make_shared<std::vector<Row>>(std::move(*in).Flatten());
  const std::string project_label = StrCat(label(), " [project]");
  std::optional<skyline::ColumnarBatch> batch;
  SL_RETURN_NOT_OK(RunStage(ctx, project_label, 1, [&](size_t) -> Status {
    batch = ProjectCounted(ctx, project_label, rows, dims);
    return Status::OK();
  }));
  return *std::move(batch);
}

GlobalSkylineExec::GlobalSkylineExec(std::vector<skyline::BoundDimension> dims,
                                     bool distinct, PhysicalPlanPtr child,
                                     SkylineKernel kernel, bool sfs_early_stop,
                                     skyline::SfsSortKey sfs_sort_key)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct),
      kernel_(kernel),
      sfs_early_stop_(sfs_early_stop),
      sfs_sort_key_(sfs_sort_key) {}

Result<PartitionedRelation> GlobalSkylineExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // `in` keeps its charge until this function returns, so the gathered
  // input stays accounted while the kernels run.
  SL_ASSIGN_OR_RETURN(skyline::ColumnarBatch batch,
                      GatheredBatch(ctx, &in, dims_, /*ascending_view=*/false));

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = skyline::NullSemantics::kComplete;
  options.counter = ctx->merge_dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();
  options.sfs_early_stop = sfs_early_stop_;
  options.sfs_sort_key = sfs_sort_key_;
  options.early_stop = ctx->early_stop();

  const skyline::DominanceMatrix& matrix = batch.matrix();
  const std::vector<uint32_t>& view = batch.indices();
  // Inherited SFS order: the view arrives ascending in this query's sort
  // key (local SFS stages + the exchange's k-way merge), so every SFS pass
  // here skips its sort.
  const bool sfs_inherited = kernel_ == SkylineKernel::kSortFilterSkyline &&
                             batch.score_sorted() &&
                             batch.sort_key() == sfs_sort_key_ &&
                             skyline::SfsFastPathApplicable(matrix, options);
  if (sfs_inherited && sfs_early_stop_) {
    // Inherited stop bound: the tightest per-partition minC shipped with
    // the gathered batch. Its witness row is part of the gathered input,
    // so eliminating through it is sound for the global result — the
    // partial slices and the sort-free merge can terminate before their
    // own windows tighten the bound.
    options.sfs_stop_bound = batch.stop_bound();
  }
  auto run_over =
      [&](const std::vector<uint32_t>& input) -> Result<std::vector<uint32_t>> {
    if (sfs_inherited) {
      return skyline::ColumnarSortFilterSkylinePresorted(matrix, input,
                                                         options);
    }
    return skyline::RunColumnarKernel(ToColumnarKernel(kernel_), matrix, input,
                                      options);
  };
  auto result_bound = [&](const std::vector<uint32_t>& survivors) {
    return sfs_inherited && sfs_early_stop_
               ? skyline::ComputeStopBound(matrix, survivors)
               : std::numeric_limits<double>::infinity();
  };

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.batches.emplace_back();

  const size_t num_executors =
      static_cast<size_t>(std::max(1, ctx->config().num_executors));
  if (num_executors <= 1 || view.size() < 2) {
    // Single executor: the classic single-task global pass.
    std::vector<uint32_t> survivors;
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      SL_ASSIGN_OR_RETURN(survivors, run_over(view));
      return Status::OK();
    }));
    const double bound = result_bound(survivors);
    out.batches[0] = batch.WithSelection(std::move(survivors), sfs_inherited,
                                         sfs_sort_key_, bound);
    SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
    return out;
  }

  // Parallel partial-merge global skyline over index slices of the shared
  // matrix: executor-count chunks compute their skylines concurrently, then
  // one task merges the partial windows. Correct because complete dominance
  // is transitive: a tuple dominated in its chunk is also dominated in the
  // full input, so chunk pruning never removes a global skyline point.
  const size_t chunks = std::min(num_executors, view.size());
  const std::vector<size_t> bounds = ChunkBounds(view.size(), chunks);
  std::vector<std::vector<uint32_t>> partials(chunks);
  SL_RETURN_NOT_OK(RunStage(
      ctx, StrCat(label(), " [partial]"), chunks, [&](size_t i) -> Status {
        // A contiguous slice of a score-ascending view is score-ascending,
        // so the inherited order survives the chunking.
        SL_ASSIGN_OR_RETURN(
            partials[i], run_over(batch.Slice(bounds[i], bounds[i + 1]).indices()));
        return Status::OK();
      }));

  std::vector<uint32_t> survivors;
  SL_RETURN_NOT_OK(RunStage(
      ctx, StrCat(label(), " [merge]"), 1, [&](size_t) -> Status {
        if (sfs_inherited) {
          // Partial outputs are key-ascending runs: merge them and run the
          // grow-only window — the merge stage never re-sorts, and the
          // inherited stop bound lets it terminate early.
          SL_ASSIGN_OR_RETURN(
              survivors,
              skyline::ColumnarSortFilterSkylinePresorted(
                  matrix,
                  skyline::MergeByScore(matrix, partials, sfs_sort_key_),
                  options));
          return Status::OK();
        }
        std::vector<uint32_t> merge_input;
        for (const auto& p : partials) {
          merge_input.insert(merge_input.end(), p.begin(), p.end());
        }
        SL_ASSIGN_OR_RETURN(survivors, skyline::ColumnarBlockNestedLoop(
                                           matrix, merge_input, options));
        return Status::OK();
      }));
  const double bound = result_bound(survivors);
  out.batches[0] = batch.WithSelection(std::move(survivors), sfs_inherited,
                                       sfs_sort_key_, bound);
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

GlobalSkylineIncompleteExec::GlobalSkylineIncompleteExec(
    std::vector<skyline::BoundDimension> dims, bool distinct,
    PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      dims_(std::move(dims)),
      distinct_(distinct) {}

Result<PartitionedRelation> GlobalSkylineIncompleteExec::Execute(
    ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  // The validation rounds' DISTINCT tie-break (t < c on matrix indices) and
  // the finalize concatenation are sound only over an ascending view whose
  // matrix row order is the gathered input order.
  SL_ASSIGN_OR_RETURN(skyline::ColumnarBatch batch,
                      GatheredBatch(ctx, &in, dims_, /*ascending_view=*/true));

  skyline::SkylineOptions options;
  options.distinct = distinct_;
  options.nulls = skyline::NullSemantics::kIncomplete;
  options.counter = ctx->merge_dominance();
  options.deadline_nanos = ctx->deadline_nanos();
  options.cancel = ctx->cancel_token();

  const skyline::DominanceMatrix& matrix = batch.matrix();
  const std::vector<uint32_t>& view = batch.indices();

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.batches.emplace_back();

  const size_t num_executors =
      static_cast<size_t>(std::max(1, ctx->config().num_executors));
  if (num_executors <= 1 || view.size() < 2) {
    // Single-task all-pairs (the paper's algorithm as written).
    std::vector<uint32_t> survivors;
    SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
      SL_ASSIGN_OR_RETURN(
          survivors, skyline::ColumnarAllPairsIncomplete(matrix, view, options));
      return Status::OK();
    }));
    out.batches[0] = batch.WithSelection(std::move(survivors), false);
    SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
    return out;
  }

  // Round-based parallel all-pairs (see the class comment): unlike the
  // complete path's partial-merge, survivor-only merging is unsound under
  // non-transitive dominance, so candidates are validated against each peer
  // chunk's *full* tuple set, one rotating peer per round. Contiguous
  // balanced chunks keep chunk order == global input order, which the
  // DISTINCT tie-break and the finalize concatenation rely on.
  const size_t chunks = std::min(num_executors, view.size());
  const std::vector<size_t> bounds = ChunkBounds(view.size(), chunks);
  std::vector<std::vector<uint32_t>> chunk_indices(chunks);
  for (size_t i = 0; i < chunks; ++i) {
    chunk_indices[i].assign(view.begin() + bounds[i],
                            view.begin() + bounds[i + 1]);
  }

  std::vector<std::vector<uint32_t>> candidates(chunks);
  SL_RETURN_NOT_OK(RunStage(
      ctx, StrCat(label(), " [candidates]"), chunks, [&](size_t i) -> Status {
        SL_ASSIGN_OR_RETURN(candidates[i],
                            skyline::ColumnarIncompleteCandidateScan(
                                matrix, chunk_indices[i], options));
        return Status::OK();
      }));

  // chunks-1 rotation rounds; each task only shrinks its own candidate
  // list and reads peer chunks, so rounds need no cross-task coordination
  // beyond the stage barrier (which models the per-round exchange).
  for (size_t round = 1; round < chunks; ++round) {
    SL_RETURN_NOT_OK(RunStage(
        ctx, StrCat(label(), " [validate]"), chunks, [&](size_t i) -> Status {
          const size_t peer = (i + round) % chunks;
          SL_ASSIGN_OR_RETURN(candidates[i],
                              skyline::ColumnarValidateAgainstChunk(
                                  matrix, candidates[i], chunk_indices[peer],
                                  options));
          return Status::OK();
        }));
  }

  SL_RETURN_NOT_OK(RunStage(
      ctx, StrCat(label(), " [finalize]"), 1, [&](size_t) -> Status {
        // Chunks are ascending contiguous spans, so concatenating candidate
        // lists in chunk order reproduces the single-task output order.
        std::vector<uint32_t> survivors;
        for (const auto& c : candidates) {
          survivors.insert(survivors.end(), c.begin(), c.end());
        }
        out.batches[0] = batch.WithSelection(std::move(survivors), false);
        return Status::OK();
      }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
