#include "exec/physical_plan.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "exec/subquery_expr.h"
#include "expr/evaluator.h"

namespace sparkline {

int64_t EstimateRelationBytes(const PartitionedRelation& rel) {
  int64_t total = 0;
  for (size_t i = 0; i < rel.partitions.size(); ++i) {
    if (i < rel.batches.size() && rel.batches[i].has_value()) {
      const skyline::ColumnarBatch& batch = *rel.batches[i];
      if (batch.num_rows() == 0 || batch.backing_rows().empty()) continue;
      total += EstimateRowBytes(batch.backing_rows().front()) *
               static_cast<int64_t>(batch.num_rows());
      continue;
    }
    const auto& p = rel.partitions[i];
    if (p.empty()) continue;
    total += EstimateRowBytes(p.front()) * static_cast<int64_t>(p.size());
  }
  return total;
}

namespace {

/// The `sparkline_stage_us{stage=...}` histogram of a stage label, resolved
/// from the registry once per label and thread: the registry lookup takes
/// its global mutex and renders the label set, and stages run on every
/// query. Instruments are never removed, so the cached pointers stay valid.
metrics::Histogram* StageHistogram(const std::string& stage_label) {
  thread_local std::unordered_map<std::string, metrics::Histogram*> cache;
  auto it = cache.find(stage_label);
  if (it != cache.end()) return it->second;
  metrics::Histogram* histogram =
      metrics::MetricsRegistry::Global().GetHistogram(
          "sparkline_stage_us", {{"stage", stage_label}});
  cache.emplace(stage_label, histogram);
  return histogram;
}

}  // namespace

std::string PhysicalPlan::TreeString() const {
  std::string out = label();
  for (const auto& c : children_) {
    out += "\n";
    out += Indent(c->TreeString(), 2);
  }
  return out;
}

Status PhysicalPlan::RunStage(ExecContext* ctx, size_t num_partitions,
                              const std::function<Status(size_t)>& fn) const {
  return RunStage(ctx, label(), num_partitions, fn);
}

Status PhysicalPlan::RunStage(ExecContext* ctx, const std::string& stage_label,
                              size_t num_partitions,
                              const std::function<Status(size_t)>& fn) const {
  if (num_partitions == 0) return Status::OK();
  // Stage-boundary cancellation points: before dispatching any task and
  // after the barrier.
  SL_RETURN_NOT_OK(ctx->CheckInterrupt());
  Trace* trace = ctx->trace();
  TraceSpan* stage_span =
      trace ? trace->StartSpan(nullptr, stage_label, "stage") : nullptr;
  std::vector<Status> statuses(num_partitions);
  std::vector<double> cpu_ms(num_partitions, 0.0);
  ParallelFor(ctx->pool(), num_partitions, [&](size_t i) {
    TraceSpan* task_span =
        trace ? trace->StartSpan(stage_span, StrCat("task ", i), "task",
                                 static_cast<int64_t>(i))
              : nullptr;
    ThreadCpuTimer timer;
    statuses[i] = RunTask(ctx, stage_label, i, fn, task_span);
    cpu_ms[i] = static_cast<double>(timer.ElapsedNanos()) / 1e6;
    if (task_span != nullptr) {
      trace->Annotate(task_span, "cpu_ms", FormatFixed(cpu_ms[i], 3));
      trace->EndSpan(task_span);
    }
  });
  // Critical-path model: the stage takes as long as its slowest task
  // (retries included — a re-executed task lengthens its stage).
  const double critical_ms = *std::max_element(cpu_ms.begin(), cpu_ms.end());
  ctx->AddStageTime(stage_label, critical_ms);
  StageHistogram(stage_label)->Observe(
      static_cast<int64_t>(critical_ms * 1000.0));
  if (stage_span != nullptr) {
    trace->Annotate(stage_span, "critical_path_ms",
                    FormatFixed(critical_ms, 3));
    trace->Annotate(stage_span, "tasks", std::to_string(num_partitions));
    trace->EndSpan(stage_span);
  }
  for (const auto& s : statuses) SL_RETURN_NOT_OK(s);
  return ctx->CheckInterrupt();
}

Status PhysicalPlan::RunTask(ExecContext* ctx, const std::string& stage_label,
                             size_t index,
                             const std::function<Status(size_t)>& fn,
                             TraceSpan* span) const {
  // Resolved once per process; Increment is one relaxed atomic add.
  static metrics::Counter* retried_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exec_tasks_retried_total");
  static metrics::Counter* failed_counter =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exec_tasks_failed_total");
  const int retries = std::max(0, ctx->config().task_retries);
  int64_t backoff_ms = std::max<int64_t>(0, ctx->config().retry_backoff_ms);
  int faults = 0;
  for (int attempt = 0;; ++attempt) {
    SL_RETURN_NOT_OK(ctx->CheckInterrupt());
    Status s;
    try {
      // The injected fault fires BEFORE the task body: a retried attempt
      // must never re-run a body that already consumed (moved out of) its
      // input partition. The bodies themselves never produce retryable
      // statuses, so fn(index) runs at most once to completion.
      s = fail::AnyArmed() ? fail::Hit(failpoint_site()) : Status::OK();
      if (!s.ok()) ++faults;
      if (s.ok()) s = fn(index);
    } catch (const std::exception& e) {
      s = Status::Internal(StrCat("task ", index, " of stage '", stage_label,
                                  "' threw: ", e.what()));
    } catch (...) {
      s = Status::Internal(StrCat("task ", index, " of stage '", stage_label,
                                  "' threw a non-std::exception"));
    }
    if (s.ok() || !s.IsRetryable() || attempt >= retries) {
      if (!s.ok()) {
        ctx->AddTaskFailure();
        failed_counter->Increment();
      }
      if (span != nullptr) {
        Trace* trace = ctx->trace();
        if (attempt > 0) {
          trace->Annotate(span, "retries", std::to_string(attempt));
        }
        if (faults > 0) {
          trace->Annotate(span, "failpoint_fires", std::to_string(faults));
        }
        if (!s.ok()) trace->Annotate(span, "error", s.ToString());
      }
      return s;
    }
    ctx->AddTaskRetries(1);
    retried_counter->Increment();
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
  }
}

Status PhysicalPlan::ChargeOutput(ExecContext* ctx,
                                  PartitionedRelation* out) const {
  const int64_t bytes = EstimateRelationBytes(*out);
  if (!ctx->memory()->TryGrow(bytes)) {
    return Status::ResourceExhausted(
        StrCat(label(), " output of ", bytes,
               " bytes does not fit the memory limit (",
               ctx->memory()->current_bytes(), " of ",
               ctx->memory()->limit_bytes(), " bytes in use)"));
  }
  out->charge = MemoryCharge(ctx->memory(), bytes);
  const int64_t rows = static_cast<int64_t>(out->TotalRows());
  ctx->AddStageRows(label(), rows);
  if (Trace* trace = ctx->trace()) {
    trace->AnnotateStage(label(), "rows", std::to_string(rows));
  }
  // Unconditional side reservations (kernel matrices, hash tables) bypass
  // TryGrow; surface their overshoot here, at the operator boundary.
  return ctx->CheckMemoryLimit();
}

void PhysicalPlan::DecodeInput(ExecContext* ctx, PartitionedRelation* in) const {
  if (!in->has_batches()) return;
  StopWatch decode;
  in->EnsureRows();
  ctx->AddDecodeMs(decode.ElapsedMillis());
}

Result<ExprPtr> EvaluateSubqueries(const ExprPtr& e, ExecContext* ctx) {
  Status error = Status::OK();
  ExprPtr out = Expression::Transform(e, [&](const ExprPtr& n) -> ExprPtr {
    if (!error.ok() || n->kind() != ExprKind::kPhysicalSubquery) return n;
    const auto& sub = static_cast<const PhysicalSubqueryExpr&>(*n);
    auto result = sub.plan()->Execute(ctx);
    if (!result.ok()) {
      error = result.status();
      return n;
    }
    std::vector<Row> rows = std::move(*result).Flatten();
    if (rows.empty()) return Literal::Make(Value::Null(sub.type()));
    if (rows.size() > 1) {
      error = Status::ExecutionError(
          "scalar subquery returned more than one row");
      return n;
    }
    if (rows[0].size() != 1) {
      error = Status::ExecutionError(
          "scalar subquery returned more than one column");
      return n;
    }
    return Literal::Make(rows[0][0]);
  });
  SL_RETURN_NOT_OK(error);
  return out;
}

// --- ScanExec ---------------------------------------------------------------

ScanExec::ScanExec(TablePtr table, std::vector<size_t> column_indices,
                   std::vector<Attribute> output)
    : PhysicalPlan(std::move(output), {}),
      table_(std::move(table)),
      column_indices_(std::move(column_indices)) {}

std::string ScanExec::label() const {
  return StrCat("Scan ", table_->name(), " [", column_indices_.size(),
                " columns]");
}

Result<PartitionedRelation> ScanExec::Execute(ExecContext* ctx) const {
  const Table& table = *table_;
  const size_t num_rows = table.num_rows();
  const size_t n = std::max(1, ctx->config().num_executors);
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(n, {});
  out.zone_maps.assign(n, ZoneMap());

  // Contiguous global row ranges, like a data source with n splits; a range
  // may span several of the table's chunks.
  const size_t per = (num_rows + n - 1) / n;
  SL_RETURN_NOT_OK(RunStage(ctx, n, [&](size_t i) -> Status {
    const size_t begin = std::min(num_rows, i * per);
    const size_t end = std::min(num_rows, begin + per);
    auto& part = out.partitions[i];
    part.reserve(end - begin);
    // Per-partition zone map over the *projected* output columns, folded in
    // while the rows are copied anyway — the data-skipping metadata is free
    // relative to the copy itself.
    out.zone_maps[i] = ZoneMap(column_indices_.size());
    table.ForEachRow(begin, end, [&](const Row& row) {
      Row projected;
      projected.reserve(column_indices_.size());
      for (size_t c : column_indices_) projected.push_back(row[c]);
      out.zone_maps[i].Observe(projected);
      part.push_back(std::move(projected));
    });
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- LocalRelationExec --------------------------------------------------------

LocalRelationExec::LocalRelationExec(std::shared_ptr<std::vector<Row>> rows,
                                     std::vector<Attribute> output)
    : PhysicalPlan(std::move(output), {}), rows_(std::move(rows)) {}

Result<PartitionedRelation> LocalRelationExec::Execute(ExecContext* ctx) const {
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.push_back(*rows_);
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- ProjectExec ---------------------------------------------------------------

ProjectExec::ProjectExec(std::vector<ExprPtr> bound_list,
                         std::vector<Attribute> output, PhysicalPlanPtr child)
    : PhysicalPlan(std::move(output), {std::move(child)}),
      list_(std::move(bound_list)) {}

Result<PartitionedRelation> ProjectExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  DecodeInput(ctx, &in);
  std::vector<ExprPtr> list = list_;
  for (auto& e : list) {
    SL_ASSIGN_OR_RETURN(e, EvaluateSubqueries(e, ctx));
  }
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(in.partitions.size(), {});
  SL_RETURN_NOT_OK(RunStage(ctx, in.partitions.size(), [&](size_t i) -> Status {
    auto& part = out.partitions[i];
    part.reserve(in.partitions[i].size());
    for (const Row& row : in.partitions[i]) {
      Row projected;
      projected.reserve(list.size());
      for (const auto& e : list) {
        SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row));
        projected.push_back(std::move(v));
      }
      part.push_back(std::move(projected));
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- FilterExec -----------------------------------------------------------------

FilterExec::FilterExec(ExprPtr bound_condition, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      condition_(std::move(bound_condition)) {}

Result<PartitionedRelation> FilterExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  DecodeInput(ctx, &in);
  SL_ASSIGN_OR_RETURN(ExprPtr cond, EvaluateSubqueries(condition_, ctx));
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.assign(in.partitions.size(), {});
  // A filter keeps each partition a row subset with unchanged columns, so
  // the scan's zone maps stay conservative bounds and travel through.
  out.zone_maps = std::move(in.zone_maps);
  SL_RETURN_NOT_OK(RunStage(ctx, in.partitions.size(), [&](size_t i) -> Status {
    auto& part = out.partitions[i];
    for (Row& row : in.partitions[i]) {
      SL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*cond, row));
      if (pass) part.push_back(std::move(row));
    }
    return Status::OK();
  }));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- ExchangeExec ----------------------------------------------------------------

namespace {

/// Wire-size estimate of a relation crossing an exchange: row partitions as
/// in EstimateRelationBytes (one sampled row times the count), batch
/// partitions additionally ship their packed matrix keys (the view's rows
/// are already counted by the row estimate; null bitmaps and dictionaries
/// are noise next to the keys).
int64_t EstimateShippedBytes(const PartitionedRelation& rel) {
  int64_t total = EstimateRelationBytes(rel);
  for (const auto& b : rel.batches) {
    if (!b.has_value()) continue;
    total += static_cast<int64_t>(b->num_rows() * b->matrix().num_dims() *
                                  sizeof(double));
  }
  return total;
}

/// 32-bit mix (murmur3 finalizer) so distinct null bitmaps spread over
/// executors even when numerically adjacent.
uint32_t MixHash(uint32_t h) {
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}
}  // namespace

ExchangeExec::ExchangeExec(ExchangeMode mode,
                           std::vector<skyline::BoundDimension> dims,
                           PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      mode_(mode),
      dims_(std::move(dims)) {}

std::string ExchangeExec::label() const {
  switch (mode_) {
    case ExchangeMode::kGather:
      return "Exchange [AllTuples]";
    case ExchangeMode::kRoundRobin:
      return "Exchange [RoundRobin]";
    case ExchangeMode::kNullBitmapHash:
      return "Exchange [NullBitmapHash]";
    case ExchangeMode::kAngle:
      return "Exchange [Angle]";
  }
  return "Exchange";
}

namespace exchange_internal {

namespace {
/// Sign-adjusted numeric key: negated for MAX so "smaller is better" holds
/// in every dimension, exactly like the DominanceMatrix projection. NaN for
/// NULL / non-numeric values (skipped by the bounds, neutral in the angle).
double NormalizedKey(const Row& row, const skyline::BoundDimension& dim) {
  const Value& v = row[dim.ordinal];
  if (v.is_null() || !v.type().is_numeric()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double value = v.ToDouble();
  return dim.goal == SkylineGoal::kMax ? -value : value;
}
}  // namespace

AngleBounds ComputeAngleBounds(const std::vector<std::vector<Row>>& partitions,
                               const std::vector<skyline::BoundDimension>& dims) {
  AngleBounds bounds;
  bounds.lo.assign(dims.size(), std::numeric_limits<double>::infinity());
  bounds.hi.assign(dims.size(), -std::numeric_limits<double>::infinity());
  for (const auto& partition : partitions) {
    for (const Row& row : partition) {
      for (size_t d = 0; d < dims.size(); ++d) {
        const double key = NormalizedKey(row, dims[d]);
        if (std::isnan(key)) continue;
        bounds.lo[d] = std::min(bounds.lo[d], key);
        bounds.hi[d] = std::max(bounds.hi[d], key);
      }
    }
  }
  return bounds;
}

size_t AnglePartition(const Row& row,
                      const std::vector<skyline::BoundDimension>& dims,
                      size_t n, const AngleBounds& bounds) {
  if (dims.size() < 2 || n <= 1) return 0;
  // Min-max scale every sign-adjusted key into [0, 1]: the previous raw
  // |value|+1 magnitudes ignored both the MIN/MAX negation and the
  // per-dimension scale, so MAX goals (large raw magnitudes for *good*
  // values) and wide-range dimensions swamped the angle and collapsed most
  // rows into one or two buckets. Degenerate (constant) and NULL
  // dimensions contribute a neutral 0.5.
  auto scaled = [&](size_t d) {
    const double key = NormalizedKey(row, dims[d]);
    if (std::isnan(key) || !(bounds.hi[d] > bounds.lo[d])) return 0.5;
    return (key - bounds.lo[d]) / (bounds.hi[d] - bounds.lo[d]);
  };
  double rest = 0;
  for (size_t d = 1; d < dims.size(); ++d) {
    const double m = scaled(d);
    rest += m * m;
  }
  const double angle = std::atan2(std::sqrt(rest), scaled(0));
  constexpr double kHalfPi = 1.5707963267948966;
  // Infinite keys scale to NaN (inf / inf); such rows take bucket 0 rather
  // than an undefined NaN-to-integer conversion.
  const double pos = angle / kHalfPi * static_cast<double>(n);
  if (!(pos > 0)) return 0;
  return pos >= static_cast<double>(n) ? n - 1 : static_cast<size_t>(pos);
}

}  // namespace exchange_internal

Result<PartitionedRelation> ExchangeExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  const int64_t moved = static_cast<int64_t>(in.TotalRows());
  ctx->AddRowsShuffled(moved);
  // Exchange observability: what actually crosses the stage boundary, per
  // query (QueryMetrics) and process-wide (the registry). This is the
  // scorecard of the pre-gather pruning phases — fewer rows/bytes here is
  // the point of BroadcastFilterExec and zone-map skipping.
  const int64_t shipped_bytes = EstimateShippedBytes(in);
  ctx->AddExchangeShipped(moved, shipped_bytes);
  static metrics::Counter* shipped_rows_total =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exchange_rows_shipped_total");
  static metrics::Counter* shipped_bytes_total =
      metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_exchange_bytes_total");
  shipped_rows_total->Increment(moved);
  shipped_bytes_total->Increment(shipped_bytes);

  PartitionedRelation out;
  out.attrs = output_;
  const size_t n = std::max(1, ctx->config().num_executors);

  // Columnar shuffle: when every gathered partition arrives as a batch,
  // ship the matrix blocks — concatenate them into one compact batch
  // instead of decoding to rows and letting the global stage re-project.
  if (mode_ == ExchangeMode::kGather && in.has_batches()) {
    bool all_batches = true;
    for (size_t i = 0; i < in.partitions.size(); ++i) {
      all_batches &= (i < in.batches.size() && in.batches[i].has_value()) ||
                     in.partitions[i].empty();
    }
    if (all_batches) {
      // `parts` outlives the timed stage: dropping the old backings (the
      // upstream stage's non-survivor rows) happens where every operator
      // destroys its consumed inputs — outside the critical path.
      std::vector<skyline::ColumnarBatch> parts;
      for (auto& batch : in.batches) {
        if (batch.has_value()) parts.push_back(std::move(*batch));
      }
      SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
        out.partitions.emplace_back();
        out.batches.emplace_back(
            skyline::ColumnarBatch::Concat(&parts, ctx->memory()));
        return Status::OK();
      }));
      ctx->AddMatrixReuse(label());
      // `in` still holds its charge here, so both copies are accounted
      // transiently, as on the row path below.
      SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
      return out;
    }
    // Mixed row/batch input: decode everything and gather rows.
    DecodeInput(ctx, &in);
  } else if (in.has_batches()) {
    // Re-partitioning exchanges consume rows.
    DecodeInput(ctx, &in);
  }

  SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
    switch (mode_) {
      case ExchangeMode::kGather: {
        out.partitions.push_back(std::move(in).Flatten());
        break;
      }
      case ExchangeMode::kRoundRobin: {
        out.partitions.assign(n, {});
        size_t next = 0;
        for (auto& p : in.partitions) {
          for (auto& row : p) {
            out.partitions[next % n].push_back(std::move(row));
            ++next;
          }
        }
        break;
      }
      case ExchangeMode::kNullBitmapHash: {
        out.partitions.assign(n, {});
        for (auto& p : in.partitions) {
          for (auto& row : p) {
            const uint32_t bitmap = skyline::NullBitmap(row, dims_);
            out.partitions[MixHash(bitmap) % n].push_back(std::move(row));
          }
        }
        break;
      }
      case ExchangeMode::kAngle: {
        out.partitions.assign(n, {});
        const exchange_internal::AngleBounds bounds =
            exchange_internal::ComputeAngleBounds(in.partitions, dims_);
        for (auto& p : in.partitions) {
          for (auto& row : p) {
            out.partitions[exchange_internal::AnglePartition(row, dims_, n,
                                                             bounds)]
                .push_back(std::move(row));
          }
        }
        break;
      }
    }
    return Status::OK();
  }));
  // `in`'s charge is still alive (serialization buffers): the exchange
  // holds both copies transiently.
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- SortExec ---------------------------------------------------------------------

SortExec::SortExec(std::vector<BoundSortOrder> orders, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}),
      orders_(std::move(orders)) {}

Result<PartitionedRelation> SortExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  DecodeInput(ctx, &in);
  std::vector<Row> rows = std::move(in).Flatten();

  // Precompute sort keys so the comparator cannot fail mid-sort.
  std::vector<std::vector<Value>> keys(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    keys[i].reserve(orders_.size());
    for (const auto& o : orders_) {
      SL_ASSIGN_OR_RETURN(Value v, EvalExpr(*o.expr, rows[i]));
      keys[i].push_back(std::move(v));
    }
  }
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  SL_RETURN_NOT_OK(RunStage(ctx, 1, [&](size_t) -> Status {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < orders_.size(); ++k) {
        const Value& va = keys[a][k];
        const Value& vb = keys[b][k];
        if (va.is_null() || vb.is_null()) {
          if (va.is_null() && vb.is_null()) continue;
          return orders_[k].nulls_first ? va.is_null() : vb.is_null();
        }
        const int cmp = CompareValues(va, vb);
        if (cmp != 0) return orders_[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    return Status::OK();
  }));

  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.emplace_back();
  out.partitions[0].reserve(rows.size());
  for (size_t i : order) out.partitions[0].push_back(std::move(rows[i]));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

// --- LimitExec ----------------------------------------------------------------------

LimitExec::LimitExec(int64_t n, PhysicalPlanPtr child)
    : PhysicalPlan(child->output(), {child}), n_(n) {}

Result<PartitionedRelation> LimitExec::Execute(ExecContext* ctx) const {
  SL_ASSIGN_OR_RETURN(PartitionedRelation in, children_[0]->Execute(ctx));
  DecodeInput(ctx, &in);
  std::vector<Row> rows = std::move(in).Flatten();
  if (static_cast<int64_t>(rows.size()) > n_) {
    rows.resize(static_cast<size_t>(n_));
  }
  PartitionedRelation out;
  out.attrs = output_;
  out.partitions.push_back(std::move(rows));
  SL_RETURN_NOT_OK(ChargeOutput(ctx, &out));
  return out;
}

}  // namespace sparkline
