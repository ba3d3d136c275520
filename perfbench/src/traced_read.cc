#include "traced_read.h"

#include <memory>
#include <optional>

#include "serve/fingerprint.h"
#include "serve/incremental.h"
#include "sql/parser.h"

namespace perfbench {

using sparkline::ExecContext;
using sparkline::LogicalPlanPtr;
using sparkline::PartitionedRelation;
using sparkline::PhysicalPlanPtr;
using sparkline::QueryResult;
using sparkline::Result;
using sparkline::Session;

Result<QueryResult> TracedRead(Session* session, const std::string& sql,
                               SpanLog* log) {
  LogicalPlanPtr plan;
  SL_ASSIGN_OR_RETURN(plan, InSpan(log, "sql.parse",
                                   [&] { return sparkline::ParseSql(sql); }));
  LogicalPlanPtr analyzed;
  SL_ASSIGN_OR_RETURN(analyzed, InSpan(log, "analysis.analyze",
                                       [&] { return session->Analyze(plan); }));
  SL_ASSIGN_OR_RETURN(analyzed, InSpan(log, "analysis.analyze", [&] {
                        return session->Analyze(analyzed);
                      }));

  sparkline::serve::PlanFingerprint fp;
  bool use_cache = session->config().cache_enabled;
  if (use_cache) {
    fp = InSpan(log, "serve.fingerprint",
                [&] { return sparkline::serve::FingerprintPlan(analyzed); });
    use_cache = fp.cacheable;
  }
  if (use_cache) {
    auto hit = InSpan(log, "serve.cache_lookup",
                      [&] { return session->cache()->Lookup(fp); });
    if (hit != nullptr) {
      QueryResult result;
      result.attrs = hit->attrs;
      result.SetRows(hit->rows);
      result.metrics.cache_hit = true;
      result.metrics.cache_delta_maintained = hit->delta_count;
      result.metrics.rows_served = static_cast<int64_t>(hit->rows->size());
      result.metrics.bytes_served = hit->bytes;
      return result;
    }
  }

  LogicalPlanPtr optimized;
  SL_ASSIGN_OR_RETURN(optimized, InSpan(log, "optimizer.optimize", [&] {
                        return session->Optimize(analyzed);
                      }));
  PhysicalPlanPtr physical;
  SL_ASSIGN_OR_RETURN(physical, InSpan(log, "exec.plan", [&] {
                        return session->PlanPhysical(optimized);
                      }));
  std::unique_ptr<ExecContext> ctx = InSpan(log, "exec.context_setup", [&] {
    return std::make_unique<ExecContext>(session->config().cluster);
  });

  const int64_t wall_start = NowNanos();
  std::optional<PartitionedRelation> rel;
  SL_ASSIGN_OR_RETURN(rel, InSpan(log, "exec.execute",
                                  [&] { return physical->Execute(ctx.get()); }));
  QueryResult result;
  {
    SpanScope decode_span(log, "exec.root_decode");
    result.attrs = rel->attrs;
    const bool root_decode = rel->has_batches();
    const int64_t decode_start = NowNanos();
    result.SetRows(std::move(*rel).Flatten());
    if (root_decode) ctx->AddDecodeMs((NowNanos() - decode_start) / 1e6);
    rel.reset();
  }
  {
    SpanScope teardown_span(log, "exec.context_teardown");
    const double wall_ms = (NowNanos() - wall_start) / 1e6;
    result.metrics = ctx->Finish(wall_ms);
    result.metrics.rows_served = static_cast<int64_t>(result.num_rows());
    if (sparkline::Trace* trace = ctx->trace()) {
      trace->Annotate(nullptr, "dominance_tests",
                      std::to_string(result.metrics.dominance_tests));
      trace->Annotate(nullptr, "peak_memory_bytes",
                      std::to_string(result.metrics.peak_memory_bytes));
      trace->Annotate(nullptr, "rows_served",
                      std::to_string(result.metrics.rows_served));
    }
    result.trace = ctx->TakeTrace(wall_ms);
    ctx.reset();
  }

  if (use_cache) {
    // The miss path of Session::Execute: cache the answer with its
    // incremental-maintenance recipe.
    result.metrics.bytes_served = sparkline::EstimatedRowsBytes(result.rows());
    auto entry = std::make_shared<sparkline::serve::CachedResult>();
    entry->attrs = result.attrs;
    entry->rows = result.shared_rows();
    entry->bytes = result.metrics.bytes_served;
    entry->fingerprint = fp;
    uint64_t snapshot_version = 0;
    entry->recipe = sparkline::serve::BuildDeltaRecipe(analyzed, &snapshot_version);
    entry->table_version = snapshot_version;
    // As in Session::Execute, a failed insert still serves the answer.
    const sparkline::Status cached = session->cache()->Insert(fp, std::move(entry));
    static_cast<void>(cached);
  }
  return result;
}

}  // namespace perfbench
