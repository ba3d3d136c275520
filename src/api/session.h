// Session: the user-facing entry point (SparkSession analog).
//
//   Session session;
//   session.catalog()->RegisterTable(hotels);
//   auto df = session.Sql("SELECT * FROM hotels "
//                         "SKYLINE OF price MIN, rating MAX");
//   auto result = df->Collect();
//
// Configuration keys (Session::SetConf):
//   sparkline.executors                     int, number of executors
//   sparkline.skyline.strategy              auto | distributed |
//                                           non_distributed | incomplete |
//                                           reference
//   sparkline.timeout_ms                    per-query timeout (0 = none)
//   sparkline.memory.executorOverheadMb     simulated per-executor footprint
//   sparkline.skyline.kernel                bnl | sfs | grid
//   sparkline.skyline.broadcast_filter      bool, pre-gather broadcast-filter
//                                           pruning (two-phase pruning, 1)
//   sparkline.scan.zone_maps                bool, per-partition zone maps +
//                                           partition skipping (phase 2)
//   sparkline.skyline.partitioning          asis | roundrobin | angle
//   sparkline.skyline.nonDistributedThreshold  rows; 0 disables (section 7)
//   sparkline.optimizer.singleDimRewrite    bool
//   sparkline.optimizer.skylineJoinPushdown bool
//   sparkline.optimizer.filterPushdown      bool
//   sparkline.optimizer.constantFolding     bool
//   sparkline.optimizer.columnPruning       bool
//   sparkline.cache.enabled                 bool, fingerprinted result cache
//   sparkline.cache.capacity_bytes          cache byte budget
//   sparkline.cache.ttl_ms                  entry TTL (0 = none)
//   sparkline.cache.incremental             bool, delta-maintain cached
//                                           skylines under InsertInto
//                                           instead of invalidating
//   sparkline.cache.max_delta_batch         rows; inserts larger than this
//                                           invalidate instead of classify
//   sparkline.serve.max_concurrent          query-service threads /
//                                           admission base
//   sparkline.exec.task_retries             per-task retry budget for
//                                           transient (Unavailable) failures
//   sparkline.exec.retry_backoff_ms         initial retry backoff (doubles
//                                           per attempt)
//   sparkline.exec.memory_limit_bytes       per-query memory ceiling
//                                           (0 = unlimited); exceeding it
//                                           fails with ResourceExhausted
//   sparkline.failpoints                    fault-injection spec, e.g.
//                                           "exec.scan=error*2;
//                                            exec.exchange=delay:5" —
//                                           empty disarms all (testing only)
//   sparkline.trace.enabled                 bool, record per-query trace
//                                           spans (QueryResult::TraceJson)
//   sparkline.log.slow_query_ms             wall-clock threshold above which
//                                           a query emits one structured
//                                           slow-query log line (0 = off)
#pragma once

#include <future>
#include <memory>
#include <string>

#include "analysis/analyzer.h"
#include "api/query_result.h"
#include "catalog/catalog.h"
#include "common/thread_safety.h"
#include "exec/planner.h"
#include "optimizer/optimizer.h"
#include "serve/incremental.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"

namespace sparkline {

class DataFrame;

/// \brief Session configuration (see header comment for the string keys).
struct SessionConfig {
  ClusterConfig cluster;
  SkylineStrategy skyline_strategy = SkylineStrategy::kAuto;
  /// Run skylines via the plain-SQL rewriting (the "reference" algorithm).
  bool skyline_reference = false;
  /// Skyline kernel: Block-Nested-Loop (paper), Sort-Filter-Skyline
  /// (the paper's future-work presorting family) or grid-based cell
  /// pruning (Tang et al., paper section 2). Key:
  /// sparkline.skyline.kernel = bnl | sfs | grid.
  SkylineKernel skyline_kernel = SkylineKernel::kBlockNestedLoop;
  /// Phase one of two-phase distributed pruning: after the local skyline
  /// stage, each partition nominates its SaLSa minmax-best points; the
  /// union travels as a tiny broadcast filter and every partition prunes
  /// its local skyline against it *before* the gather exchange pays for
  /// shipping the rows. Strict-only elimination keeps results
  /// bit-identical with the phase off; ineligible shapes (NULLs, DIFF,
  /// BOOLEAN or rank-encoded dims) pass through. Key:
  /// sparkline.skyline.broadcast_filter.
  bool skyline_broadcast_filter = true;
  /// Phase two: scans build per-partition zone maps (per-column min/max +
  /// null counts, maintained incrementally on INSERT); the local skyline
  /// stage drops whole partitions whose best corner is strictly dominated
  /// by another partition's worst corner, before projection. Auto-disables
  /// under incomplete dominance and for non-numeric/NULL/DIFF dimensions.
  /// Key: sparkline.scan.zone_maps.
  bool scan_zone_maps = true;
  /// Local-stage partitioning for complete data. Key:
  /// sparkline.skyline.partitioning = asis | roundrobin | angle.
  SkylinePartitioning skyline_partitioning = SkylinePartitioning::kAsIs;
  /// SaLSa-style early termination for the SFS family (stop at the minC
  /// stop point; the global merge inherits the tightest per-partition bound
  /// through the columnar exchange). Auto-disabled for incomplete/NULL
  /// data and strict-only, so results are identical with the toggle on or
  /// off (DISTINCT included). Key: sparkline.skyline.sfs.early_stop.
  bool skyline_sfs_early_stop = true;
  /// Monotone SFS sort key: "sum" (the pre-existing score order) or
  /// "minmax" (SaLSa's minC function — the key whose stop bound is tight).
  /// Key: sparkline.skyline.sfs.sort_key.
  skyline::SfsSortKey skyline_sfs_sort_key = skyline::SfsSortKey::kSum;
  /// Cost-based refinement threshold (section 7 future work). Key:
  /// sparkline.skyline.nonDistributedThreshold (rows; 0 = off).
  int64_t non_distributed_threshold = 0;
  OptimizerOptions optimizer;

  // --- serve layer (src/serve) ---------------------------------------------
  /// Fingerprinted result cache around Execute. Results served from the
  /// cache are bit-identical to uncached execution; hits are marked in
  /// QueryMetrics (cache_hit, "[cache-hit]" stage). Key:
  /// sparkline.cache.enabled.
  bool cache_enabled = false;
  /// Cache byte budget, charged through a MemoryTracker. Key:
  /// sparkline.cache.capacity_bytes.
  int64_t cache_capacity_bytes = 256ll << 20;
  /// Cache entry TTL in ms (0 = no expiry). Key: sparkline.cache.ttl_ms.
  int64_t cache_ttl_ms = 0;
  /// Incremental maintenance: InsertInto advances affected cached skylines
  /// by classifying the inserted batch against the cached result
  /// (serve/incremental.h) instead of invalidating them. Off = every write
  /// invalidates (the pre-maintenance behaviour). Results are bit-identical
  /// either way. Key: sparkline.cache.incremental.
  bool cache_incremental = true;
  /// Inserts with more rows than this fall back to invalidation (delta
  /// classification is O((|skyline|+|batch|)*|batch|); recomputing once
  /// beats classifying a huge batch). Key: sparkline.cache.max_delta_batch.
  int64_t cache_max_delta_batch = 1024;
  /// Query-service threads (= max concurrently executing queries; the
  /// admission cap defaults to 4x this). Read when the service is first
  /// used. Key: sparkline.serve.max_concurrent.
  int serve_max_concurrent = 4;

  // --- observability --------------------------------------------------------
  /// Queries whose wall-clock time is at or above this threshold emit one
  /// structured slow-query log line (fingerprint, table versions, stage
  /// breakdown, cache disposition) and count into
  /// sparkline_slow_queries_total. 0 disables the log. Key:
  /// sparkline.log.slow_query_ms.
  int64_t log_slow_query_ms = 0;
};

/// \brief Per-query EXPLAIN output: the plan after each pipeline stage of
/// Figure 2.
struct ExplainInfo {
  std::string analyzed;
  std::string optimized;
  std::string physical;

  std::string ToString() const;
};

class Session {
 public:
  Session() : Session(SessionConfig{}) {}
  explicit Session(SessionConfig config);

  Catalog* catalog() { return catalog_.get(); }
  const SessionConfig& config() const { return config_; }
  SessionConfig* mutable_config() { return &config_; }

  /// String-keyed configuration, Spark-style. Not synchronized with query
  /// execution: configure before serving — calling SetConf while SqlAsync
  /// queries are in flight races with their config reads. (The cache's
  /// capacity/TTL knobs are safe to adjust at runtime through an already
  /// created cache(), which is internally synchronized.)
  Status SetConf(const std::string& key, const std::string& value);

  /// Parses SQL into a DataFrame (lazily executed).
  Result<DataFrame> Sql(const std::string& sql);

  /// Submits SQL to the session's QueryService: parse/analyze/execute run
  /// on a service thread and the result arrives through the future.
  /// Rejects immediately with Status::Unavailable past the admission cap.
  Result<std::future<Result<QueryResult>>> SqlAsync(const std::string& sql);

  /// Like SqlAsync but returns the full handle, whose Cancel() sheds the
  /// query from the service queue or interrupts its execution.
  Result<serve::QueryHandle> SqlSubmit(const std::string& sql);

  /// The lazily created serving front-end (created with the
  /// sparkline.serve.max_concurrent in effect at first use).
  serve::QueryService* service();

  /// The lazily created result cache (also created when a cache-enabled
  /// Execute first runs). Never null.
  serve::ResultCache* cache() const;

  /// The lazily created incremental-maintenance engine (created together
  /// with the cache; also drives Subscribe). Never null.
  serve::IncrementalMaintainer* maintainer() const;

  /// Registers a continuous skyline query: the callback fires immediately
  /// with the full current skyline (a resync delta), then once per catalog
  /// write that changes the result, on the catalog's notifier thread. The
  /// query must be a maintainable skyline (single table, Filter/Project
  /// pipeline, complete dominance) — anything else is Status::Invalid.
  /// Returns the subscription id for Unsubscribe.
  Result<uint64_t> Subscribe(const std::string& sql,
                             serve::SubscriptionCallback callback);
  Status Unsubscribe(uint64_t id);

  /// A DataFrame over a registered table.
  Result<DataFrame> Table(const std::string& name);

  /// A DataFrame over in-memory rows.
  Result<DataFrame> CreateDataFrame(const Schema& schema,
                                    std::vector<Row> rows);

  // --- pipeline entry points (used by DataFrame; available to tests) -------
  Result<LogicalPlanPtr> Analyze(const LogicalPlanPtr& plan) const;
  Result<LogicalPlanPtr> Optimize(const LogicalPlanPtr& analyzed) const;
  Result<PhysicalPlanPtr> PlanPhysical(const LogicalPlanPtr& optimized) const;
  /// Analyze + optimize + plan + execute.
  Result<QueryResult> Execute(const LogicalPlanPtr& plan) const;
  /// Same, with a cooperative cancellation token installed on the query's
  /// ExecContext: Cancel() makes every kernel loop and stage boundary
  /// return Status::Cancelled at the next check. A null token means
  /// "not cancellable".
  Result<QueryResult> Execute(const LogicalPlanPtr& plan,
                              const CancellationTokenPtr& cancel) const;
  Result<ExplainInfo> Explain(const LogicalPlanPtr& plan) const;

  /// Prometheus-style text exposition of the process-wide metrics registry
  /// (counters, gauges, histograms from every layer: serve, cache,
  /// incremental maintenance, catalog, execution). The registry is shared
  /// across sessions in the process; this is merely the convenient scrape
  /// point.
  std::string MetricsText() const;

 private:
  /// Optimize + plan + execute `analyzed`, bypassing the result cache; the
  /// shared tail of the cache-miss path and EXPLAIN ANALYZE (which must
  /// measure a real execution, never a cached one). When `physical_out` is
  /// non-null the physical plan is handed back for rendering.
  Result<QueryResult> ExecuteUncached(const LogicalPlanPtr& analyzed,
                                      const CancellationTokenPtr& cancel,
                                      PhysicalPlanPtr* physical_out) const;

  /// Emits the structured slow-query line (and counts it) when the query's
  /// wall time reaches config_.log_slow_query_ms (> 0).
  void MaybeLogSlowQuery(const serve::PlanFingerprint& fp,
                         const QueryMetrics& metrics,
                         const char* cache_disposition) const;

  std::shared_ptr<Catalog> catalog_;
  SessionConfig config_;

  // Serve layer, created lazily (and guarded) because Execute is const and
  // sessions without caching/async use should pay nothing. Destruction
  // order matters: service_ runs queries against this session, so it is
  // declared last and therefore destroyed first.
  mutable sl::Mutex serve_mu_;
  mutable std::shared_ptr<serve::ResultCache> cache_ SL_GUARDED_BY(serve_mu_);
  /// Created with cache_ (the write listener holds both weakly); shared so
  /// in-flight notifier dispatches survive session teardown.
  mutable std::shared_ptr<serve::IncrementalMaintainer> maintainer_
      SL_GUARDED_BY(serve_mu_);
  std::unique_ptr<serve::QueryService> service_ SL_GUARDED_BY(serve_mu_);
};

}  // namespace sparkline
