// Physical planning: logical plan -> physical operator tree.
//
// Implements the paper's algorithm selection (Listing 8): the complete
// skyline algorithm is chosen when the COMPLETE keyword is present or no
// skyline dimension is nullable; otherwise the incomplete algorithm with
// null-bitmap partitioning. Session configuration can force a strategy,
// which is how the benchmarks run all four algorithms of section 6.3.
#pragma once

#include "common/result.h"
#include "exec/physical_plan.h"
#include "plan/logical_plan.h"

namespace sparkline {

/// \brief Which skyline execution strategy to use (section 6.3 names).
enum class SkylineStrategy : uint8_t {
  /// Listing 8: complete if provably safe, otherwise incomplete.
  kAuto,
  /// "distributed complete": local skylines per partition, then global.
  kDistributedComplete,
  /// "non-distributed complete": gather, then a single global pass.
  kNonDistributedComplete,
  /// "distributed incomplete": null-bitmap partitioning + all-pairs global.
  kDistributedIncomplete,
};

Result<SkylineStrategy> ParseSkylineStrategy(const std::string& name);
const char* SkylineStrategyName(SkylineStrategy s);

/// \brief Partitioning scheme for the local skyline stage on complete data
/// (paper section 7 lists angle-based partitioning as future work).
enum class SkylinePartitioning : uint8_t {
  /// Keep the child's partitioning (the paper's choice, section 5.6).
  kAsIs,
  /// Re-balance rows evenly first.
  kRoundRobin,
  /// Angle-based space partitioning (Vlachou et al.).
  kAngle,
};
Result<SkylinePartitioning> ParseSkylinePartitioning(const std::string& name);

/// Parses "sum" | "minmax" (sparkline.skyline.sfs.sort_key).
Result<skyline::SfsSortKey> ParseSfsSortKey(const std::string& name);
const char* SfsSortKeyName(skyline::SfsSortKey key);

struct PlannerOptions {
  ClusterConfig cluster;
  SkylineStrategy skyline_strategy = SkylineStrategy::kAuto;
  /// Kernel used by the skyline operators (paper future work: presorting).
  SkylineKernel skyline_kernel = SkylineKernel::kBlockNestedLoop;
  SkylinePartitioning skyline_partitioning = SkylinePartitioning::kAsIs;
  /// SaLSa-style early termination for the SFS family: presorted passes
  /// stop at the minC stop point (and the global merge inherits the
  /// tightest per-partition bound through the columnar exchange).
  /// Automatically disabled for incomplete/NULL data; never changes
  /// results. Key: sparkline.skyline.sfs.early_stop.
  bool sfs_early_stop = true;
  /// Monotone SFS sort key: sum (the pre-existing score) or minmax
  /// (SaLSa's minC function, whose stop bound is tight). Key:
  /// sparkline.skyline.sfs.sort_key.
  skyline::SfsSortKey sfs_sort_key = skyline::SfsSortKey::kSum;
  /// Phase one of two-phase distributed pruning: nominate SaLSa minmax-best
  /// points per partition after the local stage, broadcast the union, and
  /// prune every local skyline against it before the gather exchange
  /// (BroadcastFilterExec). Strict-only elimination keeps results
  /// bit-identical; ineligible shapes pass through. Key:
  /// sparkline.skyline.broadcast_filter.
  bool skyline_broadcast_filter = true;
  /// Phase two: per-partition zone maps built at scan time; the local
  /// skyline stage drops whole partitions whose best corner another
  /// partition's worst corner strictly dominates, and the broadcast filter
  /// vetoes partitions whose best corner a filter point strictly dominates.
  /// Auto-disables under incomplete dominance. Key:
  /// sparkline.scan.zone_maps.
  bool scan_zone_maps = true;
  /// Lightweight cost-based selection (paper section 7): below this
  /// estimated input cardinality the planner skips the distributed local
  /// stage, because the global stage dominates anyway. 0 disables.
  int64_t non_distributed_threshold = 0;
};

/// \brief Rough cardinality estimate for the cost-based strategy refinement;
/// returns -1 when unknown. Exposed for tests.
int64_t EstimateRowCount(const LogicalPlanPtr& plan);

class PhysicalPlanner {
 public:
  explicit PhysicalPlanner(PlannerOptions options)
      : options_(std::move(options)) {}

  /// Plans an optimized, resolved logical plan.
  Result<PhysicalPlanPtr> Plan(const LogicalPlanPtr& plan) const;

 private:
  Result<PhysicalPlanPtr> PlanNode(const LogicalPlanPtr& plan) const;
  Result<PhysicalPlanPtr> PlanJoin(const Join& join) const;
  Result<PhysicalPlanPtr> PlanAggregate(const Aggregate& agg) const;
  Result<PhysicalPlanPtr> PlanSkyline(const SkylineNode& sky) const;

  /// Binds references and plans embedded scalar subqueries.
  Result<ExprPtr> Bind(const ExprPtr& e,
                       const std::vector<Attribute>& input) const;

  /// Inserts a gather exchange when the child is not single-partitioned
  /// (Spark's EnsureRequirements for the AllTuples distribution).
  static PhysicalPlanPtr EnsureSinglePartition(PhysicalPlanPtr child);

  PlannerOptions options_;
};

}  // namespace sparkline
