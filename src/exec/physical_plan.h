// Physical operators (Spark's SparkPlan analog).
//
// Operators execute materialized partition-at-a-time: each operator consumes
// its children's PartitionedRelations and produces its own. Stage boundaries
// (exchanges) match where Spark would shuffle; narrow operators preserve the
// child partitioning, mirroring the paper's decision to keep Spark's
// partitioning for the local skyline (section 5.6).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/partitioned.h"
#include "plan/logical_plan.h"
#include "skyline/algorithms.h"

namespace sparkline {

class PhysicalPlan;
using PhysicalPlanPtr = std::shared_ptr<const PhysicalPlan>;

/// \brief How an operator's output is distributed across executors.
enum class Partitioning : uint8_t {
  /// num_executors chunks, no particular key (Spark UnspecifiedDistribution).
  kUnspecified,
  /// Exactly one partition (Spark AllTuples).
  kSinglePartition,
  /// Partitioned by the null bitmap of the skyline dimensions (section 5.7).
  kNullBitmapHashed,
};

/// \brief Base class of all physical operators.
class PhysicalPlan {
 public:
  PhysicalPlan(std::vector<Attribute> output,
               std::vector<PhysicalPlanPtr> children)
      : output_(std::move(output)), children_(std::move(children)) {}
  virtual ~PhysicalPlan() = default;

  const std::vector<Attribute>& output() const { return output_; }
  const std::vector<PhysicalPlanPtr>& children() const { return children_; }

  /// One-line description for EXPLAIN.
  virtual std::string label() const = 0;
  virtual Partitioning output_partitioning() const {
    return children_.empty() ? Partitioning::kUnspecified
                             : children_[0]->output_partitioning();
  }

  /// Recursively executes children, then this operator.
  virtual Result<PartitionedRelation> Execute(ExecContext* ctx) const = 0;

  /// The fault-injection site this operator's stage tasks evaluate (see
  /// common/failpoint.h); all stages of one operator share the site. The
  /// generic per-task site is "exec.stage_task"; operators the chaos suite
  /// targets individually override it.
  virtual const char* failpoint_site() const { return "exec.stage_task"; }

  std::string TreeString() const;

 protected:
  /// Runs `fn` once per partition on the executor pool, measuring each task
  /// with the thread-CPU clock and recording the critical path (max task
  /// time) under this operator's label.
  ///
  /// Fault tolerance: each task is retried up to
  /// ClusterConfig::task_retries times (with exponential backoff) when it
  /// fails with a transient IsRetryable status — the Spark-lineage
  /// argument: stage tasks are deterministic pure functions of their input
  /// partition, so re-execution is safe. A task that throws is converted
  /// into a terminal Status::Internal. The stage checks
  /// ExecContext::CheckInterrupt (cancellation + timeout) before
  /// dispatching and after the barrier.
  Status RunStage(ExecContext* ctx, size_t num_partitions,
                  const std::function<Status(size_t)>& fn) const;

  /// Same, but records the critical path under an explicit stage label —
  /// for operators that run more than one stage (e.g. the parallel global
  /// skyline's partial + merge passes) and want them separately visible in
  /// QueryMetrics::operator_ms.
  Status RunStage(ExecContext* ctx, const std::string& stage_label,
                  size_t num_partitions,
                  const std::function<Status(size_t)>& fn) const;

  /// Reserves the output relation's estimated bytes against the query's
  /// memory budget and attaches the RAII charge to `out`; fails with
  /// ResourceExhausted when the reservation would exceed
  /// ClusterConfig::memory_limit_bytes. Input charges release automatically
  /// when the operator's local relations die, so the tracker drains to zero
  /// on every path — success, error, cancellation.
  Status ChargeOutput(ExecContext* ctx, PartitionedRelation* out) const;

  /// Decodes every ColumnarBatch partition of batch-carrying input into
  /// rows (timed into QueryMetrics::decode_ms). Every operator that
  /// consumes rows calls this right after executing its child;
  /// batch-aware operators (the skyline stages and the gather exchange)
  /// skip it when they can use the batches.
  void DecodeInput(ExecContext* ctx, PartitionedRelation* in) const;

  /// The single gathered partition of a global skyline stage as one batch
  /// projected for `dims`: the batch the gather exchange shipped when it
  /// was projected for these dimensions (and, with `ascending_view`, its
  /// view is ascending in matrix index), recorded as a matrix reuse;
  /// otherwise the decoded rows, projected once in a "<label> [project]"
  /// stage. Defined in skyline_ops.cc.
  Result<skyline::ColumnarBatch> GatheredBatch(
      ExecContext* ctx, PartitionedRelation* in,
      const std::vector<skyline::BoundDimension>& dims,
      bool ascending_view) const;

  std::vector<Attribute> output_;
  std::vector<PhysicalPlanPtr> children_;

 private:
  /// One task of a stage: the per-attempt failpoint, the throw guard, and
  /// the transient-fault retry loop (see RunStage). `span` (nullable) is the
  /// task's trace span; retries and fault fires are annotated onto it.
  Status RunTask(ExecContext* ctx, const std::string& stage_label,
                 size_t index, const std::function<Status(size_t)>& fn,
                 TraceSpan* span) const;
};

// --- leaves ----------------------------------------------------------------

/// \brief Scans a catalog table, splitting it into executor-count chunks and
/// applying column pruning while copying.
class ScanExec : public PhysicalPlan {
 public:
  /// With `build_zone_maps` (sparkline.scan.zone_maps) each output chunk
  /// gets a per-partition ZoneMap over the *projected* columns, built while
  /// the rows are copied — the data-skipping metadata LocalSkylineExec and
  /// BroadcastFilterExec consult (see partitioned.h).
  ScanExec(TablePtr table, std::vector<size_t> column_indices,
           std::vector<Attribute> output, bool build_zone_maps = false);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.scan"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  TablePtr table_;
  std::vector<size_t> column_indices_;
  bool build_zone_maps_;
};

/// \brief Emits in-memory rows as a single partition.
class LocalRelationExec : public PhysicalPlan {
 public:
  LocalRelationExec(std::shared_ptr<std::vector<Row>> rows,
                    std::vector<Attribute> output);
  std::string label() const override { return "LocalRelation"; }
  Partitioning output_partitioning() const override {
    return Partitioning::kSinglePartition;
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::shared_ptr<std::vector<Row>> rows_;
};

// --- narrow operators --------------------------------------------------------

/// \brief Row-at-a-time projection.
class ProjectExec : public PhysicalPlan {
 public:
  ProjectExec(std::vector<ExprPtr> bound_list, std::vector<Attribute> output,
              PhysicalPlanPtr child);
  std::string label() const override { return "Project"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<ExprPtr> list_;
};

/// \brief Predicate filter.
class FilterExec : public PhysicalPlan {
 public:
  FilterExec(ExprPtr bound_condition, PhysicalPlanPtr child);
  std::string label() const override { return "Filter"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  ExprPtr condition_;
};

// --- exchanges ---------------------------------------------------------------

enum class ExchangeMode : uint8_t {
  /// Gather everything into one partition (AllTuples distribution).
  kGather,
  /// Spread rows evenly over num_executors partitions.
  kRoundRobin,
  /// Hash rows by the null bitmap of the skyline dimensions; rows with the
  /// same bitmap land in the same partition (section 5.7).
  kNullBitmapHash,
  /// Angle-based space partitioning (Vlachou et al.; paper section 7
  /// future work): rows in similar "directions" of the dimension space land
  /// together, which keeps local skylines small on anti-correlated data.
  kAngle,
};

/// \brief Which kernel the skyline operators run. BNL is the paper's choice;
/// SFS (presorting) and grid-based cell pruning are the section-7 /
/// section-2 alternatives implemented as extensions.
enum class SkylineKernel : uint8_t {
  kBlockNestedLoop,
  kSortFilterSkyline,
  kGridFilter,
};

/// \brief Angle-partitioning internals, exposed so tests can assert the
/// scheme's bucket spread and pruning power directly.
namespace exchange_internal {

/// Per-dimension [lo, hi] range of the normalized skyline keys (values
/// negated for MAX goals) across all partitions — the scaling context
/// AnglePartition needs. Non-numeric and NULL values are skipped.
struct AngleBounds {
  std::vector<double> lo;
  std::vector<double> hi;
};

AngleBounds ComputeAngleBounds(const std::vector<std::vector<Row>>& partitions,
                               const std::vector<skyline::BoundDimension>& dims);

/// Simplified angle-based partition assignment (Vlachou et al.): buckets
/// the hyperspherical angle between the first dimension and the remainder
/// of the dimension vector, computed over *normalized* keys — negated for
/// MAX goals and min-max scaled into [0, 1] per dimension — so that MAX
/// goals and mixed-scale dimensions spread over buckets instead of
/// collapsing into one. Correctness never depends on the scheme (any
/// partitioning is valid for complete data); only pruning power does.
size_t AnglePartition(const Row& row,
                      const std::vector<skyline::BoundDimension>& dims,
                      size_t n, const AngleBounds& bounds);

}  // namespace exchange_internal

/// \brief Re-distributes data; the only operator that moves rows between
/// executors (a stage boundary, like a Spark shuffle).
///
/// A kGather exchange whose input partitions all arrive as ColumnarBatches
/// ships the matrix blocks instead of rows: the batches are concatenated
/// into one compact batch (key/bitmap copy + dictionary remap, no
/// re-projection from Values) and the single output partition stays
/// columnar. Mixed or row input gathers rows.
class ExchangeExec : public PhysicalPlan {
 public:
  ExchangeExec(ExchangeMode mode, std::vector<skyline::BoundDimension> dims,
               PhysicalPlanPtr child);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.exchange"; }
  Partitioning output_partitioning() const override {
    switch (mode_) {
      case ExchangeMode::kGather:
        return Partitioning::kSinglePartition;
      case ExchangeMode::kNullBitmapHash:
        return Partitioning::kNullBitmapHashed;
      default:
        return Partitioning::kUnspecified;
    }
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  ExchangeMode mode_;
  std::vector<skyline::BoundDimension> dims_;  // for kNullBitmapHash
};

// --- aggregation -------------------------------------------------------------

/// \brief One aggregate to compute.
struct AggSpec {
  AggFn fn;
  ExprPtr bound_arg;  ///< null for COUNT(*)
  bool distinct = false;
  DataType result_type;
};

enum class AggMode : uint8_t { kPartial, kFinal, kComplete };

/// \brief Hash aggregation. Two-phase (partial per partition, final after a
/// gather) unless a DISTINCT aggregate forces single-phase.
class HashAggregateExec : public PhysicalPlan {
 public:
  HashAggregateExec(std::vector<ExprPtr> bound_groups,
                    std::vector<AggSpec> aggs, AggMode mode,
                    std::vector<Attribute> output, PhysicalPlanPtr child);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return mode_ == AggMode::kPartial ? children_[0]->output_partitioning()
                                      : Partitioning::kSinglePartition;
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<ExprPtr> groups_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
};

// --- sorting / limiting -------------------------------------------------------

/// \brief Bound ORDER BY item.
struct BoundSortOrder {
  ExprPtr expr;
  bool ascending;
  bool nulls_first;
};

class SortExec : public PhysicalPlan {
 public:
  SortExec(std::vector<BoundSortOrder> orders, PhysicalPlanPtr child);
  std::string label() const override { return "Sort"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<BoundSortOrder> orders_;
};

class LimitExec : public PhysicalPlan {
 public:
  LimitExec(int64_t n, PhysicalPlanPtr child);
  std::string label() const override { return "Limit"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  int64_t n_;
};

// --- joins ---------------------------------------------------------------------

/// \brief Broadcast hash join for equi conditions (INNER / LEFT OUTER).
/// The right side is gathered and hashed once; left partitions probe it.
class HashJoinExec : public PhysicalPlan {
 public:
  HashJoinExec(JoinType type, std::vector<ExprPtr> left_keys,
               std::vector<ExprPtr> right_keys, ExprPtr residual,
               std::vector<Attribute> output, PhysicalPlanPtr left,
               PhysicalPlanPtr right);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return children_[0]->output_partitioning();
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  JoinType type_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;  // bound against combined row; may be null
};

/// \brief Broadcast nested-loop join: arbitrary condition, all join types.
/// This is the operator that executes the plain-SQL "reference" skyline plan
/// (a left-anti self-join with the dominance predicate), matching Spark's
/// BroadcastNestedLoopJoin choice for such queries. Left-anti probes exit
/// early on the first match.
class NestedLoopJoinExec : public PhysicalPlan {
 public:
  NestedLoopJoinExec(JoinType type, ExprPtr condition,
                     std::vector<Attribute> output, PhysicalPlanPtr left,
                     PhysicalPlanPtr right);
  std::string label() const override;
  Partitioning output_partitioning() const override {
    return children_[0]->output_partitioning();
  }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  JoinType type_;
  ExprPtr condition_;  // bound against concat(left row, right row); may be null
};

// --- skyline -------------------------------------------------------------------

/// \brief Local skyline computation (paper section 5.5/5.6): one BNL pass
/// per partition, preserving the child's partitioning. Used for both the
/// complete and the incomplete algorithm (the latter after a null-bitmap
/// exchange, which makes every partition bitmap-uniform).
///
/// Each partition is projected into a DominanceMatrix exactly once and the
/// output is a ColumnarBatch survivor view over that matrix — the
/// projection every downstream skyline stage reuses. SFS runs tag their
/// output views score-sorted so the global stage can inherit the sort
/// order.
///
/// With `zone_map_skipping` (sparkline.scan.zone_maps) and zone maps on the
/// input relation, a partition whose per-dim *best corner* is strictly
/// dominated by another partition's *worst corner* is dropped whole — before
/// projection, not per-row (the vector generalization of the SaLSa
/// stop-bound corner test; see docs/ARCHITECTURE.md for the soundness
/// argument). Only sound under complete dominance over NULL-free numeric
/// MIN/MAX dimensions; the skip auto-disables everywhere else.
class LocalSkylineExec : public PhysicalPlan {
 public:
  LocalSkylineExec(std::vector<skyline::BoundDimension> dims, bool distinct,
                   skyline::NullSemantics nulls, PhysicalPlanPtr child,
                   SkylineKernel kernel = SkylineKernel::kBlockNestedLoop,
                   bool sfs_early_stop = true,
                   skyline::SfsSortKey sfs_sort_key = skyline::SfsSortKey::kSum,
                   bool zone_map_skipping = false);
  std::string label() const override;
  const char* failpoint_site() const override { return "exec.local_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
  skyline::NullSemantics nulls_;
  SkylineKernel kernel_;
  bool sfs_early_stop_;
  skyline::SfsSortKey sfs_sort_key_;
  bool zone_map_skipping_;
};

/// \brief Phase one of two-phase distributed pruning
/// (sparkline.skyline.broadcast_filter; ROADMAP item 2, after Ciaccia &
/// Martinenghi): sits between LocalSkylineExec and the gather exchange on
/// the distributed complete path.
///
///   [nominate]  each partition nominates its k strongest skyline points —
///               the SaLSa minmax-best tuples, whose small max-coordinate
///               makes them dominate the largest boxes — and their packed
///               normalized keys are unioned into a tiny FilterPointSet
///               (the broadcast; normalized keys compare across matrices,
///               so no re-projection travels with it).
///   [filter]    every partition prunes its local skyline against the
///               union *before* the gather: first the partition's zone-map
///               best corner against the filter points (a strictly
///               dominated corner drops the whole partition), then row by
///               row via PruneAgainstFilter. Only *strictly* dominated rows
///               are removed — DISTINCT ties survive to the merge, so
///               results stay bit-identical with the phase off.
///
/// Eligibility is per-relation: every non-empty partition must carry a
/// batch projected for these dimensions over an all-numeric, NULL-free,
/// DIFF-free matrix (cross-matrix key comparability); anything else passes
/// through unchanged. Faults at "exec.broadcast" degrade the same way:
/// transient/injected errors fall back to the unfiltered input (never a
/// wrong result), while cancellation/timeout/memory errors propagate.
class BroadcastFilterExec : public PhysicalPlan {
 public:
  BroadcastFilterExec(std::vector<skyline::BoundDimension> dims,
                      PhysicalPlanPtr child, size_t points_per_partition = 2);
  std::string label() const override { return "BroadcastFilter"; }
  const char* failpoint_site() const override { return "exec.broadcast"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  size_t points_per_partition_;
};

/// \brief Global skyline for complete data over the single gathered
/// partition (requires AllTuples distribution).
///
/// With more than one executor the gathered input is split into
/// executor-count chunks whose skylines are computed concurrently (a
/// partial-skyline round, as in Ciaccia & Martinenghi's parallel skyline
/// optimization), followed by a single-task BNL merge of the partial
/// windows — removing the paper's single-task global bottleneck while
/// keeping the critical-path time model intact. The two stages are
/// recorded under "<label> [partial]" / "<label> [merge]".
///
/// A batch arriving from the gather exchange is consumed directly: the
/// partial stage runs over contiguous slices of the batch's index view and
/// the merge over the concatenated survivor views — no stage re-projects.
/// When the input arrives as rows (non-distributed plans, nested
/// skylines), the matrix is built once in a "<label> [project]" stage and
/// shared the same way (see PhysicalPlan::GatheredBatch). Score-sorted
/// batches from upstream SFS stages skip the merge re-sort entirely
/// (inherited order + ColumnarSortFilterSkylinePresorted) and additionally
/// inherit the tightest per-partition SaLSa stop bound the batch carries,
/// so the partial slices and the sort-free merge can terminate before
/// scanning most of the gathered input (sparkline.skyline.sfs.early_stop).
class GlobalSkylineExec : public PhysicalPlan {
 public:
  GlobalSkylineExec(std::vector<skyline::BoundDimension> dims, bool distinct,
                    PhysicalPlanPtr child,
                    SkylineKernel kernel = SkylineKernel::kBlockNestedLoop,
                    bool sfs_early_stop = true,
                    skyline::SfsSortKey sfs_sort_key = skyline::SfsSortKey::kSum);
  std::string label() const override { return "GlobalSkyline [complete]"; }
  const char* failpoint_site() const override { return "exec.global_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
  SkylineKernel kernel_;
  bool sfs_early_stop_;
  skyline::SfsSortKey sfs_sort_key_;
};

/// \brief Global skyline for incomplete data (paper section 5.7 /
/// Appendix A).
///
/// Incomplete dominance is non-transitive, so the complete path's
/// partial-merge scheme (prune chunk-dominated tuples, merge survivors) is
/// unsound here: a tuple eliminated inside its chunk can still be the only
/// witness against another chunk's survivor. With more than one executor
/// the gathered input is instead split into
/// executor-count chunks and run through round-based all-pairs validation:
///
///   [candidates]  each chunk runs the all-pairs deferred-deletion scan
///                 locally; survivors become its candidate set.
///   [validate]    chunks-1 rounds; in round r task i checks its remaining
///                 candidates against the *full* tuple set of chunk
///                 (i + r) mod chunks, eliminating a candidate only when a
///                 concrete dominating witness is found.
///   [finalize]    surviving candidates are concatenated in input order.
///
/// After the rounds every candidate has been compared against every other
/// input tuple, so the result equals the single-task all-pairs algorithm
/// exactly. Stage times are recorded under "<label> [candidates]" /
/// "[validate]" / "[finalize]"; the single-executor path keeps the bare
/// label.
///
/// A batch from the gather exchange supplies the shared matrix (and its
/// per-row null bitmaps) for every stage, and the output stays a batch
/// view. Matrix row order equals gathered input order
/// (ColumnarBatch::Concat guarantees it), which is the DISTINCT tie-break
/// the validation rounds need; row input is projected once in a
/// "<label> [project]" stage.
class GlobalSkylineIncompleteExec : public PhysicalPlan {
 public:
  GlobalSkylineIncompleteExec(std::vector<skyline::BoundDimension> dims,
                              bool distinct, PhysicalPlanPtr child);
  std::string label() const override { return "GlobalSkyline [incomplete]"; }
  const char* failpoint_site() const override { return "exec.global_task"; }
  Result<PartitionedRelation> Execute(ExecContext* ctx) const override;

 private:
  std::vector<skyline::BoundDimension> dims_;
  bool distinct_;
};

}  // namespace sparkline
