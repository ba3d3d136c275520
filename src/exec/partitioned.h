// The dataset representation flowing between physical operators: a list of
// row partitions (the analog of an RDD's partitions in Spark), optionally
// carried in columnar-exchange form.
//
// Columnar exchange: skyline stages hand their output to the next stage as
// ColumnarBatch views — a shared immutable DominanceMatrix plus a row-index
// selection — instead of materialized rows, so downstream skyline stages
// never re-project. A partition is EITHER rows in partitions[i] OR a batch
// in batches[i], never both; operators that need rows call EnsureRows(),
// which decodes every batch in place.
#pragma once

#include <optional>
#include <vector>

#include "catalog/zone_map.h"
#include "common/memory_tracker.h"
#include "expr/expression.h"
#include "skyline/columnar.h"
#include "types/value.h"

namespace sparkline {

/// \brief Rows split into partitions, one per (simulated) executor task.
struct PartitionedRelation {
  std::vector<Attribute> attrs;
  std::vector<std::vector<Row>> partitions;
  /// Columnar side channel: empty (pure row mode), or exactly
  /// partitions.size() entries where batches[i], when engaged, replaces
  /// partitions[i] (which is then empty). Only the skyline operators and
  /// the gather exchange produce or consume batches; everyone else calls
  /// EnsureRows() first.
  std::vector<std::optional<skyline::ColumnarBatch>> batches;
  /// Zone-map side channel (sparkline.scan.zone_maps): empty, or exactly
  /// partitions.size() entries where zone_maps[i] summarizes the rows of
  /// partition i *in output-column ordinals*. Built by the scan during
  /// partitioning; propagated only by operators that keep partitions as
  /// row subsets with unchanged columns (Filter, LocalSkyline) — everyone
  /// else drops the channel, which consumers must treat as "no metadata".
  /// An engaged entry may still be invalid (no columns) for the same
  /// reason.
  std::vector<ZoneMap> zone_maps;
  /// The bytes this relation holds reserved on the query's MemoryTracker
  /// (attached by PhysicalPlan::ChargeOutput, released by the destructor).
  /// Making the charge a member — instead of the pre-fault-tolerance ad-hoc
  /// Grow/Shrink pairs — is what guarantees the tracker drains to zero on
  /// error and cancellation paths too. Makes the relation move-only.
  MemoryCharge charge;

  /// True when at least one partition is carried as a batch.
  bool has_batches() const {
    for (const auto& b : batches) {
      if (b.has_value()) return true;
    }
    return false;
  }

  size_t PartitionRows(size_t i) const {
    if (i < batches.size() && batches[i].has_value()) {
      return batches[i]->num_rows();
    }
    return partitions[i].size();
  }

  size_t TotalRows() const {
    size_t n = 0;
    for (size_t i = 0; i < partitions.size(); ++i) n += PartitionRows(i);
    return n;
  }

  /// The row fallback: decodes every batch partition into rows in place
  /// (moving out of exclusively owned backings). After this the relation is
  /// in pure row mode. Idempotent.
  void EnsureRows() {
    for (size_t i = 0; i < batches.size(); ++i) {
      if (!batches[i].has_value()) continue;
      partitions[i] = std::move(*batches[i]).DecodeConsuming();
      batches[i].reset();
    }
    batches.clear();
  }

  /// Concatenates all partitions in order (an AllTuples gather), decoding
  /// batches first — this is the plan-root decode.
  std::vector<Row> Flatten() && {
    EnsureRows();
    if (partitions.size() == 1) return std::move(partitions[0]);
    std::vector<Row> out;
    out.reserve(TotalRows());
    for (auto& p : partitions) {
      for (auto& r : p) out.push_back(std::move(r));
    }
    return out;
  }
};

/// Approximate in-memory footprint (samples one row per partition; batch
/// partitions are estimated over their backing rows — matrix bytes are
/// charged separately through the batch's own reservation).
int64_t EstimateRelationBytes(const PartitionedRelation& rel);

}  // namespace sparkline
