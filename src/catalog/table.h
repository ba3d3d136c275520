// In-memory tables with declared constraints.
//
// Constraints (primary keys / foreign keys) are not enforced on insert; they
// are *metadata* consumed by the optimizer, in particular by the
// push-skyline-through-non-reductive-join rule (paper section 5.4, citing
// Carey & Kossmann for non-reductiveness).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/zone_map.h"
#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace sparkline {

/// \brief Declarative constraint metadata of a table.
struct TableConstraints {
  /// Columns forming a unique, non-null key (empty if undeclared).
  std::vector<std::string> primary_key;

  struct ForeignKey {
    std::vector<std::string> columns;      ///< referencing columns
    std::string ref_table;                 ///< referenced table name
    std::vector<std::string> ref_columns;  ///< referenced (unique) columns
    /// True if the referencing columns are non-null, i.e. every row is
    /// guaranteed a join partner (this is what makes a join non-reductive).
    bool referencing_not_null = true;
  };
  std::vector<ForeignKey> foreign_keys;
};

/// \brief An immutable run of validated rows. Table versions share chunks:
/// an insert hands its successor every chunk of the predecessor plus one
/// new chunk, never a copy of the rows.
using RowChunk = std::vector<Row>;
using RowChunkPtr = std::shared_ptr<const RowChunk>;

/// \brief A named, row-oriented, in-memory table stored as a list of shared
/// row chunks. Row i of the table is row i of the chunks' concatenation.
///
/// A table under construction (a generator, a CSV reader, a test) appends
/// into one tail chunk that no other table shares, so a table built before
/// registration is a single chunk. Once registered a table is immutable;
/// Catalog::InsertInto builds each successor with ExtendFrom, which shares
/// the predecessor's chunks, appends the validated batch as one chunk and
/// then compacts: while the last chunk holds at least half as many rows as
/// the one before it, the two merge. Chunk sizes therefore more than halve
/// from each chunk to the next, so a table of n rows has at most
/// log2(n) + 1 chunks, and a merge copies a row only into a chunk at least
/// 1.5x the size of the one it left — O(log n) copies per inserted row,
/// amortized. (ROADMAP item 6(a) turns the chunks' contents columnar.)
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        zone_map_(schema_.num_fields()) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// The row chunks, in row order (a chunk reserved by Reserve may still
  /// be empty).
  const std::vector<RowChunkPtr>& chunks() const { return chunks_; }

  /// Calls fn(row) for rows [begin, end) in table order, walking chunk
  /// ranges. `end` is clamped to num_rows().
  template <typename Fn>
  void ForEachRow(size_t begin, size_t end, Fn&& fn) const {
    end = std::min(end, num_rows_);
    size_t chunk_start = 0;
    for (const RowChunkPtr& chunk : chunks_) {
      if (begin >= end) return;
      const size_t chunk_end = chunk_start + chunk->size();
      if (begin < chunk_end) {
        const size_t stop = std::min(end, chunk_end);
        for (size_t r = begin; r < stop; ++r) fn((*chunk)[r - chunk_start]);
        begin = stop;
      }
      chunk_start = chunk_end;
    }
  }
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    ForEachRow(0, num_rows_, std::forward<Fn>(fn));
  }

  /// A flat copy of every row, for oracles and tools that need one vector.
  std::vector<Row> CopyRows() const;

  TableConstraints& constraints() { return constraints_; }
  const TableConstraints& constraints() const { return constraints_; }

  /// Catalog version stamped when this snapshot was (re)registered /
  /// produced by an insert; 0 before registration. Plan fingerprints read
  /// the version of the snapshot a Scan actually holds, so cached results
  /// always describe the rows that were executed, even if the catalog has
  /// moved on since analysis.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  void set_version(uint64_t v) {
    version_.store(v, std::memory_order_release);
  }

  /// Checks arity and per-column type/nullability, widening numerics to the
  /// column type in place — the form the table stores.
  Status ValidateRow(Row* row) const;

  /// Validates and appends a row.
  Status AppendRow(Row row);

  /// Appends without validation (used by trusted generators).
  void AppendRowUnchecked(Row row) {
    zone_map_.Observe(row);
    OpenTail()->push_back(std::move(row));
    ++num_rows_;
  }

  /// Makes this (empty) table the successor of `base` after an insert of
  /// `batch` (already validated): shares every chunk of `base`, transplants
  /// its zone map and observes only the batch rows — an incremental min/max
  /// merge, not a rebuild — then appends `batch` as one chunk and compacts
  /// (see the class comment). An empty batch adds no chunk.
  ///
  /// \pre this table is empty and shares `base`'s schema.
  void ExtendFrom(const Table& base, RowChunkPtr batch);

  /// Reserves room for `n` more rows in the unshared tail chunk.
  void Reserve(size_t n) {
    RowChunk* tail = OpenTail();
    tail->reserve(tail->size() + n);
  }

  /// Per-column min/max/null-count summaries over all rows, maintained on
  /// every append. Consumed by the scan to seed per-partition zone maps and
  /// by tests as the incremental-maintenance ground truth.
  const ZoneMap& zone_map() const { return zone_map_; }

  /// Approximate bytes held by the table's rows.
  int64_t EstimatedBytes() const;

 private:
  /// The tail chunk appends go into: the last chunk when this table created
  /// it and nothing else shares it, otherwise a fresh chunk.
  RowChunk* OpenTail();

  std::string name_;
  Schema schema_;
  std::vector<RowChunkPtr> chunks_;
  size_t num_rows_ = 0;
  /// chunks_.back() while it is this table's own append target; null once
  /// the table holds chunks it did not create.
  RowChunk* open_tail_ = nullptr;
  TableConstraints constraints_;
  ZoneMap zone_map_;
  std::atomic<uint64_t> version_{0};
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace sparkline
