// Chunked table storage (catalog/table.h): table versions share immutable
// row chunks, the compaction rule keeps the chunk count logarithmic, and
// scans walk chunk ranges while keeping contiguous global partitions.
//
// The reader-vs-inserter race at the bottom runs under TSan in CI.
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/physical_plan.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

Schema PointSchema() {
  return Schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), false},
                 Field{"note", DataType::Double(), true}});
}

Row PointRow(int64_t id, Rng* rng) {
  return {Value::Int64(id), Value::Double(rng->Uniform(-10.0, 10.0)),
          rng->Bernoulli(0.2) ? Value::Null(DataType::Double())
                              : Value::Double(rng->Uniform(0.0, 1.0))};
}

TablePtr PointTable(const std::string& name, int64_t num_rows, Rng* rng) {
  auto table = std::make_shared<Table>(name, PointSchema());
  for (int64_t i = 0; i < num_rows; ++i) {
    SL_CHECK_OK(table->AppendRow(PointRow(i, rng)));
  }
  return table;
}

// Inserts batches of 1..max_batch rows with consecutive ids until the table
// holds `target` rows.
void GrowTo(Catalog* catalog, const std::string& name, int64_t target,
            int64_t max_batch, Rng* rng) {
  for (;;) {
    auto table = catalog->GetTable(name);
    SL_CHECK_OK(table.status());
    const auto have = static_cast<int64_t>((*table)->num_rows());
    if (have >= target) return;
    const int64_t n = std::min(target - have, rng->UniformInt(1, max_batch));
    std::vector<Row> batch;
    for (int64_t i = 0; i < n; ++i) batch.push_back(PointRow(have + i, rng));
    SL_CHECK_OK(catalog->InsertInto(name, batch));
  }
}

void ExpectSameZoneMap(const ZoneMap& actual, const ZoneMap& expected) {
  ASSERT_EQ(actual.columns.size(), expected.columns.size());
  EXPECT_EQ(actual.num_rows, expected.num_rows);
  for (size_t c = 0; c < expected.columns.size(); ++c) {
    SCOPED_TRACE(StrCat("column ", c));
    EXPECT_EQ(actual.columns[c].numeric, expected.columns[c].numeric);
    EXPECT_EQ(actual.columns[c].null_count, expected.columns[c].null_count);
    EXPECT_EQ(actual.columns[c].min, expected.columns[c].min);
    EXPECT_EQ(actual.columns[c].max, expected.columns[c].max);
  }
}

std::vector<size_t> ChunkSizes(const Table& table) {
  std::vector<size_t> sizes;
  for (const RowChunkPtr& chunk : table.chunks()) sizes.push_back(chunk->size());
  return sizes;
}

TEST(ChunkedTableTest, BuiltTableIsOneChunk) {
  Rng rng(1);
  TablePtr table = PointTable("t", 500, &rng);
  ASSERT_EQ(table->chunks().size(), 1u);
  EXPECT_EQ(table->chunks()[0]->size(), 500u);
  EXPECT_EQ(table->num_rows(), 500u);
  const std::vector<Row> rows = table->CopyRows();
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)][0].int64_value(), i);
  }
}

TEST(ChunkedTableTest, SuccessorSharesPredecessorChunks) {
  Catalog catalog;
  Rng rng(2);
  ASSERT_OK(catalog.RegisterTable(PointTable("t", 100, &rng)));
  ASSERT_OK_AND_ASSIGN(TablePtr before, catalog.GetTable("t"));
  ASSERT_OK(catalog.InsertInto("t", {PointRow(100, &rng), PointRow(101, &rng)}));
  ASSERT_OK_AND_ASSIGN(TablePtr after, catalog.GetTable("t"));

  // The predecessor is untouched and the successor holds its chunk itself,
  // not a copy, plus one chunk with the batch.
  ASSERT_EQ(before->chunks().size(), 1u);
  EXPECT_EQ(before->num_rows(), 100u);
  ASSERT_EQ(after->chunks().size(), 2u);
  EXPECT_EQ(after->chunks()[0].get(), before->chunks()[0].get());
  EXPECT_EQ(after->chunks()[1]->size(), 2u);
  EXPECT_EQ(after->num_rows(), 102u);
  EXPECT_EQ(after->chunks()[1]->back()[0].int64_value(), 101);

  // A further insert shares both of those chunks that survive compaction.
  ASSERT_OK(catalog.InsertInto("t", {PointRow(102, &rng)}));
  ASSERT_OK_AND_ASSIGN(TablePtr third, catalog.GetTable("t"));
  EXPECT_EQ(third->chunks()[0].get(), before->chunks()[0].get());
  EXPECT_EQ(third->num_rows(), 103u);
}

TEST(ChunkedTableTest, InsertedRowsAreStoredWidened) {
  Catalog catalog;
  auto table = std::make_shared<Table>("t", PointSchema());
  ASSERT_OK(catalog.RegisterTable(table));
  ASSERT_OK(catalog.InsertInto(
      "t", {{Value::Int64(1), Value::Int64(7), Value::Int64(3)}}));
  ASSERT_OK_AND_ASSIGN(TablePtr after, catalog.GetTable("t"));
  ASSERT_EQ(after->num_rows(), 1u);
  const Row& stored = after->chunks().back()->front();
  EXPECT_EQ(stored[1].type(), DataType::Double());
  EXPECT_EQ(stored[2].type(), DataType::Double());
  // A row the schema rejects publishes nothing.
  EXPECT_FALSE(catalog
                   .InsertInto("t", {{Value::Int64(2), Value::String("x"),
                                      Value::Double(1)}})
                   .ok());
  ASSERT_OK_AND_ASSIGN(TablePtr still, catalog.GetTable("t"));
  EXPECT_EQ(still.get(), after.get());
}

TEST(ChunkedTableTest, ChunkCountStaysLogarithmic) {
  Catalog catalog;
  Rng rng(3);
  ASSERT_OK(catalog.RegisterTable(PointTable("t", 0, &rng)));
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_OK(catalog.InsertInto("t", {PointRow(i, &rng)}));
    ASSERT_OK_AND_ASSIGN(TablePtr table, catalog.GetTable("t"));
    const double rows = static_cast<double>(table->num_rows());
    ASSERT_LE(static_cast<double>(table->chunks().size()),
              2 * std::log2(rows) + 2)
        << "after " << rows << " rows";
  }
  ASSERT_OK_AND_ASSIGN(TablePtr table, catalog.GetTable("t"));
  // Every chunk more than halves from the one before it, none is empty,
  // and the rows are in insertion order.
  const std::vector<size_t> sizes = ChunkSizes(*table);
  for (size_t c = 1; c < sizes.size(); ++c) {
    EXPECT_LT(2 * sizes[c], sizes[c - 1]) << "chunk " << c;
  }
  for (size_t s : sizes) EXPECT_GT(s, 0u);
  int64_t expected_id = 0;
  table->ForEachRow([&](const Row& row) {
    EXPECT_EQ(row[0].int64_value(), expected_id);
    ++expected_id;
  });
  EXPECT_EQ(expected_id, 10000);
}

TEST(ChunkedTableTest, ZoneMapEqualsRebuild) {
  Catalog catalog;
  Rng rng(4);
  ASSERT_OK(catalog.RegisterTable(PointTable("t", 300, &rng)));
  GrowTo(&catalog, "t", 900, 9, &rng);
  ASSERT_OK_AND_ASSIGN(TablePtr table, catalog.GetTable("t"));
  ASSERT_GT(table->chunks().size(), 2u);
  ExpectSameZoneMap(table->zone_map(), ZoneMap::Build(table->CopyRows(),
                                                     table->schema().num_fields()));
}

TEST(ChunkedTableTest, FailedWritePublishesNothing) {
  Catalog catalog;
  Rng rng(5);
  ASSERT_OK(catalog.RegisterTable(PointTable("t", 40, &rng)));
  GrowTo(&catalog, "t", 47, 3, &rng);
  ASSERT_OK_AND_ASSIGN(TablePtr before, catalog.GetTable("t"));
  const uint64_t version = catalog.TableVersion("t");
  const std::vector<size_t> sizes = ChunkSizes(*before);

  ASSERT_OK(fail::ArmFromString("catalog.write=error"));
  const Status write = catalog.InsertInto("t", {PointRow(47, &rng)});
  fail::DisarmAll();

  EXPECT_FALSE(write.ok());
  EXPECT_EQ(catalog.TableVersion("t"), version);
  ASSERT_OK_AND_ASSIGN(TablePtr after, catalog.GetTable("t"));
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(ChunkSizes(*after), sizes);
}

// A scan's partitions are the same contiguous global row ranges as over one
// flat vector, whatever the chunk layout — so results and counters do not
// depend on how the table was written.
TEST(ChunkedTableTest, ScanOfManyChunksMatchesFlatOrder) {
  Session session;
  Rng rng(6);
  ASSERT_OK(session.catalog()->RegisterTable(PointTable("t", 61, &rng)));
  GrowTo(session.catalog(), "t", 200, 7, &rng);
  ASSERT_OK_AND_ASSIGN(TablePtr table, session.catalog()->GetTable("t"));
  ASSERT_GT(table->chunks().size(), 3u);
  std::set<size_t> chunk_starts;
  size_t start = 0;
  for (const RowChunkPtr& chunk : table->chunks()) {
    chunk_starts.insert(start);
    start += chunk->size();
  }
  const std::vector<std::string> flat = [&] {
    std::vector<std::string> out;
    table->ForEachRow([&](const Row& row) { out.push_back(RowToString(row)); });
    return out;
  }();

  for (int executors : {1, 3, 8}) {
    SCOPED_TRACE(StrCat(executors, " executors"));
    ASSERT_OK(session.SetConf("sparkline.executors", std::to_string(executors)));
    ASSERT_OK_AND_ASSIGN(LogicalPlanPtr parsed, ParseSql("SELECT * FROM t"));
    ASSERT_OK_AND_ASSIGN(LogicalPlanPtr analyzed, session.Analyze(parsed));
    ASSERT_OK_AND_ASSIGN(LogicalPlanPtr optimized, session.Optimize(analyzed));
    ASSERT_OK_AND_ASSIGN(PhysicalPlanPtr physical,
                         session.PlanPhysical(optimized));
    ExecContext ctx(session.config().cluster);
    ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, physical->Execute(&ctx));
    ASSERT_EQ(rel.partitions.size(), static_cast<size_t>(executors));

    const size_t per = (flat.size() + executors - 1) / executors;
    bool crosses_chunk = false;
    for (size_t p = 0; p < rel.partitions.size(); ++p) {
      const size_t begin = std::min(flat.size(), p * per);
      const size_t end = std::min(flat.size(), begin + per);
      ASSERT_EQ(rel.partitions[p].size(), end - begin) << "partition " << p;
      for (size_t r = begin; r < end; ++r) {
        EXPECT_EQ(RowToString(rel.partitions[p][r - begin]), flat[r]);
        if (r > begin && chunk_starts.count(r) > 0) crosses_chunk = true;
      }
      ExpectSameZoneMap(rel.zone_maps[p],
                        ZoneMap::Build(rel.partitions[p],
                                       table->schema().num_fields()));
    }
    // With more than one chunk, some partition spans a chunk boundary.
    EXPECT_TRUE(crosses_chunk);
  }
}

// Readers scan snapshots they hold while a writer appends and compacts:
// every snapshot stays internally consistent (ids 0..n-1 in order) and no
// access races (TSan).
TEST(ChunkedTableConcurrencyTest, ReadersOfHeldSnapshotsRaceInserter) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "3"));
  Rng seed_rng(7);
  ASSERT_OK(session.catalog()->RegisterTable(PointTable("t", 64, &seed_rng)));

  std::atomic<bool> done{false};
  std::atomic<int> bad_snapshots{0};
  std::thread writer([&] {
    Rng rng(8);
    GrowTo(session.catalog(), "t", 3000, 4, &rng);
    done.store(true);
  });

  const auto check_ids = [&](const std::vector<Row>& rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][0].int64_value() != static_cast<int64_t>(i)) {
        bad_snapshots.fetch_add(1);
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<TablePtr> held;
      while (!done.load()) {
        auto snapshot = session.catalog()->GetTable("t");
        if (!snapshot.ok()) {
          bad_snapshots.fetch_add(1);
          return;
        }
        held.push_back(*snapshot);
        if (held.size() > 8) held.erase(held.begin());
        // Re-read an older held snapshot while newer versions are built
        // from its chunks.
        const Table& old = *held.front();
        size_t total = 0;
        for (const RowChunkPtr& chunk : old.chunks()) total += chunk->size();
        if (total != old.num_rows()) bad_snapshots.fetch_add(1);
        check_ids(old.CopyRows());
        if (r == 0) {
          // And through the engine: a scan over whatever snapshot it binds.
          auto df = session.Sql("SELECT * FROM t");
          if (!df.ok()) {
            bad_snapshots.fetch_add(1);
            continue;
          }
          auto result = df->Collect();
          if (!result.ok()) {
            bad_snapshots.fetch_add(1);
            continue;
          }
          check_ids(result->rows());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_snapshots.load(), 0);
  ASSERT_OK_AND_ASSIGN(TablePtr final_table, session.catalog()->GetTable("t"));
  EXPECT_EQ(final_table->num_rows(), 3000u);
}

}  // namespace
}  // namespace sparkline
