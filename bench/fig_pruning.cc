// Two-phase distributed pruning: pre-gather filter broadcast + zone-map
// partition skipping, both always on for distributed complete plans.
//
// Phase one (BroadcastFilterExec): after the local skyline pass every
// partition nominates its SaLSa minmax-best representatives; the union
// travels as a tiny filter set and each partition prunes its local skyline
// against it *before* the gather exchange, so strictly dominated rows are
// never shipped.
//
// Phase two (zone maps): the scan builds per-partition zone maps
// (per-dimension min/max + null counts); LocalSkylineExec drops whole
// partitions whose best corner is strictly dominated by another
// partition's worst corner without touching a row.
//
// The two tables of points are ingested *sorted by d0* so contiguous scan
// chunks own disjoint value ranges — the clustered layout zone maps are
// designed for. The distribution then decides the outcome:
//   correlated      the leading partitions dominate the rest outright:
//                   zone maps skip almost every partition and the filter
//                   broadcast starves the gather
//   anticorrelated  disjoint d0 zones but incomparable corners (good in one
//                   dimension, bad in another): zone skipping cannot fire,
//                   quantifying the overhead of the extra phases
//   store_sales     the paper's DSB-derived mixed-goal workload, natural
//                   (unsorted) ingest: only the broadcast phase helps
//
// Reported per executor count:
//   total_ms    simulated critical-path ms for the whole query
//   ship_rows   rows crossing the gather exchange (columnar views count
//               their selection, not their backing)
//   ship_bytes  bytes crossing the gather exchange
//   dom_tests   dominance tests across all stages (the local stage's share
//               concentrates in the one unskippable partition that owns the
//               global skyline, so the total shrinks slower than the merge)
//   merge       dominance tests of the post-gather GlobalSkyline* stages
//               alone — the work the gather exchange actually feeds
//   skip        partitions dropped whole (zone corner test + filter veto)
//   bcast       filter points broadcast; pruned = rows dropped pre-gather
//
// Every cell is checked against the BruteForceSkyline oracle. --smoke runs
// a scaled-down sweep and additionally asserts the acceptance invariants on
// correlated data at 8+ executors: partitions skipped, rows pruned before
// the gather, and shipped rows, shipped bytes and merge dominance tests at
// most half of the same sweep's unpruned counters. The phases have no off
// switch, so those unpruned counters (deterministic for the fixed seeds and
// scale, recorded in docs/ARCHITECTURE.md "Retired ablations") are fixed
// ceilings: kSmokeCeilings.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

struct PruneCell {
  double total_ms = 0;
  int64_t ship_rows = 0;
  int64_t ship_bytes = 0;
  int64_t dominance_tests = 0;
  int64_t merge_tests = 0;
  int64_t partitions_skipped = 0;
  int64_t bcast_points = 0;
  int64_t rows_pruned = 0;
  std::vector<std::string> rows;
};

/// Half of the unpruned (both phases off) counters of the correlated
/// --smoke sweep: its shipped rows, shipped bytes and merge dominance tests
/// at 8 executors were 130 / 38480 / 246 and at 16 executors 278 / 82288 /
/// 401.
struct SmokeCeiling {
  size_t executors;
  int64_t ship_rows;
  int64_t ship_bytes;
  int64_t merge_tests;
};
constexpr SmokeCeiling kSmokeCeilings[] = {{8, 65, 19240, 123},
                                           {16, 139, 41144, 200}};

PruneCell RunOnce(Session* session, const std::string& sql) {
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << df.status().ToString();
  SL_CHECK(df->Collect().ok());  // warm-up
  auto result = df->Collect();
  SL_CHECK(result.ok()) << result.status().ToString();

  PruneCell cell;
  const QueryMetrics& m = result->metrics;
  cell.total_ms = m.simulated_ms;
  cell.ship_rows = m.exchange_rows_shipped;
  cell.ship_bytes = m.exchange_bytes;
  cell.dominance_tests = m.dominance_tests;
  cell.merge_tests = m.merge_dominance_tests;
  cell.partitions_skipped = m.partitions_skipped;
  cell.bcast_points = m.broadcast_filter_points;
  cell.rows_pruned = m.rows_pruned_pre_gather;
  cell.rows = SortedRowStrings(result->rows());
  return cell;
}

void Sweep(Session* session, const char* title, const std::string& sql,
           const std::vector<std::string>& expected, size_t table_rows,
           bool smoke, bool assert_pruning) {
  std::printf("\n%s (%zu rows) | strategy: distributed, kernel: sfs\n", title,
              table_rows);
  std::printf("%-5s %9s %10s %11s %11s %9s %5s %6s %8s\n", "execs",
              "total_ms", "ship_rows", "ship_bytes", "dom_tests", "merge",
              "skip", "bcast", "pruned");
  for (size_t executors : {size_t{1}, size_t{8}, size_t{16}}) {
    SL_CHECK_OK(
        session->SetConf("sparkline.executors", std::to_string(executors)));
    const PruneCell cell = RunOnce(session, sql);
    std::printf("%-5zu %9.2f %10lld %11lld %11lld %9lld %5lld %6lld %8lld\n",
                executors, cell.total_ms,
                static_cast<long long>(cell.ship_rows),
                static_cast<long long>(cell.ship_bytes),
                static_cast<long long>(cell.dominance_tests),
                static_cast<long long>(cell.merge_tests),
                static_cast<long long>(cell.partitions_skipped),
                static_cast<long long>(cell.bcast_points),
                static_cast<long long>(cell.rows_pruned));
    // Both phases only ever drop rows a surviving skyline point strictly
    // dominates, so every executor count must return exactly the skyline.
    SL_CHECK(cell.rows == expected)
        << title << " rows diverged from the oracle at executors="
        << executors << " (" << cell.rows.size() << " vs " << expected.size()
        << " rows)";
    if (!smoke || !assert_pruning) continue;
    for (const SmokeCeiling& ceiling : kSmokeCeilings) {
      if (ceiling.executors != executors) continue;
      // The acceptance bar: on clustered correlated data the two phases must
      // skip whole partitions, prune before the gather, and at least halve
      // the unpruned gather exchange and merge dominance-test volume.
      SL_CHECK(cell.partitions_skipped > 0)
          << title << ": no partition skipped at executors=" << executors;
      SL_CHECK(cell.rows_pruned > 0)
          << title << ": no row pruned before the gather at executors="
          << executors;
      SL_CHECK(cell.ship_rows <= ceiling.ship_rows)
          << title << ": shipped rows " << cell.ship_rows << " > ceiling "
          << ceiling.ship_rows << " at executors=" << executors;
      SL_CHECK(cell.ship_bytes <= ceiling.ship_bytes)
          << title << ": shipped bytes " << cell.ship_bytes << " > ceiling "
          << ceiling.ship_bytes << " at executors=" << executors;
      SL_CHECK(cell.merge_tests <= ceiling.merge_tests)
          << title << ": merge dominance tests " << cell.merge_tests
          << " > ceiling " << ceiling.merge_tests << " at executors="
          << executors;
    }
  }
}

/// Re-ingests `src` clustered on column `col` (ascending, nulls never occur
/// here) so contiguous scan chunks get disjoint zone-map ranges — the
/// layout data skipping is designed for.
TablePtr SortedByColumn(const Table& src, const std::string& name,
                        size_t col) {
  std::vector<Row> rows = src.CopyRows();
  std::stable_sort(rows.begin(), rows.end(), [col](const Row& a,
                                                   const Row& b) {
    return a[col].double_value() < b[col].double_value();
  });
  auto table = std::make_shared<Table>(name, src.schema());
  table->constraints().primary_key = src.constraints().primary_key;
  table->Reserve(rows.size());
  for (auto& row : rows) table->AppendRowUnchecked(std::move(row));
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  BenchConfig config = ParseArgs(static_cast<int>(args.size()), args.data());
  if (smoke) config.scale = std::min(config.scale, 0.15);

  Session session;
  SL_CHECK_OK(session.SetConf("sparkline.timeout_ms",
                              std::to_string(config.timeout_ms)));
  SL_CHECK_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));

  const size_t points = static_cast<size_t>(40000 * config.scale);
  SL_CHECK_OK(session.catalog()->RegisterTable(SortedByColumn(
      *datagen::GeneratePoints("corr_src", points, 4,
                               datagen::PointDistribution::kCorrelated, 42),
      "correlated", 1)));
  SL_CHECK_OK(session.catalog()->RegisterTable(SortedByColumn(
      *datagen::GeneratePoints("anti_src", points, 4,
                               datagen::PointDistribution::kAntiCorrelated,
                               42),
      "anticorrelated", 1)));
  datagen::StoreSalesOptions sopts;
  sopts.num_rows = static_cast<size_t>(20000 * config.scale);
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));

  const std::vector<std::string> point_dims = {"d0 MIN", "d1 MIN", "d2 MIN",
                                               "d3 MIN"};
  Sweep(&session, "correlated (sorted by d0)",
        SkylineSql("correlated", point_dims, 4, false),
        OracleSkyline(&session, "correlated", point_dims, 4), points, smoke,
        /*assert_pruning=*/true);
  Sweep(&session, "anticorrelated (sorted by d0)",
        SkylineSql("anticorrelated", point_dims, 4, false),
        OracleSkyline(&session, "anticorrelated", point_dims, 4), points,
        smoke, /*assert_pruning=*/false);
  Sweep(&session, "store_sales (natural ingest)",
        SkylineSql("store_sales", StoreSalesDimensions(), 6, true),
        OracleSkyline(&session, "store_sales", StoreSalesDimensions(), 6),
        sopts.num_rows, smoke, /*assert_pruning=*/false);
  if (smoke) std::printf("\nsmoke checks passed\n");
  return 0;
}
