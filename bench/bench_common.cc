#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/metrics.h"
#include "common/string_util.h"
#include "skyline/reference.h"

namespace sparkline {
namespace bench {

BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      config.scale = std::stod(arg.substr(8));
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      config.timeout_ms = std::stoll(arg.substr(13));
    } else if (arg == "--grid") {
      config.grid = true;
    } else if (arg == "--quick") {
      config.scale = 0.25;
      config.timeout_ms = 5000;
    } else if (arg.rfind("--json=", 0) == 0) {
      config.json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      config.json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--scale=X] [--timeout-ms=N] [--grid] [--quick] "
          "[--json=PATH]\n"
          "  --scale=X       multiply dataset sizes by X (default 1.0)\n"
          "  --timeout-ms=N  per-query timeout (default 20000)\n"
          "  --grid          also run the appendix parameter grids\n"
          "  --quick         scale 0.25 and a 5 s timeout\n"
          "  --json=PATH     dump the metrics-registry JSON snapshot to PATH"
          " at exit\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return config;
}

void MaybeDumpMetricsJson(const BenchConfig& config) {
  if (config.json_path.empty()) return;
  std::FILE* f = std::fopen(config.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for the metrics snapshot\n",
                 config.json_path.c_str());
    return;
  }
  const std::string json = metrics::MetricsRegistry::Global().JsonSnapshot();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics snapshot written to %s\n", config.json_path.c_str());
}

const std::vector<Algorithm>& CompleteAlgorithms() {
  static const std::vector<Algorithm> kAlgos = {
      {"distributed complete", "distributed"},
      {"non-distributed complete", "non_distributed"},
      {"distributed incomplete", "incomplete"},
      {"reference", "reference"},
  };
  return kAlgos;
}

const std::vector<Algorithm>& IncompleteAlgorithms() {
  static const std::vector<Algorithm> kAlgos = {
      {"distributed incomplete", "incomplete"},
      {"reference", "reference"},
  };
  return kAlgos;
}

Cell RunCell(Session* session, const std::string& sql,
             const std::string& strategy, int executors,
             const BenchConfig& config) {
  Cell cell;
  SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy", strategy));
  SL_CHECK_OK(session->SetConf("sparkline.executors",
                               std::to_string(executors)));
  SL_CHECK_OK(session->SetConf("sparkline.timeout_ms",
                               std::to_string(config.timeout_ms)));
  SL_CHECK_OK(
      session->SetConf("sparkline.memory.executorOverheadMb",
                       std::to_string(config.executor_overhead_mb)));
  auto df = session->Sql(sql);
  if (!df.ok()) {
    std::fprintf(stderr, "query failed to analyze: %s\n  %s\n",
                 df.status().ToString().c_str(), sql.c_str());
    cell.error = true;
    return cell;
  }
  auto result = df->Collect();
  if (!result.ok()) {
    if (result.status().IsTimeout()) {
      cell.timeout = true;
    } else {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      cell.error = true;
    }
    return cell;
  }
  cell.simulated_ms = result->metrics.simulated_ms;
  cell.wall_ms = result->metrics.wall_ms;
  cell.peak_memory_mb = result->metrics.peak_memory_bytes >> 20;
  cell.dominance_tests = result->metrics.dominance_tests;
  cell.result_rows = result->num_rows();
  return cell;
}

namespace {

std::string FormatCell(const Cell& cell, const char* value) {
  if (cell.timeout) return "t.o.";
  if (cell.error) return "err";
  char buf[64];
  if (std::strcmp(value, "memory") == 0) {
    std::snprintf(buf, sizeof(buf), "%lldMB",
                  static_cast<long long>(cell.peak_memory_mb));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", cell.simulated_ms / 1000.0);
  }
  return buf;
}

std::string FormatRelative(const Cell& cell, const Cell& reference,
                           const char* value) {
  if (reference.timeout || reference.error) return "n.a.";
  if (cell.timeout) return "t.o.";
  if (cell.error) return "err";
  const double base = std::strcmp(value, "memory") == 0
                          ? static_cast<double>(reference.peak_memory_mb)
                          : reference.simulated_ms;
  const double mine = std::strcmp(value, "memory") == 0
                          ? static_cast<double>(cell.peak_memory_mb)
                          : cell.simulated_ms;
  if (base <= 0) return "n.a.";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * mine / base);
  return buf;
}

}  // namespace

void PrintTables(const std::string& title,
                 const std::vector<std::string>& algorithm_names,
                 const std::vector<std::string>& sweep_labels,
                 const std::vector<std::vector<Cell>>& rows,
                 int reference_row, const char* value) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-26s", "algorithm");
  for (const auto& label : sweep_labels) {
    std::printf(" %12s", label.c_str());
  }
  std::printf("\n");
  for (size_t a = 0; a < algorithm_names.size(); ++a) {
    std::printf("%-26s", algorithm_names[a].c_str());
    for (const auto& cell : rows[a]) {
      std::printf(" %12s", FormatCell(cell, value).c_str());
    }
    std::printf("\n");
  }
  if (reference_row < 0) return;
  std::printf("-- relative to %s (100%%) --\n",
              algorithm_names[static_cast<size_t>(reference_row)].c_str());
  for (size_t a = 0; a < algorithm_names.size(); ++a) {
    std::printf("%-26s", algorithm_names[a].c_str());
    for (size_t i = 0; i < rows[a].size(); ++i) {
      std::printf(" %12s",
                  FormatRelative(rows[a][i],
                                 rows[static_cast<size_t>(reference_row)][i],
                                 value)
                      .c_str());
    }
    std::printf("\n");
  }
}

std::string SkylineSql(const std::string& table,
                       const std::vector<std::string>& dimensions, size_t dims,
                       bool complete) {
  std::vector<std::string> items(dimensions.begin(),
                                 dimensions.begin() + dims);
  return StrCat("SELECT * FROM ", table, " SKYLINE OF ",
                complete ? "COMPLETE " : "", JoinStrings(items, ", "));
}

std::vector<skyline::BoundDimension> BindDimensions(
    Session* session, const std::string& table,
    const std::vector<std::string>& dimensions, size_t dims) {
  auto t = session->catalog()->GetTable(table);
  SL_CHECK(t.ok()) << t.status().ToString();
  std::vector<skyline::BoundDimension> bound;
  for (size_t d = 0; d < dims; ++d) {
    const auto parts = Split(dimensions[d], ' ');
    const int ordinal = (*t)->schema().IndexOf(parts[0]);
    SL_CHECK(ordinal >= 0) << parts[0];
    bound.push_back({static_cast<size_t>(ordinal),
                     EqualsIgnoreCase(parts[1], "MIN") ? SkylineGoal::kMin
                                                       : SkylineGoal::kMax});
  }
  return bound;
}

std::vector<std::string> OracleSkyline(
    Session* session, const std::string& table,
    const std::vector<std::string>& dimensions, size_t dims) {
  auto t = session->catalog()->GetTable(table);
  SL_CHECK(t.ok()) << t.status().ToString();
  return SortedRowStrings(skyline::BruteForceSkyline(
      (*t)->CopyRows(), BindDimensions(session, table, dimensions, dims), {}));
}

std::vector<std::string> SortedRowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

std::string ReferenceSql(const std::string& table,
                         const std::vector<std::string>& dimensions,
                         size_t dims) {
  std::vector<std::string> nonstrict, strict;
  for (size_t d = 0; d < dims; ++d) {
    const auto parts = Split(dimensions[d], ' ');
    const std::string& c = parts[0];
    const bool min = EqualsIgnoreCase(parts[1], "MIN");
    nonstrict.push_back(StrCat("i.", c, min ? " <= o." : " >= o.", c));
    strict.push_back(StrCat("i.", c, min ? " < o." : " > o.", c));
  }
  return StrCat("SELECT * FROM ", table, " AS o WHERE NOT EXISTS(",
                "SELECT * FROM ", table, " AS i WHERE ",
                JoinStrings(nonstrict, " AND "), " AND (",
                JoinStrings(strict, " OR "), "))");
}

const std::vector<std::string>& AirbnbDimensions() {
  static const std::vector<std::string> kDims = {
      "price MIN",          "accommodates MAX",
      "bedrooms MAX",       "beds MAX",
      "number_of_reviews MAX", "review_scores_rating MAX"};
  return kDims;
}

const std::vector<std::string>& StoreSalesDimensions() {
  static const std::vector<std::string> kDims = {
      "ss_quantity MAX",         "ss_wholesale_cost MIN",
      "ss_list_price MIN",       "ss_sales_price MIN",
      "ss_ext_discount_amt MAX", "ss_ext_sales_price MIN"};
  return kDims;
}

}  // namespace bench
}  // namespace sparkline
