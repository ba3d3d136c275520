// Ablation of the skyline-specific optimizer rules (paper section 5.4 and
// the `src/optimizer` section of docs/ARCHITECTURE.md): single-dimension
// rewrite, skyline-through-join pushdown, and filter pushdown, each toggled
// off individually.
#include <cinttypes>
#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

Cell Run(Session* session, const std::string& sql, const BenchConfig& config,
         const std::string& toggle_key, bool enabled) {
  if (!toggle_key.empty()) {
    SL_CHECK_OK(session->SetConf(toggle_key, enabled ? "true" : "false"));
  }
  Cell cell = RunCell(session, sql, "auto", 4, config);
  if (!toggle_key.empty()) SL_CHECK_OK(session->SetConf(toggle_key, "true"));
  return cell;
}

void Report(const char* name, const Cell& on, const Cell& off) {
  auto fmt = [](const Cell& c) {
    if (c.timeout) return std::string("t.o.");
    if (c.error) return std::string("err");
    return StrCat(DoubleToString(c.simulated_ms / 1000.0), "s (",
                  c.dominance_tests, " dominance tests)");
  };
  std::printf("%-28s on: %-36s off: %s\n", name, fmt(on).c_str(),
              fmt(off).c_str());
  if (!on.timeout && !off.timeout && !on.error && !off.error) {
    SL_CHECK(on.result_rows == off.result_rows)
        << name << ": ablation changed the result!";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  Session session;

  // Dataset 1: store_sales (single-dimension rewrite showcase).
  datagen::StoreSalesOptions sopts;
  sopts.num_rows = static_cast<size_t>(20000 * config.scale);
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));

  // Dataset 2: listings with a declared FK to hosts (join pushdown
  // showcase): every listing has exactly one matching host.
  Schema hosts_schema({Field{"id", DataType::Int64(), false},
                       Field{"since", DataType::Int64(), false}});
  auto hosts = std::make_shared<Table>("hosts", hosts_schema);
  hosts->constraints().primary_key = {"id"};
  for (int i = 1; i <= 50; ++i) {
    SL_CHECK_OK(hosts->AppendRow({Value::Int64(i), Value::Int64(1990 + i)}));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(hosts));
  Schema listings_schema({Field{"id", DataType::Int64(), false},
                          Field{"price", DataType::Double(), false},
                          Field{"rating", DataType::Double(), false},
                          Field{"host", DataType::Int64(), false}});
  auto listings = std::make_shared<Table>("listings", listings_schema);
  listings->constraints().foreign_keys.push_back(
      TableConstraints::ForeignKey{{"host"}, "hosts", {"id"}, true});
  Rng rng(7);
  const size_t n_listings = static_cast<size_t>(12000 * config.scale);
  for (size_t i = 0; i < n_listings; ++i) {
    SL_CHECK_OK(listings->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                     Value::Double(rng.Uniform(20, 900)),
                                     Value::Double(rng.Uniform(1, 5)),
                                     Value::Int64(rng.UniformInt(1, 50))}));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(listings));

  std::printf("== Ablation of skyline-specific optimizations (section 5.4) ==\n\n");

  // 1. Single-dimension rewrite: O(n) scalar lookup vs. full BNL skyline.
  {
    const std::string sql =
        "SELECT * FROM store_sales SKYLINE OF ss_wholesale_cost MIN";
    Cell on = Run(&session, sql, config,
                  "sparkline.optimizer.singleDimRewrite", true);
    Cell off = Run(&session, sql, config,
                   "sparkline.optimizer.singleDimRewrite", false);
    Report("single-dim rewrite", on, off);
  }

  // 2. Skyline-through-join pushdown: skyline before vs. after the join.
  {
    const std::string sql =
        "SELECT l.price, l.rating, h.since FROM listings l "
        "JOIN hosts h ON l.host = h.id "
        "SKYLINE OF l.price MIN, l.rating MAX";
    Cell on = Run(&session, sql, config,
                  "sparkline.optimizer.skylineJoinPushdown", true);
    Cell off = Run(&session, sql, config,
                   "sparkline.optimizer.skylineJoinPushdown", false);
    Report("skyline-join pushdown", on, off);
  }

  // 3. Generic filter pushdown under a skyline-bearing query.
  {
    const std::string sql =
        "SELECT * FROM (SELECT * FROM store_sales) t "
        "WHERE ss_quantity > 50 "
        "SKYLINE OF ss_wholesale_cost MIN, ss_list_price MIN, "
        "ss_ext_discount_amt MAX";
    Cell on = Run(&session, sql, config,
                  "sparkline.optimizer.filterPushdown", true);
    Cell off = Run(&session, sql, config,
                   "sparkline.optimizer.filterPushdown", false);
    Report("filter pushdown", on, off);
  }

  // 4. Section-7 future-work features on anti-correlated data (the hard
  // case: skylines are large).
  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "anti", static_cast<size_t>(8000 * config.scale), 4,
      datagen::PointDistribution::kAntiCorrelated, 99)));
  const std::string anti_sql =
      "SELECT * FROM anti SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN";

  {
    Cell bnl = RunCell(&session, anti_sql, "distributed", 4, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
    Cell sfs = RunCell(&session, anti_sql, "distributed", 4, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", "bnl"));
    Report("kernel: BNL vs SFS", bnl, sfs);
  }
  {
    Cell bnl = RunCell(&session, anti_sql, "distributed", 4, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", "grid"));
    Cell grid = RunCell(&session, anti_sql, "distributed", 4, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", "bnl"));
    Report("kernel: BNL vs grid", bnl, grid);
  }
  {
    SL_CHECK_OK(session.SetConf("sparkline.skyline.partitioning", "roundrobin"));
    Cell rr = RunCell(&session, anti_sql, "distributed", 8, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.partitioning", "angle"));
    Cell angle = RunCell(&session, anti_sql, "distributed", 8, config);
    SL_CHECK_OK(session.SetConf("sparkline.skyline.partitioning", "asis"));
    Report("partitioning: rr vs angle", rr, angle);
  }
  {
    SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
        "tiny", 200, 2, datagen::PointDistribution::kIndependent, 3)));
    const std::string tiny_sql = "SELECT * FROM tiny SKYLINE OF d0 MIN, d1 MIN";
    Cell off = RunCell(&session, tiny_sql, "auto", 8, config);
    SL_CHECK_OK(
        session.SetConf("sparkline.skyline.nonDistributedThreshold", "1000"));
    Cell on = RunCell(&session, tiny_sql, "auto", 8, config);
    SL_CHECK_OK(
        session.SetConf("sparkline.skyline.nonDistributedThreshold", "0"));
    Report("cost-based tiny-input", on, off);
  }

  std::printf(
      "\nEach rule may only improve time/dominance tests, never change the\n"
      "result (checked above).\n");
  return 0;
}
