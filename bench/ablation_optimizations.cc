// Ablation of the section-7 future-work features the session still lets a
// user choose: skyline kernel (BNL / SFS / grid), local-stage partitioning
// and the cost-based non-distributed threshold. The optimizer rules of
// section 5.4 and the pruning steps always run; their recorded on/off
// numbers are in the "Retired ablations" table of docs/ARCHITECTURE.md.
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

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

  std::printf("== Ablation of the section-7 features ==\n\n");

  // Anti-correlated data is the hard case: skylines are large.
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
  return 0;
}
