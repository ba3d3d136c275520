// perfbench: time from Session::Sql() to rows in hand, for one closed-loop
// client, on one of three workloads.
//
//   perfbench --workload analyst_mix|small_queries|dashboard_writes
//             --seed N --seconds S --trace 0|1
//             [--corrupt-expected]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics from spans the benchmark takes around public library calls. The
// last line of standard output is one JSON object; the lines before it are
// the human-readable report. Every answer is checked against the
// benchmark's own oracle; --corrupt-expected spoils one expected answer to
// show that a wrong answer fails the run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/dataframe.h"
#include "oracle.h"
#include "spans.h"
#include "traced_read.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sparkline::QueryMetrics;
using sparkline::QueryResult;
using sparkline::Result;
using sparkline::Status;

constexpr int kSetupRepeats = 5;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cumulative CPU ticks of the machine: {steal, total}, from /proc/stat.
/// Steal is time the hypervisor gave this machine's CPUs to someone else;
/// it is printed with the run so that a slow run can be told apart from a
/// slow program. Zeros where /proc/stat is absent.
std::pair<double, double> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  double total = 0;
  for (double x : v) total += x;
  return n == 8 ? std::make_pair(v[7], total) : std::make_pair(0.0, 0.0);
}

/// The per-execution counters the library reports. On a static table they
/// are a function of the query alone, so every execution of one query must
/// repeat them exactly.
struct Counters {
  int64_t rows = 0;
  int64_t dominance_tests = 0;
  int64_t merge_dominance_tests = 0;
  int64_t exchange_rows_shipped = 0;
  int64_t rows_pruned_pre_gather = 0;
  int64_t matrix_builds = 0;
  int64_t partitions_skipped = 0;

  static Counters Of(const QueryResult& r) {
    const QueryMetrics& m = r.metrics;
    Counters c;
    c.rows = static_cast<int64_t>(r.num_rows());
    c.dominance_tests = m.dominance_tests;
    c.merge_dominance_tests = m.merge_dominance_tests;
    c.exchange_rows_shipped = m.exchange_rows_shipped;
    c.rows_pruned_pre_gather = m.rows_pruned_pre_gather;
    for (const auto& [label, n] : m.matrix_builds) c.matrix_builds += n;
    c.partitions_skipped = m.partitions_skipped;
    return c;
  }
  bool operator==(const Counters& o) const {
    return rows == o.rows && dominance_tests == o.dominance_tests &&
           merge_dominance_tests == o.merge_dominance_tests &&
           exchange_rows_shipped == o.exchange_rows_shipped &&
           rows_pruned_pre_gather == o.rows_pruned_pre_gather &&
           matrix_builds == o.matrix_builds &&
           partitions_skipped == o.partitions_skipped;
  }
  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "rows=%lld dominance_tests=%lld merge_dominance_tests=%lld "
                  "rows_shipped=%lld pruned_pre_gather=%lld matrix_builds=%lld "
                  "partitions_skipped=%lld",
                  static_cast<long long>(rows),
                  static_cast<long long>(dominance_tests),
                  static_cast<long long>(merge_dominance_tests),
                  static_cast<long long>(exchange_rows_shipped),
                  static_cast<long long>(rows_pruned_pre_gather),
                  static_cast<long long>(matrix_builds),
                  static_cast<long long>(partitions_skipped));
    return buf;
  }
};

/// The program's critical-path model (QueryMetrics::operator_ms), grouped
/// by operator.
const char* StageGroup(const std::string& label) {
  const auto starts = [&](const char* p) { return label.rfind(p, 0) == 0; };
  if (starts("Scan")) return "scan";
  if (starts("Filter") || starts("Project")) return "filter_project";
  if (starts("LocalSkyline") || starts("BroadcastFilter")) return "local_skyline";
  if (starts("Exchange")) return "exchange";
  if (starts("GlobalSkyline")) return "global_skyline";
  if (label.find("Join") != std::string::npos) return "join";
  if (label.find("Aggregate") != std::string::npos) return "aggregate";
  return "other";
}
const char* const kStageGroups[] = {"scan",          "filter_project",
                                    "local_skyline", "exchange",
                                    "global_skyline", "join",
                                    "aggregate",     "other"};

/// How a read is sent: the public API with program defaults, the traced
/// sequence of public calls, or the public API with the program's own
/// trace spans off.
enum Mode { kPlain = 0, kTraced = 1, kProgramTraceOff = 2 };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool corrupt_expected = false;
};

class Runner {
 public:
  Runner(Workload* w, SpanLog* log) : w_(w), log_(log) {
    reference_.resize(w->queries().size());
  }

  /// Every query once, with its answer and counters checked.
  void Warmup() {
    for (size_t q = 0; q < w_->queries().size(); ++q) {
      Result<QueryResult> r = ReadOnce(static_cast<int>(q), kPlain);
      Check(static_cast<int>(q), r, /*timed=*/false);
    }
  }

  void RunPass(Mode mode) {
    if (mode != mode_) {
      const Status st = w_->session()->SetConf(
          "sparkline.trace.enabled", mode == kProgramTraceOff ? "false" : "true");
      if (!st.ok()) Fail("SetConf: " + st.ToString());
      mode_ = mode;
    }
    for (const Op& op : w_->NextPass()) {
      if (op.query >= 0) {
        Read(op.query, mode);
      } else {
        Write(op, mode);
      }
    }
  }

  // --- results ------------------------------------------------------------
  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<double>& read_ms(Mode m) const { return read_ms_[m]; }
  const std::vector<double>& write_ms(Mode m) const { return write_ms_[m]; }
  const std::map<std::string, std::vector<double>>& shape_ms() const {
    return shape_ms_;
  }
  const std::vector<int>& traced_op_query() const { return traced_op_query_; }
  int64_t reads() const { return reads_; }
  int64_t executed_reads() const { return executed_reads_; }
  const Counters& counter_sums() const { return counter_sums_; }
  const std::map<std::string, double>& stage_sim_sums() const {
    return stage_sim_sums_;
  }
  const std::set<std::string>& stage_labels() const { return stage_labels_; }
  const std::vector<double>& peak_memory_bytes() const { return peak_memory_; }
  int64_t delta_maintained_hits() const { return delta_maintained_hits_; }
  /// The counters of query q's first execution, which every later one
  /// repeated.
  const std::optional<Counters>& reference(size_t q) const {
    return reference_[q];
  }

  void Fail(const std::string& why) {
    if (errors_shown_++ < 5) std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }

 private:
  Result<QueryResult> ReadOnce(int q, Mode mode) {
    sparkline::Session* s = w_->session();
    const std::string& sql = w_->queries()[q].sql;
    if (mode == kTraced) {
      SpanScope op(log_, "read");
      return TracedRead(s, sql, log_);
    }
    SL_ASSIGN_OR_RETURN(sparkline::DataFrame df, s->Sql(sql));
    return df.Collect();
  }

  void Read(int q, Mode mode) {
    if (mode == kTraced) traced_op_query_.push_back(q);
    const int64_t start = NowNanos();
    Result<QueryResult> r = ReadOnce(q, mode);
    const double ms = (NowNanos() - start) / 1e6;
    // The clock has stopped: everything below is the benchmark's own work.
    read_ms_[mode].push_back(ms);
    if (mode == kPlain) shape_ms_[w_->queries()[q].shape].push_back(ms);
    Check(q, r, /*timed=*/true);
  }

  void Write(const Op& op, Mode mode) {
    if (mode == kTraced) traced_op_query_.push_back(-1);
    sparkline::Catalog* catalog = w_->session()->catalog();
    SpanLog* log = mode == kTraced ? log_ : nullptr;
    const int64_t start = NowNanos();
    Status st = Status::OK();
    {
      SpanScope write_span(log, "write");
      {
        SpanScope insert_span(log, "catalog.insert");
        st = catalog->InsertInto(kStoreSales, op.rows);
      }
      if (st.ok()) {
        SpanScope drain_span(log, "catalog.drain");
        catalog->DrainWrites();
      }
    }
    const double ms = (NowNanos() - start) / 1e6;
    write_ms_[mode].push_back(ms);
    ++attempted_;
    if (!st.ok()) {
      ++failed_;
      Fail("insert failed: " + st.ToString());
      return;
    }
    w_->ApplyWrite(op);
  }

  void Check(int q, const Result<QueryResult>& r, bool timed) {
    const QueryCase& qc = w_->queries()[q];
    if (timed) ++attempted_;
    if (!r.ok()) {
      if (timed) ++failed_;
      Fail(qc.shape + ": " + r.status().ToString());
      return;
    }
    if (DigestOf(r->rows()) != qc.expected) {
      Fail(qc.shape + ": answer differs from the oracle (" +
           std::to_string(r->num_rows()) + " rows, expected " +
           std::to_string(qc.expected.rows) + ")");
    }
    const Counters c = Counters::Of(*r);
    if (!w_->cached()) {
      // A static table: every execution repeats the first one's counters.
      if (!reference_[q].has_value()) {
        reference_[q] = c;
      } else if (!(*reference_[q] == c)) {
        Fail(qc.shape + ": counters changed between executions: first {" +
             reference_[q]->ToString() + "} now {" + c.ToString() + "}");
      }
    }
    if (!timed) return;
    ++reads_;
    if (r->metrics.cache_hit) {
      if (r->metrics.cache_delta_maintained > 0) ++delta_maintained_hits_;
      return;
    }
    ++executed_reads_;
    counter_sums_.dominance_tests += c.dominance_tests;
    counter_sums_.merge_dominance_tests += c.merge_dominance_tests;
    counter_sums_.exchange_rows_shipped += c.exchange_rows_shipped;
    counter_sums_.rows_pruned_pre_gather += c.rows_pruned_pre_gather;
    counter_sums_.matrix_builds += c.matrix_builds;
    counter_sums_.partitions_skipped += c.partitions_skipped;
    for (const auto& [label, ms] : r->metrics.operator_ms) {
      stage_labels_.insert(label);
      stage_sim_sums_[StageGroup(label)] += ms;
    }
    peak_memory_.push_back(static_cast<double>(r->metrics.peak_memory_bytes));
  }

  Workload* w_;
  SpanLog* log_;
  Mode mode_ = kPlain;
  bool correct_ = true;
  int errors_shown_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::optional<Counters>> reference_;
  std::vector<double> read_ms_[3];
  std::vector<double> write_ms_[3];
  std::map<std::string, std::vector<double>> shape_ms_;
  std::vector<int> traced_op_query_;
  int64_t reads_ = 0;
  int64_t executed_reads_ = 0;
  int64_t delta_maintained_hits_ = 0;
  Counters counter_sums_;
  std::map<std::string, double> stage_sim_sums_;
  std::set<std::string> stage_labels_;
  std::vector<double> peak_memory_;
};

/// Collects the final JSON metrics and prints each as a report line too.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), value, unit);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    json_ += (json_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
             buf + ", \"unit\": \"" + unit + "\"}";
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), json_.c_str());
  }

 private:
  std::string json_;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--corrupt-expected") {
      args->corrupt_expected = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument %s\n",
                   a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void PrintNotTimedFromOutside() {
  std::printf(
      "layers not timed from outside the library:\n"
      "  exec.execute holds every stage's dispatch, tasks and barrier; only\n"
      "    the program's critical-path model (exec.stage.*_sim_ms) splits it\n"
      "  exec.context_setup holds ThreadPool start-up and trace allocation\n"
      "    together; exec.context_teardown holds Finish, TakeTrace and the\n"
      "    pool join together\n"
      "  catalog.drain is the wait for the notifier thread; the incremental\n"
      "    maintenance it waits for runs on that thread and is not split\n"
      "  destruction of the physical and logical plans, and building the\n"
      "    QueryResult on a cache hit, fall in api.unattributed\n");
}

/// Per-layer self times of the traced operations: median per layer over
/// the operations that entered it. Returns whether every operation's layer
/// times are non-negative and add up to its traced wall time.
bool ReportLayers(const SpanLog& log, const Runner& runner, const Workload& w,
                  Report* report) {
  const std::vector<OpTimes> ops = log.SelfTimes();
  std::map<std::string, std::vector<double>> per_layer;
  std::map<std::string, std::map<std::string, std::vector<double>>> per_shape;
  double worst_gap = 0;
  bool ok = true;
  for (const OpTimes& op : ops) {
    double sum = 0;
    for (const auto& [layer, ms] : op.self_ms) {
      sum += ms;
      per_layer[layer].push_back(ms);
      const int q = runner.traced_op_query()[op.op];
      per_shape[q < 0 ? std::string("(write)") : w.queries()[q].shape][layer]
          .push_back(ms);
      if (ms < -1e-9) ok = false;
    }
    worst_gap = std::max(worst_gap, std::fabs(sum - op.wall_ms));
  }
  std::printf("traced operations: %zu; largest |sum of layer self times - "
              "traced wall| = %.3g ms\n", ops.size(), worst_gap);
  if (worst_gap > 1e-6) ok = false;

  std::printf("%-26s %8s %12s %12s\n", "layer", "ops", "median_ms", "mean_ms");
  for (const auto& [layer, v] : per_layer) {
    std::printf("%-26s %8zu %12.4f %12.4f\n", layer.c_str(), v.size(), Median(v),
                Sum(v) / static_cast<double>(v.size()));
  }
  if (per_shape.size() > 1 && per_shape.size() <= 16) {
    std::printf("median self ms per shape:\n");
    for (const auto& [shape, layers] : per_shape) {
      std::printf("  %-20s", shape.c_str());
      for (const auto& [layer, v] : layers) {
        std::printf(" %s=%.3f", layer.c_str(), Median(v));
      }
      std::printf("\n");
    }
  }
  for (const char* layer :
       {"sql.parse", "analysis.analyze", "optimizer.optimize", "exec.plan",
        "exec.context_setup", "exec.execute", "exec.root_decode",
        "exec.context_teardown", "serve.fingerprint", "serve.cache_lookup",
        "catalog.insert", "catalog.drain", "api.unattributed"}) {
    const auto it = per_layer.find(layer);
    report->Add(std::string(layer) + "_ms",
                it == per_layer.end() ? 0.0 : Median(it->second), "ms");
  }
  return ok;
}

int Run(const Args& args) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to report numbers from a build "
               "without optimisation (build type %s)\n", PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (!OracleSelfTest()) return 3;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %d trace %d nproc %u build %s "
              "executors 4\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);

  const int64_t prepare_start = NowNanos();
  w->Prepare();
  if (args.corrupt_expected) {
    // Spoil one expected answer: the run must report it as wrong.
    w->SpoilExpected(0);
  }
  std::printf("oracle: %zu queries prepared in %.3f s (not part of setup_s)\n",
              w->queries().size(), (NowNanos() - prepare_start) / 1e9);

  SpanLog log;
  Runner runner(w.get(), &log);
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    const int64_t start = NowNanos();
    const Status st = w->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    runner.Warmup();
    setup_s.push_back((NowNanos() - start) / 1e9);
  }
  std::printf("setup (data generation, registration, warm-up) x%zu: ",
              setup_s.size());
  for (double s : setup_s) std::printf("%.3f s ", s);
  std::printf("\n");

  sparkline::serve::ResultCache::Stats cache_before;
  sparkline::serve::IncrementalMaintainer::Stats maint_before;
  if (w->cached()) {
    cache_before = w->session()->cache()->stats();
    maint_before = w->session()->maintainer()->stats();
  }

  const int64_t deadline = NowNanos() + static_cast<int64_t>(args.seconds) * 1000000000;
  // Untraced passes, each a whole round of the workload's operations. A
  // pass's throughput is its operations over the time the client spent
  // waiting on them; ops_per_s is the median over passes, so a burst of
  // contention from outside the process moves it less than a plain mean.
  int64_t passes = 0;
  std::vector<double> pass_ops_per_s;
  const std::pair<double, double> ticks_before = CpuTicks();
  do {
    const size_t first_read = runner.read_ms(kPlain).size();
    const size_t first_write = runner.write_ms(kPlain).size();
    runner.RunPass(kPlain);
    const std::vector<double>& r = runner.read_ms(kPlain);
    const std::vector<double>& wr = runner.write_ms(kPlain);
    const double busy_ms =
        Sum(std::vector<double>(r.begin() + static_cast<long>(first_read), r.end())) +
        Sum(std::vector<double>(wr.begin() + static_cast<long>(first_write), wr.end()));
    pass_ops_per_s.push_back(
        1000.0 * static_cast<double>(r.size() - first_read + wr.size() - first_write) /
        busy_ms);
    if (args.trace) {
      runner.RunPass(kTraced);
      runner.RunPass(kProgramTraceOff);
    }
    ++passes;
  } while (NowNanos() < deadline);

  const std::pair<double, double> ticks_after = CpuTicks();
  const double total_ticks = ticks_after.second - ticks_before.second;
  std::printf("cpu steal during the timed region: %.2f%% of machine CPU time\n",
              total_ticks > 0
                  ? 100.0 * (ticks_after.first - ticks_before.first) / total_ticks
                  : 0.0);

  Report report;
  const std::vector<double>& reads = runner.read_ms(kPlain);
  const std::vector<double>& writes = runner.write_ms(kPlain);
  std::printf("passes %lld; operations attempted %lld failed %lld\n",
              static_cast<long long>(passes),
              static_cast<long long>(runner.attempted()),
              static_cast<long long>(runner.failed()));
  std::printf("samples: reads %zu writes %zu (untraced, program defaults)\n",
              reads.size(), writes.size());
  std::printf("query_p90_ms %.4f over %zu reads (printed, not gated)\n",
              Quantile(reads, 0.9), reads.size());
  std::printf("ops/s per pass: min %.3f q1 %.3f median %.3f q3 %.3f max %.3f "
              "over %zu passes\n",
              Quantile(pass_ops_per_s, 0), Quantile(pass_ops_per_s, 0.25),
              Median(pass_ops_per_s), Quantile(pass_ops_per_s, 0.75),
              Quantile(pass_ops_per_s, 1), pass_ops_per_s.size());
  if (!writes.empty()) {
    std::printf("write_p50_ms %.4f over %zu writes (InsertInto + DrainWrites)\n",
                Median(writes), writes.size());
  }
  if (runner.shape_ms().size() <= 16) {
    std::printf("per-shape median ms (samples):\n");
    for (const auto& [shape, v] : runner.shape_ms()) {
      std::printf("  %-20s %10.3f (%zu)\n", shape.c_str(), Median(v), v.size());
    }
  }
  if (!w->cached() && w->queries().size() <= 16) {
    std::printf("per-shape counters (equal in every execution):\n");
    for (size_t q = 0; q < w->queries().size(); ++q) {
      if (!runner.reference(q).has_value()) continue;
      std::printf("  %-20s %s\n", w->queries()[q].shape.c_str(),
                  runner.reference(q)->ToString().c_str());
    }
  }

  // Deterministic counters, per read of the timed region.
  const double nreads = std::max<double>(1.0, static_cast<double>(runner.reads()));
  const Counters& c = runner.counter_sums();
  std::printf("counters per read: dominance_tests %.1f merge_dominance_tests "
              "%.1f rows_shipped %.1f matrix_builds %.3f pruned_pre_gather %.1f "
              "partitions_skipped %.3f\n",
              c.dominance_tests / nreads, c.merge_dominance_tests / nreads,
              c.exchange_rows_shipped / nreads, c.matrix_builds / nreads,
              c.rows_pruned_pre_gather / nreads, c.partitions_skipped / nreads);
  double hit_ratio = 0, hits = 0, lookups = 0, maintained = 0, fallbacks = 0;
  const double nwrites = static_cast<double>(
      runner.write_ms(kPlain).size() + runner.write_ms(kTraced).size() +
      runner.write_ms(kProgramTraceOff).size());
  if (w->cached()) {
    const auto cache = w->session()->cache()->stats();
    const auto maint = w->session()->maintainer()->stats();
    hits = static_cast<double>(cache.hits - cache_before.hits);
    lookups = hits + static_cast<double>(cache.misses - cache_before.misses);
    hit_ratio = lookups > 0 ? hits / lookups : 0;
    maintained = static_cast<double>(maint.maintained - maint_before.maintained);
    fallbacks = static_cast<double>(maint.fallbacks - maint_before.fallbacks);
    std::printf("cache: hits %.0f lookups %.0f ratio %.6f; maintenance: "
                "deltas %.0f fallbacks %.0f over %.0f writes; hits served "
                "after a delta %lld\n",
                hits, lookups, hit_ratio, maintained, fallbacks, nwrites,
                static_cast<long long>(runner.delta_maintained_hits()));
  }

  int exit_code = 0;
  if (!args.trace) {
    report.Add("query_p50_ms", Median(reads), "ms");
    report.Add("ops_per_s", Median(pass_ops_per_s), "1/s");
    report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Add("setup_s", Median(setup_s), "s");
  } else {
    PrintNotTimedFromOutside();
    const bool layers_add_up = ReportLayers(log, runner, *w, &report);
    const double plain = Median(runner.read_ms(kPlain));
    report.Add("exec.trace_cost_ms", plain - Median(runner.read_ms(kProgramTraceOff)),
               "ms");
    report.Add("bench.trace_overhead_ms", Median(runner.read_ms(kTraced)) - plain,
               "ms");
    const double executed =
        std::max<double>(1.0, static_cast<double>(runner.executed_reads()));
    std::printf("stage labels seen:");
    for (const std::string& l : runner.stage_labels()) {
      std::printf(" [%s]->%s", l.c_str(), StageGroup(l));
    }
    std::printf("\n");
    for (const char* group : kStageGroups) {
      const auto it = runner.stage_sim_sums().find(group);
      report.Add(std::string("exec.stage.") + group + "_sim_ms",
                 it == runner.stage_sim_sums().end() ? 0.0 : it->second / executed,
                 "ms");
    }
    report.Add("skyline.dominance_tests", c.dominance_tests / nreads, "count");
    report.Add("skyline.merge_dominance_tests", c.merge_dominance_tests / nreads,
               "count");
    report.Add("exec.matrix_builds", c.matrix_builds / nreads, "count");
    report.Add("exec.exchange_rows_shipped", c.exchange_rows_shipped / nreads,
               "count");
    report.Add("exec.rows_pruned_pre_gather", c.rows_pruned_pre_gather / nreads,
               "count");
    report.Add("exec.peak_memory_bytes", Median(runner.peak_memory_bytes()), "B");
    auto table = w->session()->catalog()->GetTable(kStoreSales);
    report.Add("catalog.bytes_per_row",
               table.ok() && (*table)->num_rows() > 0
                   ? static_cast<double>((*table)->EstimatedBytes()) /
                         static_cast<double>((*table)->num_rows())
                   : 0.0,
               "B");
    report.Add("serve.cache_hit_ratio", hit_ratio, "ratio");
    report.Add("serve.cache_hits", hits, "count");
    report.Add("serve.cache_lookups", lookups, "count");
    report.Add("serve.delta_maintained", nwrites > 0 ? maintained / nwrites : 0.0,
               "count");
    report.Add("serve.maintenance_fallbacks", fallbacks, "count");
    const std::string path = ".bench_build/perfbench-trace-" + args.workload + ".json";
    if (log.WriteChromeTrace(path)) {
      std::printf("chrome trace: %s (%zu operations)\n", path.c_str(), log.num_ops());
    } else {
      std::printf("chrome trace: could not write %s\n", path.c_str());
      exit_code = 1;
    }
    if (!layers_add_up) {
      runner.Fail("layer self times do not add up to the traced wall time");
    }
  }
  if (!runner.correct()) exit_code = 1;
  report.Print(runner.correct(), runner.attempted(), runner.failed());
  return exit_code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--corrupt-expected]\n");
    return 2;
  }
  return perfbench::Run(args);
}
