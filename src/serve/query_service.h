// QueryService: the concurrent serving front-end.
//
// Accepts SQL strings, runs them asynchronously on a shared ThreadPool of
// `max_concurrent` service threads, and returns handles (future + cancel).
// The session's fingerprinted result cache (consulted inside
// Session::Execute) makes repeated queries short-circuit; the service adds
// concurrency, admission control and cancellation on top:
//
//   - max_concurrent service threads execute queries in parallel (each
//     query still gets its own simulated-cluster ExecContext; their stage
//     tasks share the process-wide executor pool).
//   - Admission cap: at most `max_pending` queries may be in flight
//     (queued + running). Beyond that Submit fails fast with
//     Status::Unavailable instead of queueing unboundedly — callers are
//     expected to retry with backoff, which keeps tail latency bounded
//     under overload.
//   - Cancellation: every submitted query carries a CancellationToken that
//     is installed on its ExecContext. QueryHandle::Cancel() makes a
//     running query's kernel loops and stage boundaries return
//     Status::Cancelled at the next check, and sheds a still-queued query
//     without executing it at all.
//   - Queue shedding: when the session has a per-query timeout
//     (sparkline.timeout_ms), a query that already waited in the queue
//     longer than the timeout is shed with Status::Timeout instead of
//     burning a service thread on work whose deadline has passed.
//
// Thread safety: Submit/Execute may be called from any thread. The service
// relies on the Catalog being internally synchronized and on the Session
// configuration not being mutated concurrently with serving (configure
// first, then serve).
#pragma once

#include <future>
#include <memory>
#include <string>

#include "api/query_result.h"
#include "common/cancellation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/thread_safety.h"

namespace sparkline {

class Session;

namespace serve {

/// \brief One submitted query: the result future plus a cancellation handle.
///
/// Move-only (futures are). The token outlives the service thread's use of
/// it, so Cancel() is safe at any time — before execution starts (the query
/// is shed from the queue), during it (cooperative cancellation points
/// return Status::Cancelled), or after completion (no-op).
struct QueryHandle {
  std::future<Result<QueryResult>> future;
  CancellationTokenPtr token;

  /// Requests cancellation; the result (Status::Cancelled, or the query's
  /// outcome if it won the race) still arrives through `future`.
  void Cancel() {
    if (token != nullptr) token->Cancel();
  }
};

/// \brief Asynchronous SQL execution with admission control and
/// cancellation.
class QueryService {
 public:
  struct Options {
    /// Service threads == maximum concurrently *executing* queries.
    int max_concurrent = 4;
    /// Maximum in-flight (queued + running) queries before Submit rejects
    /// with Unavailable; 0 derives 4 * max_concurrent.
    int max_pending = 0;
  };

  /// A *consistent* snapshot: all fields are read under one lock, so
  /// `submitted == completed + in_flight` holds in every snapshot (shed and
  /// cancelled queries count as completed — their future is fulfilled).
  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t rejected = 0;  ///< admission-cap rejections
    int64_t shed = 0;      ///< dropped from the queue (cancel / deadline)
    int64_t in_flight = 0;
  };

  /// `session` must outlive the service.
  QueryService(Session* session, const Options& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, analyzes and executes `sql` on a service thread. Fails fast
  /// with Status::Unavailable when the admission cap is reached; all other
  /// errors (parse/analysis/execution/cancellation) are delivered through
  /// the handle's future.
  Result<QueryHandle> Submit(std::string sql);

  /// Synchronous convenience wrapper: Submit + wait.
  Result<QueryResult> Execute(const std::string& sql);

  /// Blocks until every admitted query has finished.
  void Drain() { pool_->WaitIdle(); }

  Stats stats() const;
  int max_concurrent() const {
    return static_cast<int>(pool_->num_threads());
  }
  int max_pending() const { return max_pending_; }

 private:
  /// Runs one admitted query on a service thread (or sheds it).
  void RunAdmitted(const std::string& sql, const CancellationTokenPtr& token,
                   int64_t admitted_nanos,
                   const std::shared_ptr<std::promise<Result<QueryResult>>>&
                       promise);

  Session* session_;
  int max_pending_;
  std::unique_ptr<ThreadPool> pool_;

  // All counters share one mutex so stats() can return a consistent
  // snapshot (the previous per-counter atomics allowed readers to observe
  // submitted/completed/in_flight mid-update, breaking the invariant).
  mutable sl::Mutex stats_mu_;
  Stats stats_ SL_GUARDED_BY(stats_mu_);

  // Registry mirrors of the serving counters, resolved once at
  // construction (see common/metrics.h): stats_ stays the test-facing
  // consistent snapshot; these give the process-wide scrape.
  metrics::Histogram* queue_wait_us_;
  metrics::Counter* rejected_total_;
  metrics::Counter* shed_total_;
  metrics::Gauge* in_flight_gauge_;
};

}  // namespace serve
}  // namespace sparkline
