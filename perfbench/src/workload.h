// The three workloads. Each owns a Session, the queries it sends, and the
// oracle's expected answer for each query.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "data.h"
#include "oracle.h"

namespace perfbench {

struct QueryCase {
  std::string shape;  ///< name in the report (analyst_mix: the shape)
  std::string sql;
  Digest expected;    ///< the oracle's answer, kept current under writes
};

/// Every workload has a store_sales table: writes go to it, and
/// catalog.bytes_per_row is reported for it.
inline constexpr char kStoreSales[] = "store_sales";

/// One operation of a pass: a read of queries()[query], or (query < 0) an
/// insert of `batch` into kStoreSales.
struct Op {
  int query = -1;
  std::shared_ptr<const Dataset> batch;
  std::vector<sparkline::Row> rows;  ///< `batch` as library rows
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the oracle's copy of the inputs and every expected answer.
  /// Not part of set-up time: it is the benchmark's own work.
  virtual void Prepare() = 0;
  /// Replaces the session with a fresh one holding freshly generated
  /// tables. Timed as set-up, together with the warm-up that follows.
  virtual sparkline::Status Setup() = 0;
  /// The operations of the next pass. Every pass of a workload has the
  /// same number of reads and writes.
  virtual std::vector<Op> NextPass() = 0;
  /// Advances the expected answers after `op`'s rows were inserted.
  virtual void ApplyWrite(const Op& op) { (void)op; }
  /// Reads are answered from the result cache after the warm-up.
  virtual bool cached() const { return false; }

  sparkline::Session* session() { return session_.get(); }
  /// Makes query `q`'s expected answer wrong, to show that the check fails.
  void SpoilExpected(size_t q) { queries_[q].expected.sum_a ^= 1; }
  const std::vector<QueryCase>& queries() const { return queries_; }

 protected:
  /// A new session at the benchmark's fixed settings.
  sparkline::Status NewSession();

  std::unique_ptr<sparkline::Session> session_;
  std::vector<QueryCase> queries_;
};

/// The workload named `name` for `seed`; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
