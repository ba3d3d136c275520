// Sharded LRU cache of materialized skyline/query results, keyed by plan
// fingerprint (serve/fingerprint.h).
//
// Design:
//   - N shards (fingerprint hash_lo selects the shard), each with its own
//     mutex, LRU list and hash map, so concurrent service threads rarely
//     contend.
//   - Entries hold *shared immutable* row snapshots
//     (std::shared_ptr<const std::vector<Row>>); a hit aliases the snapshot
//     into the caller's QueryResult — no deep copy, and eviction while a
//     reader still holds the snapshot is safe.
//   - The byte budget is charged through the existing MemoryTracker: every
//     insert Grows it by the entry's estimated footprint (rows plus any
//     retained dominance matrix, CachedResult::charged_bytes) and every
//     eviction/invalidation Shrinks it, so cache residency shows up in the
//     same accounting the executor uses.
//   - TTL: entries older than ttl_ms are treated as misses (0 = no expiry).
//     Expired entries release their byte reservation and reverse-index
//     slots eagerly: on lookup of the expired key, through an LRU-tail
//     sweep on every lookup/insert, and via PurgeExpired() — they never sit
//     on the budget waiting for LRU pressure. TTL drops are counted as
//     `expirations`, separate from budget `evictions`.
//   - Invalidation: each shard keeps a reverse index table-name -> keys;
//     InvalidateTable drops exactly the entries whose fingerprint
//     referenced that table. Because table versions are *also* folded into
//     the fingerprint hash, a missed invalidation can only ever cost a
//     cache miss, never a stale hit.
//   - Counters (hits / misses / evictions / invalidations) feed the
//     cache_* fields of QueryMetrics.
//
// All public methods are thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_safety.h"
#include "expr/expression.h"
#include "serve/fingerprint.h"
#include "types/value.h"

namespace sparkline {
namespace serve {

struct DeltaRecipe;  // serve/incremental.h

}  // namespace serve
namespace skyline {
class DominanceMatrix;  // skyline/columnar.h
}  // namespace skyline
namespace serve {

/// \brief One cached result: the output header plus a shared immutable row
/// snapshot, and (when the plan shape supports it) the metadata incremental
/// maintenance needs to evolve the entry under writes instead of dropping
/// it. A CachedResult is immutable once published — maintenance builds a
/// *successor* CachedResult and swaps it in via Replace().
struct CachedResult {
  std::vector<Attribute> attrs;
  std::shared_ptr<const std::vector<Row>> rows;
  /// Estimated footprint of `rows` (EstimatedRowsBytes), reported as
  /// bytes_served on a hit.
  int64_t bytes = 0;
  /// Dominance matrix over `rows` on the recipe's dimensions (matrix row i
  /// is rows[i]). An entry fresh from a query has none; its first
  /// maintenance builds one and every successor carries it forward, so a
  /// write re-projects only the inserted rows. Never mutated — a successor
  /// that changed rows gets a new matrix.
  std::shared_ptr<const skyline::DominanceMatrix> matrix;
  /// matrix->MemoryBytes(), or 0 without a matrix.
  int64_t matrix_bytes = 0;
  /// The fingerprint this entry is stored under (retained so maintenance
  /// can rewrite the canonical's table version and re-key the successor).
  PlanFingerprint fingerprint;
  /// How to delta-maintain this entry under InsertInto; null = the plan
  /// shape is invalidation-only.
  std::shared_ptr<const DeltaRecipe> recipe;
  /// Version of the scanned-table snapshot this entry reflects (only set
  /// when `recipe` is; the maintainer advances it on every applied delta
  /// and uses it to gate out-of-order/gapped write events).
  uint64_t table_version = 0;
  /// Write deltas this entry has absorbed since it was first computed
  /// (surfaced as QueryMetrics::cache_delta_maintained on hits).
  int64_t delta_count = 0;

  /// The footprint charged against the cache's byte budget: the rows plus
  /// the retained matrix.
  int64_t charged_bytes() const { return bytes + matrix_bytes; }
};

/// \brief Sharded, TTL-aware, byte-budgeted LRU result cache.
class ResultCache {
 public:
  struct Options {
    int64_t capacity_bytes = 256ll << 20;
    /// Entry time-to-live in milliseconds (0 = never expires).
    int64_t ttl_ms = 0;
    /// Number of independent LRU shards (>=1). Tests pin 1 shard to make
    /// eviction order deterministic.
    int num_shards = 8;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;      ///< budget-driven drops
    int64_t expirations = 0;    ///< TTL-driven drops
    int64_t invalidations = 0;  ///< catalog-write-driven drops
    int64_t resident_bytes = 0;
    int64_t entries = 0;
  };

  explicit ResultCache(const Options& options);

  /// Returns the entry for `fp`, refreshing its LRU position, or nullptr
  /// on miss/expiry. Counts a hit or a miss.
  std::shared_ptr<const CachedResult> Lookup(const PlanFingerprint& fp);

  /// Inserts (or replaces) the entry for `fp`, evicting least-recently-used
  /// entries of the same shard until the shard's budget share is met.
  /// Entries larger than the shard budget are not admitted (that is OK, not
  /// an error). Fails only under injected faults (failpoint
  /// "serve.cache_insert"); callers are expected to degrade to uncached
  /// serving — a cache-insert failure must never fail the query.
  Status Insert(const PlanFingerprint& fp,
                std::shared_ptr<const CachedResult> entry);

  /// Drops exactly the entries whose fingerprint referenced `table_name`
  /// (lower-cased catalog key).
  void InvalidateTable(const std::string& table_name);

  /// Snapshot of the resident (non-expired) entries whose fingerprint
  /// references `table_name` — the incremental maintainer's work list.
  /// Touches no LRU positions and no hit/miss counters.
  std::vector<std::shared_ptr<const CachedResult>> EntriesForTable(
      const std::string& table_name);

  /// Removes the entry for `fp` iff its stored result is still `expected`
  /// (compare-and-swap against concurrent Insert/Replace; a changed entry
  /// is left alone). Counted as an invalidation when it removes.
  void Remove(const PlanFingerprint& fp,
              const std::shared_ptr<const CachedResult>& expected);

  /// Atomically replaces the entry under `old_fp` — iff its stored result
  /// is still `expected` — with `next`, keyed under next->fingerprint
  /// (which may live in a different shard; both shard locks are taken in
  /// address order). Returns false, modifying nothing, when the old entry
  /// changed or vanished concurrently. Not counted as hit/miss/eviction;
  /// the byte budget moves from the old entry's footprint to the new one's.
  bool Replace(const PlanFingerprint& old_fp,
               const std::shared_ptr<const CachedResult>& expected,
               std::shared_ptr<const CachedResult> next);

  /// Drops everything.
  void Clear();

  /// Drops every expired entry of every shard, releasing its byte
  /// reservation and reverse-index slots. Expiry is otherwise enforced
  /// lazily — on lookup of the expired key itself plus an LRU-tail sweep on
  /// every lookup/insert — so entries that are neither re-probed nor at the
  /// tail can outlive their TTL until this full sweep (or budget pressure)
  /// reclaims them.
  void PurgeExpired();

  Stats stats() const;

  /// Budget/TTL are adjustable at runtime (SetConf); shrinking the budget
  /// evicts immediately.
  void set_capacity_bytes(int64_t bytes);
  void set_ttl_ms(int64_t ttl_ms) { ttl_ms_.store(ttl_ms); }
  int64_t capacity_bytes() const { return capacity_bytes_.load(); }
  int64_t ttl_ms() const { return ttl_ms_.load(); }

  /// The tracker the budget is charged through (resident bytes).
  const MemoryTracker& memory() const { return memory_; }

 private:
  struct Entry {
    std::shared_ptr<const CachedResult> result;
    std::vector<std::string> tables;
    int64_t inserted_nanos = 0;
    std::list<std::string>::iterator lru_it;  // position in Shard::lru
  };

  struct Shard {
    mutable sl::Mutex mu;
    /// Most-recently-used at the front.
    std::list<std::string> lru SL_GUARDED_BY(mu);
    std::unordered_map<std::string, Entry> entries SL_GUARDED_BY(mu);
    /// table name -> keys of resident entries referencing it.
    std::unordered_map<std::string, std::vector<std::string>> by_table
        SL_GUARDED_BY(mu);
    int64_t bytes SL_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const PlanFingerprint& fp) {
    return shards_[fp.hash_lo % shards_.size()];
  }
  int64_t PerShardBudget() const {
    return capacity_bytes_.load() / static_cast<int64_t>(shards_.size());
  }
  /// Removes `it` from all shard structures; caller holds shard.mu.
  void RemoveLocked(Shard* shard,
                    std::unordered_map<std::string, Entry>::iterator it)
      SL_REQUIRES(shard->mu);
  /// Admits `entry` under `key` (replacing any current entry) and evicts to
  /// budget; caller holds shard.mu. Shared by Insert and Replace.
  void InsertLocked(Shard* shard, std::string key,
                    std::shared_ptr<const CachedResult> entry,
                    std::vector<std::string> tables) SL_REQUIRES(shard->mu);
  /// Evicts LRU entries until the shard fits its budget; caller holds mu.
  void EvictToBudgetLocked(Shard* shard) SL_REQUIRES(shard->mu);
  /// Drops expired entries from the LRU tail (stops at the first live one);
  /// caller holds mu. Runs on every lookup and insert so cold expired
  /// entries release their reservation without waiting for budget pressure.
  void SweepExpiredTailLocked(Shard* shard, int64_t now_nanos)
      SL_REQUIRES(shard->mu);
  /// Swaps `old_fp`'s entry (iff still `expected`) for `next` keyed under
  /// next->fingerprint; caller holds BOTH src->mu and dst->mu (the same
  /// lock held once when the shards coincide — callers in that branch must
  /// pass the same pointer twice so the analysis sees one capability).
  bool ReplaceLocked(Shard* src, Shard* dst, const PlanFingerprint& old_fp,
                     const std::shared_ptr<const CachedResult>& expected,
                     std::shared_ptr<const CachedResult> next)
      SL_REQUIRES(src->mu, dst->mu);
  bool Expired(const Entry& entry, int64_t now_nanos) const;

  std::vector<Shard> shards_;
  std::atomic<int64_t> capacity_bytes_;
  std::atomic<int64_t> ttl_ms_;
  MemoryTracker memory_;

  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> expirations_{0};
  std::atomic<int64_t> invalidations_{0};

  // Process-wide registry mirrors of the counters above, resolved once at
  // construction. The per-instance atomics stay: stats() reports one cache,
  // the registry aggregates the process.
  metrics::Counter* hits_counter_;
  metrics::Counter* misses_counter_;
  metrics::Counter* evictions_counter_;
  metrics::Counter* expirations_counter_;
  metrics::Counter* invalidations_counter_;
};

}  // namespace serve
}  // namespace sparkline
