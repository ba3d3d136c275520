#include "serve/result_cache.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/timer.h"

namespace sparkline {
namespace serve {

ResultCache::ResultCache(const Options& options)
    : shards_(static_cast<size_t>(std::max(1, options.num_shards))),
      capacity_bytes_(std::max<int64_t>(0, options.capacity_bytes)),
      ttl_ms_(std::max<int64_t>(0, options.ttl_ms)),
      hits_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_cache_hits_total")),
      misses_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_cache_misses_total")),
      evictions_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_cache_evictions_total")),
      expirations_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_cache_expirations_total")),
      invalidations_counter_(metrics::MetricsRegistry::Global().GetCounter(
          "sparkline_cache_invalidations_total")) {}

bool ResultCache::Expired(const Entry& entry, int64_t now_nanos) const {
  const int64_t ttl = ttl_ms_.load();
  return ttl > 0 && now_nanos - entry.inserted_nanos > ttl * 1000000;
}

void ResultCache::RemoveLocked(
    Shard* shard, std::unordered_map<std::string, Entry>::iterator it) {
  const Entry& entry = it->second;
  shard->bytes -= entry.result->charged_bytes();
  memory_.Shrink(entry.result->charged_bytes());
  for (const std::string& table : entry.tables) {
    auto t = shard->by_table.find(table);
    if (t == shard->by_table.end()) continue;
    auto& keys = t->second;
    keys.erase(std::remove(keys.begin(), keys.end(), it->first), keys.end());
    if (keys.empty()) shard->by_table.erase(t);
  }
  shard->lru.erase(entry.lru_it);
  shard->entries.erase(it);
}

void ResultCache::EvictToBudgetLocked(Shard* shard) {
  const int64_t budget = PerShardBudget();
  while (shard->bytes > budget && !shard->lru.empty()) {
    auto it = shard->entries.find(shard->lru.back());
    RemoveLocked(shard, it);
    evictions_.fetch_add(1);
    evictions_counter_->Increment();
  }
}

void ResultCache::SweepExpiredTailLocked(Shard* shard, int64_t now_nanos) {
  if (ttl_ms_.load() <= 0) return;
  while (!shard->lru.empty()) {
    auto it = shard->entries.find(shard->lru.back());
    if (!Expired(it->second, now_nanos)) break;
    RemoveLocked(shard, it);
    expirations_.fetch_add(1);
    expirations_counter_->Increment();
  }
}

std::shared_ptr<const CachedResult> ResultCache::Lookup(
    const PlanFingerprint& fp) {
  Shard& shard = ShardFor(fp);
  const std::string key = fp.Key();
  const int64_t now = StopWatch::NowNanos();
  sl::MutexLock lock(&shard.mu);
  // Release the reservations of cold expired entries even when they are
  // never probed again — an expired entry must not occupy the byte budget
  // (or the per-table reverse index) until LRU pressure pushes it out.
  SweepExpiredTailLocked(&shard, now);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1);
    misses_counter_->Increment();
    return nullptr;
  }
  if (Expired(it->second, now)) {
    RemoveLocked(&shard, it);
    expirations_.fetch_add(1);
    expirations_counter_->Increment();
    misses_.fetch_add(1);
    misses_counter_->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_.fetch_add(1);
  hits_counter_->Increment();
  return it->second.result;
}

void ResultCache::InsertLocked(Shard* shard, std::string key,
                               std::shared_ptr<const CachedResult> entry,
                               std::vector<std::string> tables) {
  auto it = shard->entries.find(key);
  if (it != shard->entries.end()) RemoveLocked(shard, it);

  shard->lru.push_front(key);
  Entry e;
  e.result = std::move(entry);
  e.tables = std::move(tables);
  e.inserted_nanos = StopWatch::NowNanos();
  e.lru_it = shard->lru.begin();
  shard->bytes += e.result->charged_bytes();
  memory_.Grow(e.result->charged_bytes());
  for (const std::string& table : e.tables) {
    shard->by_table[table].push_back(key);
  }
  shard->entries.emplace(std::move(key), std::move(e));
  EvictToBudgetLocked(shard);
}

Status ResultCache::Insert(const PlanFingerprint& fp,
                           std::shared_ptr<const CachedResult> entry) {
  SL_FAILPOINT("serve.cache_insert");
  if (entry == nullptr || entry->charged_bytes() > PerShardBudget()) {
    return Status::OK();
  }
  Shard& shard = ShardFor(fp);
  sl::MutexLock lock(&shard.mu);
  SweepExpiredTailLocked(&shard, StopWatch::NowNanos());
  InsertLocked(&shard, fp.Key(), std::move(entry), fp.tables);
  return Status::OK();
}

void ResultCache::InvalidateTable(const std::string& table_name) {
  for (Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    auto t = shard.by_table.find(table_name);
    if (t == shard.by_table.end()) continue;
    // RemoveLocked edits by_table; detach the key list first.
    std::vector<std::string> keys = std::move(t->second);
    shard.by_table.erase(t);
    for (const std::string& key : keys) {
      auto it = shard.entries.find(key);
      if (it == shard.entries.end()) continue;
      RemoveLocked(&shard, it);
      invalidations_.fetch_add(1);
      invalidations_counter_->Increment();
    }
  }
}

std::vector<std::shared_ptr<const CachedResult>> ResultCache::EntriesForTable(
    const std::string& table_name) {
  std::vector<std::shared_ptr<const CachedResult>> out;
  const int64_t now = StopWatch::NowNanos();
  for (Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    auto t = shard.by_table.find(table_name);
    if (t == shard.by_table.end()) continue;
    for (const std::string& key : t->second) {
      auto it = shard.entries.find(key);
      if (it == shard.entries.end() || Expired(it->second, now)) continue;
      out.push_back(it->second.result);
    }
  }
  return out;
}

void ResultCache::Remove(const PlanFingerprint& fp,
                         const std::shared_ptr<const CachedResult>& expected) {
  Shard& shard = ShardFor(fp);
  sl::MutexLock lock(&shard.mu);
  auto it = shard.entries.find(fp.Key());
  if (it == shard.entries.end() || it->second.result != expected) return;
  RemoveLocked(&shard, it);
  invalidations_.fetch_add(1);
  invalidations_counter_->Increment();
}

bool ResultCache::Replace(const PlanFingerprint& old_fp,
                          const std::shared_ptr<const CachedResult>& expected,
                          std::shared_ptr<const CachedResult> next) {
  if (next == nullptr || next->charged_bytes() > PerShardBudget()) {
    // The successor does not fit the budget; the old entry describes a
    // stale table version, so drop it rather than keep serving it.
    Remove(old_fp, expected);
    return false;
  }
  Shard* src = &ShardFor(old_fp);
  Shard* dst = &ShardFor(next->fingerprint);
  // Three explicit branches instead of conditionally-deferred locks: the
  // thread-safety analysis tracks capabilities syntactically, so each
  // acquisition order (same shard / src-first / dst-first) must be its own
  // scope. The cross-shard branches take both locks in address order — the
  // engine's only two-lock path.
  if (src == dst) {
    sl::MutexLock lock(&src->mu);
    return ReplaceLocked(src, src, old_fp, expected, std::move(next));
  }
  if (src < dst) {
    sl::MutexLock lock_src(&src->mu);
    sl::MutexLock lock_dst(&dst->mu);
    return ReplaceLocked(src, dst, old_fp, expected, std::move(next));
  }
  sl::MutexLock lock_dst(&dst->mu);
  sl::MutexLock lock_src(&src->mu);
  return ReplaceLocked(src, dst, old_fp, expected, std::move(next));
}

bool ResultCache::ReplaceLocked(
    Shard* src, Shard* dst, const PlanFingerprint& old_fp,
    const std::shared_ptr<const CachedResult>& expected,
    std::shared_ptr<const CachedResult> next) {
  auto it = src->entries.find(old_fp.Key());
  if (it == src->entries.end() || it->second.result != expected) return false;
  RemoveLocked(src, it);
  std::string new_key = next->fingerprint.Key();
  std::vector<std::string> tables = next->fingerprint.tables;
  InsertLocked(dst, std::move(new_key), std::move(next), std::move(tables));
  return true;
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    while (!shard.entries.empty()) {
      RemoveLocked(&shard, shard.entries.begin());
      evictions_.fetch_add(1);
      evictions_counter_->Increment();
    }
  }
}

void ResultCache::PurgeExpired() {
  if (ttl_ms_.load() <= 0) return;
  const int64_t now = StopWatch::NowNanos();
  for (Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    // An entry's LRU position is decoupled from its insertion time (hits
    // refresh the position, not the clock), so the full purge scans the
    // map rather than walking the list from the tail.
    std::vector<std::string> expired;
    for (const auto& [key, entry] : shard.entries) {
      if (Expired(entry, now)) expired.push_back(key);
    }
    for (const std::string& key : expired) {
      RemoveLocked(&shard, shard.entries.find(key));
      expirations_.fetch_add(1);
      expirations_counter_->Increment();
    }
  }
}

void ResultCache::set_capacity_bytes(int64_t bytes) {
  capacity_bytes_.store(std::max<int64_t>(0, bytes));
  for (Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    EvictToBudgetLocked(&shard);
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load();
  s.misses = misses_.load();
  s.evictions = evictions_.load();
  s.expirations = expirations_.load();
  s.invalidations = invalidations_.load();
  s.resident_bytes = memory_.current_bytes();
  for (const Shard& shard : shards_) {
    sl::MutexLock lock(&shard.mu);
    s.entries += static_cast<int64_t>(shard.entries.size());
  }
  return s;
}

}  // namespace serve
}  // namespace sparkline
