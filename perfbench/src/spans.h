// The benchmark's own span recorder. Spans are taken around public library
// calls, kept in memory, and written once when the run ends: as Chrome
// trace events, and as per-operation self times per layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< a string literal: the layer, or the operation kind
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;    ///< index of the enclosing span; -1 for an operation
  int64_t op;        ///< operation id, shared by every span of one operation
};

/// One traced operation: its wall time and each layer's self time (a
/// span's duration minus the time its child spans cover). The operation's
/// own self time, outside every layer span, is api.unattributed.
struct OpTimes {
  int64_t op = 0;
  const char* kind = "";
  double wall_ms = 0;
  std::map<std::string, double> self_ms;
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one (an operation when none is
  /// open) and returns its index.
  size_t Open(const char* name);
  void Close(size_t index);

  size_t num_ops() const { return next_op_; }
  std::vector<OpTimes> SelfTimes() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  int64_t next_op_ = 0;
};

/// Opens a span for the scope's lifetime; does nothing with a null log.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto InSpan(SpanLog* log, const char* name, Fn&& fn) {
  SpanScope scope(log, name);
  return std::forward<Fn>(fn)();
}

}  // namespace perfbench
