#include "spans.h"

#include <cstdio>

namespace perfbench {

size_t SpanLog::Open(const char* name) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  const int64_t op = parent < 0 ? next_op_++ : spans_[parent].op;
  spans_.push_back(Span{name, NowNanos(), 0, parent, op});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNanos();
  open_.pop_back();
}

std::vector<OpTimes> SpanLog::SelfTimes() const {
  std::vector<OpTimes> ops(next_op_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur_ms = (s.end_ns - s.start_ns) / 1e6;
    OpTimes& op = ops[s.op];
    if (s.parent < 0) {
      op.op = s.op;
      op.kind = s.name;
      op.wall_ms = dur_ms;
      op.self_ms["api.unattributed"] += dur_ms - child_ms[i];
    } else {
      op.self_ms[s.name] += dur_ms - child_ms[i];
    }
  }
  return ops;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"span\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, static_cast<long long>(s.op), i,
                 static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
