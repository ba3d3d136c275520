// A read made of the same public calls, in the same order, as
// Session::Sql followed by DataFrame::Collect, with a span around each.
#pragma once

#include <string>

#include "api/session.h"
#include "spans.h"

namespace perfbench {

/// Parse, analyze (twice: once for Sql, once inside Execute), and then
/// either the result-cache fingerprint + lookup (cache on) or optimize,
/// physical planning, ExecContext construction, PhysicalPlan::Execute, the
/// plan-root decode, and ExecContext::Finish + destruction. A cache miss
/// is inserted into the cache as Session::Execute does.
sparkline::Result<sparkline::QueryResult> TracedRead(sparkline::Session* session,
                                                     const std::string& sql,
                                                     SpanLog* log);

}  // namespace perfbench
