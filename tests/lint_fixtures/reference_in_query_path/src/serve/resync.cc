// Fixture: query-path code calling the quadratic reference oracle, which
// polls no deadline. The kernel-deadline rule must flag the call.
namespace sparkline {
namespace serve {

std::vector<Row> Resync(const std::vector<Row>& rows, const Dims& dims) {
  return skyline::BruteForceSkyline(rows, dims, {});
}

}  // namespace serve
}  // namespace sparkline
