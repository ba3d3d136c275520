// Fixture: a dominance-testing kernel loop that never polls the deadline —
// a timed-out or cancelled query could spin here forever. The
// kernel-deadline rule must flag it.
namespace sparkline {
namespace skyline {

int UncheckedBlockScan(const Block& block) {
  int survivors = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = 0; j < block.size(); ++j) {
      if (block.matrix().Compare(i, j) == Dominance::kLeftDominates) {
        ++survivors;
      }
    }
  }
  return survivors;
}

}  // namespace skyline
}  // namespace sparkline
