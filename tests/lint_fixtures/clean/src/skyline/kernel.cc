namespace sparkline {
namespace skyline {

int CheckedBlockScan(const Block& block, const SkylineOptions& options) {
  DeadlineChecker deadline(options);
  int survivors = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    if (!deadline.Check().ok()) return survivors;
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
