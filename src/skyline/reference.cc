#include "skyline/reference.h"

#include <map>

#include "skyline/kernel_common.h"

namespace sparkline {
namespace skyline {

using internal::CountTest;

Dominance CompareRows(const Row& left, const Row& right,
                      const std::vector<BoundDimension>& dims,
                      NullSemantics nulls) {
  bool left_better = false;
  bool right_better = false;
  for (const auto& d : dims) {
    const Value& l = left[d.ordinal];
    const Value& r = right[d.ordinal];
    if (nulls == NullSemantics::kIncomplete) {
      // Restrict the comparison to dimensions where both are non-null.
      if (l.is_null() || r.is_null()) continue;
    }
    SL_DCHECK(!l.is_null() && !r.is_null())
        << "null skyline value under complete semantics";
    const int cmp = CompareValues(l, r);
    if (cmp == 0) continue;
    switch (d.goal) {
      case SkylineGoal::kDiff:
        // Any difference in a DIFF dimension makes the tuples incomparable.
        return Dominance::kIncomparable;
      case SkylineGoal::kMin:
        if (cmp < 0) {
          left_better = true;
        } else {
          right_better = true;
        }
        break;
      case SkylineGoal::kMax:
        if (cmp > 0) {
          left_better = true;
        } else {
          right_better = true;
        }
        break;
    }
    if (left_better && right_better) return Dominance::kIncomparable;
  }
  if (left_better) return Dominance::kLeftDominates;
  if (right_better) return Dominance::kRightDominates;
  return Dominance::kEqual;
}

std::vector<Row> FlawedGulzarGlobal(const std::vector<Row>& input,
                                    const std::vector<BoundDimension>& dims) {
  // Cluster by null bitmap, in bitmap order (the order is immaterial for the
  // flaw; any fixed order exhibits it).
  std::map<uint32_t, std::vector<Row>> clusters;
  for (const Row& r : input) clusters[NullBitmap(r, dims)].push_back(r);

  std::vector<std::vector<Row>> cluster_list;
  for (auto& [bitmap, rows] : clusters) cluster_list.push_back(std::move(rows));
  std::vector<std::vector<char>> deleted(cluster_list.size());
  for (size_t c = 0; c < cluster_list.size(); ++c) {
    deleted[c].assign(cluster_list[c].size(), 0);
  }

  for (size_t ci = 0; ci < cluster_list.size(); ++ci) {
    for (size_t pi = 0; pi < cluster_list[ci].size(); ++pi) {
      if (deleted[ci][pi]) continue;
      bool flagged = false;
      for (size_t cj = ci + 1; cj < cluster_list.size(); ++cj) {
        for (size_t qj = 0; qj < cluster_list[cj].size(); ++qj) {
          if (deleted[cj][qj]) continue;
          const Dominance dom =
              CompareRows(cluster_list[ci][pi], cluster_list[cj][qj], dims,
                          NullSemantics::kIncomplete);
          if (dom == Dominance::kLeftDominates) {
            // THE FLAW: eager deletion; q can no longer eliminate anyone.
            deleted[cj][qj] = 1;
          } else if (dom == Dominance::kRightDominates) {
            flagged = true;
          }
        }
      }
      if (flagged) deleted[ci][pi] = 1;
    }
  }
  std::vector<Row> result;
  for (size_t c = 0; c < cluster_list.size(); ++c) {
    for (size_t i = 0; i < cluster_list[c].size(); ++i) {
      if (!deleted[c][i]) result.push_back(cluster_list[c][i]);
    }
  }
  return result;
}

std::vector<Row> BruteForceSkyline(const std::vector<Row>& input,
                                   const std::vector<BoundDimension>& dims,
                                   const SkylineOptions& options) {
  std::vector<Row> result;
  std::vector<uint32_t> bitmaps(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    bitmaps[i] = NullBitmap(input[i], dims);
  }
  for (size_t i = 0; i < input.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < input.size() && !dominated; ++j) {
      if (i == j) continue;
      CountTest(options);
      const Dominance dom =
          CompareRows(input[j], input[i], dims, options.nulls);
      if (dom == Dominance::kLeftDominates) dominated = true;
      if (options.distinct && dom == Dominance::kEqual && j < i &&
          bitmaps[i] == bitmaps[j]) {
        dominated = true;  // keep only the first of a duplicate group
      }
    }
    if (!dominated) result.push_back(input[i]);
  }
  return result;
}

}  // namespace skyline
}  // namespace sparkline
