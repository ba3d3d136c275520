// The benchmark's oracle: answers computed from the generated rows alone,
// with no call into the library, and compared with the library's answers
// as multiset digests.
//
// Skyline semantics (the paper's): a row p dominates q when, on every
// dimension both rows hold (non-NULL), p is at least as good as q, and on
// one of them strictly better. Rows with no common dimension do not
// compare. Exact ties and duplicates are kept. With complete data this
// relation is transitive; with NULLs it is not, and the oracle never
// relies on transitivity across different NULL patterns.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data.h"
#include "types/value.h"

namespace perfbench {

enum class Goal { kMin, kMax };
struct Dim {
  size_t column;
  Goal goal;
};

bool Dominates(const double* p, const double* q, const std::vector<Dim>& dims);

/// The skyline of `in` (row indices, ascending) by the literal definition:
/// every row tested against every other. O(n^2); the reference for
/// SkylineRows on small inputs.
std::vector<size_t> SkylineBruteForce(const Dataset& in,
                                      const std::vector<Dim>& dims);

/// The same set, fast enough for 10^5 rows. Rows are grouped by which
/// dimensions are NULL; inside a group dominance is transitive, so a
/// sort-by-sum window finds the group's survivors, and every survivor is
/// then tested against every row of every other group.
std::vector<size_t> SkylineRows(const Dataset& in, const std::vector<Dim>& dims);

Dataset Take(const Dataset& in, const std::vector<size_t>& rows);
Dataset Filter(const Dataset& in, const std::function<bool(const double*)>& keep);
Dataset Project(const Dataset& in, const std::vector<size_t>& columns);
/// Rows of `in` with distinct values (first occurrence kept).
Dataset Distinct(const Dataset& in);
/// Inner equi-join; output columns are left's then right's.
Dataset Join(const Dataset& left, size_t left_key, const Dataset& right,
             size_t right_key);
/// One row, one integer column: the number of rows.
Dataset CountRows(const Dataset& in);
/// The first `limit` rows after sorting ascending by `columns` (which must
/// end in a unique key, so the answer is unique).
Dataset OrderLimit(const Dataset& in, const std::vector<size_t>& columns,
                   size_t limit);

/// Order-insensitive digest of a multiset of rows. Two hashes summed over
/// the rows make removal possible (used to keep expected skylines current
/// under writes).
struct Digest {
  uint64_t rows = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;

  void Add(uint64_t row_hash);
  void Remove(uint64_t row_hash);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum_a == o.sum_a && sum_b == o.sum_b;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Hash of one generated row (column types from `data`).
uint64_t RowHash(const Dataset& data, const double* row);
Digest DigestOf(const Dataset& data);
/// Digest of library output rows, hashed exactly as RowHash hashes the
/// generated values (an INT64 value and a DOUBLE value never collide).
Digest DigestOf(const std::vector<sparkline::Row>& rows);

/// Hand-worked cases (ties, duplicates, a MIN/MAX mix, a three-row
/// incomplete-data cycle) and a brute-force cross-check on random inputs.
/// Returns false and prints the failing case when the oracle is wrong.
bool OracleSelfTest();

}  // namespace perfbench
