#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDull;
  z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ull;
  return z ^ (z >> 33);
}

constexpr uint64_t kNullHash = 0x6A09E667F3BCC908ull;
uint64_t IntHash(int64_t v) { return Mix(static_cast<uint64_t>(v) + 0x1111); }
uint64_t DoubleHash(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 and 0.0 are the same value
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(bits + 0x2222);
}
uint64_t CombineCell(uint64_t row_hash, uint64_t cell_hash) {
  return Mix(row_hash * 31 + cell_hash);
}

double Key(double v, Goal goal) { return goal == Goal::kMin ? v : -v; }

}  // namespace

bool Dominates(const double* p, const double* q, const std::vector<Dim>& dims) {
  bool strictly_better = false;
  for (const Dim& d : dims) {
    const double a = p[d.column];
    const double b = q[d.column];
    if (IsNull(a) || IsNull(b)) continue;
    const double ka = Key(a, d.goal);
    const double kb = Key(b, d.goal);
    if (ka > kb) return false;
    if (ka < kb) strictly_better = true;
  }
  return strictly_better;
}

std::vector<size_t> SkylineBruteForce(const Dataset& in,
                                      const std::vector<Dim>& dims) {
  std::vector<size_t> out;
  for (size_t q = 0; q < in.num_rows(); ++q) {
    bool dominated = false;
    for (size_t p = 0; p < in.num_rows() && !dominated; ++p) {
      dominated = p != q && Dominates(in.row(p), in.row(q), dims);
    }
    if (!dominated) out.push_back(q);
  }
  return out;
}

std::vector<size_t> SkylineRows(const Dataset& in, const std::vector<Dim>& dims) {
  const size_t n = in.num_rows();
  // Group rows by which skyline dimensions are NULL.
  std::vector<uint64_t> mask(n, 0);
  std::map<uint64_t, std::vector<size_t>> groups;
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < dims.size(); ++k) {
      if (IsNull(in.row(r)[dims[k].column])) mask[r] |= uint64_t{1} << k;
    }
    groups[mask[r]].push_back(r);
  }

  std::vector<size_t> candidates;
  std::vector<double> sum(n, 0.0);
  for (auto& [group_mask, rows] : groups) {
    // Inside a group every pair compares on the same dimensions, so
    // dominance is transitive there. Summing the MIN-oriented keys in a
    // fixed order is monotone under rounding: a dominator's sum is never
    // larger. Rows are taken in runs of equal sum; a row is out when a
    // window survivor or any row of its own run dominates it.
    for (size_t r : rows) {
      for (size_t k = 0; k < dims.size(); ++k) {
        if ((group_mask >> k & 1) == 0) {
          sum[r] += Key(in.row(r)[dims[k].column], dims[k].goal);
        }
      }
    }
    std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      return sum[a] != sum[b] ? sum[a] < sum[b] : a < b;
    });
    std::vector<size_t> window;
    for (size_t i = 0; i < rows.size();) {
      size_t j = i;
      while (j < rows.size() && sum[rows[j]] == sum[rows[i]]) ++j;
      std::vector<size_t> run_survivors;
      for (size_t a = i; a < j; ++a) {
        const double* q = in.row(rows[a]);
        bool dominated = false;
        for (size_t w = 0; w < window.size() && !dominated; ++w) {
          dominated = Dominates(in.row(window[w]), q, dims);
        }
        for (size_t b = i; b < j && !dominated; ++b) {
          dominated = b != a && Dominates(in.row(rows[b]), q, dims);
        }
        if (!dominated) run_survivors.push_back(rows[a]);
      }
      window.insert(window.end(), run_survivors.begin(), run_survivors.end());
      i = j;
    }
    candidates.insert(candidates.end(), window.begin(), window.end());
  }

  // Across groups dominance is not transitive: test each survivor against
  // every row of every other group, dominated or not.
  std::vector<size_t> out;
  for (size_t q : candidates) {
    bool dominated = false;
    for (size_t p = 0; p < n && !dominated; ++p) {
      dominated = mask[p] != mask[q] && Dominates(in.row(p), in.row(q), dims);
    }
    if (!dominated) out.push_back(q);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Dataset Take(const Dataset& in, const std::vector<size_t>& rows) {
  Dataset out;
  out.name = in.name;
  out.columns = in.columns;
  out.cells.reserve(rows.size() * in.num_columns());
  for (size_t r : rows) {
    out.cells.insert(out.cells.end(), in.row(r), in.row(r) + in.num_columns());
  }
  return out;
}

Dataset Filter(const Dataset& in,
               const std::function<bool(const double*)>& keep) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    if (keep(in.row(r))) rows.push_back(r);
  }
  return Take(in, rows);
}

Dataset Project(const Dataset& in, const std::vector<size_t>& columns) {
  Dataset out;
  out.name = in.name;
  for (size_t c : columns) out.columns.push_back(in.columns[c]);
  out.cells.reserve(in.num_rows() * columns.size());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    for (size_t c : columns) out.cells.push_back(in.row(r)[c]);
  }
  return out;
}

Dataset Distinct(const Dataset& in) {
  std::set<std::vector<uint64_t>> seen;
  std::vector<size_t> rows;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    std::vector<uint64_t> key(in.num_columns());
    for (size_t c = 0; c < in.num_columns(); ++c) {
      const double v = in.row(r)[c];
      key[c] = IsNull(v) ? kNullHash : DoubleHash(v);
    }
    if (seen.insert(std::move(key)).second) rows.push_back(r);
  }
  return Take(in, rows);
}

Dataset Join(const Dataset& left, size_t left_key, const Dataset& right,
             size_t right_key) {
  std::unordered_map<double, std::vector<size_t>> index;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    const double k = right.row(r)[right_key];
    if (!IsNull(k)) index[k].push_back(r);
  }
  Dataset out;
  out.name = left.name + "_" + right.name;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  for (size_t l = 0; l < left.num_rows(); ++l) {
    const double k = left.row(l)[left_key];
    if (IsNull(k)) continue;
    const auto it = index.find(k);
    if (it == index.end()) continue;
    for (size_t r : it->second) {
      out.cells.insert(out.cells.end(), left.row(l),
                       left.row(l) + left.num_columns());
      out.cells.insert(out.cells.end(), right.row(r),
                       right.row(r) + right.num_columns());
    }
  }
  return out;
}

Dataset CountRows(const Dataset& in) {
  Dataset out;
  out.name = "count";
  out.columns = {{"count", true}};
  out.AddRow({static_cast<double>(in.num_rows())});
  return out;
}

Dataset OrderLimit(const Dataset& in, const std::vector<size_t>& columns,
                   size_t limit) {
  std::vector<size_t> rows(in.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    for (size_t c : columns) {
      if (in.row(a)[c] != in.row(b)[c]) return in.row(a)[c] < in.row(b)[c];
    }
    return false;
  });
  rows.resize(std::min(limit, rows.size()));
  return Take(in, rows);
}

void Digest::Add(uint64_t row_hash) {
  rows += 1;
  sum_a += Mix(row_hash ^ 0x243F6A8885A308D3ull);
  sum_b += Mix(row_hash ^ 0x13198A2E03707344ull);
}

void Digest::Remove(uint64_t row_hash) {
  rows -= 1;
  sum_a -= Mix(row_hash ^ 0x243F6A8885A308D3ull);
  sum_b -= Mix(row_hash ^ 0x13198A2E03707344ull);
}

uint64_t RowHash(const Dataset& data, const double* row) {
  uint64_t h = data.num_columns();
  for (size_t c = 0; c < data.num_columns(); ++c) {
    const double v = row[c];
    h = CombineCell(h, IsNull(v) ? kNullHash
                       : data.columns[c].is_int
                           ? IntHash(static_cast<int64_t>(v))
                           : DoubleHash(v));
  }
  return h;
}

Digest DigestOf(const Dataset& data) {
  Digest d;
  for (size_t r = 0; r < data.num_rows(); ++r) d.Add(RowHash(data, data.row(r)));
  return d;
}

Digest DigestOf(const std::vector<sparkline::Row>& rows) {
  Digest d;
  for (const sparkline::Row& row : rows) {
    uint64_t h = row.size();
    for (const sparkline::Value& v : row) {
      uint64_t cell = 0x3333;  // BOOL / VARCHAR: never produced by the oracle
      if (v.is_null()) {
        cell = kNullHash;
      } else if (v.type().id() == sparkline::TypeId::kInt64) {
        cell = IntHash(v.int64_value());
      } else if (v.type().id() == sparkline::TypeId::kDouble) {
        cell = DoubleHash(v.double_value());
      }
      h = CombineCell(h, cell);
    }
    d.Add(h);
  }
  return d;
}

// --- self-test ----------------------------------------------------------

namespace {

Dataset Points(const std::vector<std::vector<double>>& rows) {
  Dataset d;
  d.name = "t";
  for (size_t c = 0; c < rows[0].size(); ++c) {
    d.columns.push_back({"c" + std::to_string(c), false, true});
  }
  for (const auto& r : rows) d.AddRow(r);
  return d;
}

bool Expect(const char* name, const Dataset& in, const std::vector<Dim>& dims,
            const std::vector<size_t>& expected) {
  const std::vector<size_t> brute = SkylineBruteForce(in, dims);
  const std::vector<size_t> fast = SkylineRows(in, dims);
  if (brute == expected && fast == expected) return true;
  std::fprintf(stderr, "oracle self-test failed: %s (brute %zu rows, fast %zu, "
               "expected %zu)\n", name, brute.size(), fast.size(),
               expected.size());
  return false;
}

}  // namespace

bool OracleSelfTest() {
  const Dim min0{0, Goal::kMin}, min1{1, Goal::kMin}, min2{2, Goal::kMin};
  bool ok = true;
  // Exact duplicates both stay; (2,2) loses to (1,2) only on dimension 0.
  ok &= Expect("ties and duplicates",
               Points({{1, 2}, {1, 2}, {2, 1}, {2, 2}}), {min0, min1},
               {0, 1, 2});
  // price MIN, rating MAX: (10,5) beats (12,5) and (10,4); (8,3) is cheaper.
  ok &= Expect("MIN/MAX mix", Points({{10, 5}, {12, 5}, {10, 4}, {8, 3}}),
               {min0, Dim{1, Goal::kMax}}, {0, 3});
  // p beats q on c0, q beats r on c1, r beats p on c2: every row is
  // dominated, although no row dominates two others.
  ok &= Expect("incomplete cycle",
               Points({{1, kNull, 3}, {2, 1, kNull}, {kNull, 2, 1}}),
               {min0, min1, min2}, {});
  // A row with no non-NULL dimension compares with nothing and stays.
  ok &= Expect("all-NULL row", Points({{kNull, kNull}, {1, 1}, {2, 2}}),
               {min0, min1}, {0, 1});

  // DISTINCT keeps one copy; COUNT and ORDER BY ... LIMIT on a tiny table.
  const Dataset dup = Points({{1, 2}, {1, 2}, {2, 1}});
  ok &= DigestOf(Distinct(dup)) == DigestOf(Points({{1, 2}, {2, 1}}));
  ok &= DigestOf(CountRows(dup)).rows == 1 && CountRows(dup).row(0)[0] == 3;
  ok &= DigestOf(OrderLimit(dup, {1, 0}, 1)) == DigestOf(Points({{2, 1}}));
  // The digest sees the column types: INT 1 and DOUBLE 1.0 differ.
  Dataset as_int = Points({{1}});
  as_int.columns[0].is_int = true;
  ok &= DigestOf(as_int) != DigestOf(Points({{1}}));
  if (!ok) {
    std::fprintf(stderr, "oracle self-test failed: relational operators\n");
    return false;
  }

  // Random small inputs with many ties and NULLs: the fast skyline must
  // equal the brute-force one.
  Rng rng(20230301);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t cols = 2 + trial % 3;
    const double null_rate = trial % 2 == 0 ? 0.0 : 0.25;
    Dataset d = Points({std::vector<double>(cols, 0)});
    d.cells.clear();
    for (int r = 0; r < 60; ++r) {
      std::vector<double> row(cols);
      for (double& v : row) {
        v = rng.Bernoulli(null_rate) ? kNull
                                     : static_cast<double>(rng.UniformInt(0, 6));
      }
      d.AddRow(row);
    }
    std::vector<Dim> dims;
    for (size_t c = 0; c < cols; ++c) {
      dims.push_back({c, rng.Bernoulli(0.5) ? Goal::kMin : Goal::kMax});
    }
    if (SkylineRows(d, dims) != SkylineBruteForce(d, dims)) {
      std::fprintf(stderr, "oracle self-test failed: random trial %d\n", trial);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
