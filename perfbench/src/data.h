// Seeded input generation, owned by the benchmark.
//
// The benchmark makes its own rows instead of calling the library's
// datagen, so that a change to the library cannot change the inputs it is
// measured on. A Dataset is the benchmark's compact copy of a table: one
// double per cell, row-major, NaN for SQL NULL. Integer columns only hold
// values below 2^53, so a double represents them exactly. The oracle reads
// Datasets; the library receives a Table built from one (ToTable).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/table.h"

namespace perfbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform integer in [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Bernoulli(double p) { return Uniform() < p; }
  double Normal(double mean, double stddev);

 private:
  uint64_t state_;
};

/// Zipf over ranks 1..n with exponent s, sampled by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  /// A rank in [1, n].
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

constexpr double kNull = std::numeric_limits<double>::quiet_NaN();
inline bool IsNull(double v) { return std::isnan(v); }

struct Column {
  std::string name;
  bool is_int = false;
  bool nullable = false;
};

struct Dataset {
  std::string name;
  std::vector<Column> columns;
  std::vector<double> cells;  ///< row-major, NaN = NULL

  size_t num_columns() const { return columns.size(); }
  size_t num_rows() const {
    return columns.empty() ? 0 : cells.size() / columns.size();
  }
  const double* row(size_t i) const { return &cells[i * columns.size()]; }
  void AddRow(const std::vector<double>& values) {
    cells.insert(cells.end(), values.begin(), values.end());
  }
  /// Index of the named column; aborts on an unknown name (a bug in the
  /// benchmark's own query definitions).
  size_t Col(const std::string& column) const;
};

/// TPC-DS-shaped store_sales, complete (no NULLs). Ticket numbers run from
/// `first_ticket` upward, so batches made later never collide.
Dataset StoreSales(size_t rows, uint64_t seed, int64_t first_ticket = 1);
/// `rows` points with 4 anti-correlated dimensions d0..d3 in [0, 1].
Dataset AntiCorrelatedPoints(size_t rows, uint64_t seed);
/// Airbnb-shaped listings with NULLs in bedrooms, beds, number_of_reviews
/// and review_scores_rating (about two thirds of rows complete).
Dataset IncompleteListings(size_t rows, uint64_t seed);
/// MusicBrainz-shaped recording(id, length, video) and
/// recording_meta(id, rating, rating_count); every recording id has
/// exactly one recording_meta row.
struct MusicBrainz {
  Dataset recording;
  Dataset recording_meta;
};
MusicBrainz MusicBrainzRecordings(size_t recordings, uint64_t seed);

/// The library rows of `data` (Int64 / Double / typed NULL values).
std::vector<sparkline::Row> ToRows(const Dataset& data);
/// A library table holding `data`; `key` is its primary key.
sparkline::TablePtr ToTable(const Dataset& data,
                            const std::vector<std::string>& key);

}  // namespace perfbench
