#include "data.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace perfbench {

using sparkline::DataType;
using sparkline::Field;
using sparkline::Schema;
using sparkline::Value;

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; 1 - Uniform() is in (0, 1], so the log is finite.
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  return mean + stddev * std::sqrt(-2.0 * std::log(u1)) *
                    std::cos(6.283185307179586 * u2);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(static_cast<int64_t>(it - cdf_.begin()),
                           static_cast<int64_t>(cdf_.size()) - 1) +
         1;
}

size_t Dataset::Col(const std::string& column) const {
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].name == column) return c;
  }
  std::fprintf(stderr, "perfbench: no column %s in %s\n", column.c_str(),
               name.c_str());
  std::abort();
}

namespace {

double Money(double v) { return std::round(v * 100.0) / 100.0; }

}  // namespace

Dataset StoreSales(size_t rows, uint64_t seed, int64_t first_ticket) {
  Dataset d;
  d.name = "store_sales";
  d.columns = {{"ss_item_sk", true},          {"ss_ticket_number", true},
               {"ss_quantity", true},         {"ss_wholesale_cost", false},
               {"ss_list_price", false},      {"ss_sales_price", false},
               {"ss_ext_discount_amt", false}, {"ss_ext_sales_price", false}};
  d.cells.reserve(rows * d.columns.size());
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    // Normal, correlated prices; a low-cardinality quantity; wholesale cost
    // clamped at 1.00, so its minimum is shared by many rows (exact ties).
    const double quantity = static_cast<double>(rng.UniformInt(1, 100));
    const double wholesale = Money(std::max(1.0, rng.Normal(47.0, 18.0)));
    const double list = Money(wholesale * rng.Uniform(1.2, 2.4));
    const double sales = Money(list * rng.Uniform(0.35, 1.0));
    d.AddRow({static_cast<double>(rng.UniformInt(1, 200000)),
              static_cast<double>(first_ticket + static_cast<int64_t>(i)),
              quantity, wholesale, list, sales,
              Money((list - sales) * quantity), Money(sales * quantity)});
  }
  return d;
}

Dataset AntiCorrelatedPoints(size_t rows, uint64_t seed) {
  constexpr size_t kDims = 4;
  Dataset d;
  d.name = "anti";
  d.columns = {{"id", true}};
  for (size_t k = 0; k < kDims; ++k) {
    d.columns.push_back({"d" + std::to_string(k), false});
  }
  d.cells.reserve(rows * d.columns.size());
  Rng rng(seed);
  std::vector<double> row(kDims + 1);
  for (size_t i = 0; i < rows; ++i) {
    // Points near the hyperplane sum(x) = c * dims: good in one dimension
    // means bad in another, which makes the skyline large.
    const double c = std::clamp(rng.Normal(0.5, 0.05), 0.0, 1.0);
    double sum = 0;
    for (size_t k = 0; k < kDims; ++k) sum += (row[k + 1] = rng.Uniform());
    row[0] = static_cast<double>(i);
    for (size_t k = 0; k < kDims; ++k) {
      row[k + 1] = std::clamp(row[k + 1] / sum * c * kDims, 0.0, 1.0);
    }
    d.AddRow(row);
  }
  return d;
}

Dataset IncompleteListings(size_t rows, uint64_t seed) {
  Dataset d;
  d.name = "listings";
  d.columns = {{"id", true},
               {"price", false},
               {"accommodates", true},
               {"bedrooms", true, true},
               {"beds", true, true},
               {"number_of_reviews", true, true},
               {"review_scores_rating", false, true}};
  d.cells.reserve(rows * d.columns.size());
  Rng rng(seed);
  const Zipf accommodates_dist(16, 1.4);
  const Zipf reviews_dist(400, 1.05);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t accommodates = accommodates_dist.Sample(&rng);
    const int64_t bedrooms =
        std::max<int64_t>(1, accommodates / 2 + rng.UniformInt(-1, 1));
    const int64_t beds =
        std::max<int64_t>(1, accommodates + rng.UniformInt(-1, 1));
    // Price grows with capacity plus log-normal noise; ratings cluster
    // near the top and rise slowly with the number of reviews.
    const double price =
        Money(std::exp(3.2 + 0.18 * static_cast<double>(accommodates) +
                       rng.Normal(0.0, 0.55)));
    const int64_t reviews = reviews_dist.Sample(&rng) - 1;
    const double rating = Money(
        20.0 * std::clamp(4.3 + 0.05 * std::log1p(static_cast<double>(reviews)) +
                              rng.Normal(0.0, 0.35),
                          1.0, 5.0));
    std::vector<double> row = {static_cast<double>(i + 1),
                               price,
                               static_cast<double>(accommodates),
                               static_cast<double>(bedrooms),
                               static_cast<double>(beds),
                               static_cast<double>(reviews),
                               rating};
    if (rng.Bernoulli(0.10)) row[3] = kNull;
    if (rng.Bernoulli(0.05)) row[4] = kNull;
    if (rng.Bernoulli(0.02)) row[5] = kNull;
    if ((reviews == 0 && rng.Bernoulli(0.6)) || rng.Bernoulli(0.06)) {
      row[6] = kNull;
    }
    d.AddRow(row);
  }
  return d;
}

MusicBrainz MusicBrainzRecordings(size_t recordings, uint64_t seed) {
  MusicBrainz mb;
  mb.recording.name = "recording";
  mb.recording.columns = {{"id", true}, {"length", true}, {"video", true}};
  mb.recording_meta.name = "recording_meta";
  mb.recording_meta.columns = {
      {"id", true}, {"rating", false, true}, {"rating_count", true, true}};
  Rng rng(seed);
  const Zipf count_dist(2000, 1.2);
  for (size_t i = 0; i < recordings; ++i) {
    const double id = static_cast<double>(i + 1);
    // Lengths are log-normal around 3.5 minutes, in milliseconds; about a
    // third of the recordings carry a rating.
    mb.recording.AddRow({id, std::floor(std::exp(rng.Normal(12.3, 0.45))),
                         rng.Bernoulli(0.08) ? 1.0 : 0.0});
    if (rng.Bernoulli(0.34)) {
      mb.recording_meta.AddRow(
          {id, std::round(std::clamp(rng.Normal(72.0, 18.0), 0.0, 100.0)),
           static_cast<double>(count_dist.Sample(&rng))});
    } else {
      mb.recording_meta.AddRow({id, kNull, kNull});
    }
  }
  return mb;
}

std::vector<sparkline::Row> ToRows(const Dataset& data) {
  std::vector<sparkline::Row> rows;
  rows.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const double* cells = data.row(r);
    sparkline::Row row;
    row.reserve(data.num_columns());
    for (size_t c = 0; c < data.num_columns(); ++c) {
      const bool is_int = data.columns[c].is_int;
      if (IsNull(cells[c])) {
        row.push_back(Value::Null(is_int ? DataType::Int64() : DataType::Double()));
      } else if (is_int) {
        row.push_back(Value::Int64(static_cast<int64_t>(cells[c])));
      } else {
        row.push_back(Value::Double(cells[c]));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

sparkline::TablePtr ToTable(const Dataset& data,
                            const std::vector<std::string>& key) {
  Schema schema;
  for (const Column& c : data.columns) {
    schema.AddField(Field{c.name, c.is_int ? DataType::Int64() : DataType::Double(),
                          c.nullable});
  }
  auto table = std::make_shared<sparkline::Table>(data.name, std::move(schema));
  table->constraints().primary_key = key;
  table->Reserve(data.num_rows());
  for (sparkline::Row& row : ToRows(data)) {
    table->AppendRowUnchecked(std::move(row));
  }
  return table;
}

}  // namespace perfbench
