#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

using sparkline::Status;

namespace {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 1000003 + stream).Next();
}

/// Fisher-Yates with the benchmark's own generator, so the order is the
/// same with every standard library.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Next() % i)]);
  }
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string SkylineClause(const Dataset& d, const std::vector<Dim>& dims) {
  std::string s;
  for (const Dim& dim : dims) {
    if (!s.empty()) s += ", ";
    s += d.columns[dim.column].name + (dim.goal == Goal::kMin ? " MIN" : " MAX");
  }
  return s;
}

Dataset SkylineOf(const Dataset& in, const std::vector<Dim>& dims) {
  return Take(in, SkylineRows(in, dims));
}

Status Register(sparkline::Session* session, const Dataset& data,
                const std::vector<std::string>& key) {
  return session->catalog()->RegisterTable(ToTable(data, key));
}

const std::vector<std::string> kStoreSalesKey = {"ss_ticket_number"};

// --- analyst_mix ----------------------------------------------------------

/// Seven query shapes over four tables, one of each per pass in a seeded
/// order; no result cache.
class AnalystMix : public Workload {
 public:
  static constexpr size_t kStoreSalesRows = 100000;
  static constexpr size_t kPointRows = 50000;
  static constexpr size_t kListingRows = 50000;
  static constexpr size_t kRecordings = 50000;

  explicit AnalystMix(uint64_t seed) : seed_(seed), order_(SubSeed(seed, 100)) {}

  void Prepare() override {
    const Dataset ss = StoreSales(kStoreSalesRows, SubSeed(seed_, 1));
    const Dataset anti = AntiCorrelatedPoints(kPointRows, SubSeed(seed_, 2));
    const Dataset listings = IncompleteListings(kListingRows, SubSeed(seed_, 3));
    const MusicBrainz mb = MusicBrainzRecordings(kRecordings, SubSeed(seed_, 4));
    const auto dim = [](const Dataset& d, const char* col, Goal g) {
      return Dim{d.Col(col), g};
    };
    const Goal kMin = Goal::kMin, kMax = Goal::kMax;

    const std::vector<Dim> ss4 = {
        dim(ss, "ss_quantity", kMax), dim(ss, "ss_wholesale_cost", kMin),
        dim(ss, "ss_list_price", kMin), dim(ss, "ss_ext_discount_amt", kMax)};
    Add("ss_4d", "SELECT * FROM store_sales SKYLINE OF " + SkylineClause(ss, ss4),
        SkylineOf(ss, ss4));

    const size_t qty = ss.Col("ss_quantity");
    const Dataset big_baskets =
        Filter(ss, [qty](const double* r) { return r[qty] > 50; });
    const std::vector<Dim> ss2 = {dim(ss, "ss_sales_price", kMin),
                                  dim(ss, "ss_ext_sales_price", kMax)};
    Add("ss_filter_project",
        "SELECT ss_item_sk, ss_sales_price FROM store_sales "
        "WHERE ss_quantity > 50 SKYLINE OF " + SkylineClause(ss, ss2),
        Project(SkylineOf(big_baskets, ss2),
                {ss.Col("ss_item_sk"), ss.Col("ss_sales_price")}));

    const std::vector<Dim> ss1 = {dim(ss, "ss_wholesale_cost", kMin)};
    Add("ss_1d", "SELECT * FROM store_sales SKYLINE OF " + SkylineClause(ss, ss1),
        SkylineOf(ss, ss1));

    const size_t list = ss.Col("ss_list_price");
    Add("ss_count",
        "SELECT COUNT(*) FROM store_sales WHERE ss_list_price < 80",
        CountRows(Filter(ss, [list](const double* r) { return r[list] < 80; })));

    const std::vector<Dim> a4 = {dim(anti, "d0", kMin), dim(anti, "d1", kMin),
                                 dim(anti, "d2", kMin), dim(anti, "d3", kMin)};
    Add("anti_4d", "SELECT * FROM anti SKYLINE OF " + SkylineClause(anti, a4),
        SkylineOf(anti, a4));

    const std::vector<Dim> l5 = {
        dim(listings, "price", kMin), dim(listings, "accommodates", kMax),
        dim(listings, "bedrooms", kMax), dim(listings, "number_of_reviews", kMax),
        dim(listings, "review_scores_rating", kMax)};
    Add("airbnb_incomplete",
        "SELECT * FROM listings SKYLINE OF " + SkylineClause(listings, l5),
        SkylineOf(listings, l5));

    // recording ⋈ recording_meta on the declared foreign key; the skyline
    // dimensions come from the referencing side only.
    const Dataset joined = Join(mb.recording, 0, mb.recording_meta, 0);
    const std::vector<Dim> j2 = {{1, kMin}, {2, kMax}};  // length, video
    Add("mb_fk_join",
        "SELECT r.id, r.length, r.video, m.rating, m.rating_count "
        "FROM recording r JOIN recording_meta m ON r.id = m.id "
        "SKYLINE OF r.length MIN, r.video MAX",
        Project(SkylineOf(joined, j2), {0, 1, 2, 4, 5}));
  }

  Status Setup() override {
    SL_RETURN_NOT_OK(NewSession());
    sparkline::Session* s = session_.get();
    SL_RETURN_NOT_OK(
        Register(s, StoreSales(kStoreSalesRows, SubSeed(seed_, 1)), kStoreSalesKey));
    SL_RETURN_NOT_OK(
        Register(s, AntiCorrelatedPoints(kPointRows, SubSeed(seed_, 2)), {"id"}));
    SL_RETURN_NOT_OK(
        Register(s, IncompleteListings(kListingRows, SubSeed(seed_, 3)), {"id"}));
    const MusicBrainz mb = MusicBrainzRecordings(kRecordings, SubSeed(seed_, 4));
    sparkline::TablePtr recording = ToTable(mb.recording, {"id"});
    recording->constraints().foreign_keys.push_back(
        {{"id"}, "recording_meta", {"id"}, /*referencing_not_null=*/true});
    SL_RETURN_NOT_OK(Register(s, mb.recording_meta, {"id"}));
    return s->catalog()->RegisterTable(std::move(recording));
  }

  std::vector<Op> NextPass() override {
    std::vector<Op> ops(queries_.size());
    for (size_t i = 0; i < ops.size(); ++i) ops[i].query = static_cast<int>(i);
    Shuffle(&ops, &order_);
    return ops;
  }

 private:
  void Add(const char* shape, std::string sql, const Dataset& expected) {
    queries_.push_back({shape, std::move(sql), DigestOf(expected)});
  }

  uint64_t seed_;
  Rng order_;
};

// --- small_queries --------------------------------------------------------

/// A cycle of distinct 2-3 dimensional skylines with seeded WHERE constants
/// over a 200-row table; some add ORDER BY ... LIMIT or SKYLINE OF DISTINCT.
class SmallQueries : public Workload {
 public:
  static constexpr size_t kRows = 200;
  static constexpr size_t kQueries = 512;

  explicit SmallQueries(uint64_t seed) : seed_(seed) {}

  void Prepare() override {
    const Dataset ss = StoreSales(kRows, SubSeed(seed_, 1));
    const std::vector<size_t> pool = {
        ss.Col("ss_quantity"),         ss.Col("ss_wholesale_cost"),
        ss.Col("ss_list_price"),       ss.Col("ss_sales_price"),
        ss.Col("ss_ext_discount_amt"), ss.Col("ss_ext_sales_price")};
    const size_t ticket = ss.Col("ss_ticket_number");
    Rng rng(SubSeed(seed_, 2));
    std::set<std::string> seen;
    while (queries_.size() < kQueries) {
      const int variant = static_cast<int>(queries_.size() % 4);
      std::vector<size_t> cols = pool;
      Shuffle(&cols, &rng);
      cols.resize(variant == 3 ? 3 : 2 + rng.UniformInt(0, 1));
      std::vector<Dim> dims;
      for (size_t c : cols) {
        dims.push_back({c, rng.Bernoulli(0.5) ? Goal::kMin : Goal::kMax});
      }

      // WHERE on list price or quantity, with a seeded constant.
      std::string where;
      Dataset filtered;
      if (rng.Bernoulli(0.5)) {
        const std::string c = Fixed2(rng.Uniform(40.0, 160.0));
        const double bound = std::strtod(c.c_str(), nullptr);
        const size_t col = ss.Col("ss_list_price");
        where = "ss_list_price < " + c;
        filtered = Filter(ss, [=](const double* r) { return r[col] < bound; });
      } else {
        const int64_t bound = rng.UniformInt(0, 60);
        const size_t col = ss.Col("ss_quantity");
        where = "ss_quantity > " + std::to_string(bound);
        filtered = Filter(ss, [=](const double* r) {
          return r[col] > static_cast<double>(bound);
        });
      }
      const Dataset sky = SkylineOf(filtered, dims);
      const std::string clause = SkylineClause(ss, dims);

      std::string sql;
      Dataset expected;
      if (variant == 1) {
        // ORDER BY ends in the unique ticket number: one right answer.
        const int64_t limit = rng.UniformInt(1, 5);
        sql = "SELECT * FROM store_sales WHERE " + where + " SKYLINE OF " +
              clause + " ORDER BY " + ss.columns[cols[0]].name +
              ", ss_ticket_number LIMIT " + std::to_string(limit);
        expected = OrderLimit(sky, {cols[0], ticket}, static_cast<size_t>(limit));
      } else if (variant == 2) {
        std::string select;
        for (size_t c : cols) {
          select += (select.empty() ? "" : ", ") + ss.columns[c].name;
        }
        sql = "SELECT " + select + " FROM store_sales WHERE " + where +
              " SKYLINE OF DISTINCT " + clause;
        expected = Distinct(Project(sky, cols));
      } else {
        sql = "SELECT * FROM store_sales WHERE " + where + " SKYLINE OF " + clause;
        expected = sky;
      }
      if (!seen.insert(sql).second) continue;
      queries_.push_back({"q" + std::to_string(queries_.size()), std::move(sql),
                          DigestOf(expected)});
    }
  }

  Status Setup() override {
    SL_RETURN_NOT_OK(NewSession());
    return Register(session_.get(), StoreSales(kRows, SubSeed(seed_, 1)),
                    kStoreSalesKey);
  }

  std::vector<Op> NextPass() override {
    std::vector<Op> ops(queries_.size());
    for (size_t i = 0; i < ops.size(); ++i) ops[i].query = static_cast<int>(i);
    return ops;
  }

 private:
  uint64_t seed_;
};

// --- dashboard_writes -------------------------------------------------------

/// Zipf-skewed repeats of 40 maintainable skylines, answered from the
/// result cache, with one insert of 1-8 fresh rows in every ten operations.
class DashboardWrites : public Workload {
 public:
  static constexpr size_t kRows = 50000;
  static constexpr size_t kFilterVariants = 8;
  static constexpr size_t kOpsPerPass = 100;
  static constexpr size_t kWritesPerPass = 10;
  static constexpr double kZipfExponent = 1.1;

  /// Skylines over the first 2..6 dimensions, times the filter variants.
  static constexpr size_t kQueries = 5 * kFilterVariants;

  explicit DashboardWrites(uint64_t seed)
      : seed_(seed), rng_(SubSeed(seed, 2)), zipf_(kQueries, kZipfExponent) {}

  void Prepare() override {
    const Dataset ss = StoreSales(kRows, SubSeed(seed_, 1));
    schema_.columns = ss.columns;
    const std::vector<Dim> all = {
        {ss.Col("ss_quantity"), Goal::kMax},
        {ss.Col("ss_wholesale_cost"), Goal::kMin},
        {ss.Col("ss_list_price"), Goal::kMin},
        {ss.Col("ss_sales_price"), Goal::kMin},
        {ss.Col("ss_ext_discount_amt"), Goal::kMax},
        {ss.Col("ss_ext_sales_price"), Goal::kMax}};
    for (size_t n = 2; n <= all.size(); ++n) {
      Maintained m;
      m.dims.assign(all.begin(), all.begin() + static_cast<long>(n));
      const Dataset sky = SkylineOf(ss, m.dims);
      for (size_t r = 0; r < sky.num_rows(); ++r) {
        m.members.emplace_back(sky.row(r), sky.row(r) + sky.num_columns());
      }
      m.digest = DigestOf(sky);
      skylines_.push_back(std::move(m));
    }
    // The filters keep every row, inserted ones too: they only make each
    // variant a distinct cache entry. Query i has Zipf rank i + 1, so every
    // run of five ranks holds one query of each width (2..6 dimensions) and
    // the seed does not decide whether the head of the stream is narrow or
    // wide.
    for (size_t v = 0; v < kFilterVariants; ++v) {
      for (size_t s = 0; s < skylines_.size(); ++s) {
        query_skyline_.push_back(s);
        queries_.push_back(
            {std::to_string(skylines_[s].dims.size()) + "d_v" + std::to_string(v),
             "SELECT * FROM store_sales WHERE ss_list_price < " +
                 std::to_string(1000000 + v) + " SKYLINE OF " +
                 SkylineClause(ss, skylines_[s].dims),
             skylines_[s].digest});
      }
    }
  }

  Status Setup() override {
    SL_RETURN_NOT_OK(NewSession());
    SL_RETURN_NOT_OK(session_->SetConf("sparkline.cache.enabled", "true"));
    return Register(session_.get(), StoreSales(kRows, SubSeed(seed_, 1)),
                    kStoreSalesKey);
  }

  std::vector<Op> NextPass() override {
    std::vector<size_t> slots(kOpsPerPass);
    for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
    Shuffle(&slots, &rng_);
    std::vector<bool> is_write(kOpsPerPass, false);
    for (size_t i = 0; i < kWritesPerPass; ++i) is_write[slots[i]] = true;

    std::vector<Op> ops(kOpsPerPass);
    for (size_t i = 0; i < kOpsPerPass; ++i) {
      if (!is_write[i]) {
        ops[i].query = static_cast<int>(zipf_.Sample(&rng_) - 1);
        continue;
      }
      const size_t n = static_cast<size_t>(rng_.UniformInt(1, 8));
      auto batch = std::make_shared<Dataset>(
          StoreSales(n, SubSeed(seed_, 1000 + batches_++), next_ticket_));
      next_ticket_ += static_cast<int64_t>(n);
      ops[i].rows = ToRows(*batch);
      ops[i].batch = std::move(batch);
    }
    return ops;
  }

  /// A new row enters each skyline unless a member dominates it, and
  /// evicts the members it dominates (complete data: dominance is
  /// transitive, so members are the only possible dominators).
  void ApplyWrite(const Op& op) override {
    const Dataset& batch = *op.batch;
    for (Maintained& m : skylines_) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        const double* row = batch.row(r);
        bool dominated = false;
        for (const auto& member : m.members) {
          if ((dominated = Dominates(member.data(), row, m.dims))) break;
        }
        if (dominated) continue;
        for (size_t i = 0; i < m.members.size();) {
          if (Dominates(row, m.members[i].data(), m.dims)) {
            m.digest.Remove(RowHash(schema_, m.members[i].data()));
            m.members[i] = std::move(m.members.back());
            m.members.pop_back();
          } else {
            ++i;
          }
        }
        m.members.emplace_back(row, row + batch.num_columns());
        m.digest.Add(RowHash(schema_, row));
      }
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      queries_[q].expected = skylines_[query_skyline_[q]].digest;
    }
  }
  bool cached() const override { return true; }

 private:
  struct Maintained {
    std::vector<Dim> dims;
    std::vector<std::vector<double>> members;
    Digest digest;
  };

  uint64_t seed_;
  Rng rng_;
  Zipf zipf_;
  Dataset schema_;  ///< store_sales' columns (for RowHash)
  std::vector<Maintained> skylines_;
  std::vector<size_t> query_skyline_;
  int64_t next_ticket_ = static_cast<int64_t>(kRows) + 1;
  uint64_t batches_ = 0;
};

}  // namespace

Status Workload::NewSession() {
  session_.reset();  // the previous set-up's tables go first
  session_ = std::make_unique<sparkline::Session>();
  return session_->SetConf("sparkline.executors", "4");
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "analyst_mix") return std::make_unique<AnalystMix>(seed);
  if (name == "small_queries") return std::make_unique<SmallQueries>(seed);
  if (name == "dashboard_writes") return std::make_unique<DashboardWrites>(seed);
  return nullptr;
}

}  // namespace perfbench
