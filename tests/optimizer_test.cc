// Tests for the rule-based optimizer, including the skyline-specific rules
// of paper section 5.4 and the Listing-4 reference rewriting.
#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "analysis/analyzer.h"
#include "optimizer/optimizer.h"
#include "plan/plan_clone.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    Schema listings({Field{"id", DataType::Int64(), false},
                     Field{"price", DataType::Double(), false},
                     Field{"rating", DataType::Double(), true},
                     Field{"host", DataType::Int64(), false}});
    auto listings_table = std::make_shared<Table>("listings", listings);
    listings_table->constraints().primary_key = {"id"};
    listings_table->constraints().foreign_keys.push_back(
        TableConstraints::ForeignKey{
            {"host"}, "hosts", {"id"}, /*referencing_not_null=*/true});
    ASSERT_OK(catalog_->RegisterTable(listings_table));

    Schema hosts({Field{"id", DataType::Int64(), false},
                  Field{"since", DataType::Int64(), false}});
    auto hosts_table = std::make_shared<Table>("hosts", hosts);
    hosts_table->constraints().primary_key = {"id"};
    ASSERT_OK(catalog_->RegisterTable(hosts_table));
  }

  LogicalPlanPtr Analyze(const std::string& sql) {
    auto plan = ParseSql(sql);
    SL_CHECK(plan.ok()) << plan.status().ToString();
    Analyzer analyzer(catalog_);
    auto analyzed = analyzer.Analyze(*plan);
    SL_CHECK(analyzed.ok()) << sql << " -> " << analyzed.status().ToString();
    return *analyzed;
  }

  LogicalPlanPtr Optimize(const std::string& sql, OptimizerOptions opts = {}) {
    Optimizer optimizer(opts);
    auto out = optimizer.Optimize(Analyze(sql));
    SL_CHECK(out.ok()) << out.status().ToString();
    return *out;
  }

  static int CountNodes(const LogicalPlanPtr& plan, PlanKind kind) {
    int n = 0;
    LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& node) {
      if (node->kind() == kind) ++n;
    });
    return n;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(OptimizerTest, ConstantFolding) {
  auto plan = Optimize("SELECT 1 + 2 * 3 AS v FROM listings");
  const auto& project = static_cast<const Project&>(*plan);
  const auto& alias = static_cast<const Alias&>(*project.list()[0]);
  ASSERT_EQ(alias.child()->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const Literal&>(*alias.child()).value().int64_value(),
            7);
}

TEST_F(OptimizerTest, BooleanSimplification) {
  auto plan = Optimize("SELECT id FROM listings WHERE true AND price > 0");
  // "true AND p" collapses to "p".
  bool found_and = false;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    for (const auto& e : n->expressions()) {
      Expression::Foreach(e, [&](const ExprPtr& x) {
        if (x->kind() == ExprKind::kBinary &&
            static_cast<const BinaryExpr&>(*x).op() == BinaryOp::kAnd) {
          found_and = true;
        }
      });
    }
  });
  EXPECT_FALSE(found_and);
}

TEST_F(OptimizerTest, CombinesAndPushesFilters) {
  auto plan = Optimize(
      "SELECT * FROM (SELECT id, price FROM listings) t "
      "WHERE price > 1 AND id < 5");
  // One filter, directly over the scan.
  EXPECT_EQ(CountNodes(plan, PlanKind::kFilter), 1);
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kFilter) {
      EXPECT_EQ(n->children()[0]->kind(), PlanKind::kScan);
    }
  });
}

TEST_F(OptimizerTest, PushFilterThroughJoin) {
  auto plan = Optimize(
      "SELECT * FROM listings l JOIN hosts h ON l.host = h.id "
      "WHERE l.price > 10 AND h.since > 2000");
  // Both single-side predicates move below the join.
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->left()->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->right()->kind(), PlanKind::kFilter);
}

TEST_F(OptimizerTest, NoopProjectEliminated) {
  auto plan = Optimize("SELECT id, price, rating, host FROM listings");
  EXPECT_EQ(plan->kind(), PlanKind::kScan);
}

TEST_F(OptimizerTest, ColumnPruningNarrowsScan) {
  auto plan = Optimize("SELECT price FROM listings");
  const Scan* scan = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kScan) scan = static_cast<const Scan*>(n.get());
  });
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->output().size(), 1u);
  EXPECT_EQ(scan->output()[0].name, "price");
}

TEST_F(OptimizerTest, DistinctBecomesAggregate) {
  auto plan = Optimize("SELECT DISTINCT host FROM listings");
  EXPECT_EQ(CountNodes(plan, PlanKind::kDistinct), 0);
  EXPECT_EQ(CountNodes(plan, PlanKind::kAggregate), 1);
}

TEST_F(OptimizerTest, SingleDimSkylineKeepsSkylineNode) {
  // Section 5.4's scalar MIN/MAX rewrite is not applied: the skyline
  // operator answers a 1-dimensional skyline in one pass, and faster (see
  // "Retired ablations" in docs/ARCHITECTURE.md). Every 1-dim shape keeps
  // its Skyline node and gains no Filter or scalar subquery.
  for (const char* sql :
       {"SELECT * FROM listings SKYLINE OF price MIN",
        "SELECT * FROM listings SKYLINE OF price MAX",
        "SELECT * FROM listings SKYLINE OF rating MAX",
        "SELECT * FROM listings SKYLINE OF COMPLETE rating MAX",
        "SELECT * FROM listings SKYLINE OF DISTINCT price MIN",
        "SELECT * FROM listings SKYLINE OF host DIFF"}) {
    auto plan = Optimize(sql);
    EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 1) << sql;
    EXPECT_EQ(CountNodes(plan, PlanKind::kFilter), 0) << sql;
    EXPECT_EQ(CountNodes(plan, PlanKind::kAggregate), 0) << sql;
  }
}

TEST_F(OptimizerTest, SkylinePushedBelowFkJoin) {
  // listings.host is a declared non-null FK to hosts.id: the inner equi-join
  // is non-reductive, and both dimensions come from the left side.
  auto plan = Optimize(
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  // The skyline is now inside the left join branch.
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 1);
}

TEST_F(OptimizerTest, SkylinePushedBelowLeftOuterJoin) {
  auto plan = Optimize(
      "SELECT l.price, l.rating FROM listings l "
      "LEFT OUTER JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 1);
}

TEST_F(OptimizerTest, SkylineNotPushedWithoutFk) {
  // Join on a non-FK column: reductive, the rule must not fire.
  auto plan = Optimize(
      "SELECT l.price, l.rating FROM listings l "
      "JOIN hosts h ON l.id = h.since "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const SkylineNode* sky = nullptr;
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kSkyline) {
      sky = static_cast<const SkylineNode*>(n.get());
    }
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(sky, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 0);
}

TEST_F(OptimizerTest, SkylineNotPushedWhenDimsUseRightSide) {
  auto plan = Optimize(
      "SELECT l.price, h.since FROM listings l JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, h.since MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 0);
}

TEST_F(OptimizerTest, ReferenceRewriteProducesAntiSelfJoin) {
  OptimizerOptions opts;
  opts.rewrite_skyline_to_reference = true;
  auto plan = Optimize(
      "SELECT price, rating FROM listings SKYLINE OF price MIN, rating MAX",
      opts);
  EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 0);
  const Join* anti = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin &&
        static_cast<const Join&>(*n).join_type() == JoinType::kLeftAnti) {
      anti = static_cast<const Join*>(n.get());
    }
  });
  ASSERT_NE(anti, nullptr);
  // Listing 4 shape: (<= AND >=) AND (< OR >).
  EXPECT_EQ(SplitConjuncts(anti->condition()).size(), 3u);
}

TEST_F(OptimizerTest, ReferenceRewriteAllDiffReturnsChild) {
  OptimizerOptions opts;
  opts.rewrite_skyline_to_reference = true;
  auto plan = Optimize("SELECT * FROM listings SKYLINE OF host DIFF", opts);
  EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 0);
  EXPECT_EQ(CountNodes(plan, PlanKind::kJoin), 0);
}

TEST_F(OptimizerTest, CloneWithFreshIdsRemapsEverything) {
  auto plan = Analyze("SELECT id, price * 2 AS p2 FROM listings WHERE id > 0");
  std::map<ExprId, ExprId> ids;
  auto clone = CloneWithFreshIds(plan, &ids);
  ASSERT_TRUE(clone.ok());
  EXPECT_FALSE(ids.empty());
  // Outputs must be disjoint between original and clone.
  std::set<ExprId> original_ids;
  for (const auto& a : plan->output()) original_ids.insert(a.id);
  for (const auto& a : (*clone)->output()) {
    EXPECT_EQ(original_ids.count(a.id), 0u);
  }
  // The clone must remain internally resolved.
  EXPECT_TRUE((*clone)->resolved());
}

TEST_F(OptimizerTest, FixpointTerminates) {
  // A moderately nested query must optimize without hitting iteration caps.
  auto plan = Optimize(
      "SELECT p FROM (SELECT price AS p FROM ("
      "SELECT id, price FROM listings WHERE price > 0) a WHERE id < 100) b "
      "WHERE p < 500");
  EXPECT_LE(CountNodes(plan, PlanKind::kFilter), 1);
}

/// `plan`'s TreeString with expression ids renumbered in order of first
/// appearance, so two runs of a rule that mints fresh ids (the reference
/// rewrite clones its input) compare equal.
std::string CanonicalTreeString(const LogicalPlanPtr& plan) {
  const std::string tree = plan->TreeString();
  std::map<std::string, int> ids;
  std::string out;
  for (size_t i = 0; i < tree.size();) {
    out += tree[i];
    if (tree[i++] != '#') continue;
    size_t end = i;
    while (end < tree.size() &&
           std::isdigit(static_cast<unsigned char>(tree[end]))) {
      ++end;
    }
    const std::string id = tree.substr(i, end - i);
    if (!id.empty()) {
      out += std::to_string(ids.emplace(id, static_cast<int>(ids.size()))
                                .first->second);
    }
    i = end;
  }
  return out;
}

// The optimizer stops a batch when a pass leaves the plan pointer unchanged.
// Over every query shape of this suite and of sql_e2e_test, each batch must
// reach that fixed point (no "hit max iterations" warning) and produce the
// same plan as iterating until the rendered plan stops changing.
TEST_F(OptimizerTest, IdentityFixedPointMatchesRenderedFixedPoint) {
  const std::vector<std::string> shapes = {
      // optimizer_test
      "SELECT 1 + 2 * 3 AS v FROM listings",
      "SELECT id FROM listings WHERE true AND price > 0",
      "SELECT * FROM (SELECT id, price FROM listings) t "
      "WHERE price > 1 AND id < 5",
      "SELECT * FROM listings l JOIN hosts h ON l.host = h.id "
      "WHERE l.price > 10 AND h.since > 2000",
      "SELECT id, price, rating, host FROM listings",
      "SELECT price FROM listings",
      "SELECT DISTINCT host FROM listings",
      "SELECT * FROM listings SKYLINE OF price MIN",
      "SELECT * FROM listings SKYLINE OF price MAX",
      "SELECT * FROM listings SKYLINE OF rating MAX",
      "SELECT * FROM listings SKYLINE OF COMPLETE rating MAX",
      "SELECT * FROM listings SKYLINE OF DISTINCT price MIN",
      "SELECT * FROM listings SKYLINE OF host DIFF",
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX",
      "SELECT l.price, l.rating FROM listings l "
      "LEFT OUTER JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX",
      "SELECT l.price, l.rating FROM listings l "
      "JOIN hosts h ON l.id = h.since "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX",
      "SELECT l.price, h.since FROM listings l JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, h.since MAX",
      "SELECT price, rating FROM listings SKYLINE OF price MIN, rating MAX",
      "SELECT id, price * 2 AS p2 FROM listings WHERE id > 0",
      "SELECT p FROM (SELECT price AS p FROM ("
      "SELECT id, price FROM listings WHERE price > 0) a WHERE id < 100) b "
      "WHERE p < 500",
      // sql_e2e_test, on this suite's tables
      "SELECT id, price, rating FROM listings SKYLINE OF price MIN, "
      "rating MIN",
      "SELECT id, price, rating FROM listings SKYLINE OF COMPLETE price MIN, "
      "rating MIN",
      "SELECT id, price, rating FROM listings AS o WHERE NOT EXISTS("
      "SELECT * FROM listings AS i WHERE i.price <= o.price AND "
      "i.rating <= o.rating AND (i.price < o.price OR i.rating < o.rating))",
      "SELECT * FROM listings SKYLINE OF DISTINCT price MIN, host MIN",
      "SELECT id, price, rating FROM listings WHERE price > 0.5 "
      "SKYLINE OF price MIN, rating MIN",
      "SELECT id, price, rating FROM listings SKYLINE OF price MIN, "
      "rating MAX",
      "SELECT * FROM listings SKYLINE OF host DIFF, price MIN",
      "SELECT host, min(price) AS cheapest FROM listings GROUP BY host "
      "SKYLINE OF cheapest MIN, avg(rating) MAX ORDER BY host",
      "SELECT id, price, rating FROM listings SKYLINE OF price MIN, "
      "rating MIN ORDER BY price",
      "SELECT id FROM listings SKYLINE OF price MIN, rating MIN "
      "ORDER BY price LIMIT 3",
      "SELECT id, price FROM listings SKYLINE OF price MIN, id MAX",
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id SKYLINE OF l.price MIN, l.rating MAX",
      "SELECT price, rating FROM listings AS o WHERE NOT EXISTS( SELECT * "
      "FROM listings AS i WHERE i.price <= o.price AND i.rating >= o.rating "
      "AND (i.price < o.price OR i.rating > o.rating))",
  };
  for (bool reference : {false, true}) {
    OptimizerOptions opts;
    opts.rewrite_skyline_to_reference = reference;
    Optimizer optimizer(opts);
    for (const auto& sql : shapes) {
      SCOPED_TRACE(StrCat(sql, reference ? " (reference rewrite)" : ""));
      const LogicalPlanPtr analyzed = Analyze(sql);

      ::testing::internal::CaptureStderr();
      auto optimized = optimizer.Optimize(analyzed);
      const std::string log = ::testing::internal::GetCapturedStderr();
      ASSERT_OK(optimized.status());
      EXPECT_EQ(log.find("hit max iterations"), std::string::npos) << log;

      LogicalPlanPtr rendered = analyzed;
      for (const auto& batch : optimizer.batches()) {
        for (int iter = 0; iter < batch.max_iterations; ++iter) {
          const std::string before = rendered->TreeString();
          for (const auto& rule : batch.rules) {
            auto next = rule.apply(rendered);
            ASSERT_OK(next.status());
            rendered = *next;
          }
          if (rendered->TreeString() == before) break;
        }
      }
      EXPECT_EQ(CanonicalTreeString(*optimized),
                CanonicalTreeString(rendered));
    }
  }
}

}  // namespace
}  // namespace sparkline
