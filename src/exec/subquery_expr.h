// Exec-time scalar subquery holder.
//
// The physical planner replaces resolved ScalarSubquery expressions with
// PhysicalSubqueryExpr nodes holding the planned subtree; operators call
// EvaluateSubqueries() once per query to substitute the literal result.
#pragma once

#include "exec/physical_plan.h"

namespace sparkline {

class PhysicalSubqueryExpr : public Expression {
 public:
  PhysicalSubqueryExpr(PhysicalPlanPtr plan, DataType type)
      : Expression(ExprKind::kPhysicalSubquery),
        plan_(std::move(plan)),
        type_(type) {}
  static ExprPtr Make(PhysicalPlanPtr plan, DataType type) {
    return std::make_shared<PhysicalSubqueryExpr>(std::move(plan), type);
  }

  const PhysicalPlanPtr& plan() const { return plan_; }
  DataType type() const override { return type_; }
  bool nullable() const override { return true; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override { return "physical-subquery()"; }

 private:
  PhysicalPlanPtr plan_;
  DataType type_;
};

/// \brief Executes every PhysicalSubqueryExpr in `e` (once) and substitutes
/// its literal result: one row/one column -> the value; zero rows -> NULL;
/// more than one row -> execution error.
Result<ExprPtr> EvaluateSubqueries(const ExprPtr& e, ExecContext* ctx);

}  // namespace sparkline
