#include "optimizer/optimizer.h"

#include "common/logging.h"

namespace sparkline {

Optimizer::Optimizer(OptimizerOptions options) : options_(options) {
  using namespace rules;  // NOLINT(build/namespaces)

  RuleBatch finish{"Finish Analysis", 1, {}};
  finish.rules.push_back({"EliminateSubqueryAliases", EliminateSubqueryAliases});
  finish.rules.push_back(
      {"ReplaceDistinctWithAggregate", ReplaceDistinctWithAggregate});
  batches_.push_back(std::move(finish));

  if (options_.rewrite_skyline_to_reference) {
    RuleBatch reference{"Skyline Reference Rewrite", 1, {}};
    reference.rules.push_back({"SkylineToReference", SkylineToReference});
    batches_.push_back(std::move(reference));
  }

  // Section 5.4: move the skyline below non-reductive joins. Section 5.4's
  // other rule, a 1-dimensional skyline as a scalar MIN/MAX lookup, is not
  // applied: the skyline operator answers it faster in one pass
  // (docs/ARCHITECTURE.md, "Retired ablations").
  batches_.push_back({"Skyline Optimizations",
                      options_.max_iterations,
                      {{"PushSkylineThroughJoin", PushSkylineThroughJoin}}});

  batches_.push_back(
      {"Operator Optimizations",
       options_.max_iterations,
       {{"ConstantFolding", ConstantFolding},
        {"SimplifyBooleans", SimplifyBooleans},
        {"CombineFilters", CombineFilters},
        {"PushFilterThroughProject", PushFilterThroughProject},
        {"PushFilterThroughJoin", PushFilterThroughJoin},
        {"CollapseProjects", CollapseProjects},
        {"EliminateNoopProjects", EliminateNoopProjects},
        {"PruneScanColumns", PruneScanColumns}}});
}

Result<LogicalPlanPtr> Optimizer::Optimize(const LogicalPlanPtr& plan) const {
  LogicalPlanPtr current = plan;
  for (const auto& batch : batches_) {
    for (int iter = 0; iter < batch.max_iterations; ++iter) {
      const std::string before = current->TreeString();
      for (const auto& rule : batch.rules) {
        SL_ASSIGN_OR_RETURN(current, rule.apply(current));
      }
      if (current->TreeString() == before) break;
      if (iter == batch.max_iterations - 1 && batch.max_iterations > 1) {
        SL_LOG_WARN << "optimizer batch '" << batch.name
                    << "' hit max iterations without reaching a fixed point";
      }
    }
  }
  return current;
}

}  // namespace sparkline
