// The expression tree shared by the parser, analyzer, optimizer and executor.
//
// Like Spark's Catalyst, resolved column references carry globally unique
// expression ids (ExprId). Ids are what make self-joins (the reference
// skyline rewriting is a self anti-join!) and the Listing-6/7 analyzer rules
// unambiguous.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace sparkline {

class LogicalPlan;  // from src/plan; expressions hold subquery plans opaquely
using PlanPtr = std::shared_ptr<const LogicalPlan>;

using ExprId = int64_t;
/// Mints a process-unique expression id.
ExprId NextExprId();

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// \brief A resolved, uniquely identified column produced by a plan node.
struct Attribute {
  std::string name;
  DataType type;
  bool nullable = true;
  ExprId id = 0;
  /// Table alias qualifier ("o" in "o.price"), empty if none.
  std::string qualifier;

  /// Wraps this attribute in an AttributeRef expression.
  ExprPtr ToRef() const;
  /// "o.price#12".
  std::string ToString() const;
  Field ToField() const { return Field{name, type, nullable}; }
};

enum class ExprKind : uint8_t {
  kLiteral,
  kUnresolvedAttribute,
  kAttributeRef,
  kBoundReference,
  kAlias,
  kBinary,
  kUnary,
  kCast,
  kFunctionCall,
  kAggregate,
  kSkylineDimension,
  kExistsSubquery,
  kScalarSubquery,
  /// Exec-time holder of a planned scalar subquery (defined in src/exec).
  kPhysicalSubquery,
  kOuterRef,
  kStar,
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

bool IsComparisonOp(BinaryOp op);
bool IsArithmeticOp(BinaryOp op);
bool IsLogicalOp(BinaryOp op);
const char* BinaryOpSymbol(BinaryOp op);

enum class UnaryOp : uint8_t { kNot, kNegate, kIsNull, kIsNotNull };

/// Aggregate functions supported by the Aggregate operator.
enum class AggFn : uint8_t { kCountStar, kCount, kSum, kMin, kMax, kAvg };
const char* AggFnName(AggFn fn);

/// Scalar builtins.
enum class BuiltinFn : uint8_t {
  kIfNull,
  kCoalesce,
  kAbs,
  kLeast,
  kGreatest,
  kRound,
};

/// \brief Direction of a skyline dimension (paper Definition 3.1):
/// MIN/MAX dimensions are optimized, DIFF dimensions partition comparability.
enum class SkylineGoal : uint8_t { kMin, kMax, kDiff };
const char* SkylineGoalName(SkylineGoal goal);

/// \brief Base class of all expression nodes. Immutable; rewritten
/// functionally via WithNewChildren/Transform.
class Expression : public std::enable_shared_from_this<Expression> {
 public:
  explicit Expression(ExprKind kind) : kind_(kind) {}
  virtual ~Expression() = default;

  ExprKind kind() const { return kind_; }

  /// Output type; only meaningful once resolved().
  virtual DataType type() const = 0;
  virtual bool nullable() const { return true; }
  /// True when this node and all children are resolved (no unresolved
  /// attributes / functions left).
  virtual bool resolved() const;

  virtual std::vector<ExprPtr> children() const = 0;
  /// Rebuilds this node with new children (same arity).
  virtual ExprPtr WithNewChildren(std::vector<ExprPtr> children) const = 0;

  virtual std::string ToString() const = 0;

  /// True if any node in this tree is an AggregateExpr.
  bool ContainsAggregate() const;

  /// Semantic equality via canonical rendering (ids included).
  bool SameAs(const Expression& other) const {
    return ToString() == other.ToString();
  }

  /// Bottom-up functional rewrite: children first, then `fn` on the node.
  static ExprPtr Transform(const ExprPtr& e,
                           const std::function<ExprPtr(const ExprPtr&)>& fn);
  /// Pre-order visit of all nodes.
  static void Foreach(const ExprPtr& e,
                      const std::function<void(const ExprPtr&)>& fn);

 private:
  ExprKind kind_;
};

/// \brief A constant value.
class Literal : public Expression {
 public:
  explicit Literal(Value value)
      : Expression(ExprKind::kLiteral), value_(std::move(value)) {}
  static ExprPtr Make(Value v) {
    return std::make_shared<Literal>(std::move(v));
  }

  const Value& value() const { return value_; }
  DataType type() const override { return value_.type(); }
  bool nullable() const override { return value_.is_null(); }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  Value value_;
};

/// \brief A not-yet-resolved column name, possibly qualified ("o.price").
class UnresolvedAttribute : public Expression {
 public:
  explicit UnresolvedAttribute(std::vector<std::string> parts)
      : Expression(ExprKind::kUnresolvedAttribute), parts_(std::move(parts)) {}
  static ExprPtr Make(std::vector<std::string> parts) {
    return std::make_shared<UnresolvedAttribute>(std::move(parts));
  }

  const std::vector<std::string>& parts() const { return parts_; }
  DataType type() const override { return DataType::Int64(); }
  bool resolved() const override { return false; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  std::vector<std::string> parts_;
};

/// \brief A resolved reference to an attribute of a child plan.
class AttributeRef : public Expression {
 public:
  explicit AttributeRef(Attribute attr)
      : Expression(ExprKind::kAttributeRef), attr_(std::move(attr)) {}
  static ExprPtr Make(Attribute attr) {
    return std::make_shared<AttributeRef>(std::move(attr));
  }

  const Attribute& attr() const { return attr_; }
  DataType type() const override { return attr_.type; }
  bool nullable() const override { return attr_.nullable; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override { return attr_.ToString(); }

 private:
  Attribute attr_;
};

/// \brief A physical, ordinal-bound column reference (post-binding).
class BoundReference : public Expression {
 public:
  BoundReference(size_t ordinal, DataType type, bool nullable)
      : Expression(ExprKind::kBoundReference),
        ordinal_(ordinal),
        type_(type),
        nullable_(nullable) {}
  static ExprPtr Make(size_t ordinal, DataType type, bool nullable) {
    return std::make_shared<BoundReference>(ordinal, type, nullable);
  }

  size_t ordinal() const { return ordinal_; }
  DataType type() const override { return type_; }
  bool nullable() const override { return nullable_; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  size_t ordinal_;
  DataType type_;
  bool nullable_;
};

/// \brief Names an expression and assigns it a stable ExprId
/// ("expr AS name"). The named output column is ToAttribute().
class Alias : public Expression {
 public:
  Alias(ExprPtr child, std::string name, ExprId id = NextExprId())
      : Expression(ExprKind::kAlias),
        child_(std::move(child)),
        name_(std::move(name)),
        id_(id) {}
  static ExprPtr Make(ExprPtr child, std::string name) {
    return std::make_shared<Alias>(std::move(child), std::move(name));
  }

  const ExprPtr& child() const { return child_; }
  const std::string& name() const { return name_; }
  ExprId id() const { return id_; }
  Attribute ToAttribute() const {
    return Attribute{name_, child_->type(), child_->nullable(), id_, ""};
  }

  DataType type() const override { return child_->type(); }
  bool nullable() const override { return child_->nullable(); }
  std::vector<ExprPtr> children() const override { return {child_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<Alias>(c[0], name_, id_);
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
  std::string name_;
  ExprId id_;
};

/// \brief Binary operators, including SQL three-valued AND/OR.
class BinaryExpr : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : Expression(ExprKind::kBinary),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  static ExprPtr Make(BinaryOp op, ExprPtr l, ExprPtr r) {
    return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r));
  }

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  DataType type() const override;
  bool nullable() const override {
    return left_->nullable() || right_->nullable();
  }
  std::vector<ExprPtr> children() const override { return {left_, right_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<BinaryExpr>(op_, c[0], c[1]);
  }
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// \brief NOT / unary minus / IS [NOT] NULL.
class UnaryExpr : public Expression {
 public:
  UnaryExpr(UnaryOp op, ExprPtr child)
      : Expression(ExprKind::kUnary), op_(op), child_(std::move(child)) {}
  static ExprPtr Make(UnaryOp op, ExprPtr c) {
    return std::make_shared<UnaryExpr>(op, std::move(c));
  }

  UnaryOp op() const { return op_; }
  const ExprPtr& child() const { return child_; }

  DataType type() const override {
    switch (op_) {
      case UnaryOp::kNegate:
        return child_->type();
      default:
        return DataType::Bool();
    }
  }
  bool nullable() const override {
    return (op_ == UnaryOp::kIsNull || op_ == UnaryOp::kIsNotNull)
               ? false
               : child_->nullable();
  }
  std::vector<ExprPtr> children() const override { return {child_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<UnaryExpr>(op_, c[0]);
  }
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr child_;
};

/// \brief CAST(child AS type).
class Cast : public Expression {
 public:
  Cast(ExprPtr child, DataType target)
      : Expression(ExprKind::kCast), child_(std::move(child)), target_(target) {}
  static ExprPtr Make(ExprPtr c, DataType t) {
    return std::make_shared<Cast>(std::move(c), t);
  }

  const ExprPtr& child() const { return child_; }
  DataType type() const override { return target_; }
  bool nullable() const override { return child_->nullable(); }
  std::vector<ExprPtr> children() const override { return {child_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<Cast>(c[0], target_);
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
  DataType target_;
};

/// \brief A scalar builtin call. Parsed by name; the analyzer binds `fn`.
class FunctionCall : public Expression {
 public:
  FunctionCall(std::string name, std::vector<ExprPtr> args,
               std::optional<BuiltinFn> fn = std::nullopt)
      : Expression(ExprKind::kFunctionCall),
        name_(std::move(name)),
        args_(std::move(args)),
        fn_(fn) {}
  static ExprPtr Make(std::string name, std::vector<ExprPtr> args) {
    return std::make_shared<FunctionCall>(std::move(name), std::move(args));
  }

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::optional<BuiltinFn> fn() const { return fn_; }
  ExprPtr WithFn(BuiltinFn fn) const {
    return std::make_shared<FunctionCall>(name_, args_, fn);
  }

  DataType type() const override;
  bool nullable() const override;
  bool resolved() const override;
  std::vector<ExprPtr> children() const override { return args_; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<FunctionCall>(name_, std::move(c), fn_);
  }
  std::string ToString() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  std::optional<BuiltinFn> fn_;
};

/// \brief An aggregate function invocation; evaluated only by the Aggregate
/// operator (never row-at-a-time).
class AggregateExpr : public Expression {
 public:
  AggregateExpr(AggFn fn, ExprPtr child, bool distinct = false)
      : Expression(ExprKind::kAggregate),
        fn_(fn),
        child_(std::move(child)),
        distinct_(distinct) {}
  static ExprPtr Make(AggFn fn, ExprPtr child, bool distinct = false) {
    return std::make_shared<AggregateExpr>(fn, std::move(child), distinct);
  }

  AggFn fn() const { return fn_; }
  /// Null for COUNT(*).
  const ExprPtr& child() const { return child_; }
  bool distinct() const { return distinct_; }

  DataType type() const override;
  bool nullable() const override {
    // COUNT never returns null; the others do on empty groups.
    return fn_ != AggFn::kCount && fn_ != AggFn::kCountStar;
  }
  bool resolved() const override {
    return child_ == nullptr || child_->resolved();
  }
  std::vector<ExprPtr> children() const override {
    if (child_ == nullptr) return {};
    return {child_};
  }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<AggregateExpr>(fn_, c.empty() ? nullptr : c[0],
                                           distinct_);
  }
  std::string ToString() const override;

 private:
  AggFn fn_;
  ExprPtr child_;
  bool distinct_;
};

/// \brief One skyline dimension: an arbitrary expression plus its goal
/// (MIN / MAX / DIFF). Mirrors the paper's SkylineDimension, which extends
/// Spark's Expression so the generic analyzer machinery resolves its child
/// (section 5.2).
class SkylineDimension : public Expression {
 public:
  SkylineDimension(ExprPtr child, SkylineGoal goal)
      : Expression(ExprKind::kSkylineDimension),
        child_(std::move(child)),
        goal_(goal) {}
  static ExprPtr Make(ExprPtr child, SkylineGoal goal) {
    return std::make_shared<SkylineDimension>(std::move(child), goal);
  }

  const ExprPtr& child() const { return child_; }
  SkylineGoal goal() const { return goal_; }

  DataType type() const override { return child_->type(); }
  bool nullable() const override { return child_->nullable(); }
  std::vector<ExprPtr> children() const override { return {child_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<SkylineDimension>(c[0], goal_);
  }
  std::string ToString() const override;

 private:
  ExprPtr child_;
  SkylineGoal goal_;
};

/// \brief [NOT] EXISTS(subquery). The analyzer decorrelates these into
/// semi/anti joins; none survive to execution.
class ExistsSubquery : public Expression {
 public:
  ExistsSubquery(PlanPtr plan, bool negated)
      : Expression(ExprKind::kExistsSubquery),
        plan_(std::move(plan)),
        negated_(negated) {}
  static ExprPtr Make(PlanPtr plan, bool negated) {
    return std::make_shared<ExistsSubquery>(std::move(plan), negated);
  }

  const PlanPtr& plan() const { return plan_; }
  bool negated() const { return negated_; }

  DataType type() const override { return DataType::Bool(); }
  bool nullable() const override { return false; }
  bool resolved() const override { return false; }  // must be rewritten
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  PlanPtr plan_;
  bool negated_;
};

/// \brief A single-value subquery ("(SELECT min(x) FROM t)"); the physical
/// planner evaluates the subplan once and substitutes the literal.
class ScalarSubquery : public Expression {
 public:
  ScalarSubquery(PlanPtr plan, DataType type, bool nullable, bool resolved)
      : Expression(ExprKind::kScalarSubquery),
        plan_(std::move(plan)),
        type_(type),
        nullable_(nullable),
        resolved_(resolved) {}
  static ExprPtr Make(PlanPtr plan, DataType type, bool nullable,
                      bool resolved) {
    return std::make_shared<ScalarSubquery>(std::move(plan), type, nullable,
                                            resolved);
  }

  const PlanPtr& plan() const { return plan_; }
  DataType type() const override { return type_; }
  bool nullable() const override { return nullable_; }
  bool resolved() const override { return resolved_; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  PlanPtr plan_;
  DataType type_;
  bool nullable_;
  bool resolved_;
};

/// \brief Marks a reference that resolved against an *outer* query scope
/// inside a subquery; the subquery rewriter pulls these up into the join
/// condition.
class OuterRef : public Expression {
 public:
  explicit OuterRef(ExprPtr inner)
      : Expression(ExprKind::kOuterRef), inner_(std::move(inner)) {}
  static ExprPtr Make(ExprPtr inner) {
    return std::make_shared<OuterRef>(std::move(inner));
  }

  const ExprPtr& inner() const { return inner_; }
  DataType type() const override { return inner_->type(); }
  bool nullable() const override { return inner_->nullable(); }
  std::vector<ExprPtr> children() const override { return {inner_}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<OuterRef>(c[0]);
  }
  std::string ToString() const override;

 private:
  ExprPtr inner_;
};

/// \brief "*" or "t.*" in a select list (expanded by the analyzer).
class Star : public Expression {
 public:
  explicit Star(std::string qualifier = "")
      : Expression(ExprKind::kStar), qualifier_(std::move(qualifier)) {}
  static ExprPtr Make(std::string qualifier = "") {
    return std::make_shared<Star>(std::move(qualifier));
  }

  const std::string& qualifier() const { return qualifier_; }
  DataType type() const override { return DataType::Int64(); }
  bool resolved() const override { return false; }
  std::vector<ExprPtr> children() const override { return {}; }
  ExprPtr WithNewChildren(std::vector<ExprPtr>) const override {
    return shared_from_this();
  }
  std::string ToString() const override;

 private:
  std::string qualifier_;
};

/// \brief ORDER BY item.
struct SortOrder {
  ExprPtr expr;
  bool ascending = true;
  bool nulls_first = true;

  std::string ToString() const;
};

/// Collects all AttributeRefs in an expression tree (not descending into
/// subquery plans).
std::vector<Attribute> CollectAttributes(const ExprPtr& e);

/// True if the tree contains an OuterRef node.
bool ContainsOuterRef(const ExprPtr& e);

/// Splits a condition into its top-level AND conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e);

/// Rebuilds a conjunction from conjuncts (nullptr when empty).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace sparkline
