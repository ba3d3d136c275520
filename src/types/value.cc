#include "types/value.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace sparkline {

namespace {

/// Spark's total order over doubles: NaN equals NaN and sorts above every
/// other value (+inf included); -0.0 equals 0.0.
int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;
  return std::isnan(x) ? (std::isnan(y) ? 0 : 1) : -1;
}

}  // namespace

std::string DataType::ToString() const {
  switch (id_) {
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "?";
}

bool TypesComparable(DataType a, DataType b) {
  if (a == b) return true;
  return a.is_numeric() && b.is_numeric();
}

DataType CommonType(DataType a, DataType b) {
  if (a == b) return a;
  SL_DCHECK(a.is_numeric() && b.is_numeric());
  return DataType::Double();
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null_) return Value::Null(target);
  if (type() == target) return *this;
  switch (target.id()) {
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64) return Value::Double(static_cast<double>(int_));
      if (type_ == TypeId::kBool) return Value::Double(bool_ ? 1.0 : 0.0);
      if (type_ == TypeId::kString) {
        try {
          return Value::Double(std::stod(string_));
        } catch (...) {
          return Status::Invalid(StrCat("cannot cast '", string_, "' to DOUBLE"));
        }
      }
      break;
    case TypeId::kInt64:
      if (type_ == TypeId::kDouble) {
        return Value::Int64(static_cast<int64_t>(std::llround(double_)));
      }
      if (type_ == TypeId::kBool) return Value::Int64(bool_ ? 1 : 0);
      if (type_ == TypeId::kString) {
        int64_t out = 0;
        auto [ptr, ec] =
            std::from_chars(string_.data(), string_.data() + string_.size(), out);
        if (ec == std::errc() && ptr == string_.data() + string_.size()) {
          return Value::Int64(out);
        }
        return Status::Invalid(StrCat("cannot cast '", string_, "' to BIGINT"));
      }
      break;
    case TypeId::kString:
      return Value::String(ToString());
    case TypeId::kBool:
      if (type_ == TypeId::kInt64) return Value::Bool(int_ != 0);
      break;
  }
  return Status::Invalid(StrCat("unsupported cast from ", type().ToString(),
                                " to ", target.ToString()));
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return bool_ ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(int_);
    case TypeId::kDouble:
      return DoubleToString(double_);
    case TypeId::kString:
      return string_;
  }
  return "?";
}

bool Value::Equals(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (type_ == other.type_) {
    switch (type_) {
      case TypeId::kBool:
        return bool_ == other.bool_;
      case TypeId::kInt64:
        return int_ == other.int_;
      case TypeId::kDouble:
        return CompareDoubles(double_, other.double_) == 0;
      case TypeId::kString:
        return string_ == other.string_;
    }
  }
  if (type().is_numeric() && other.type().is_numeric()) {
    return CompareDoubles(ToDouble(), other.ToDouble()) == 0;
  }
  return false;
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ull;
  switch (type_) {
    case TypeId::kBool:
      return bool_ ? 0x12345 : 0x54321;
    case TypeId::kInt64:
      // Hash integral-valued numerics identically to their double form so
      // Hash is consistent with Equals' numeric widening.
      return std::hash<double>()(static_cast<double>(int_));
    case TypeId::kDouble:
      // Every NaN payload hashes alike (NaN == NaN under Equals); -0.0 and
      // 0.0 already hash alike.
      if (std::isnan(double_)) return 0x7ff8000000000000ull;
      return std::hash<double>()(double_);
    case TypeId::kString:
      return std::hash<std::string>()(string_);
  }
  return 0;
}

int CompareValues(const Value& a, const Value& b) {
  SL_DCHECK(!a.is_null() && !b.is_null());
  if (a.type() == b.type()) {
    switch (a.type().id()) {
      case TypeId::kBool: {
        int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
        return x - y;
      }
      case TypeId::kInt64: {
        int64_t x = a.int64_value(), y = b.int64_value();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case TypeId::kDouble:
        return CompareDoubles(a.double_value(), b.double_value());
      case TypeId::kString:
        return a.string_value().compare(b.string_value());
    }
  }
  SL_DCHECK(a.type().is_numeric() && b.type().is_numeric());
  return CompareDoubles(a.ToDouble(), b.ToDouble());
}

int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const auto& v : row) bytes += v.EstimatedBytes();
  return bytes;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    if (row[i].type() == DataType::String() && !row[i].is_null()) {
      out += "'" + row[i].ToString() + "'";
    } else {
      out += row[i].ToString();
    }
  }
  out += ")";
  return out;
}

}  // namespace sparkline
