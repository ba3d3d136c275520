#include "catalog/table.h"

#include "common/string_util.h"

namespace sparkline {

std::vector<Row> Table::CopyRows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (const RowChunkPtr& chunk : chunks_) {
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  return out;
}

Status Table::ValidateRow(Row* row) const {
  if (row->size() != schema_.num_fields()) {
    return Status::Invalid(StrCat("row arity ", row->size(),
                                  " does not match schema arity ",
                                  schema_.num_fields(), " of table ", name_));
  }
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = (*row)[i];
    const Field& f = schema_.field(i);
    if (v.is_null()) {
      if (!f.nullable) {
        return Status::Invalid(
            StrCat("NULL in non-nullable column ", f.name, " of ", name_));
      }
      continue;
    }
    if (v.type() != f.type) {
      // Allow implicit numeric widening on insert.
      if (f.type.is_numeric() && v.type().is_numeric()) {
        SL_ASSIGN_OR_RETURN(v, v.CastTo(f.type));
        continue;
      }
      return Status::Invalid(StrCat("type mismatch in column ", f.name, " of ",
                                    name_, ": expected ", f.type.ToString(),
                                    ", got ", v.type().ToString()));
    }
  }
  return Status::OK();
}

Status Table::AppendRow(Row row) {
  SL_RETURN_NOT_OK(ValidateRow(&row));
  AppendRowUnchecked(std::move(row));
  return Status::OK();
}

RowChunk* Table::OpenTail() {
  if (open_tail_ == nullptr || chunks_.back().use_count() != 1) {
    auto chunk = std::make_shared<RowChunk>();
    open_tail_ = chunk.get();
    chunks_.push_back(std::move(chunk));
  }
  return open_tail_;
}

void Table::ExtendFrom(const Table& base, RowChunkPtr batch) {
  SL_DCHECK(num_rows_ == 0 && chunks_.empty());
  chunks_ = base.chunks_;
  num_rows_ = base.num_rows_;
  zone_map_ = base.zone_map_;
  open_tail_ = nullptr;
  if (batch == nullptr || batch->empty()) return;
  for (const Row& row : *batch) zone_map_.Observe(row);
  num_rows_ += batch->size();
  chunks_.push_back(std::move(batch));
  // Compaction: while the last chunk holds at least half as many rows as
  // the one before it, merge the two (see the class comment for the bound).
  while (chunks_.size() >= 2) {
    const RowChunk& last = *chunks_[chunks_.size() - 1];
    const RowChunk& prev = *chunks_[chunks_.size() - 2];
    if (2 * last.size() < prev.size()) break;
    auto merged = std::make_shared<RowChunk>();
    merged->reserve(prev.size() + last.size());
    merged->insert(merged->end(), prev.begin(), prev.end());
    merged->insert(merged->end(), last.begin(), last.end());
    chunks_.pop_back();
    chunks_.back() = std::move(merged);
  }
}

int64_t Table::EstimatedBytes() const {
  int64_t total = 0;
  ForEachRow([&](const Row& r) { total += EstimateRowBytes(r); });
  return total;
}

}  // namespace sparkline
