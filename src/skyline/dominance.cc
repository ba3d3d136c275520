#include "skyline/dominance.h"

#include "common/string_util.h"

namespace sparkline {
namespace skyline {

uint32_t NullBitmap(const Row& row, const std::vector<BoundDimension>& dims) {
  SL_DCHECK(dims.size() <= 32) << "at most 32 skyline dimensions supported";
  uint32_t bitmap = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (row[dims[i].ordinal].is_null()) bitmap |= (1u << i);
  }
  return bitmap;
}

Status CheckDimensionLimit(const std::vector<BoundDimension>& dims) {
  if (dims.size() > 32) {
    return Status::Invalid(StrCat("at most 32 skyline dimensions supported, got ",
                                  dims.size()));
  }
  return Status::OK();
}

}  // namespace skyline
}  // namespace sparkline
