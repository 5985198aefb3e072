#include "topk/topk_operator.h"

#include <algorithm>
#include <iterator>
#include <string>

namespace topk {

std::vector<Row> SortAndSliceTopKRows(std::vector<Row> rows,
                                      std::vector<Row> ties,
                                      const TopKOptions& options) {
  rows.insert(rows.end(), std::make_move_iterator(ties.begin()),
              std::make_move_iterator(ties.end()));
  std::sort(rows.begin(), rows.end(), RowComparator(options.direction));
  const size_t begin = std::min<size_t>(options.offset, rows.size());
  size_t end = std::min<size_t>(begin + options.k, rows.size());
  if (options.with_ties && end > begin && end < rows.size()) {
    // Extend past k while rows tie with the kth row's key.
    const double boundary = rows[end - 1].key;
    while (end < rows.size() && rows[end].key == boundary) ++end;
  }
  return std::vector<Row>(std::make_move_iterator(rows.begin() + begin),
                          std::make_move_iterator(rows.begin() + end));
}

Status ValidateTopKOptions(const TopKOptions& options, bool requires_storage,
                           bool parallel_run_generation) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.workers == 0 || options.workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be in [1, " +
                                   std::to_string(kMaxWorkers) + "]");
  }
  if (options.workers != 1 && !parallel_run_generation) {
    return Status::InvalidArgument(
        "workers > 1 needs the histogram operator; this operator runs one "
        "run generator");
  }
  if (options.memory_limit_bytes == 0 && !options.allow_unbounded_memory) {
    return Status::InvalidArgument("memory limit must be positive");
  }
  if (requires_storage) {
    if (options.env == nullptr) {
      return Status::InvalidArgument(
          "external top-k operators need a StorageEnv");
    }
    if (options.spill_dir.empty()) {
      return Status::InvalidArgument(
          "external top-k operators need a spill directory");
    }
    if (options.merge_fan_in < 2) {
      return Status::InvalidArgument("merge fan-in must be at least 2");
    }
  }
  return Status::OK();
}

}  // namespace topk
