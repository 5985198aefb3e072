#include "extensions/grouped_topk.h"

#include <filesystem>

#include "topk/operator_factory.h"

namespace topk {

GroupedTopK::GroupedTopK(const Options& options)
    : options_(options),
      owns_spill_dir_(!std::filesystem::exists(options.per_group.spill_dir)) {}

GroupedTopK::~GroupedTopK() {
  // Each group's operator removes its own directory; a group that kept its
  // directory keeps the parent too, as removing a non-empty one fails.
  groups_.clear();
  if (owns_spill_dir_) {
    std::error_code ec;
    std::filesystem::remove(options_.per_group.spill_dir, ec);
  }
}

Result<std::unique_ptr<GroupedTopK>> GroupedTopK::Make(
    const Options& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(
      options.per_group, /*requires_storage=*/true, /*histogram_filter=*/true));
  if (options.per_group.workers != 1) {
    return Status::InvalidArgument(
        "grouped execution runs one run generator per group");
  }
  return std::unique_ptr<GroupedTopK>(new GroupedTopK(options));
}

Result<TopKOperator*> GroupedTopK::GetOrCreateGroup(uint64_t group) {
  auto it = groups_.find(group);
  if (it != groups_.end()) return it->second.get();

  TopKOptions group_options = options_.per_group;
  group_options.spill_dir = options_.per_group.spill_dir + "/group-" +
                            std::to_string(group);
  if (options_.grouped_buckets_per_run > 0) {
    group_options.histogram_buckets_per_run =
        options_.grouped_buckets_per_run;
  }
  std::unique_ptr<TopKOperator> op;
  TOPK_ASSIGN_OR_RETURN(
      op, MakeTopKOperator(TopKAlgorithm::kHistogram, group_options));
  TopKOperator* raw = op.get();
  groups_.emplace(group, std::move(op));
  return raw;
}

Status GroupedTopK::Consume(uint64_t group, Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  TopKOperator* op = nullptr;
  TOPK_ASSIGN_OR_RETURN(op, GetOrCreateGroup(group));
  return op->Consume(std::move(row));
}

Result<std::vector<GroupedTopK::GroupResult>> GroupedTopK::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  std::vector<GroupResult> results;
  results.reserve(groups_.size());
  for (auto& [group, op] : groups_) {
    GroupResult result;
    result.group = group;
    TOPK_ASSIGN_OR_RETURN(result.rows, op->Finish());
    results.push_back(std::move(result));
  }
  return results;
}

const TopKOperator* GroupedTopK::group_operator(uint64_t group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

}  // namespace topk
