#include "extensions/segmented_topk.h"

#include <algorithm>
#include <filesystem>

#include "topk/operator_factory.h"

namespace topk {

SegmentedTopK::SegmentedTopK(const Options& options)
    : options_(options),
      owns_spill_dir_(!std::filesystem::exists(options.base.spill_dir)),
      remaining_(options.base.k) {}

SegmentedTopK::~SegmentedTopK() {
  // Each segment's operator removes its own directory; one that kept its
  // directory keeps the parent too, as removing a non-empty one fails.
  current_op_.reset();
  if (owns_spill_dir_) {
    std::error_code ec;
    std::filesystem::remove(options_.base.spill_dir, ec);
  }
}

Result<std::unique_ptr<SegmentedTopK>> SegmentedTopK::Make(
    const Options& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(
      options.base, /*requires_storage=*/true, /*histogram_filter=*/true));
  if (options.base.workers != 1) {
    return Status::InvalidArgument(
        "segmented execution runs one run generator per segment");
  }
  if (options.base.offset != 0) {
    return Status::InvalidArgument(
        "segmented execution with OFFSET is not supported; apply the offset "
        "downstream");
  }
  return std::unique_ptr<SegmentedTopK>(new SegmentedTopK(options));
}

Status SegmentedTopK::OpenSegment(uint64_t segment) {
  TopKOptions segment_options = options_.base;
  // Only `remaining_` rows can still reach the output; the inner operator
  // filters against that bound.
  segment_options.k = remaining_;
  segment_options.approx_filter_k =
      std::min(options_.base.approx_filter_k, remaining_);
  segment_options.spill_dir = options_.base.spill_dir + "/segment-" +
                              std::to_string(segment_counter_++);
  std::unique_ptr<TopKOperator> op;
  TOPK_ASSIGN_OR_RETURN(
      op, MakeTopKOperator(TopKAlgorithm::kHistogram, segment_options));
  current_op_ = std::move(op);
  current_segment_ = segment;
  return Status::OK();
}

Status SegmentedTopK::CloseCurrentSegment() {
  if (current_op_ == nullptr) return Status::OK();
  std::vector<Row> rows;
  TOPK_ASSIGN_OR_RETURN(rows, current_op_->Finish());
  for (Row& row : rows) {
    output_.push_back(SegmentedRow{*current_segment_, std::move(row)});
  }
  remaining_ -= std::min<uint64_t>(remaining_, rows.size());
  current_op_.reset();
  current_segment_.reset();
  return Status::OK();
}

Status SegmentedTopK::Consume(uint64_t segment, Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (saturated()) {
    // "subsequent segments can be ignored"
    ++rows_ignored_;
    return Status::OK();
  }
  if (current_segment_.has_value()) {
    if (segment < *current_segment_) {
      return Status::InvalidArgument(
          "segment ids must be non-decreasing (input must be sorted by the "
          "shared prefix)");
    }
    if (segment != *current_segment_) {
      TOPK_RETURN_NOT_OK(CloseCurrentSegment());
      if (saturated()) {
        ++rows_ignored_;
        return Status::OK();
      }
    }
  }
  if (!current_segment_.has_value()) {
    TOPK_RETURN_NOT_OK(OpenSegment(segment));
  }
  return current_op_->Consume(std::move(row));
}

Result<std::vector<SegmentedTopK::SegmentedRow>> SegmentedTopK::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  TOPK_RETURN_NOT_OK(CloseCurrentSegment());
  return std::move(output_);
}

}  // namespace topk
