#include "histogram/sizing_policy.h"

namespace topk {

BucketSizingPolicy::BucketSizingPolicy(uint64_t target_buckets,
                                       uint64_t target_run_rows)
    : target_buckets_(target_buckets) {
  if (target_buckets == 0 || target_run_rows == 0) {
    rows_per_bucket_ = 0;
    return;
  }
  // round(R / (B + 1)), at least one row per bucket; rounded on the
  // remainder so that R near the top of the range cannot overflow.
  const uint64_t denom = target_buckets + 1;
  if (denom == 0) {  // more buckets than any run has rows
    rows_per_bucket_ = 1;
    return;
  }
  uint64_t width = target_run_rows / denom +
                   (target_run_rows % denom >= denom - denom / 2 ? 1 : 0);
  if (width == 0) width = 1;
  rows_per_bucket_ = width;
}

RunHistogramBuilder::RunHistogramBuilder(const BucketSizingPolicy& policy)
    : policy_(policy), rows_per_bucket_(policy.rows_per_bucket()) {}

void RunHistogramBuilder::CoarsenWidth() {
  if (rows_per_bucket_ > 0) rows_per_bucket_ *= 2;
}

std::optional<HistogramBucket> RunHistogramBuilder::AddSpilledRow(
    double key) {
  if (rows_per_bucket_ == 0) return std::nullopt;
  if (run_buckets_.size() >= policy_.target_buckets()) return std::nullopt;
  ++rows_in_bucket_;
  if (rows_in_bucket_ < rows_per_bucket_) return std::nullopt;
  HistogramBucket bucket{key, rows_in_bucket_};
  rows_in_bucket_ = 0;
  run_buckets_.push_back(bucket);
  return bucket;
}

std::vector<HistogramBucket> RunHistogramBuilder::FinishRun() {
  rows_in_bucket_ = 0;
  std::vector<HistogramBucket> out;
  out.swap(run_buckets_);
  return out;
}

}  // namespace topk
