#include "histogram/cutoff_filter.h"

#include <algorithm>

#include "common/logging.h"

namespace topk {

CutoffFilter::CutoffFilter(const Options& options)
    : k_(options.k),
      comparator_(options.direction),
      memory_limit_bytes_(options.memory_limit_bytes),
      consolidation_(options.consolidation),
      policy_(options.target_buckets_per_run, options.target_run_rows),
      rows_per_bucket_(policy_.rows_per_bucket()),
      queue_(BucketWorse{}),
      on_cutoff_change_(options.on_cutoff_change),
      spiller_(this) {
  TOPK_CHECK(options.k > 0) << "cutoff filter requires k > 0";
}

void CutoffFilter::NotifyCutoffChange(bool tightened, bool proposed) const {
  if (!on_cutoff_change_) return;
  CutoffUpdate update;
  update.cutoff = cutoff_.load(std::memory_order_relaxed);
  update.tightened = tightened;
  update.proposed = proposed;
  update.tracked_rows = tracked_rows_;
  update.bucket_count = queue_.size();
  update.buckets_inserted = buckets_inserted_;
  update.consolidations = consolidations_;
  on_cutoff_change_(update);
}

void CutoffFilter::Spiller::RowSpilled(double key) {
  std::optional<HistogramBucket> bucket = builder_.AddSpilledRow(key);
  if (!bucket.has_value()) return;
  std::lock_guard<std::mutex> lock(filter_->mu_);
  filter_->InsertBucketLocked(*bucket);
  while (builder_.rows_per_bucket() < filter_->rows_per_bucket_) {
    builder_.CoarsenWidth();
  }
}

void CutoffFilter::InsertBucket(HistogramBucket bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertBucketLocked(bucket);
}

void CutoffFilter::InsertBucketLocked(HistogramBucket bucket) {
  if (bucket.count == 0) return;
  const uint64_t norm =
      NormalizeDoubleKey(bucket.boundary, comparator_.direction());
  // A bucket entirely beyond the cutoff proves nothing new and would only
  // be popped again; skip it (keeps the queue small on adversarial inputs).
  if (EliminateNormalizedKey(norm)) return;
  queue_.push(NormBucket{norm, bucket.boundary, bucket.count});
  tracked_rows_ += bucket.count;
  ++buckets_inserted_;
  Refine();
  MaybeConsolidate();
}

void CutoffFilter::Refine() {
  if (tracked_rows_ < k_) return;
  // Established: the top boundary is a valid cutoff. Sharpen while the
  // model still proves k rows without the top bucket.
  while (!queue_.empty() && tracked_rows_ - queue_.top().count >= k_) {
    tracked_rows_ -= queue_.top().count;
    queue_.pop();
    ++buckets_popped_;
  }
  TOPK_DCHECK(!queue_.empty());
  const NormBucket& top = queue_.top();
  if (!has_cutoff_.load(std::memory_order_relaxed) ||
      top.norm_boundary < cutoff_norm_.load(std::memory_order_relaxed)) {
    SetCutoff(top.norm_boundary, top.boundary, /*proposed=*/false);
  }
}

void CutoffFilter::ProposeCutoff(double key) {
  const uint64_t norm = NormalizeDoubleKey(key, comparator_.direction());
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_cutoff_.load(std::memory_order_relaxed) ||
      norm < cutoff_norm_.load(std::memory_order_relaxed)) {
    SetCutoff(norm, key, /*proposed=*/true);
  }
}

void CutoffFilter::SetCutoff(uint64_t norm, double key, bool proposed) {
  const bool tightened = has_cutoff_.load(std::memory_order_relaxed);
  cutoff_.store(key, std::memory_order_relaxed);
  cutoff_norm_.store(norm, std::memory_order_relaxed);
  has_cutoff_.store(true, std::memory_order_release);
  NotifyCutoffChange(tightened, proposed);
}

size_t CutoffFilter::BucketBytes() { return sizeof(NormBucket); }

void CutoffFilter::MaybeConsolidate() {
  if (memory_bytes() <= memory_limit_bytes_) return;
  ++consolidations_;
  if (consolidation_ == ConsolidationPolicy::kFull) {
    // Replace every bucket with a single one: boundary = current top
    // boundary, count = sum of all counts (Sec 5.1.2). Guarantee
    // preserved: all tracked rows sort at or before the top boundary.
    const NormBucket top = queue_.top();
    const uint64_t total = tracked_rows_;
    while (!queue_.empty()) queue_.pop();
    queue_.push(NormBucket{top.norm_boundary, top.boundary, total});
    return;
  }
  // kAdaptive: pop the worst-boundary half and merge it into one bucket.
  // The merged bucket keeps the worst popped boundary, so every merged row
  // still sorts at or before it. Also coarsen the bucket width: with a
  // bounded queue the *unmerged* buckets must eventually represent k rows
  // for anything to be poppable, which needs width >= ~k / queue capacity.
  //
  // One half-merge may not reach the budget (e.g. a tiny budget where
  // size/2 rounds down to 1), so repeat until the post-condition
  // memory_bytes() <= memory_limit_bytes_ holds or a single bucket
  // remains — a bounded queue must stay bounded, not merely shrink once.
  while (memory_bytes() > memory_limit_bytes_ && queue_.size() > 1) {
    rows_per_bucket_ *= 2;
    const size_t to_merge =
        std::min(queue_.size(), std::max<size_t>(queue_.size() / 2, 2));
    const NormBucket worst = queue_.top();
    uint64_t merged = 0;
    for (size_t i = 0; i < to_merge; ++i) {
      merged += queue_.top().count;
      queue_.pop();
    }
    queue_.push(NormBucket{worst.norm_boundary, worst.boundary, merged});
  }
}

}  // namespace topk
