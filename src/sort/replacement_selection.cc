#include "sort/replacement_selection.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"

namespace topk {

namespace {
/// Spills forced by arbiter soft pressure before the generator's own
/// memory limit was reached — the degradation ladder's run-generation rung.
ObsCounter& EarlySpillsCounter() {
  static ObsCounter counter("mem.arbiter.early_spills");
  return counter;
}
}  // namespace

ReplacementSelectionRunGenerator::ReplacementSelectionRunGenerator(
    SpillManager* spill, const RowComparator& comparator,
    const RunGeneratorOptions& options)
    : spill_(spill),
      comparator_(comparator),
      options_(options) {}

Status ReplacementSelectionRunGenerator::Add(Row row) {
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  const NormalizedKey norm = row.normalized_key(comparator_.direction());
  uint64_t seq = current_seq_;
  if (has_last_spilled_ && norm < last_spilled_norm_) {
    // Too small to extend the current run in sorted order: defer.
    seq = current_seq_ + 1;
  }
  const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
  buffered_bytes_ += cost;
  if (options_.arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_,
                          options_.arbiter->Acquire("run-generation", 0));
  }
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(buffered_bytes_));
  heap_.push_back(Entry{seq, norm, std::move(row)});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  ++stats_.rows_added;
  stats_.rows_in_memory = heap_.size();
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, buffered_bytes_);
  // Under arbiter soft pressure the selection heap drains at half its
  // configured budget: runs get shorter, but buffered bytes flow to disk
  // while the process still has headroom (the early-spill rung of the
  // degradation ladder).
  size_t effective_limit = options_.memory_limit_bytes;
  if (options_.arbiter != nullptr &&
      options_.arbiter->pressure() >= MemoryPressure::kSoft) {
    effective_limit = std::max<size_t>(1, effective_limit / 2);
  }
  bool early = false;
  while (buffered_bytes_ > effective_limit && heap_.size() > 1) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    if (!early && buffered_bytes_ <= options_.memory_limit_bytes) {
      early = true;
      EarlySpillsCounter().Add(1);
    }
    TOPK_RETURN_NOT_OK(SpillOne());
  }
  lease_.ShrinkTo(buffered_bytes_);
  stats_.rows_in_memory = heap_.size();
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::SpillOne() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  // The row was moved, never copied, since Add charged it, so its payload
  // keeps the capacity Add measured and this returns exactly that charge.
  buffered_bytes_ -= entry.row.MemoryFootprint() + kPerRowOverheadBytes;

  if (entry.run_seq != current_seq_) {
    // The current logical run is exhausted; start the next one.
    TOPK_RETURN_NOT_OK(CloseRun());
    current_seq_ = entry.run_seq;
    has_last_spilled_ = false;
  }

  if (options_.observer != nullptr &&
      options_.observer->EliminateAtSpill(entry.row)) {
    ++stats_.rows_eliminated_at_spill;
    return Status::OK();
  }

  if (writer_ != nullptr && rows_in_physical_run_ >= options_.run_row_limit) {
    TOPK_RETURN_NOT_OK(CloseRun());
  }
  TOPK_RETURN_NOT_OK(EnsureWriter());
  TOPK_RETURN_NOT_OK(writer_->Append(entry.row));
  if (options_.observer != nullptr) {
    options_.observer->OnRowSpilled(entry.row);
  }
  ++stats_.rows_spilled;
  ++rows_in_physical_run_;
  last_spilled_norm_ = entry.norm;
  has_last_spilled_ = true;
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::EnsureWriter() {
  if (writer_ == nullptr) {
    // Opening and closing a run file costs far more than spilling a row;
    // a sampled consume timer must not scale it up.
    SampledScopeTimer::InFull in_full;
    TOPK_ASSIGN_OR_RETURN(
        writer_, spill_->NewRun(comparator_, options_.run_index_stride));
    rows_in_physical_run_ = 0;
  }
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::CloseRun() {
  std::vector<HistogramBucket> histogram;
  if (options_.observer != nullptr) {
    histogram = options_.observer->OnRunFinished();
  }
  if (writer_ == nullptr) return Status::OK();
  SampledScopeTimer::InFull in_full;
  TraceSpan span("rungen.close_run", "sort",
                 {TraceArg("rows", rows_in_physical_run_)});
  RunMeta meta;
  TOPK_ASSIGN_OR_RETURN(meta, writer_->Finish());
  meta.histogram = std::move(histogram);
  TOPK_RETURN_NOT_OK(spill_->AddRun(std::move(meta)));
  writer_.reset();
  rows_in_physical_run_ = 0;
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::Flush() {
  while (!heap_.empty()) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    TOPK_RETURN_NOT_OK(SpillOne());
  }
  TOPK_RETURN_NOT_OK(CloseRun());
  buffered_bytes_ = 0;
  lease_.Release();
  stats_.rows_in_memory = 0;
  return Status::OK();
}

}  // namespace topk
