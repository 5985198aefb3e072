#include <algorithm>
#include <utility>

#include "common/query_control.h"
#include "common/stopwatch.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/fan_out_run_generator.h"
#include "sort/replacement_selection.h"
#include "sort/run_generation.h"

namespace topk {

std::unique_ptr<RunGenerator> MakeRunGenerator(
    RunGenerationKind kind, SpillManager* spill,
    const RowComparator& comparator, const RunGeneratorOptions& options) {
  if (options.workers > 1) {
    return std::make_unique<FanOutRunGenerator>(kind, spill, comparator,
                                                options);
  }
  if (kind == RunGenerationKind::kReplacementSelection) {
    return std::make_unique<ReplacementSelectionRunGenerator>(
        spill, comparator, options);
  }
  return std::make_unique<QuicksortRunGenerator>(spill, comparator, options);
}

QuicksortRunGenerator::QuicksortRunGenerator(
    SpillManager* spill, const RowComparator& comparator,
    const RunGeneratorOptions& options)
    : spill_(spill), comparator_(comparator), options_(options) {}

Status QuicksortRunGenerator::Add(Row row) {
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
  // A spill that a cancellation stopped is finished before more is
  // buffered.
  Status spilled = order_.empty() ? Status::OK() : SortAndSpill();
  if (spilled.ok() && buffered_bytes_ + cost > SpillThreshold(options_) &&
      !buffer_.empty()) {
    if (buffered_bytes_ + cost <= options_.memory_limit_bytes) {
      CountEarlySpill();
    }
    spilled = SortAndSpill();
  }
  if (!spilled.ok() && !IsCancellation(spilled.code())) return spilled;
  // A cancelled spill is held where it stopped, for the next Add or Flush
  // to finish, and the incoming row is buffered behind it: a query kept
  // for resume loses no row.
  buffered_bytes_ += cost;
  if (options_.arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_,
                          options_.arbiter->Acquire("run-generation", 0));
  }
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(buffered_bytes_));
  buffer_.push_back(std::move(row));
  ++stats_.rows_added;
  stats_.rows_in_memory = buffer_.size();
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, buffered_bytes_);
  return spilled;
}

Status QuicksortRunGenerator::SortAndSpill() {
  // Runs inside one Consume call per memory load: far heavier than a
  // typical call, so a sampled consume timer must not scale it up.
  SampledScopeTimer::InFull in_full;
  TraceSpan span("rungen.sort_and_spill", "sort",
                 {TraceArg("rows", buffer_.size())});
  if (order_.empty()) {
    // Sort (normalized key, buffer index) pairs instead of the rows
    // themselves: ordering was decided once at encode time (NaN-total,
    // -0.0 folded, direction baked in), every quicksort comparison is a
    // two-word integer compare, and the variable-size payloads are never
    // moved during the sort — only the 24-byte pairs are.
    order_.reserve(buffer_.size());
    const SortDirection direction = comparator_.direction();
    for (uint32_t i = 0; i < buffer_.size(); ++i) {
      order_.emplace_back(buffer_[i].normalized_key(direction), i);
    }
    TraceSpan sort_span("rungen.quicksort", "sort");
    std::sort(order_.begin(), order_.end(),
              [](const std::pair<NormalizedKey, uint32_t>& a,
                 const std::pair<NormalizedKey, uint32_t>& b) {
                return a.first < b.first;
              });
    next_ = 0;
  }

  // A cancellation stops the spill between two rows and keeps its place
  // (next_, the open writer_): finishing it later writes every row once
  // and reports each to the observer once.
  for (; next_ < order_.size(); ++next_) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    Row& row = buffer_[order_[next_].second];
    if (options_.observer != nullptr &&
        options_.observer->EliminateAtSpill(row)) {
      ++stats_.rows_eliminated_at_spill;
      continue;
    }
    if (writer_ != nullptr && rows_in_run_ >= options_.run_row_limit) {
      TOPK_RETURN_NOT_OK(FinishRun());
    }
    if (writer_ == nullptr) {
      TOPK_ASSIGN_OR_RETURN(
          writer_, spill_->NewRun(comparator_, options_.run_index_stride));
    }
    TOPK_RETURN_NOT_OK(writer_->Append(row));
    if (options_.observer != nullptr) options_.observer->OnRowSpilled(row);
    ++stats_.rows_spilled;
    ++rows_in_run_;
  }
  if (writer_ != nullptr) {
    TOPK_RETURN_NOT_OK(FinishRun());
  } else if (options_.observer != nullptr) {
    // Everything was eliminated; still reset the observer's per-run state.
    options_.observer->OnRunFinished();
  }
  // Rows buffered behind a cancelled spill were not in its order; they
  // stay for the next one.
  buffer_.erase(buffer_.begin(), buffer_.begin() + order_.size());
  std::vector<std::pair<NormalizedKey, uint32_t>>().swap(order_);
  buffered_bytes_ = 0;
  for (const Row& row : buffer_) {
    buffered_bytes_ += row.MemoryFootprint() + kPerRowOverheadBytes;
  }
  lease_.ShrinkTo(buffered_bytes_);
  stats_.rows_in_memory = buffer_.size();
  return Status::OK();
}

Status QuicksortRunGenerator::FinishRun() {
  RunMeta meta;
  TOPK_ASSIGN_OR_RETURN(meta, writer_->Finish());
  if (options_.observer != nullptr) {
    meta.histogram = options_.observer->OnRunFinished();
  }
  writer_.reset();
  rows_in_run_ = 0;
  return spill_->AddRun(std::move(meta));
}

Status QuicksortRunGenerator::Flush() {
  // Each pass finishes one spill; rows buffered behind a cancelled one
  // take a second.
  while (!buffer_.empty()) TOPK_RETURN_NOT_OK(SortAndSpill());
  return Status::OK();
}

}  // namespace topk
