#include "sort/run_generation.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/replacement_selection.h"

namespace topk {

std::unique_ptr<RunGenerator> MakeRunGenerator(
    RunGenerationKind kind, SpillManager* spill,
    const RowComparator& comparator, const RunGeneratorOptions& options) {
  if (kind == RunGenerationKind::kReplacementSelection) {
    return std::make_unique<ReplacementSelectionRunGenerator>(
        spill, comparator, options);
  }
  return std::make_unique<QuicksortRunGenerator>(spill, comparator, options);
}

RunSink::RunSink(SpillManager* spill, const RowComparator& comparator,
                 const RunGeneratorOptions& options)
    : spill_(spill),
      comparator_(comparator),
      observer_(options.observer),
      run_row_limit_(options.run_row_limit),
      run_index_stride_(options.run_index_stride),
      arbiter_(options.arbiter) {}

Result<size_t> RunSink::RowCharge(const Row& row) {
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  return HeldRowBytes(row);
}

Status RunSink::Charge(size_t cost) {
  buffered_bytes_ += cost;
  if (arbiter_ != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter_->Acquire("run-generation", 0));
  }
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(buffered_bytes_));
  ++stats_.rows_added;
  stats_.peak_memory_bytes =
      std::max(stats_.peak_memory_bytes, buffered_bytes_);
  return Status::OK();
}

Status RunSink::StartRun() {
  if (writer_ != nullptr) TOPK_RETURN_NOT_OK(CloseRun());
  // Opening and closing a run file costs far more than spilling a row;
  // a sampled consume timer must not scale it up.
  SampledScopeTimer::InFull in_full;
  TOPK_ASSIGN_OR_RETURN(writer_,
                        spill_->NewRun(comparator_, run_index_stride_));
  rows_in_run_ = 0;
  return Status::OK();
}

Status RunSink::CloseRun() {
  // A repeated call, after a Finish that failed, ends the observer's run
  // only once.
  if (!closing_histogram_.has_value()) {
    closing_histogram_ = observer_ != nullptr
                             ? observer_->OnRunFinished()
                             : std::vector<HistogramBucket>();
  }
  if (writer_ == nullptr) {
    closing_histogram_.reset();
    return Status::OK();
  }
  SampledScopeTimer::InFull in_full;
  TraceSpan span("rungen.close_run", "sort",
                 {TraceArg("rows", rows_in_run_)});
  RunMeta meta;
  TOPK_ASSIGN_OR_RETURN(meta, writer_->Finish());
  meta.histogram = std::move(*closing_histogram_);
  closing_histogram_.reset();
  writer_.reset();
  rows_in_run_ = 0;
  return spill_->AddRun(std::move(meta));
}

}  // namespace topk
