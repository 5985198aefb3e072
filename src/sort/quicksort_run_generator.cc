#include <algorithm>

#include "common/stopwatch.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/replacement_selection.h"
#include "sort/run_generation.h"

namespace topk {

namespace {
/// Spills forced by arbiter soft pressure before the generator's own
/// memory limit was reached (shared name with replacement selection — one
/// ladder rung, two generators).
ObsCounter& EarlySpillsCounter() {
  static ObsCounter counter("mem.arbiter.early_spills");
  return counter;
}
}  // namespace

std::unique_ptr<RunGenerator> MakeRunGenerator(
    RunGenerationKind kind, SpillManager* spill,
    const RowComparator& comparator, const RunGeneratorOptions& options) {
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
  // Under arbiter soft pressure the buffer flushes at half its configured
  // budget: shorter runs, but memory drains while headroom remains.
  size_t effective_limit = options_.memory_limit_bytes;
  if (options_.arbiter != nullptr &&
      options_.arbiter->pressure() >= MemoryPressure::kSoft) {
    effective_limit = std::max<size_t>(1, effective_limit / 2);
  }
  if (buffered_bytes_ + cost > effective_limit && !buffer_.empty()) {
    if (buffered_bytes_ + cost <= options_.memory_limit_bytes) {
      EarlySpillsCounter().Add(1);
    }
    TOPK_RETURN_NOT_OK(SortAndSpill());
  }
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
  return Status::OK();
}

Status QuicksortRunGenerator::SortAndSpill() {
  // Runs inside one Consume call per memory load: far heavier than a
  // typical call, so a sampled consume timer must not scale it up.
  SampledScopeTimer::InFull in_full;
  TraceSpan span("rungen.sort_and_spill", "sort",
                 {TraceArg("rows", buffer_.size())});
  // Sort (normalized key, buffer index) pairs instead of the rows
  // themselves: ordering was decided once at encode time (NaN-total,
  // -0.0 folded, direction baked in), every quicksort comparison is a
  // two-word integer compare, and the variable-size payloads are never
  // moved during the sort — only the 24-byte pairs are.
  std::vector<std::pair<NormalizedKey, uint32_t>> order;
  order.reserve(buffer_.size());
  const SortDirection direction = comparator_.direction();
  for (uint32_t i = 0; i < buffer_.size(); ++i) {
    order.emplace_back(buffer_[i].normalized_key(direction), i);
  }
  {
    TraceSpan sort_span("rungen.quicksort", "sort");
    std::sort(order.begin(), order.end(),
              [](const std::pair<NormalizedKey, uint32_t>& a,
                 const std::pair<NormalizedKey, uint32_t>& b) {
                return a.first < b.first;
              });
  }

  std::unique_ptr<RunWriter> writer;
  uint64_t rows_in_run = 0;
  for (const auto& [norm, index] : order) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    Row& row = buffer_[index];
    if (options_.observer != nullptr &&
        options_.observer->EliminateAtSpill(row)) {
      ++stats_.rows_eliminated_at_spill;
      continue;
    }
    if (writer != nullptr && rows_in_run >= options_.run_row_limit) {
      RunMeta meta;
      TOPK_ASSIGN_OR_RETURN(meta, writer->Finish());
      if (options_.observer != nullptr) {
        meta.histogram = options_.observer->OnRunFinished();
      }
      TOPK_RETURN_NOT_OK(spill_->AddRun(std::move(meta)));
      writer.reset();
      rows_in_run = 0;
    }
    if (writer == nullptr) {
      TOPK_ASSIGN_OR_RETURN(
          writer, spill_->NewRun(comparator_, options_.run_index_stride));
    }
    TOPK_RETURN_NOT_OK(writer->Append(row));
    if (options_.observer != nullptr) options_.observer->OnRowSpilled(row);
    ++stats_.rows_spilled;
    ++rows_in_run;
  }
  if (writer != nullptr) {
    RunMeta meta;
    TOPK_ASSIGN_OR_RETURN(meta, writer->Finish());
    if (options_.observer != nullptr) {
      meta.histogram = options_.observer->OnRunFinished();
    }
    TOPK_RETURN_NOT_OK(spill_->AddRun(std::move(meta)));
  } else if (options_.observer != nullptr) {
    // Everything was eliminated; still reset the observer's per-run state.
    options_.observer->OnRunFinished();
  }
  buffer_.clear();
  buffered_bytes_ = 0;
  lease_.ShrinkTo(0);
  stats_.rows_in_memory = 0;
  return Status::OK();
}

Status QuicksortRunGenerator::Flush() {
  if (!buffer_.empty()) {
    TOPK_RETURN_NOT_OK(SortAndSpill());
  }
  return Status::OK();
}

}  // namespace topk
