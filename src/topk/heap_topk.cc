#include "topk/heap_topk.h"

#include <algorithm>

#include "common/memory_accounting.h"
#include "obs/obs_context.h"
#include "row/serialization.h"

namespace topk {

HeapTopK::HeapTopK(const TopKOptions& options)
    : options_(options),
      comparator_(options.direction),
      heap_(comparator_) {}

Result<std::unique_ptr<HeapTopK>> HeapTopK::Make(const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/false));
  return std::unique_ptr<HeapTopK>(new HeapTopK(options));
}

std::optional<double> HeapTopK::cutoff() const {
  if (heap_.size() < options_.output_rows()) return std::nullopt;
  return heap_.top().key;
}

Status HeapTopK::Consume(Row row) {
  return RunWithAllocGuard("heap.Consume",
                           [&] { return ConsumeImpl(std::move(row)); });
}

Status HeapTopK::ConsumeImpl(Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    // Purely in-memory: nothing to persist, so cancellation is just an
    // early return (one relaxed load when the token is quiet).
    return options_.cancel->status();
  }
  ObsScope obs_scope(options_.obs);
  SampledScopeTimer timer(&consume_timing_, &stats_.consume_nanos);
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter->Acquire("heap-topk", 0));
  }
  ++stats_.rows_consumed;
  const size_t cost = row.MemoryFootprint() + kPerRowOverheadBytes;
  if (heap_.size() < options_.output_rows()) {
    heap_bytes_ += cost;
    if (heap_bytes_ > options_.memory_limit_bytes &&
        !options_.allow_unbounded_memory) {
      return Status::OutOfMemory(
          "requested output does not fit in operator memory (" +
          std::to_string(heap_.size()) + " rows buffered); an external "
          "top-k operator is required");
    }
    TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
    heap_.push(std::move(row));
  } else if (options_.with_ties && row.key == heap_.top().key) {
    // A key-tie of the current boundary row must be retained: the number
    // of duplicates is unknown, so this buffer can grow without bound —
    // the in-memory algorithm "may unexpectedly fail" (Sec 2.3).
    heap_bytes_ += cost;
    if (heap_bytes_ > options_.memory_limit_bytes &&
        !options_.allow_unbounded_memory) {
      return Status::OutOfMemory(
          "WITH TIES duplicates of the boundary key exceed operator "
          "memory; an external top-k operator is required");
    }
    TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
    ties_.push_back(std::move(row));
  } else if (comparator_.Less(row, heap_.top())) {
    Row evicted = heap_.top();
    heap_.pop();
    heap_.push(std::move(row));
    heap_bytes_ += cost;
    if (options_.with_ties && evicted.key == heap_.top().key) {
      // The boundary key is unchanged: the evicted row is now a tie.
      ties_.push_back(std::move(evicted));
      if (heap_bytes_ > options_.memory_limit_bytes &&
          !options_.allow_unbounded_memory) {
        return Status::OutOfMemory(
            "WITH TIES duplicates of the boundary key exceed operator "
            "memory; an external top-k operator is required");
      }
      TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_bytes_));
    } else {
      heap_bytes_ -= evicted.MemoryFootprint() + kPerRowOverheadBytes;
      if (options_.with_ties && !ties_.empty()) {
        // The boundary key just became sharper: retained ties of the old
        // boundary are all beyond the output now.
        for (const Row& tie : ties_) {
          heap_bytes_ -= tie.MemoryFootprint() + kPerRowOverheadBytes;
        }
        stats_.rows_eliminated_input += ties_.size();
        ties_.clear();
      }
      lease_.ShrinkTo(heap_bytes_);
    }
  } else {
    ++stats_.rows_eliminated_input;
  }
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, heap_bytes_);
  return Status::OK();
}

Result<std::vector<Row>> HeapTopK::Finish() {
  return RunWithAllocGuard("heap.Finish", [&] { return FinishImpl(); });
}

Result<std::vector<Row>> HeapTopK::FinishImpl() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    return options_.cancel->status();
  }
  ObsScope obs_scope(options_.obs);
  Stopwatch watch;
  stats_.final_cutoff = cutoff();

  std::vector<Row> rows;
  rows.reserve(heap_.size());
  while (!heap_.empty()) {
    rows.push_back(heap_.top());
    heap_.pop();
  }
  std::vector<Row> result =
      SortAndSliceTopKRows(std::move(rows), std::move(ties_), options_);
  lease_.Release();
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return result;
}

}  // namespace topk
