#include <algorithm>
#include <string_view>
#include <utility>

#include "common/query_control.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "row/serialization.h"
#include "sort/run_generation.h"

namespace topk {

namespace {

/// Gives `v` room for `need` elements. It doubles, but only into
/// `*spare_bytes`, and charges what it takes beyond `need` there.
template <typename T>
void GrowInto(std::vector<T>* v, size_t need, size_t* spare_bytes) {
  if (need <= v->capacity()) return;
  const size_t capacity = std::min(std::max(need, 2 * v->capacity()),
                                   need + *spare_bytes / sizeof(T));
  *spare_bytes -= (capacity - need) * sizeof(T);
  v->reserve(capacity);
}

}  // namespace

QuicksortRunGenerator::QuicksortRunGenerator(
    SpillManager* spill, const RowComparator& comparator,
    const RunGeneratorOptions& options)
    : comparator_(comparator),
      options_(options),
      sink_(spill, comparator, options) {}

Status QuicksortRunGenerator::Add(Row row) {
  size_t cost;
  TOPK_ASSIGN_OR_RETURN(cost, RunSink::RowCharge(row));
  // A spill that a cancellation stopped is finished before more is
  // buffered.
  Status spilled = sorted_ == 0 ? Status::OK() : SortAndSpill();
  const size_t charged = sink_.buffered_bytes() + cost;
  if (spilled.ok() && charged > SpillThreshold(options_) &&
      !entries_.empty()) {
    if (charged <= options_.memory_limit_bytes) {
      CountEarlySpill();
    }
    spilled = SortAndSpill();
  }
  if (!spilled.ok() && !IsCancellation(spilled.code())) return spilled;
  // A cancelled spill is held where it stopped, for the next Add or Flush
  // to finish, and the incoming row is buffered behind it: a query kept
  // for resume loses no row.
  TOPK_RETURN_NOT_OK(sink_.Charge(cost));
  Buffer(row);
  sink_.set_rows_in_memory(entries_.size());
  return spilled;
}

void QuicksortRunGenerator::Buffer(const Row& row) {
  const size_t offset = wire_.size();
  const size_t wire_need = offset + row.SerializedSize();
  const size_t entries_need = entries_.size() + 1;
  // A row is charged more than its bytes and its entry, so the buffers
  // always fit in the bytes charged; what the charges leave over is the
  // room they may double into.
  size_t spare =
      sink_.buffered_bytes() - std::max(wire_need, wire_.capacity()) -
      std::max(entries_need, entries_.capacity()) * sizeof(Entry);
  GrowInto(&wire_, wire_need, &spare);
  GrowInto(&entries_, entries_need, &spare);
  wire_.resize(wire_need);
  SerializeRowTo(row, wire_.data() + offset);
  entries_.push_back(
      Entry{row.normalized_key(comparator_.direction()), offset});
}

Status QuicksortRunGenerator::SortAndSpill() {
  // Runs inside one Consume call per memory load: far heavier than a
  // typical call, so a sampled consume timer must not scale it up.
  SampledScopeTimer::InFull in_full;
  TraceSpan span("rungen.sort_and_spill", "sort",
                 {TraceArg("rows", entries_.size())});
  if (sorted_ == 0) {
    // Sort (normalized key, offset) entries instead of the rows
    // themselves: ordering was decided once at encode time (NaN-total,
    // -0.0 folded, direction baked in), every quicksort comparison is a
    // two-word integer compare, and the variable-size wire bytes are never
    // moved during the sort — only the 24-byte entries are.
    sorted_ = entries_.size();
    sorted_charge_ = sink_.buffered_bytes();
    next_ = 0;
    TraceSpan sort_span("rungen.quicksort", "sort");
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.norm < b.norm; });
  }

  // A cancellation stops the spill between two rows and keeps its place
  // (next_, the sink's open run): finishing it later writes every row once
  // and reports each to the observer once.
  for (; next_ < sorted_; ++next_) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    const Entry& entry = entries_[next_];
    const char* bytes = wire_.data() + entry.offset;
    const RowHeader header = ReadRowHeader(bytes);
    TOPK_RETURN_NOT_OK(sink_.Spill(
        header.key, header.id, entry.norm,
        std::string_view(bytes, kRowHeaderBytes + header.payload_len)));
  }
  // A load the observer eliminated whole opened no run, but still ends
  // one for the observer.
  TOPK_RETURN_NOT_OK(sink_.CloseRun());
  // Rows buffered behind a cancelled spill were not in its order; their
  // bytes follow all of the spilled rows' bytes. They stay for the next
  // spill, in buffers of exactly their size, so the bytes held stay within
  // the bytes charged.
  const size_t spilled_bytes =
      sorted_ < entries_.size() ? entries_[sorted_].offset : wire_.size();
  std::vector<char> wire(wire_.begin() + spilled_bytes, wire_.end());
  std::vector<Entry> entries(entries_.begin() + sorted_, entries_.end());
  for (Entry& entry : entries) entry.offset -= spilled_bytes;
  wire_.swap(wire);
  entries_.swap(entries);
  sink_.Refund(sorted_charge_);
  sorted_ = 0;
  sink_.ShrinkLease();
  sink_.set_rows_in_memory(entries_.size());
  return Status::OK();
}

Status QuicksortRunGenerator::Flush() {
  // Each pass finishes one spill; rows buffered behind a cancelled one
  // take a second.
  while (!entries_.empty()) TOPK_RETURN_NOT_OK(SortAndSpill());
  return Status::OK();
}

}  // namespace topk
