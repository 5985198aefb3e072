#include "sort/replacement_selection.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "row/serialization.h"

namespace topk {

ReplacementSelectionRunGenerator::ReplacementSelectionRunGenerator(
    SpillManager* spill, const RowComparator& comparator,
    const RunGeneratorOptions& options)
    : comparator_(comparator),
      options_(options),
      sink_(spill, comparator, options) {}

Status ReplacementSelectionRunGenerator::Add(const Row& row) {
  size_t cost;
  TOPK_ASSIGN_OR_RETURN(cost, RunSink::RowCharge(row));
  const NormalizedKey norm = row.normalized_key(comparator_.direction());
  uint64_t seq = current_seq_;
  if (has_last_spilled_ && norm < last_spilled_norm_) {
    // Too small to extend the current run in sorted order: defer.
    seq = current_seq_ + 1;
  }
  TOPK_RETURN_NOT_OK(sink_.Charge(cost));
  sink_.set_rows_in_memory(rows_buffered_ + 1);
  const size_t effective_limit = SpillThreshold(options_);
  // The incoming row is charged from here on, but it enters the tree only
  // if the first spill does not take it.
  const Node key{seq, norm, 0};
  bool pending = true;
  bool early = false;
  while (sink_.buffered_bytes() > effective_limit &&
         rows_buffered_ + (pending ? 1 : 0) > 1) {
    if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
      if (pending) Place(key, row, cost);
      return options_.cancel->status();
    }
    if (!early && sink_.buffered_bytes() <= options_.memory_limit_bytes) {
      early = true;
      CountEarlySpill();
    }
    if (pending) {
      pending = false;
      TOPK_RETURN_NOT_OK(SpillFused(key, row, cost));
    } else {
      TOPK_RETURN_NOT_OK(SpillWinner());
    }
  }
  if (pending) Place(key, row, cost);
  sink_.ShrinkLease();
  sink_.set_rows_in_memory(rows_buffered_);
  return Status::OK();
}

size_t ReplacementSelectionRunGenerator::held_bytes() const {
  size_t held = rows_buffered_ * sizeof(Slot);
  for (const Slot& slot : slots_) held += slot.capacity;
  return held;
}

void ReplacementSelectionRunGenerator::Replay(size_t slot) {
  Node* tree = tree_.data();
  for (size_t i = (slots_.size() + slot) / 2; i >= 1; i /= 2) {
    tree[i] = Winner(tree[2 * i], tree[2 * i + 1]);
  }
}

void ReplacementSelectionRunGenerator::Store(const Row& row, size_t charge,
                                             Slot* slot) {
  const size_t size = row.SerializedSize();
  // The row's charge covers its slot record and its bytes (the row struct
  // alone is charged more than a slot record, a header and an inline
  // payload), so a buffer that fits both is reused and any other is
  // replaced by one of exactly the row's size.
  if (size > slot->capacity || sizeof(Slot) + slot->capacity > charge) {
    slot->wire.reset();
    slot->wire.reset(new char[size]);
    slot->capacity = static_cast<uint32_t>(size);
  }
  SerializeRowTo(row, slot->wire.get());
  slot->key = row.key;
  slot->id = row.id;
  slot->charge = charge;
  slot->size = static_cast<uint32_t>(size);
}

void ReplacementSelectionRunGenerator::Place(const Node& key, const Row& row,
                                             size_t charge) {
  if (free_slots_.empty()) {
    // Slots keep their numbers; only the tree is rebuilt over the larger
    // leaf level.
    static_assert(std::is_nothrow_move_constructible_v<Slot>);
    const size_t old_capacity = slots_.size();
    const size_t capacity = std::max<size_t>(kMinSlots, 2 * old_capacity);
    slots_.resize(capacity);
    std::vector<Node> tree(2 * capacity);
    for (size_t s = 0; s < capacity; ++s) {
      tree[capacity + s] = s < old_capacity
                               ? tree_[old_capacity + s]
                               : Node{kEmptyRunSeq, NormalizedKey{}, s};
    }
    for (size_t i = capacity - 1; i >= 1; --i) {
      tree[i] = Winner(tree[2 * i], tree[2 * i + 1]);
    }
    tree_ = std::move(tree);
    for (size_t s = capacity; s-- > old_capacity;) free_slots_.push_back(s);
  }
  const size_t slot = free_slots_.back();
  free_slots_.pop_back();
  Store(row, charge, &slots_[slot]);
  tree_[slots_.size() + slot] = Node{key.run_seq, key.norm, slot};
  ++rows_buffered_;
  Replay(slot);
}

Status ReplacementSelectionRunGenerator::SpillFused(const Node& key,
                                                    const Row& row,
                                                    size_t charge) {
  const bool incoming_first = Before(key, tree_[1]);
  const Node winner = tree_[1];
  Slot& slot = slots_[winner.slot];
  Status spilled;
  if (incoming_first) {
    incoming_wire_.clear();
    SerializeRow(row, &incoming_wire_);
    spilled = SpillRow(key, row.key, row.id, incoming_wire_);
  } else {
    // The winner's bytes are written before the incoming row takes its
    // slot.
    spilled = SpillRow(winner, slot.key, slot.id,
                       std::string_view(slot.wire.get(), slot.size));
  }
  if (!spilled.ok()) {
    // Nothing left the buffer: the incoming row takes a slot of its own, so
    // a keep-for-resume flush still finds every row.
    Place(key, row, charge);
    return spilled;
  }
  if (incoming_first) {
    sink_.Refund(charge);
    return Status::OK();
  }
  sink_.Refund(slot.charge);
  Store(row, charge, &slot);
  tree_[slots_.size() + winner.slot] = Node{key.run_seq, key.norm, winner.slot};
  Replay(winner.slot);
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::SpillWinner() {
  const Node winner = tree_[1];
  Slot& slot = slots_[winner.slot];
  TOPK_RETURN_NOT_OK(SpillRow(winner, slot.key, slot.id,
                              std::string_view(slot.wire.get(), slot.size)));
  // An empty slot is charged nothing, so it holds nothing.
  sink_.Refund(slot.charge);
  slot = Slot();
  tree_[slots_.size() + winner.slot].run_seq = kEmptyRunSeq;
  free_slots_.push_back(winner.slot);
  --rows_buffered_;
  Replay(winner.slot);
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::SpillRow(const Node& node, double key,
                                                  uint64_t id,
                                                  std::string_view wire) {
  if (node.run_seq != current_seq_) {
    // The current logical run is exhausted; start the next one.
    TOPK_RETURN_NOT_OK(sink_.CloseRun());
    current_seq_ = node.run_seq;
    has_last_spilled_ = false;
  }
  bool written = false;
  TOPK_RETURN_NOT_OK(sink_.Spill(key, id, node.norm, wire, &written));
  if (written) {
    last_spilled_norm_ = node.norm;
    has_last_spilled_ = true;
  }
  return Status::OK();
}

Status ReplacementSelectionRunGenerator::Flush() {
  while (rows_buffered_ > 0) {
    TOPK_RETURN_IF_CANCELLED(options_.cancel);
    TOPK_RETURN_NOT_OK(SpillWinner());
  }
  TOPK_RETURN_NOT_OK(sink_.CloseRun());
  sink_.ReleaseCharges();
  sink_.set_rows_in_memory(0);
  return Status::OK();
}

}  // namespace topk
