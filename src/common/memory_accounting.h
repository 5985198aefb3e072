#ifndef TOPK_COMMON_MEMORY_ACCOUNTING_H_
#define TOPK_COMMON_MEMORY_ACCOUNTING_H_

#include <cstddef>
#include <new>
#include <string>
#include <string_view>

#include "common/status.h"
#include "row/row.h"

namespace topk {

/// Fixed extra bytes charged per buffered row against any memory budget
/// (heap node / vector slot / bookkeeping overhead). Every operator and run
/// generator must charge the same constant, or the in-memory and external
/// phases disagree about when memory is full and the adaptive switchover
/// point drifts between operators. Historically this constant was
/// duplicated in four translation units; it lives here so accounting cannot
/// drift again.
inline constexpr size_t kPerRowOverheadBytes = 32;

/// Bytes a row is charged while a store holds it: the footprint of the
/// `Row` as it arrived plus the fixed per-row overhead.
inline size_t HeldRowBytes(const Row& row) {
  return row.MemoryFootprint() + kPerRowOverheadBytes;
}

/// Runs an operator entry-point (or worker-thread) body and contains
/// std::bad_alloc — real or injected (MemFaultProfile mode=throw) — as
/// Status::OutOfMemory, so an allocation failure surfaces as a failed
/// query, never a crash. `where` names the boundary in the message.
template <typename Fn>
auto RunWithAllocGuard(std::string_view where, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::OutOfMemory("allocation failure contained at " +
                               std::string(where));
  }
}

}  // namespace topk

#endif  // TOPK_COMMON_MEMORY_ACCOUNTING_H_
