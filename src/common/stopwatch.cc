#include "common/stopwatch.h"

#include <algorithm>
#include <limits>

namespace topk {

int64_t ClockReadOverheadNanos() {
  static const int64_t overhead = [] {
    using Clock = std::chrono::steady_clock;
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int trial = 0; trial < 64; ++trial) {
      const Clock::time_point start = Clock::now();
      const Clock::time_point end = Clock::now();
      best = std::min<int64_t>(
          best, std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                     start)
                    .count());
    }
    return best;
  }();
  return overhead;
}

}  // namespace topk
