#ifndef TOPK_COMMON_STOPWATCH_H_
#define TOPK_COMMON_STOPWATCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace topk {

/// Monotonic wall-clock stopwatch used for phase timings in operator stats
/// and benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Nanoseconds since construction or the last Restart().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// What an empty interval between two back-to-back steady_clock reads
/// measures (the minimum of a few trials, taken once per process): the
/// clock's own cost, which every timed interval includes once.
int64_t ClockReadOverheadNanos();

/// Times a hot scope by sampling instead of reading the clock on every
/// entry. The first entry is timed, and each timed entry draws the number
/// of entries it stands for, uniform in [1, 2 × kMeanGap − 1], so one entry
/// in kMeanGap is timed on average. A timed entry reads the clock on entry
/// and, when the scope is left by any return path, adds its elapsed time,
/// less the clock's own cost, × that number to `*total_nanos`. Untimed
/// entries read no clock. The gaps are random so that work recurring every
/// N entries (a block handed to the writer, a run closed every k spilled
/// rows) is neither always nor never the timed one. The total is an
/// estimate that converges on the true one over many calls.
///
/// Rare stretches that cost far more than a typical entry (a merge step
/// run from inside Consume, say) are marked with InFull: they are timed
/// exactly and charged once, whether or not their entry is sampled, so one
/// sample of them never stands for a whole gap of entries.
class SampledScopeTimer {
  using Clock = std::chrono::steady_clock;

 public:
  static constexpr uint32_t kMeanGap = 64;

  /// Sampling state of one timed scope; the owner keeps it next to the
  /// total it feeds.
  class Schedule {
   private:
    friend class SampledScopeTimer;
    /// Entries left to pass untimed before the next timed one.
    uint32_t untimed_left_ = 0;
    /// xorshift32 state; a fixed seed keeps the sampled entries repeatable.
    uint32_t rng_ = 0x9e3779b9u;
  };

  /// Times a rare, heavy stretch inside the innermost SampledScopeTimer
  /// scope of this thread in full, charges it once, and leaves it out of
  /// that scope's sample. Outside such a scope, or nested in another
  /// InFull, it does nothing.
  class InFull {
   public:
    InFull() : timer_(active_) {
      if (timer_ == nullptr || timer_->in_full_open_) {
        timer_ = nullptr;
        return;
      }
      timer_->in_full_open_ = true;
      start_ = Clock::now();
    }

    ~InFull() {
      if (timer_ == nullptr) return;
      const int64_t nanos = NanosSince(start_);
      timer_->in_full_nanos_ += nanos;
      *timer_->total_nanos_ += nanos;
      timer_->in_full_open_ = false;
    }

    InFull(const InFull&) = delete;
    InFull& operator=(const InFull&) = delete;

   private:
    SampledScopeTimer* timer_;
    Clock::time_point start_;
  };

  SampledScopeTimer(Schedule* schedule, int64_t* total_nanos)
      : total_nanos_(total_nanos), enclosing_(active_) {
    active_ = this;
    if (schedule->untimed_left_ > 0) {
      --schedule->untimed_left_;
      return;
    }
    uint32_t x = schedule->rng_;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    schedule->rng_ = x;
    weight_ = 1 + x % (2 * kMeanGap - 1);
    schedule->untimed_left_ = weight_ - 1;
    start_ = Clock::now();
  }

  ~SampledScopeTimer() {
    active_ = enclosing_;
    if (weight_ > 0) {
      const int64_t sampled =
          NanosSince(start_) - in_full_nanos_ - ClockReadOverheadNanos();
      *total_nanos_ += std::max<int64_t>(sampled, 0) * weight_;
    }
  }

  SampledScopeTimer(const SampledScopeTimer&) = delete;
  SampledScopeTimer& operator=(const SampledScopeTimer&) = delete;

 private:
  static int64_t NanosSince(Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  }

  /// Innermost live timer on this thread, for InFull.
  static inline thread_local SampledScopeTimer* active_ = nullptr;

  int64_t* total_nanos_;
  SampledScopeTimer* enclosing_;
  /// Entries this one stands for; 0 when it is not sampled.
  uint32_t weight_ = 0;
  bool in_full_open_ = false;
  int64_t in_full_nanos_ = 0;
  Clock::time_point start_;
};

/// Accumulates elapsed time across start/stop intervals (phase timer).
class PhaseTimer {
 public:
  void Start() {
    watch_.Restart();
    running_ = true;
  }

  void Stop() {
    if (running_) {
      total_nanos_ += watch_.ElapsedNanos();
      running_ = false;
    }
  }

  int64_t TotalNanos() const {
    return total_nanos_ + (running_ ? watch_.ElapsedNanos() : 0);
  }

  double TotalSeconds() const {
    return static_cast<double>(TotalNanos()) * 1e-9;
  }

 private:
  Stopwatch watch_;
  int64_t total_nanos_ = 0;
  bool running_ = false;
};

}  // namespace topk

#endif  // TOPK_COMMON_STOPWATCH_H_
