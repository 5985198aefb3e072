#ifndef TOPK_OBS_OBS_CONTEXT_H_
#define TOPK_OBS_OBS_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace topk {

class Tracer;

/// One node of a query's wall-clock phase timeline. Accumulators are
/// atomics so pool threads and the consumer thread can record into the
/// same node without a lock; the children list is guarded by the owning
/// PhaseTimeline's mutex and only ever grows.
struct PhaseNode {
  std::string name;
  PhaseNode* parent = nullptr;
  std::atomic<int64_t> wall_nanos{0};
  /// Time inside this phase spent waiting on storage: synchronous
  /// read/write calls, prefetch-refill waits, flush backpressure.
  std::atomic<int64_t> io_wait_nanos{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  /// Times the phase was entered (a phase like merge.intermediate runs
  /// once per merge step).
  std::atomic<uint64_t> entered{0};
  std::vector<std::unique_ptr<PhaseNode>> children;
};

/// The phase tree of one query. Two roots: `root()` ("query") holds the
/// foreground phases — they nest strictly on the consumer thread, so their
/// self times sum to the root's wall time by construction — and
/// `background()` holds pool-thread work (spill flushes, prefetches,
/// manifest saves) that overlaps the foreground and is reported
/// separately rather than summed into it.
class PhaseTimeline {
 public:
  PhaseTimeline();

  PhaseNode* root() { return root_.get(); }
  const PhaseNode* root() const { return root_.get(); }
  PhaseNode* background() { return background_.get(); }
  const PhaseNode* background() const { return background_.get(); }

  /// Finds or creates `parent`'s child named `name`.
  PhaseNode* EnterChild(PhaseNode* parent, const char* name);

  /// Guards every children list in the tree; report builders take it while
  /// walking.
  std::mutex& mu() const { return mu_; }

 private:
  mutable std::mutex mu_;
  std::unique_ptr<PhaseNode> root_;
  std::unique_ptr<PhaseNode> background_;
};

/// Per-query observability context: a scoped metrics registry, a tracer
/// (the global one unless a test installs its own), a phase timeline, the
/// cutoff-filter evolution log, and memory / spill high-water marks.
///
/// Create one per query with Create(), hand it to the operator through
/// TopKOptions::obs, and read it back for the profile report once Finish
/// returns. Instrumentation records into the context *in addition to* the
/// process-global registry, so global aggregation across concurrent
/// queries keeps working while each query also gets its own numbers.
class ObsContext : public std::enable_shared_from_this<ObsContext> {
 public:
  /// Contexts are always shared: pool tasks capture them so background
  /// work scheduled by a query outliving the query is still attributed
  /// (and recorded into live storage) correctly.
  static std::shared_ptr<ObsContext> Create(std::string label = "query");

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Tracer spans/instants inside this context's scope record here.
  /// Defaults to the process-global tracer.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  PhaseTimeline& timeline() { return timeline_; }
  const PhaseTimeline& timeline() const { return timeline_; }

  const std::string& label() const { return label_; }

  /// Nanoseconds since Create(), or the frozen query duration once
  /// MarkQueryComplete() ran.
  int64_t ElapsedNanos() const;
  /// Freezes ElapsedNanos() at the current clock — call when the query's
  /// result is in hand so a later report does not inflate the wall time.
  void MarkQueryComplete();

  /// One cutoff establishment or tightening, with operator progress at
  /// that moment.
  struct CutoffEvent {
    int64_t at_nanos = 0;
    double cutoff = 0.0;
    bool tightened = false;
    uint64_t rows_consumed = 0;
    uint64_t rows_eliminated_input = 0;
  };
  /// Appends an event; after kMaxCutoffEvents further events only bump the
  /// dropped count (the report states how many were elided).
  void RecordCutoffEvent(const CutoffEvent& event);
  std::vector<CutoffEvent> cutoff_events() const;
  uint64_t cutoff_events_dropped() const {
    return cutoff_events_dropped_.load(std::memory_order_relaxed);
  }

  /// High-water marks, fed by the operators (peak operator memory) and the
  /// spill manager (run bytes simultaneously on disk).
  void NoteMemoryBytes(uint64_t bytes);
  void NoteSpillBytes(uint64_t bytes);
  uint64_t peak_memory_bytes() const {
    return peak_memory_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t peak_spill_bytes() const {
    return peak_spill_bytes_.load(std::memory_order_relaxed);
  }

  static constexpr size_t kMaxCutoffEvents = 512;

 private:
  explicit ObsContext(std::string label);

  const std::string label_;
  const int64_t epoch_nanos_;
  std::atomic<int64_t> frozen_elapsed_nanos_{-1};

  MetricsRegistry metrics_;
  Tracer* tracer_;
  PhaseTimeline timeline_;

  mutable std::mutex cutoff_mu_;
  std::vector<CutoffEvent> cutoff_events_;
  std::atomic<uint64_t> cutoff_events_dropped_{0};

  std::atomic<uint64_t> peak_memory_bytes_{0};
  std::atomic<uint64_t> peak_spill_bytes_{0};
};

/// The context installed on this thread, or null. Instrumentation points
/// mirror into it when present; the global registry is always recorded
/// regardless.
ObsContext* CurrentObsContext();
/// Shared handle to the same (for capture into pool tasks); null when no
/// context is installed. Takes a reference, so call it where a task is
/// scheduled, not per row.
std::shared_ptr<ObsContext> CurrentObsContextShared();

/// RAII installation of a context on the current thread. A null context is
/// a no-op, as is re-installing the context already current (the phase
/// cursor is left where the outer scope put it, so nested operator entry
/// points do not reset the caller's phase). `background` routes this
/// thread's phases under the timeline's background root — the pool-task
/// wrapper uses it so overlapped work never distorts the foreground tree.
/// The scope keeps only raw pointers (no reference-count traffic per
/// install); the caller keeps `context` alive while the scope is open.
class ObsScope {
 public:
  explicit ObsScope(const std::shared_ptr<ObsContext>& context,
                    bool background = false);
  ~ObsScope();

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  bool installed_ = false;
  ObsContext* saved_context_ = nullptr;
  PhaseNode* saved_node_ = nullptr;
};

/// RAII phase of the current context's timeline: enters a child of the
/// current phase (creating it on first entry) and accumulates the scope's
/// wall time into it. No-op when no context is installed.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseNode* node_ = nullptr;
  PhaseNode* saved_ = nullptr;
  int64_t start_nanos_ = 0;
};

/// Attribute I/O to the current phase (no-ops without a context). Storage
/// calls count their bytes and their latency as I/O wait; pure waits
/// (prefetch refill, flush backpressure) count latency only.
void ObsRecordIoWait(int64_t nanos);
void ObsRecordStorageRead(uint64_t bytes, int64_t nanos);
void ObsRecordStorageWrite(uint64_t bytes, int64_t nanos);
/// Spill high-water mark of the current context (SpillManager calls this
/// with the run bytes currently on disk).
void ObsNoteSpillBytes(uint64_t bytes);

/// Dual-recording metric handles: the process-global metric is resolved
/// once at construction (same cost as the raw cached-pointer idiom);
/// every event is additionally mirrored into the current thread's scoped
/// registry when one is installed. Mirroring looks the metric up by name
/// per event — fine at the block/operation granularity all these metrics
/// record at; none is used per row.
class ObsCounter {
 public:
  explicit ObsCounter(const char* name)
      : name_(name), global_(GlobalMetrics().GetCounter(name)) {}
  void Add(uint64_t delta = 1) {
    global_->Add(delta);
    if (ObsContext* obs = CurrentObsContext()) {
      obs->metrics().GetCounter(name_)->Add(delta);
    }
  }

 private:
  const char* name_;
  MetricsCounter* global_;
};

class ObsGauge {
 public:
  explicit ObsGauge(const char* name)
      : name_(name), global_(GlobalMetrics().GetGauge(name)) {}
  void Set(int64_t v) {
    global_->Set(v);
    if (ObsContext* obs = CurrentObsContext()) {
      obs->metrics().GetGauge(name_)->Set(v);
    }
  }
  void Add(int64_t delta) {
    global_->Add(delta);
    if (ObsContext* obs = CurrentObsContext()) {
      obs->metrics().GetGauge(name_)->Add(delta);
    }
  }

 private:
  const char* name_;
  MetricsGauge* global_;
};

class ObsHistogram {
 public:
  explicit ObsHistogram(const char* name)
      : name_(name), global_(GlobalMetrics().GetHistogram(name)) {}
  void Record(int64_t nanos) {
    global_->Record(nanos);
    if (ObsContext* obs = CurrentObsContext()) {
      obs->metrics().GetHistogram(name_)->Record(nanos);
    }
  }

 private:
  const char* name_;
  LatencyHistogram* global_;
};

}  // namespace topk

#endif  // TOPK_OBS_OBS_CONTEXT_H_
