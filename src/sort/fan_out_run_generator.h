#ifndef TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_
#define TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs_context.h"
#include "sort/run_generation.h"

namespace topk {

/// Parallel run generation (Sec 4.4): options.workers run generators of one
/// kind, each on its own thread, fed round-robin with batches of rows and
/// spilling into the one SpillManager, so the caller still sees one run
/// generator and one run set. Worker i reports to
/// options.worker_observers[i].
///
/// Add, Flush and SetCancel are called from one thread. A batch holds at
/// most kBatchRows rows and a worker at most kBatchesPerWorker batches, so
/// the rows in flight are bounded. An eighth of the memory budget is kept
/// for them (it bounds a batch's bytes) and leased for the queued batches;
/// the workers split the rest evenly.
///
/// A worker's failure, an allocation failure included, surfaces from the
/// next Add or Flush. A cancellation leaves every row not yet spilled in
/// place, so once SetCancel detaches the tripped token, Flush still writes
/// the whole input.
class FanOutRunGenerator : public RunGenerator {
 public:
  static constexpr size_t kBatchRows = 256;
  static constexpr size_t kBatchesPerWorker = 2;

  FanOutRunGenerator(RunGenerationKind kind, SpillManager* spill,
                     const RowComparator& comparator,
                     const RunGeneratorOptions& options);
  ~FanOutRunGenerator() override;

  // The workers hold its address.
  FanOutRunGenerator(const FanOutRunGenerator&) = delete;
  FanOutRunGenerator& operator=(const FanOutRunGenerator&) = delete;

  Status Add(Row row) override;
  Status Flush() override;
  /// Stops the workers first: they read the token their generators hold.
  /// A cancellation latched from the replaced token no longer stands.
  void SetCancel(const CancellationToken* cancel) override;
  /// The workers' totals as of the last Flush.
  const RunGeneratorStats& stats() const override { return stats_; }

 private:
  struct Batch {
    std::vector<Row> rows;
    /// Rows before this index are in the worker's generator.
    size_t next = 0;
    size_t bytes = 0;
  };
  struct Worker {
    std::unique_ptr<RunGenerator> generator;
    std::thread thread;
    /// Guarded by mu_. The front batch is being drained; it stays here,
    /// with its remaining rows, if draining fails.
    std::deque<Batch> queue;
  };

  bool BatchFull() const {
    return open_.rows.size() >= kBatchRows ||
           open_.bytes >= batch_bytes_limit_;
  }
  /// Queues the open batch for the next worker, waiting while that worker
  /// has kBatchesPerWorker batches outstanding.
  Status HandOff();
  /// Starts the worker threads unless they run; fails, with none left
  /// running, if a thread cannot be created.
  Status StartWorkers();
  /// Joins the workers. With `drain` each first drains its queue and
  /// flushes its generator; otherwise each stops after its current batch.
  /// Returns the first failure any worker latched.
  Status JoinWorkers(bool drain);
  void WorkerLoop(Worker* worker);
  void CollectStats();

  MemoryArbiter* arbiter_;
  size_t batch_bytes_limit_ = 1;
  /// The query's observability context, installed on every worker.
  std::shared_ptr<ObsContext> obs_;
  Batch open_;
  /// Lease covering the queued batches (detached without an arbiter).
  MemoryLease lease_;
  size_t in_flight_peak_ = 0;
  RunGeneratorStats stats_;

  std::mutex mu_;
  /// Workers wait here for batches; the caller waits for queue space.
  std::condition_variable work_cv_;
  std::condition_variable space_cv_;
  /// Bytes of the queued batches. Guarded by mu_, like the flags below.
  size_t in_flight_bytes_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  /// The first failure a worker hit.
  Status error_;

  /// Declared after everything the worker threads use.
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
  bool running_ = false;
};

}  // namespace topk

#endif  // TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_
