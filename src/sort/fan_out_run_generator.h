#ifndef TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_
#define TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs_context.h"
#include "sort/run_generation.h"

namespace topk {

/// Where a row stood in its operator's input when it was offered: the rows
/// consumed, this one included, and the rows eliminated at input before it.
struct InputProgress {
  uint64_t rows_consumed = 0;
  uint64_t rows_eliminated_input = 0;
};

/// What a FanOutRunGenerator's workers do with each offered row before
/// adding it to their generators: the histogram operator's Algorithm 1
/// line-4 probe and the run maintenance that rides on it.
class RowAdmission {
 public:
  virtual ~RowAdmission() = default;

  /// Runs on a worker's thread for each row offered to that worker, in offer
  /// order. True adds the row to the worker's generator; false drops it. A
  /// failure leaves the row queued: a later Flush admits it again.
  virtual Result<bool> Admit(const Row& row, const InputProgress& at) = 0;

  /// Runs once per Flush, on a worker's thread, after every worker has
  /// admitted its last row and before any generator flushes; the caller
  /// waits in Flush meanwhile.
  virtual void Drained() = 0;

  /// Runs on the producer's thread each time the workers stopped, whatever
  /// stopped them (Flush, SetCancel, a worker's failure), once they all
  /// joined: what Admit counted can be folded into the producer's state.
  virtual void Stopped() = 0;
};

/// Pipelined run generation (Secs 2.1, 4.4): options.workers run generators
/// of one kind, each on its own thread, fed round-robin with batches of
/// rows and spilling into the one SpillManager, so the caller still sees
/// one run generator and one run set. Worker i reports to
/// options.worker_observers[i]. With one worker, rows reach its generator
/// in the order they were offered.
///
/// Offer, Add, Flush and SetCancel are called from one thread, the
/// producer. A batch holds at most kBatchRows rows and a worker's queue at
/// most kQueueBatches batches, so the rows in flight are bounded, and
/// leased apart. One worker keeps the whole budget, so its runs are those
/// a sequential generator writes, and the rows in flight go over the
/// budget by up to a quarter of it. More workers split what an eighth of
/// the budget for the rows in flight leaves.
///
/// The threads share as little as a hand-off needs. A worker only reads the
/// rows it is given (its generator serializes them) and hands each spent
/// batch back, so every row is freed on the producer's thread; its per-row
/// path reads nothing the producer writes. Blocked threads wait on a
/// condition variable, with hysteresis: a sleeping worker is woken once
/// kWakeBatches batches wait for it, and a producer waiting for queue space
/// once the queue is down to kQueueBatches - kWakeBatches, so each sleep is
/// paid for by several batches.
///
/// A worker's failure, an allocation failure included, surfaces from a
/// later Offer, Add or Flush, not from the call that offered the row; the
/// producer then stops the other workers. A cancellation leaves every row not yet
/// spilled in place, so once SetCancel detaches the tripped token, Flush
/// still writes the whole input.
class FanOutRunGenerator : public RunGenerator {
 public:
  static constexpr size_t kBatchRows = 256;
  static constexpr size_t kQueueBatches = 8;
  static constexpr size_t kWakeBatches = 6;

  /// `admission` (not owned; may be null) admits every offered row.
  FanOutRunGenerator(RunGenerationKind kind, SpillManager* spill,
                     const RowComparator& comparator,
                     const RunGeneratorOptions& options,
                     RowAdmission* admission = nullptr);
  ~FanOutRunGenerator() override;

  // The workers hold its address.
  FanOutRunGenerator(const FanOutRunGenerator&) = delete;
  FanOutRunGenerator& operator=(const FanOutRunGenerator&) = delete;

  /// Queues `row` for the next worker, which admits it, when there is an
  /// admission, and adds it. Starts the workers.
  Status Offer(Row&& row, const InputProgress& at);
  /// Adds `row` without admission, straight into a worker's generator on
  /// the calling thread, the workers taking kBatchRows rows in turn: the
  /// external switch hands over its in-memory rows this way and holds none
  /// in flight. FailedPrecondition once rows were offered, until Flush.
  Status Add(const Row& row) override;
  Status Flush() override;
  /// Stops the workers first: they read the token their generators hold.
  /// A cancellation latched from the replaced token no longer stands.
  void SetCancel(const CancellationToken* cancel) override;
  /// The workers' totals as of the last Flush.
  const RunGeneratorStats& stats() const override { return stats_; }

 private:
  struct Entry {
    Row row;
    InputProgress at;
  };
  struct Batch {
    std::vector<Entry> entries;
    /// Entries before this index have been admitted or dropped.
    size_t next = 0;
    size_t bytes = 0;
  };
  struct Worker {
    std::unique_ptr<RunGenerator> generator;
    std::thread thread;
    /// Guarded by mu_. The front batch is being drained; it stays here,
    /// with its remaining rows, if draining fails.
    std::deque<Batch> queue;
    /// The worker waits here for batches.
    std::condition_variable work_cv;
  };

  bool BatchFull() const {
    return open_.entries.size() >= kBatchRows ||
           open_.bytes >= batch_bytes_limit_;
  }
  /// True while no row is queued or in the open batch and no worker runs.
  bool Idle();
  /// Queues the open batch for the next worker, waiting while that worker's
  /// queue is full, and frees the batches the workers are done with.
  Status HandOff();
  /// Starts the worker threads unless they run or one failed; fails, with
  /// none left running, if a thread cannot be created.
  Status StartWorkers();
  /// Joins the workers. With `drain` each first drains its queue and
  /// flushes its generator; otherwise each stops after its current batch.
  /// Returns false if none ran.
  bool StopWorkers(bool drain);
  /// StopWorkers, then RowAdmission::Stopped. Returns the first failure
  /// any worker latched.
  Status JoinWorkers(bool drain);
  /// Drains the worker's batches until it is stopped, or, once Flush
  /// drains, until its queue is empty; then flushes its generator.
  void WorkerLoop(Worker* worker);
  /// Admits and adds the batch's remaining rows.
  Status Drain(Worker* worker, Batch* batch);
  /// Latches a worker's failure. Called with mu_ held.
  void Fail(const Status& status);
  void CollectStats();

  MemoryArbiter* arbiter_;
  RowAdmission* admission_;
  size_t batch_bytes_limit_ = 1;
  /// The query's observability context, installed on every worker.
  std::shared_ptr<ObsContext> obs_;
  Batch open_;
  /// Spent batches HandOff took from spent_ and frees.
  std::vector<Batch> freeing_;
  /// Lease covering the queued and spent batches (detached without an
  /// arbiter).
  MemoryLease lease_;
  size_t in_flight_peak_ = 0;
  /// Rows Add placed on the calling thread.
  uint64_t direct_rows_ = 0;
  RunGeneratorStats stats_;

  std::mutex mu_;
  /// The producer waits here for queue space.
  std::condition_variable space_cv_;
  /// Workers that drained their queue wait here for the input to end.
  std::condition_variable drained_cv_;
  /// Bytes of the queued and spent batches. Guarded by mu_, like the
  /// members below.
  size_t in_flight_bytes_ = 0;
  /// Batches the workers are done with, rows and all, for the producer to
  /// free.
  std::vector<Batch> spent_;
  bool draining_ = false;
  bool stopping_ = false;
  /// Workers whose queue Flush has drained, and whether the last of them
  /// has run RowAdmission::Drained.
  size_t queues_drained_ = 0;
  bool input_drained_ = false;
  /// The first failure a worker hit.
  Status error_;

  /// Declared after everything the worker threads use.
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
  bool running_ = false;
};

}  // namespace topk

#endif  // TOPK_SORT_FAN_OUT_RUN_GENERATOR_H_
