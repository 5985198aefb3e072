#ifndef TOPK_IO_SPILL_MANAGER_H_
#define TOPK_IO_SPILL_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <optional>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "io/async_io.h"
#include "io/manifest.h"
#include "io/run_file.h"
#include "io/spill_quota.h"
#include "io/storage_env.h"
#include "row/row.h"

namespace topk {

/// One run that OpenExisting refused to restore, with the reason. The run
/// file (if any) is left on disk for inspection; it is not registered and
/// its rows will be missing from a resumed merge.
struct QuarantinedRun {
  RunMeta meta;
  Status reason;
};

/// What OpenExisting found: how many manifest runs were verified and
/// registered, and which were quarantined instead of aborting the restore.
struct RestoreReport {
  size_t runs_restored = 0;
  std::vector<QuarantinedRun> quarantined;
};

/// Owns the temporary directory where an operator's sorted runs live,
/// allocates run ids/paths, keeps the registry of finished runs (with their
/// histograms), and cleans everything up on destruction. One instance per
/// operator execution; parallel workers may share one (it is thread-safe).
class SpillManager {
 public:
  /// Creates `dir` (and parents) if needed. Files are placed under it as
  /// run-<id>.tkr. `io` configures the background I/O pipeline shared by
  /// every run written to / read from this manager (0 threads, the
  /// default, keeps all I/O synchronous).
  static Result<std::unique_ptr<SpillManager>> Create(
      StorageEnv* env, std::string dir, const IoPipelineOptions& io = {});

  /// Re-opens an existing spill directory from a manifest previously
  /// written by SaveManifest, so the merge phase of a crashed or paused
  /// operator resumes without regenerating runs. Every manifest run is
  /// verified end-to-end, and a run that fails verification (missing file,
  /// torn tail, checksum mismatch) is *quarantined* — recorded in `report`
  /// and left on disk, but not registered — instead of failing the whole
  /// restore. Only an unreadable manifest is fatal. Run-id allocation
  /// continues past every id the manifest mentions, including quarantined
  /// ones, so recovered merge output never collides with leftover files.
  static Result<std::unique_ptr<SpillManager>> OpenExisting(
      StorageEnv* env, std::string dir, const std::string& manifest_filename,
      const RowComparator& comparator = RowComparator(),
      const IoPipelineOptions& io = {}, RestoreReport* report = nullptr);

  /// Writes the current run registry as a manifest file inside the spill
  /// directory. Safe to call repeatedly (e.g. after every finished run).
  ///
  /// With a background I/O pool the write is scheduled asynchronously —
  /// SaveManifest returns once the registry snapshot is taken, and the
  /// storage round trip rides a pool worker. At most one manifest write is
  /// in flight; a newer request waits for the older one. Errors are latched
  /// and surfaced by the next SaveManifest or FlushManifest — a manifest is
  /// a recovery aid, so the run-generation hot path never stalls on it.
  /// Without a pool (the default) the write is synchronous as before.
  Status SaveManifest(const std::string& manifest_filename) const;

  /// Blocks until no manifest write is in flight and returns the latched
  /// error, if any (then clears it). Call before relying on the manifest
  /// being durable (e.g. pause-and-resume handoff).
  Status FlushManifest() const;

  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Starts a new run file with a fresh id. `index_stride` controls the
  /// run's sparse seek index granularity (rows per entry). With a spill
  /// quota configured (IoPipelineOptions::spill_quota_bytes) the run's
  /// block writes are charged against it and fail with ResourceExhausted
  /// when it would be exceeded; an already-exhausted quota fails NewRun
  /// itself. `quota_exempt` marks the run as quota-exempt while it is
  /// written — used for consolidation output, which *reduces* net spill
  /// usage once its inputs are deleted, so refusing it under pressure
  /// would be self-defeating. The exemption ends when the finished run is
  /// registered via AddRun.
  Result<std::unique_ptr<RunWriter>> NewRun(
      const RowComparator& comparator,
      uint64_t index_stride = kDefaultIndexStride, bool quota_exempt = false);

  /// Registers a finished run in the registry. With auto-manifest enabled
  /// (SetAutoManifest) this also checkpoints the manifest, making the run
  /// registration itself the durable commit point of a merge step; a failed
  /// checkpoint is returned (and latched for FlushManifest) but does not
  /// undo the registration. Also settles the run's spill-quota charge to
  /// its final byte size and clears any write-time exemption.
  Status AddRun(RunMeta meta);

  /// Removes a run from the registry *without* deleting its file, returning
  /// the file path. Crash-safe merge steps use this: inputs are released,
  /// the merged output is registered (checkpointing the manifest), and only
  /// once that checkpoint is durable are the released files deleted — so a
  /// crash at any point leaves a manifest whose runs all exist on disk.
  Result<std::string> ReleaseRun(uint64_t run_id);

  /// Deletes every registered run `select` picks, in a merge step's
  /// crash-safe order: the runs leave the registry in one pass under its
  /// lock, the manifest without them is checkpointed and, in auto-manifest
  /// mode, made durable, `crash_point` fires (when given), and only then
  /// are their files deleted. A crash at any point leaves a manifest whose
  /// runs all exist on disk. Returns the deleted runs; selecting none
  /// writes nothing. `select` runs under the registry lock and must not
  /// call back into the manager.
  Result<std::vector<RunMeta>> DeleteRunsIf(
      const std::function<bool(const RunMeta&)>& select,
      const char* crash_point = nullptr);

  /// Deletes a spill file that is no longer registered (a released merge
  /// input, or an empty merge output). Transient delete faults are retried
  /// under the manager's RetryPolicy.
  Status DeleteSpillFile(const std::string& path);

  /// Enables auto-manifest mode: every AddRun checkpoints the registry to
  /// `<dir>/<manifest_filename>`. Callers that need the checkpoint durable
  /// (e.g. before deleting merge inputs) follow up with FlushManifest().
  void SetAutoManifest(std::string manifest_filename);

  bool auto_manifest_enabled() const;

  /// Writes the manifest now if auto-manifest mode is on (no-op otherwise).
  /// Non-OK results are also latched for FlushManifest, like background
  /// manifest writes.
  Status CheckpointManifest();

  /// Records an input-consumption checkpoint: every manifest write from
  /// now on (auto-checkpoints included) embeds it as a v3 ckpt record.
  /// The caller is responsible for ordering — take the snapshot only once
  /// every run it covers has been registered via AddRun.
  void SetManifestCheckpoint(const ManifestCheckpoint& checkpoint);

  /// The checkpoint read back by OpenExisting (empty if the manifest had
  /// none), updated by SetManifestCheckpoint.
  std::optional<ManifestCheckpoint> manifest_checkpoint() const;

  /// Drops the input checkpoint: subsequent manifest writes revert to the
  /// v2 (run-registry-only) format. The optimized operator clears it once
  /// the whole input is durable in runs, so merge-phase crashes resume
  /// from the runs alone instead of replaying input against them.
  void ClearManifestCheckpoint();

  /// Exclusive upper bound on the run ids allocated so far (the id the
  /// next NewRun would get). This is the ManifestCheckpoint::run_id_bound
  /// an input checkpoint taken right now should record.
  uint64_t run_id_bound() const;

  /// Tells the destructor to leave the spill directory (and every file in
  /// it) on disk. Used when suspending an operator whose state a later
  /// process will resume, and after a failed merge whose runs are still
  /// recoverable through the manifest.
  void DisownDir();

  /// Opens a registered run for reading by a merge of `ways` runs (0, the
  /// default, means every registered run). With an I/O pool the reader
  /// reads ahead, its window capped at PrefetchDepthCap(ways); every slot
  /// beyond the first is gated by the manager's shared PrefetchBudget, so
  /// concurrent merges can never exceed the configured budget.
  Result<std::unique_ptr<RunReader>> OpenRun(const RunMeta& meta,
                                             size_t ways = 0) const;

  /// The lookahead cap (blocks) of each reader of a `ways`-run merge: the
  /// prefetch memory budget split evenly over the merge's runs (0 = every
  /// registered run). The one place the cap is derived.
  size_t PrefetchDepthCap(size_t ways) const;

  /// Re-reads `meta`'s file end-to-end and checks row count, sort order,
  /// and the CRC-32C recorded at write time. Returns Corruption on any
  /// mismatch. Used to validate spilled state after suspicious storage
  /// behaviour.
  Status VerifyRun(const RunMeta& meta,
                   const RowComparator& comparator) const;

  /// Snapshot of the registered runs.
  std::vector<RunMeta> runs() const;

  size_t run_count() const;

  /// Sum of `rows` over all runs ever registered (not reduced by merges);
  /// this is the paper's "Rows" column: input rows written to runs.
  uint64_t total_rows_spilled() const;
  /// Sum of payload bytes over all runs ever registered.
  uint64_t total_bytes_spilled() const;
  /// Number of runs ever registered (the paper's "Runs" column).
  uint64_t total_runs_created() const;

  StorageEnv* env() const { return env_; }
  const std::string& dir() const { return dir_; }
  /// The shared background I/O pool (null in synchronous mode). RunWriters
  /// and RunReaders obtained from this manager borrow it, so they must be
  /// destroyed before the manager.
  ThreadPool* io_pool() const { return io_pool_.get(); }
  /// The I/O pipeline configuration this manager was created with.
  const IoPipelineOptions& io_options() const { return io_options_; }
  /// The shared prefetch-lookahead byte pool (see IoPipelineOptions::
  /// prefetch_memory_budget). Readers borrow it like the pool.
  PrefetchBudget* prefetch_budget() const { return &prefetch_budget_; }
  /// The spill disk-space quota (disabled when spill_quota_bytes was 0).
  SpillQuota* spill_quota() const { return &spill_quota_; }

 private:
  SpillManager(StorageEnv* env, std::string dir, const IoPipelineOptions& io);

  StorageEnv* env_;
  std::string dir_;
  IoPipelineOptions io_options_;
  /// Workers for background flushes and prefetches. Declared before the
  /// registry so it outlives nothing that matters; destroyed (joined) after
  /// the destructor body removed the directory — by then every borrowed
  /// writer/reader is gone.
  std::unique_ptr<ThreadPool> io_pool_;
  /// Bounds the summed prefetch lookahead of every reader opened through
  /// this manager. Mutable: opening a run for reading is logically const.
  mutable PrefetchBudget prefetch_budget_;
  /// Caps the bytes this manager may hold on disk at once (see
  /// IoPipelineOptions::spill_quota_bytes; 0 disables enforcement).
  mutable SpillQuota spill_quota_;
  /// Registration of this manager's degradation-ladder responder with
  /// io_options_.arbiter (0 = none): soft pressure flips the prefetch
  /// budget's shrink flag so readers halve their lookahead windows.
  MemoryArbiter::ResponderId pressure_responder_ = 0;
  /// Whether the destructor removes the directory. Cleared while
  /// OpenExisting is still loading so a failed restore never destroys the
  /// on-disk state it was asked to recover.
  bool owns_dir_ = true;

  mutable std::mutex mu_;
  /// Non-empty once SetAutoManifest was called (guarded by mu_).
  std::string auto_manifest_;
  uint64_t next_run_id_ = 0;
  std::vector<RunMeta> runs_;
  /// Input-consumption checkpoint embedded in every manifest write once
  /// set (guarded by mu_; snapshotted together with the run registry).
  std::optional<ManifestCheckpoint> manifest_checkpoint_;
  uint64_t total_rows_spilled_ = 0;
  uint64_t total_bytes_spilled_ = 0;
  uint64_t total_runs_created_ = 0;

  /// Async-manifest state (guarded by manifest_mu_). The destructor waits
  /// for an in-flight write before removing the directory.
  mutable std::mutex manifest_mu_;
  mutable std::condition_variable manifest_cv_;
  mutable bool manifest_inflight_ = false;
  mutable Status manifest_latched_;
};

}  // namespace topk

#endif  // TOPK_IO_SPILL_MANAGER_H_
