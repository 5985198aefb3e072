#include "io/spill_manager.h"

#include <algorithm>
#include <filesystem>

#include "common/logging.h"
#include "common/random.h"
#include "io/manifest.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {

ObsCounter& RunsRestoredCounter() {
  static ObsCounter counter("resume.runs_restored");
  return counter;
}
ObsCounter& RunsQuarantinedCounter() {
  static ObsCounter counter("resume.runs_quarantined");
  return counter;
}

/// Checks a whole-run read against the row count and CRC-32C recorded
/// when `meta`'s run was written.
RunReadVerification VerificationFor(const RunMeta& meta) {
  RunReadVerification verify;
  verify.enabled = true;
  verify.expected_crc32c = meta.crc32c;
  verify.expected_rows = meta.rows;
  verify.run_id = meta.id;
  return verify;
}

}  // namespace

SpillManager::SpillManager(StorageEnv* env, std::string dir,
                           const IoPipelineOptions& io)
    : env_(env),
      dir_(std::move(dir)),
      io_options_(io),
      prefetch_budget_(io.prefetch_memory_budget),
      spill_quota_(io.spill_quota_bytes) {
  if (io_options_.background_threads > 0) {
    io_pool_ = std::make_unique<ThreadPool>(io_options_.background_threads);
  }
  if (io_options_.arbiter != nullptr) {
    prefetch_budget_.AttachArbiter(io_options_.arbiter);
    // The push half of the degradation ladder: on a soft-pressure
    // transition, tell every reader sharing this manager's prefetch budget
    // to halve its lookahead. The responder only flips an atomic flag —
    // no locks, safe from any grant/release thread.
    pressure_responder_ = io_options_.arbiter->AddPressureResponder(
        [this](MemoryPressure level) {
          prefetch_budget_.SetPressureShrink(level >= MemoryPressure::kSoft);
        });
    // Transitions before this manager existed still apply.
    prefetch_budget_.SetPressureShrink(io_options_.arbiter->pressure() >=
                                       MemoryPressure::kSoft);
  }
}

SpillManager::~SpillManager() {
  if (io_options_.arbiter != nullptr && pressure_responder_ != 0) {
    io_options_.arbiter->RemovePressureResponder(pressure_responder_);
  }
  // An async manifest write may still reference env_ and the directory;
  // let it land (or fail) before tearing anything down.
  {
    std::unique_lock<std::mutex> lock(manifest_mu_);
    manifest_cv_.wait(lock, [this] { return !manifest_inflight_; });
    if (!manifest_latched_.ok()) {
      TOPK_LOG(Warning) << "background manifest write error dropped in "
                           "destructor: "
                        << manifest_latched_.ToString();
    }
  }
  if (!owns_dir_) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  if (ec) {
    TOPK_LOG(Warning) << "failed to clean spill dir " << dir_ << ": "
                      << ec.message();
  }
}

Result<std::unique_ptr<SpillManager>> SpillManager::Create(
    StorageEnv* env, std::string dir, const IoPipelineOptions& io) {
  TOPK_RETURN_NOT_OK(env->CreateDirs(dir));
  return std::unique_ptr<SpillManager>(
      new SpillManager(env, std::move(dir), io));
}

Result<std::unique_ptr<SpillManager>> SpillManager::OpenExisting(
    StorageEnv* env, std::string dir, const std::string& manifest_filename,
    const RowComparator& comparator, const IoPipelineOptions& io,
    RestoreReport* report) {
  auto manager = std::unique_ptr<SpillManager>(
      new SpillManager(env, std::move(dir), io));
  // A failed open must leave the crashed operator's state on disk.
  manager->owns_dir_ = false;
  std::vector<RunMeta> runs;
  ManifestCheckpoint ckpt;
  bool has_ckpt = false;
  TOPK_ASSIGN_OR_RETURN(
      runs, ReadManifest(env, manager->dir_ + "/" + manifest_filename,
                         io.retry, &ckpt, &has_ckpt));
  if (has_ckpt) manager->SetManifestCheckpoint(ckpt);
  uint64_t max_id = 0;
  for (RunMeta& run : runs) {
    // Ids of quarantined runs count too: merge output written after the
    // resume must never collide with a leftover (possibly corrupt) file.
    max_id = std::max(max_id, run.id);
    Status verified = manager->VerifyRun(run, comparator);
    if (verified.ok()) {
      RunsRestoredCounter().Add(1);
      if (report != nullptr) ++report->runs_restored;
      manager->AddRun(std::move(run));
    } else {
      RunsQuarantinedCounter().Add(1);
      TOPK_LOG(Warning) << "quarantining run " << run.id << " (" << run.path
                        << "): " << verified.ToString();
      if (report != nullptr) {
        report->quarantined.push_back(
            QuarantinedRun{std::move(run), std::move(verified)});
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(manager->mu_);
    // Also advance past the checkpoint's run-id frontier: runs above it
    // may have been deleted by a resume, and replay output must not reuse
    // their ids (a second crash would mistake it for covered state).
    manager->next_run_id_ =
        std::max(runs.empty() ? 0 : max_id + 1,
                 has_ckpt ? ckpt.run_id_bound : 0);
  }
  manager->owns_dir_ = true;
  return manager;
}

Status SpillManager::SaveManifest(const std::string& manifest_filename) const {
  const std::string path = dir_ + "/" + manifest_filename;
  // One write at a time, each snapshotted only once the previous one is
  // done: with several threads registering runs, a snapshot written out of
  // order would overwrite a newer manifest with a stale run set. The lock
  // is held until the write is done or handed to the pool, so a throw on
  // the way (a failed allocation) leaves no write marked in flight.
  std::unique_lock<std::mutex> lock(manifest_mu_);
  manifest_cv_.wait(lock, [this] { return !manifest_inflight_; });
  if (!manifest_latched_.ok()) {
    Status latched = manifest_latched_;
    manifest_latched_ = Status::OK();
    return latched;
  }
  // Snapshot registry + checkpoint together under one lock so a manifest
  // never pairs a new checkpoint with an older run set (or vice versa).
  std::vector<RunMeta> snapshot;
  std::optional<ManifestCheckpoint> ckpt;
  {
    std::lock_guard<std::mutex> registry_lock(mu_);
    snapshot = runs_;
    ckpt = manifest_checkpoint_;
  }
  if (io_pool_ == nullptr) {
    TraceSpan span("manifest.save", "io");
    return WriteManifest(env_, path, snapshot, io_options_.retry,
                         ckpt.has_value() ? &*ckpt : nullptr);
  }
  // The manifest reflects the state at the call; the storage round trip
  // rides the pool. The write clears the mark under manifest_mu_, so only
  // after it is set below.
  io_pool_->Schedule([this, path, snapshot = std::move(snapshot),
                      ckpt = std::move(ckpt)] {
    TraceSpan span("manifest.save", "io.bg",
                   {TraceArg("runs", snapshot.size())});
    Status status = WriteManifest(env_, path, snapshot, io_options_.retry,
                                  ckpt.has_value() ? &*ckpt : nullptr);
    std::lock_guard<std::mutex> inner(manifest_mu_);
    if (!status.ok() && manifest_latched_.ok()) manifest_latched_ = status;
    manifest_inflight_ = false;
    manifest_cv_.notify_all();
  });
  manifest_inflight_ = true;
  return Status::OK();
}

Status SpillManager::FlushManifest() const {
  std::unique_lock<std::mutex> lock(manifest_mu_);
  manifest_cv_.wait(lock, [this] { return !manifest_inflight_; });
  Status latched = manifest_latched_;
  manifest_latched_ = Status::OK();
  return latched;
}

Result<std::unique_ptr<RunWriter>> SpillManager::NewRun(
    const RowComparator& comparator, uint64_t index_stride,
    bool quota_exempt) {
  if (spill_quota_.enabled() && !quota_exempt &&
      spill_quota_.charged_bytes() >= spill_quota_.quota_bytes()) {
    // Fail before creating the file: a run that cannot accept a single
    // block only burns an id and leaves an empty file to clean up.
    return Status::ResourceExhausted(
        "spill quota exhausted: " +
        std::to_string(spill_quota_.charged_bytes()) + " of " +
        std::to_string(spill_quota_.quota_bytes()) +
        " bytes already on disk (spill_quota_bytes)");
  }
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_run_id_++;
  }
  std::string path = dir_ + "/run-" + std::to_string(id) + ".tkr";
  if (spill_quota_.enabled() && quota_exempt) {
    spill_quota_.AddExemption(path);
  }
  return RunWriter::Create(env_, std::move(path), id, comparator,
                           kDefaultBlockBytes, index_stride, io_pool_.get(),
                           io_options_.retry,
                           spill_quota_.enabled() ? &spill_quota_ : nullptr,
                           io_options_.arbiter);
}

Status SpillManager::AddRun(RunMeta meta) {
  if (spill_quota_.enabled()) {
    // Settle the charge to the run's final size (covers restored runs and
    // merge output written through other paths) and end any write-time
    // exemption — from here on the run occupies real quota.
    spill_quota_.ChargeAtLeast(meta.path, meta.bytes);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_rows_spilled_ += meta.rows;
    total_bytes_spilled_ += meta.bytes;
    ++total_runs_created_;
    runs_.push_back(std::move(meta));
    // Spill high-water mark for the profile report: bytes of registered
    // runs simultaneously on disk (not the lifetime total_bytes_spilled_,
    // which keeps counting runs the merges already consumed and deleted).
    uint64_t on_disk = 0;
    for (const RunMeta& run : runs_) on_disk += run.bytes;
    ObsNoteSpillBytes(on_disk);
  }
  // Outside mu_: CheckpointManifest snapshots the registry itself. Errors
  // are latched there; registration is not undone by a failed checkpoint.
  return CheckpointManifest();
}

Status SpillManager::RemoveRun(uint64_t run_id) {
  std::string path;
  TOPK_ASSIGN_OR_RETURN(path, ReleaseRun(run_id));
  return DeleteSpillFile(path);
}

Result<std::string> SpillManager::ReleaseRun(uint64_t run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(runs_.begin(), runs_.end(),
                         [&](const RunMeta& m) { return m.id == run_id; });
  if (it == runs_.end()) {
    return Status::NotFound("run " + std::to_string(run_id) +
                            " not registered");
  }
  std::string path = it->path;
  runs_.erase(it);
  return path;
}

std::vector<RunMeta> SpillManager::ReleaseRunsIf(
    const std::function<bool(const RunMeta&)>& select) {
  std::vector<RunMeta> released;
  std::lock_guard<std::mutex> lock(mu_);
  auto kept = runs_.begin();
  for (auto it = runs_.begin(); it != runs_.end(); ++it) {
    if (select(*it)) {
      released.push_back(std::move(*it));
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  runs_.erase(kept, runs_.end());
  return released;
}

Status SpillManager::DeleteSpillFile(const std::string& path) {
  // Deterministic per-path jitter seed; a local RNG keeps concurrent
  // deletes race-free without another manager-wide lock.
  Random rng(io_options_.retry.jitter_seed ^
             static_cast<uint64_t>(std::hash<std::string>{}(path)));
  Status status = RetryOp(io_options_.retry, "delete " + path, &rng,
                          [&] { return env_->DeleteFile(path); });
  if (status.ok() && spill_quota_.enabled()) {
    // The bytes are off the disk: return them to the quota.
    spill_quota_.CreditFile(path);
  }
  return status;
}

void SpillManager::SetAutoManifest(std::string manifest_filename) {
  std::lock_guard<std::mutex> lock(mu_);
  auto_manifest_ = std::move(manifest_filename);
}

bool SpillManager::auto_manifest_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !auto_manifest_.empty();
}

Status SpillManager::CheckpointManifest() {
  std::string filename;
  {
    std::lock_guard<std::mutex> lock(mu_);
    filename = auto_manifest_;
  }
  if (filename.empty()) return Status::OK();
  Status status = SaveManifest(filename);
  if (!status.ok()) {
    // Mirror the background-write contract: a failed checkpoint stays
    // latched until FlushManifest surfaces it.
    std::lock_guard<std::mutex> lock(manifest_mu_);
    if (manifest_latched_.ok()) manifest_latched_ = status;
  }
  return status;
}

void SpillManager::SetManifestCheckpoint(const ManifestCheckpoint& checkpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_checkpoint_ = checkpoint;
}

std::optional<ManifestCheckpoint> SpillManager::manifest_checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_checkpoint_;
}

void SpillManager::ClearManifestCheckpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_checkpoint_.reset();
}

uint64_t SpillManager::run_id_bound() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_run_id_;
}

void SpillManager::DisownDir() {
  std::lock_guard<std::mutex> lock(mu_);
  owns_dir_ = false;
}

size_t SpillManager::PrefetchDepthCap(size_t ways) const {
  return ApportionPrefetchDepth(io_options_.prefetch_memory_budget,
                                ways == 0 ? run_count() : ways,
                                kDefaultBlockBytes);
}

Result<std::unique_ptr<RunReader>> SpillManager::OpenRun(const RunMeta& meta,
                                                         size_t ways) const {
  PrefetchTuning tuning;
  tuning.hedge_reads = io_options_.hedge_reads;
  tuning.hedge_latency_multiplier = io_options_.hedge_latency_multiplier;
  tuning.read_deadline_nanos = io_options_.retry.deadline_nanos;
  tuning.cancel = io_options_.retry.cancel;
  return RunReader::Open(env_, meta.path, kDefaultBlockBytes, io_pool_.get(),
                         io_options_.retry, VerificationFor(meta),
                         PrefetchDepthCap(ways), &prefetch_budget_, tuning);
}

Status SpillManager::VerifyRun(const RunMeta& meta,
                               const RowComparator& comparator) const {
  // The reader checks the row count and the CRC-32C over the raw bytes at
  // EOF; only the sort order is checked here.
  std::unique_ptr<RunReader> reader;
  TOPK_ASSIGN_OR_RETURN(
      reader, RunReader::Open(env_, meta.path, kDefaultBlockBytes,
                              /*prefetch_pool=*/nullptr, io_options_.retry,
                              VerificationFor(meta)));
  Row row, previous;
  for (uint64_t rows = 0;; ++rows) {
    bool eof = false;
    TOPK_RETURN_NOT_OK(reader->Next(&row, &eof));
    if (eof) return Status::OK();
    if (rows > 0 && comparator.Less(row, previous)) {
      return Status::Corruption("run " + std::to_string(meta.id) +
                                " is not sorted at row " +
                                std::to_string(rows));
    }
    std::swap(previous, row);
  }
}

std::vector<RunMeta> SpillManager::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

size_t SpillManager::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_.size();
}

uint64_t SpillManager::total_rows_spilled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_rows_spilled_;
}

uint64_t SpillManager::total_bytes_spilled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_spilled_;
}

uint64_t SpillManager::total_runs_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_runs_created_;
}

}  // namespace topk
