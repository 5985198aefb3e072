/// Crash recovery: run generation periodically checkpoints its spill state
/// with a manifest; after a simulated crash, a fresh "process" restores the
/// registry (verifying checksums) and completes the top-k merge without
/// regenerating a single run — "retain any information once gained"
/// (Sec 2.1) across process boundaries.

#include <cstdio>
#include <filesystem>

#include "gen/generator.h"
#include "histogram/cutoff_filter.h"
#include "io/spill_manager.h"
#include "sort/merger.h"
#include "sort/replacement_selection.h"

namespace {

constexpr uint64_t kInputRows = 400000;
constexpr uint64_t kK = 10000;
constexpr char kManifest[] = "checkpoint.manifest";

}  // namespace

int main() {
  using namespace topk;

  StorageEnv env;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "topk_recovery").string();
  std::filesystem::remove_all(dir);

  // ---- Phase 1: a worker generates filtered runs, checkpointing as it
  // goes, and "crashes" before merging.
  {
    auto spill = SpillManager::Create(&env, dir);
    if (!spill.ok()) {
      std::fprintf(stderr, "%s\n", spill.status().ToString().c_str());
      return 1;
    }

    CutoffFilter::Options filter_options;
    filter_options.k = kK;
    filter_options.target_run_rows = 20000;
    CutoffFilter filter(filter_options);

    class Observer : public SpillObserver {
     public:
      explicit Observer(CutoffFilter* filter) : filter_(filter) {}
      bool EliminateAtSpill(const Row& row) override {
        return filter_->Eliminate(row);
      }
      void OnRowSpilled(const Row& row) override {
        filter_->RowSpilled(row.key);
      }
      std::vector<HistogramBucket> OnRunFinished() override {
        return filter_->RunFinished();
      }

     private:
      CutoffFilter* filter_;
    } observer(&filter);

    RunGeneratorOptions gen_options;
    gen_options.memory_limit_bytes = 1 << 20;
    gen_options.run_row_limit = kK;
    gen_options.observer = &observer;
    ReplacementSelectionRunGenerator generator(spill->get(), RowComparator(),
                                               gen_options);

    DatasetSpec spec;
    spec.WithRows(kInputRows).WithPayload(32, 32).WithSeed(77);
    RowGenerator rows(spec);
    Row row;
    uint64_t consumed = 0, checkpoints = 0;
    while (rows.Next(&row)) {
      if (!filter.Eliminate(row)) {
        Status status = generator.Add(std::move(row));
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          return 1;
        }
      }
      if (++consumed % 100000 == 0) {
        // Periodic checkpoint: everything finished so far is recoverable.
        Status status = spill.value()->SaveManifest(kManifest);
        if (!status.ok()) {
          std::fprintf(stderr, "%s\n", status.ToString().c_str());
          return 1;
        }
        ++checkpoints;
      }
    }
    if (!generator.Flush().ok() ||
        !spill.value()->SaveManifest(kManifest).ok()) {
      return 1;
    }
    ++checkpoints;
    std::printf(
        "phase 1: consumed %llu rows, spilled %llu into %zu runs, %llu "
        "checkpoints written... and crashed before merging.\n",
        static_cast<unsigned long long>(consumed),
        static_cast<unsigned long long>(generator.stats().rows_spilled),
        spill.value()->run_count(),
        static_cast<unsigned long long>(checkpoints));
    // Simulated crash: the spill directory stays on disk, as a killed
    // process would leave it.
    spill.value()->DisownDir();
  }

  // ---- Phase 2: a fresh process restores the checkpoint and finishes.
  RestoreReport report;
  auto restored = SpillManager::OpenExisting(&env, dir, kManifest,
                                             RowComparator(), {}, &report);
  if (!restored.ok() || !report.quarantined.empty()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored.ok() ? "a run failed verification"
                               : restored.status().ToString().c_str());
    return 1;
  }
  std::printf("phase 2: restored %zu runs (checksums verified)\n",
              restored.value()->run_count());

  std::vector<Row> result;
  MergeOptions merge_options;
  merge_options.limit = kK;
  auto stats = MergeRuns(restored->get(), restored.value()->runs(),
                         RowComparator(), merge_options, [&](Row&& row) {
                           result.push_back(std::move(row));
                           return Status::OK();
                         });
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("phase 2: merged top-%zu (keys %.6f .. %.6f) from the "
              "recovered runs — no input re-read, no rows regenerated.\n",
              result.size(), result.front().key, result.back().key);
  return result.size() == kK ? 0 : 1;
}
