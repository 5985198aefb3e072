#include <filesystem>

#include <gtest/gtest.h>

#include "common/query_control.h"
#include "io/manifest.h"
#include "obs/obs_context.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

class OptimizedTopKTest : public ::testing::Test {
 protected:
  TopKOptions Options(uint64_t k, size_t memory_bytes = 32 * 1024) {
    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(dir_seq_++);
    return options;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int dir_seq_ = 0;
};

TEST_F(OptimizedTopKTest, SmallKCutoffFromRunKthKey) {
  // k smaller than a run: the (k)th key of the first full run becomes the
  // cutoff (the incrementally sharpening filter of [14]); no early merge is
  // needed.
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal,
                             Options(100, 32 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*op)->cutoff().has_value());
  EXPECT_GT((*op)->stats().rows_eliminated_input, 30000u);
  EXPECT_EQ((*op)->stats().merge_rows_written, 0u);  // no early merges
  ExpectSameRows(ReferenceTopK(rows, 100, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(OptimizedTopKTest, LargeKCutoffRequiresEarlyMerge) {
  // k larger than any run: only an early merge step can prove k rows and
  // establish a cutoff (Sec 2.5), at the cost of intermediate merge I/O.
  TopKOptions options = Options(3000, 16 * 1024);
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*op)->cutoff().has_value());
  EXPECT_GT((*op)->stats().merge_rows_written, 0u);  // early merges ran
  EXPECT_GT((*op)->stats().rows_eliminated_input, 0u);
  ExpectSameRows(ReferenceTopK(rows, 3000, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(OptimizedTopKTest, RunSizesRespectOutputLimit) {
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal,
                             Options(200, 64 * 1024));
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  ASSERT_TRUE(RunOperator(op->get(), rows).ok());
  // Runs were limited to k rows; with ~1300 rows of memory, unlimited runs
  // would be far larger, so runs_created must exceed rows_spilled / 1300.
  const OperatorStats& stats = (*op)->stats();
  EXPECT_GE(stats.runs_created, stats.rows_spilled / 200);
}

TEST_F(OptimizedTopKTest, SpillsLessThanTraditionalButMoreThanHistogram) {
  // The paper's ordering of the three external algorithms by I/O effort.
  DatasetSpec spec;
  spec.WithRows(80000).WithSeed(4);
  auto rows = MaterializeDataset(spec);

  uint64_t written[3] = {0, 0, 0};
  const TopKAlgorithm algorithms[3] = {TopKAlgorithm::kTraditionalExternal,
                                       TopKAlgorithm::kOptimizedExternal,
                                       TopKAlgorithm::kHistogram};
  for (int i = 0; i < 3; ++i) {
    TopKOptions options = Options(2000, 16 * 1024);
    auto op = MakeTopKOperator(algorithms[i], options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok());
    written[i] =
        (*op)->stats().rows_spilled + (*op)->stats().merge_rows_written;
  }
  EXPECT_LT(written[1], written[0]);  // optimized beats traditional
  EXPECT_LT(written[2], written[1]);  // histogram beats optimized
}

TEST_F(OptimizedTopKTest, DescendingDirection) {
  TopKOptions options = Options(1000, 16 * 1024);
  options.direction = SortDirection::kDescending;
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 1000, 0, SortDirection::kDescending),
                 *result);
}

/// Replaces `to` with a copy of `from`: a crash snapshot of every file and
/// the manifest as they are on disk now. The manifest names runs by
/// absolute path, so a snapshot is resumed after copying it back.
void CopyDir(const std::filesystem::path& from,
             const std::filesystem::path& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

TEST_F(OptimizedTopKTest, ResumeCommitsTheManifestBeforeDeletingReplayedRuns) {
  // A mid-input crash leaves runs written after the last input checkpoint.
  // The resume deletes them, since the replay re-delivers their rows. A
  // crash during that resume must find a durable manifest that names none
  // of them while their files still exist, and resume again cleanly.
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(9);
  const auto rows = MaterializeDataset(spec);
  TopKOptions options = Options(2000, 16 * 1024);
  options.enable_early_merge = false;  // no cutoff: every row is spilled
  options.io_background_threads = 0;   // the manifest on disk is current
  options.manifest_filename = "ckpt.tkm";
  options.checkpoint_input_every_rows = 5000;
  const std::filesystem::path dir = options.spill_dir;
  const std::filesystem::path crashed = scratch_.str() + "/crashed";
  const std::filesystem::path crashed_in_resume =
      scratch_.str() + "/crashed-in-resume";
  const std::string manifest = (dir / options.manifest_filename).string();
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
    ASSERT_TRUE(op.ok());
    for (size_t i = 0; i < 17000; ++i) {
      ASSERT_TRUE((*op)->Consume(rows[i]).ok());
    }
    CopyDir(dir, crashed);  // the crash: the operator never finishes
  }
  CopyDir(crashed, dir);
  ManifestCheckpoint ckpt;
  bool has_ckpt = false;
  auto before =
      ReadManifest(&env_, manifest, RetryPolicy(), &ckpt, &has_ckpt);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(has_ckpt);
  std::vector<std::string> duplicated;
  for (const RunMeta& run : *before) {
    if (run.id >= ckpt.run_id_bound) duplicated.push_back(run.path);
  }
  ASSERT_FALSE(duplicated.empty());

  bool fired = false;
  ASSERT_TRUE(ArmCrashPointForTest("optimized.resume-drop", [&] {
                fired = true;
                auto durable = ReadManifest(&env_, manifest);
                ASSERT_TRUE(durable.ok()) << durable.status().ToString();
                for (const RunMeta& run : *durable) {
                  EXPECT_LT(run.id, ckpt.run_id_bound);
                }
                for (const std::string& path : duplicated) {
                  EXPECT_TRUE(std::filesystem::exists(path)) << path;
                }
                CopyDir(dir, crashed_in_resume);
              }).ok());
  {
    auto resumed = ResumeTopKOperator(TopKAlgorithm::kOptimizedExternal,
                                      options);
    DisarmCrashPoints();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(fired);
    for (const std::string& path : duplicated) {
      EXPECT_FALSE(std::filesystem::exists(path)) << path;
    }
  }

  // Resume from the state the crash point left behind.
  CopyDir(crashed_in_resume, dir);
  RestoreReport report;
  auto resumed = ResumeTopKOperator(TopKAlgorithm::kOptimizedExternal,
                                    options, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(report.quarantined.empty());
  ASSERT_TRUE((*resumed)->resume_accepts_input());
  ASSERT_EQ((*resumed)->resume_input_offset(), ckpt.input_rows_consumed);
  for (size_t i = ckpt.input_rows_consumed; i < rows.size(); ++i) {
    ASSERT_TRUE((*resumed)->Consume(rows[i]).ok());
  }
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 2000, 0, SortDirection::kAscending),
                 *result);
}

/// Runs an optimized query recorded into its own ObsContext and checks the
/// cutoff timeline the operator's cutoff filter published: every cutoff
/// change is one event and one filter.cutoff_updates count, and the first
/// comes after input arrived.
void ExpectCutoffTimeline(TopKOptions options, const std::vector<Row>& rows,
                          bool early_merge) {
  auto obs = ObsContext::Create("optimized");
  options.obs = obs;
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_TRUE(op.ok());
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, options.k, 0, SortDirection::kAscending),
                 *result);
  EXPECT_EQ((*op)->stats().merge_rows_written > 0, early_merge);
  const std::vector<ObsContext::CutoffEvent> events = obs->cutoff_events();
  ASSERT_FALSE(events.empty());
  EXPECT_GT(events.front().rows_consumed, 0u);
  EXPECT_FALSE(events.front().tightened);
  EXPECT_EQ(obs->metrics().GetCounter("filter.cutoff_updates")->value(),
            events.size() + obs->cutoff_events_dropped());
  EXPECT_EQ(events.back().cutoff, *(*op)->stats().final_cutoff);
}

TEST_F(OptimizedTopKTest, RunKthKeyCutoffsFormATimeline) {
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(1);
  ExpectCutoffTimeline(Options(100, 32 * 1024), MaterializeDataset(spec),
                       /*early_merge=*/false);
}

TEST_F(OptimizedTopKTest, EarlyMergeCutoffsFormATimeline) {
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(2);
  ExpectCutoffTimeline(Options(3000, 16 * 1024), MaterializeDataset(spec),
                       /*early_merge=*/true);
}

TEST_F(OptimizedTopKTest, FullRunsStoreOneBucketOfOutputRows) {
  // A run that reaches k+offset rows is a one-bucket histogram: its last
  // key bounds k+offset rows. The manifest keeps that bucket; a shorter run
  // proves nothing and stores none.
  TopKOptions options = Options(100, 32 * 1024);
  options.offset = 20;
  options.enable_early_merge = false;
  options.io_background_threads = 0;
  options.manifest_filename = "query.tkm";
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(3);
  const auto rows = MaterializeDataset(spec);
  auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_TRUE(op.ok());
  for (const Row& row : rows) ASSERT_TRUE((*op)->Consume(row).ok());
  ASSERT_TRUE((*op)->Suspend().ok());
  auto runs = ReadManifest(
      &env_, options.spill_dir + "/" + options.manifest_filename);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  size_t full = 0;
  size_t shorter = 0;
  for (const RunMeta& run : *runs) {
    ASSERT_LE(run.rows, 120u);
    if (run.rows == 120) {
      ++full;
      ASSERT_EQ(run.histogram.size(), 1u) << "run " << run.id;
      EXPECT_EQ(run.histogram[0], (HistogramBucket{run.last_key, 120}));
    } else {
      ++shorter;
      EXPECT_TRUE(run.histogram.empty()) << "run " << run.id;
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(shorter, 0u);
}

TEST_F(OptimizedTopKTest, MergePhaseResumeReportsTheCutoffItsRunsProve) {
  // A crash after run generation resumes into the merge with the filter
  // rebuilt from the runs' one-bucket histograms: the sharpest full run's
  // last key.
  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(4);
  const auto rows = MaterializeDataset(spec);
  TopKOptions options = Options(100, 32 * 1024);
  options.enable_early_merge = false;
  options.io_background_threads = 0;  // the manifest on disk is current
  options.manifest_filename = "query.tkm";
  const std::filesystem::path dir = options.spill_dir;
  const std::filesystem::path crashed = scratch_.str() + "/crashed";
  ASSERT_TRUE(ArmCrashPointForTest("post-run-flush", [&] {
                CopyDir(dir, crashed);
              }).ok());
  std::optional<double> cutoff;
  {
    auto op = MakeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
    ASSERT_TRUE(op.ok());
    auto result = RunOperator(op->get(), rows);
    DisarmCrashPoints();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    cutoff = (*op)->stats().final_cutoff;
  }
  ASSERT_TRUE(cutoff.has_value());
  CopyDir(crashed, dir);
  auto runs = ReadManifest(&env_, (dir / options.manifest_filename).string());
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  std::optional<double> proven;
  for (const RunMeta& run : *runs) {
    if (run.rows == options.k && (!proven || run.last_key < *proven)) {
      proven = run.last_key;
    }
  }
  ASSERT_TRUE(proven.has_value());
  EXPECT_EQ(*proven, *cutoff);

  auto resumed =
      ResumeTopKOperator(TopKAlgorithm::kOptimizedExternal, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_FALSE((*resumed)->resume_accepts_input());
  ASSERT_TRUE((*resumed)->cutoff().has_value());
  EXPECT_EQ(*(*resumed)->cutoff(), *proven);
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*resumed)->stats().final_cutoff, proven);
  ExpectSameRows(ReferenceTopK(rows, 100, 0, SortDirection::kAscending),
                 *result);
}

}  // namespace
}  // namespace topk
