#include "sort/merge_planner.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/query_control.h"
#include "common/random.h"
#include "io/manifest.h"
#include "sort/merger.h"

namespace topk {
namespace {

class MergePlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("topk_planner_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void WriteRun(const std::vector<double>& keys) {
    RowComparator cmp;
    auto writer = spill_->NewRun(cmp);
    ASSERT_TRUE(writer.ok());
    for (double key : keys) {
      ASSERT_TRUE((*writer)->Append(Row(key, next_id_++)).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    spill_->AddRun(*meta);
  }

  /// The run files in the spill directory.
  size_t RunFilesOnDisk() const {
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".tkr") ++files;
    }
    return files;
  }

  std::filesystem::path dir_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
  uint64_t next_id_ = 0;
};

TEST_F(MergePlannerTest, NoReductionWhenUnderFanIn) {
  WriteRun({1, 2});
  WriteRun({3, 4});
  MergePlannerOptions options;
  options.fan_in = 4;
  MergePlanStats stats;
  auto runs = ReduceRunsForFinalMerge(spill_.get(), RowComparator(), options,
                                      &stats);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs->size(), 2u);
  EXPECT_EQ(stats.intermediate_steps, 0u);
}

TEST_F(MergePlannerTest, ReducesToFanInAndPreservesData) {
  Random rng(7);
  std::vector<double> all;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> keys;
    for (int j = 0; j < 50; ++j) keys.push_back(rng.NextDouble());
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    WriteRun(keys);
  }
  MergePlannerOptions options;
  options.fan_in = 4;
  MergePlanStats stats;
  auto runs = ReduceRunsForFinalMerge(spill_.get(), RowComparator(), options,
                                      &stats);
  ASSERT_TRUE(runs.ok());
  EXPECT_LE(runs->size(), 4u);
  EXPECT_GT(stats.intermediate_steps, 0u);

  // Final merge recovers the full sorted input.
  std::vector<Row> out;
  auto merge_stats =
      MergeRuns(spill_.get(), *runs, RowComparator(), MergeOptions{},
                [&](Row&& row) {
                  out.push_back(std::move(row));
                  return Status::OK();
                });
  ASSERT_TRUE(merge_stats.ok());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(out.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(out[i].key, all[i]);
}

TEST_F(MergePlannerTest, IntermediateLimitTruncatesIntermediateRuns) {
  for (int i = 0; i < 8; ++i) {
    std::vector<double> keys;
    for (int j = 0; j < 100; ++j) keys.push_back(i + j * 0.01);
    WriteRun(keys);
  }
  MergePlannerOptions options;
  options.fan_in = 2;
  options.intermediate_limit = 10;  // top-10 query: intermediates capped
  MergePlanStats stats;
  auto runs = ReduceRunsForFinalMerge(spill_.get(), RowComparator(), options,
                                      &stats);
  ASSERT_TRUE(runs.ok());
  EXPECT_LE(runs->size(), 2u);
  for (const RunMeta& meta : *runs) {
    EXPECT_LE(meta.rows, 100u);
  }
  // The top-10 answer is intact: keys 0.00..0.09.
  std::vector<Row> out;
  MergeOptions merge_options;
  merge_options.limit = 10;
  auto merge_stats = MergeRuns(spill_.get(), *runs, RowComparator(),
                               merge_options, [&](Row&& row) {
                                 out.push_back(std::move(row));
                                 return Status::OK();
                               });
  ASSERT_TRUE(merge_stats.ok());
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(out[i].key, i * 0.01, 1e-12);
}

TEST_F(MergePlannerTest, InvalidFanInRejected) {
  MergePlannerOptions options;
  options.fan_in = 1;
  auto runs =
      ReduceRunsForFinalMerge(spill_.get(), RowComparator(), options);
  EXPECT_EQ(runs.status().code(), StatusCode::kInvalidArgument);
}

/// An exact filter for a top-`k` query whose cutoff is `cutoff`.
std::unique_ptr<CutoffFilter> FilterWithCutoff(double cutoff, uint64_t k) {
  CutoffFilter::Options options;
  options.k = k;
  auto filter = std::make_unique<CutoffFilter>(options);
  filter->ProposeCutoff(cutoff);
  return filter;
}

TEST_F(MergePlannerTest, DropsRunsWhoseFirstKeyIsBeyondTheCutoff) {
  WriteRun({1, 2});
  WriteRun({3, 4});
  WriteRun({5, 6});  // first key equals the cutoff: its 5 may be output
  WriteRun({7, 8});
  WriteRun({9, 10});
  auto filter = FilterWithCutoff(5, 10);
  auto dropped = DropRunsBeyondCutoff(spill_.get(), *filter, 10,
                                      /*input_complete=*/true);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(*dropped, 2u);
  const std::vector<RunMeta> kept = spill_->runs();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.back().first_key, 5.0);
  EXPECT_EQ(RunFilesOnDisk(), 3u);
  // Runs ever created keep counting the dropped ones.
  EXPECT_EQ(spill_->total_runs_created(), 5u);
}

TEST_F(MergePlannerTest, ApproximateOrUnsetCutoffDropsNothing) {
  WriteRun({1, 2});
  WriteRun({7, 8});
  // No cutoff yet.
  CutoffFilter::Options options;
  options.k = 10;
  CutoffFilter unset(options);
  auto dropped = DropRunsBeyondCutoff(spill_.get(), unset, 10, true);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);
  // A filter built for fewer rows than the query returns (approx_filter_k)
  // does not bound the output.
  auto approx = FilterWithCutoff(2, 5);
  dropped = DropRunsBeyondCutoff(spill_.get(), *approx, 10, true);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);
  EXPECT_EQ(spill_->run_count(), 2u);
  EXPECT_EQ(RunFilesOnDisk(), 2u);
}

TEST_F(MergePlannerTest, DropUsesTheMergeProbeForSignedZeroAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WriteRun({-1, 0});
  WriteRun({0.0, 1});   // +0 equals a -0 cutoff: kept
  WriteRun({-0.0, 2});  // likewise
  WriteRun({1e-300, 3});
  WriteRun({nan, nan});  // NaN sorts last: beyond every real cutoff
  auto filter = FilterWithCutoff(-0.0, 10);
  auto dropped = DropRunsBeyondCutoff(spill_.get(), *filter, 10, true);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 2u);
  ASSERT_EQ(spill_->run_count(), 3u);
  for (const RunMeta& run : spill_->runs()) {
    EXPECT_FALSE(std::isnan(run.first_key));
    EXPECT_LE(run.first_key, 0.0);
  }

  // A NaN cutoff eliminates nothing, not even NaN runs.
  WriteRun({nan});
  auto nan_filter = FilterWithCutoff(nan, 10);
  dropped = DropRunsBeyondCutoff(spill_.get(), *nan_filter, 10, true);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);
}

TEST_F(MergePlannerTest, DropCommitsTheManifestBeforeDeletingFiles) {
  spill_->SetAutoManifest("drop.tkm");
  WriteRun({1, 2});
  WriteRun({7, 8});
  WriteRun({9, 10});
  size_t manifest_runs = 0;
  size_t files_at_checkpoint = 0;
  ASSERT_TRUE(ArmCrashPointForTest("post-drop-checkpoint", [&] {
                auto runs = ReadManifest(&env_, (dir_ / "drop.tkm").string());
                ASSERT_TRUE(runs.ok());
                manifest_runs = runs->size();
                files_at_checkpoint = RunFilesOnDisk();
              }).ok());
  auto filter = FilterWithCutoff(2, 2);
  auto dropped = DropRunsBeyondCutoff(spill_.get(), *filter, 2, true);
  DisarmCrashPoints();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 2u);
  // At the crash point the durable manifest names only the live run, and
  // the dropped files are still there; afterwards they are gone.
  EXPECT_EQ(manifest_runs, 1u);
  EXPECT_EQ(files_at_checkpoint, 3u);
  EXPECT_EQ(RunFilesOnDisk(), 1u);
}

TEST_F(MergePlannerTest, DropDuringInputPassesNoCrashPoint) {
  WriteRun({1, 2});
  WriteRun({7, 8});
  bool fired = false;
  ASSERT_TRUE(
      ArmCrashPointForTest("post-drop-checkpoint", [&] { fired = true; })
          .ok());
  auto filter = FilterWithCutoff(2, 2);
  auto dropped = DropRunsBeyondCutoff(spill_.get(), *filter, 2,
                                      /*input_complete=*/false);
  DisarmCrashPoints();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1u);
  EXPECT_FALSE(fired);
}

TEST_F(MergePlannerTest, DescendingRunsPastTheCutoffNeedNoIntermediateStep) {
  // Descending input under an ascending query: each run lies wholly below
  // the one before it. With k = 10 the last run alone holds the answer,
  // and every earlier run is beyond the cutoff it proves.
  const int kRuns = 20;
  for (int i = kRuns - 1; i >= 0; --i) {
    std::vector<double> keys;
    for (int j = 0; j < 10; ++j) keys.push_back(i * 10 + j);
    WriteRun(keys);
  }
  auto filter = FilterWithCutoff(9, 10);
  MergePlannerOptions options;
  options.fan_in = 4;
  options.intermediate_limit = 10;
  options.filter = filter.get();
  MergePlanStats stats;
  auto runs = ReduceRunsForFinalMerge(spill_.get(), RowComparator(), options,
                                      &stats);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(stats.intermediate_steps, 0u);
  EXPECT_EQ(stats.intermediate_rows_read, 0u);
  EXPECT_EQ(stats.runs_dropped, static_cast<uint64_t>(kRuns - 1));
  ASSERT_EQ(runs->size(), 1u);
  // The dead run files are gone before the final merge opens anything.
  EXPECT_EQ(RunFilesOnDisk(), 1u);

  std::vector<Row> out;
  MergeOptions merge_options;
  merge_options.limit = 10;
  ASSERT_TRUE(MergeRuns(spill_.get(), *runs, RowComparator(), merge_options,
                        [&](Row&& row) {
                          out.push_back(std::move(row));
                          return Status::OK();
                        })
                  .ok());
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i].key, i);
}

TEST(OrderRunsForMergeTest, SmallestFirstOrdersByRowCount) {
  std::vector<RunMeta> runs(3);
  runs[0].id = 0;
  runs[0].rows = 50;
  runs[1].id = 1;
  runs[1].rows = 10;
  runs[2].id = 2;
  runs[2].rows = 30;
  OrderRunsForMerge(&runs, RowComparator(),
                    MergePolicy::kSmallestRunsFirst);
  EXPECT_EQ(runs[0].id, 1u);
  EXPECT_EQ(runs[1].id, 2u);
  EXPECT_EQ(runs[2].id, 0u);
}

TEST(OrderRunsForMergeTest, LowestKeysFirstOrdersByLastKey) {
  std::vector<RunMeta> runs(3);
  runs[0].id = 0;
  runs[0].first_key = 0.0;
  runs[0].last_key = 0.9;
  runs[1].id = 1;
  runs[1].first_key = 0.0;
  runs[1].last_key = 0.2;  // sharply truncated, most recent
  runs[2].id = 2;
  runs[2].first_key = 0.0;
  runs[2].last_key = 0.5;
  OrderRunsForMerge(&runs, RowComparator(), MergePolicy::kLowestKeysFirst);
  EXPECT_EQ(runs[0].id, 1u);
  EXPECT_EQ(runs[1].id, 2u);
  EXPECT_EQ(runs[2].id, 0u);
}

TEST(OrderRunsForMergeTest, LowestKeysFirstDescendingDirection) {
  RowComparator cmp(SortDirection::kDescending);
  std::vector<RunMeta> runs(2);
  runs[0].id = 0;
  runs[0].first_key = 100.0;
  runs[0].last_key = 10.0;
  runs[1].id = 1;
  runs[1].first_key = 100.0;
  runs[1].last_key = 80.0;  // "best" keys for descending = largest
  OrderRunsForMerge(&runs, cmp, MergePolicy::kLowestKeysFirst);
  EXPECT_EQ(runs[0].id, 1u);
}

}  // namespace
}  // namespace topk
