#include "sort/merger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace topk {
namespace {

class MergerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::TestScratchPath("topk_merger");
    auto spill = SpillManager::Create(&env_, dir_.string());
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  void TearDown() override {
    spill_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Writes `keys` (sorted ascending here) as one run.
  void WriteRun(const std::vector<double>& keys) {
    RowComparator cmp;
    auto writer = spill_->NewRun(cmp);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(
          (*writer)->Append(Row(keys[i], next_id_++)).ok());
    }
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    spill_->AddRun(*meta);
  }

  Result<MergeStats> Merge(const MergeOptions& options,
                           std::vector<Row>* out) {
    return MergeRuns(spill_.get(), spill_->runs(), RowComparator(), options,
                     [out](Row&& row) {
                       out->push_back(std::move(row));
                       return Status::OK();
                     });
  }

  std::filesystem::path dir_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
  uint64_t next_id_ = 0;
};

TEST_F(MergerTest, MergesSortedRuns) {
  WriteRun({1, 4, 7});
  WriteRun({2, 5, 8});
  WriteRun({3, 6, 9});
  std::vector<Row> out;
  auto stats = Merge(MergeOptions{}, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 9u);
  for (size_t i = 0; i < 9; ++i) EXPECT_EQ(out[i].key, i + 1.0);
  EXPECT_TRUE(stats->exhausted_inputs);
  EXPECT_EQ(stats->rows_read, 9u);
  EXPECT_EQ(stats->rows_emitted, 9u);
  EXPECT_EQ(stats->last_key, 9.0);
}

TEST_F(MergerTest, EmptyRunListIsEmptyResult) {
  std::vector<Row> out;
  auto stats = Merge(MergeOptions{}, &out);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(stats->exhausted_inputs);
}

TEST_F(MergerTest, LimitStopsEarly) {
  WriteRun({1, 3, 5});
  WriteRun({2, 4, 6});
  MergeOptions options;
  options.limit = 4;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back().key, 4.0);
  EXPECT_FALSE(stats->exhausted_inputs);
  EXPECT_LT(stats->rows_read, 7u);
}

TEST_F(MergerTest, SkipDropsOffsetRows) {
  WriteRun({1, 3, 5});
  WriteRun({2, 4, 6});
  MergeOptions options;
  options.skip = 2;
  options.limit = 3;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, 3.0);
  EXPECT_EQ(out[2].key, 5.0);
  EXPECT_EQ(stats->rows_skipped, 2u);
}

TEST_F(MergerTest, SkipBeyondInputYieldsNothing) {
  WriteRun({1, 2});
  MergeOptions options;
  options.skip = 5;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats->rows_skipped, 2u);
}

TEST_F(MergerTest, StopFilterEndsMergeAtCutoff) {
  WriteRun({1, 4, 7, 10});
  WriteRun({2, 5, 8, 11});
  CutoffFilter::Options filter_options;
  filter_options.k = 2;
  CutoffFilter filter(filter_options);
  filter.ProposeCutoff(5.0);
  MergeOptions options;
  options.stop_filter = &filter;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  // Rows up to and including key 5 are emitted; 7 stops the merge.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back().key, 5.0);
  EXPECT_FALSE(stats->exhausted_inputs);
}

TEST_F(MergerTest, RefineFilterProposesKthKey) {
  WriteRun({1, 3, 5, 7});
  WriteRun({2, 4, 6, 8});
  CutoffFilter::Options filter_options;
  filter_options.k = 3;
  CutoffFilter filter(filter_options);
  MergeOptions options;
  options.refine_filter = &filter;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(filter.cutoff().has_value());
  EXPECT_EQ(*filter.cutoff(), 3.0);  // the 3rd merged key
}

TEST_F(MergerTest, ManyRunsRandomizedAgainstSort) {
  Random rng(42);
  std::vector<double> all;
  for (int run = 0; run < 37; ++run) {
    std::vector<double> keys;
    const size_t n = rng.NextUint64(100);
    for (size_t i = 0; i < n; ++i) keys.push_back(rng.NextDouble());
    std::sort(keys.begin(), keys.end());
    all.insert(all.end(), keys.begin(), keys.end());
    WriteRun(keys);
  }
  std::vector<Row> out;
  auto stats = Merge(MergeOptions{}, &out);
  ASSERT_TRUE(stats.ok());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(out.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(out[i].key, all[i]);
}

TEST_F(MergerTest, WithTiesExtendsPastLimit) {
  WriteRun({1, 2, 2, 2, 3});
  WriteRun({2, 2, 4});
  MergeOptions options;
  options.limit = 2;  // 2nd row has key 2 -> all five 2s must be emitted
  options.with_ties = true;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 6u);  // 1 + five 2s
  EXPECT_EQ(out.back().key, 2.0);
}

TEST_F(MergerTest, WithTiesNoExtensionWhenBoundaryUnique) {
  WriteRun({1, 2, 3});
  WriteRun({4, 5, 6});
  MergeOptions options;
  options.limit = 3;
  options.with_ties = true;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(MergerTest, WithTiesAndSkipExtendAtOutputEnd) {
  WriteRun({1, 2, 3, 3, 3, 4});
  MergeOptions options;
  options.skip = 1;
  options.limit = 3;  // rows 2,3,3 then tie-extend with the third 3
  options.with_ties = true;
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().key, 2.0);
  EXPECT_EQ(out.back().key, 3.0);
}

TEST_F(MergerTest, MalformedSeekVectorRejected) {
  WriteRun({1, 2, 3});
  WriteRun({4, 5, 6});
  MergeOptions options;
  options.seek_bytes = {0};  // wrong arity: 1 entry for 2 runs
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MergerTest, SeekRowsBeyondSkipRejected) {
  WriteRun({1, 2, 3});
  MergeOptions options;
  options.skip = 1;
  options.seek_bytes = {0};
  options.seek_rows_total = 5;  // claims more seeked rows than the offset
  std::vector<Row> out;
  auto stats = Merge(options, &out);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MergerTest, SinkErrorPropagates) {
  WriteRun({1, 2, 3});
  auto result = MergeRuns(spill_.get(), spill_->runs(), RowComparator(),
                          MergeOptions{}, [](Row&&) {
                            return Status::Cancelled("sink full");
                          });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

/// Exact (bitwise) row equality: EXPECT_EQ on a double is useless for NaN
/// keys, and "byte-identical output" is precisely the OVC contract.
void ExpectBitIdentical(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].key),
              std::bit_cast<uint64_t>(b[i].key))
        << i;
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << i;
  }
}

class MergerOvcEquivalenceTest : public MergerTest,
                                 public ::testing::WithParamInterface<size_t> {
};

TEST_P(MergerOvcEquivalenceTest, OvcOnAndOffAreByteIdentical) {
  // Duplicate-heavy keys with every special value: the inputs where a
  // wrong offset-value-code update would first show as a reordered (or
  // nondeterministic) merge. The OVC fast path must be invisible in the
  // output and visible in the comparison counters.
  const size_t num_ways = GetParam();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {0.0, -0.0, 1.0, 1.0, 1.0, 2.5, -2.5, nan, inf, -inf};
  Random rng(900 + num_ways);
  const RowComparator cmp;
  for (size_t w = 0; w < num_ways; ++w) {
    std::vector<double> keys;
    const size_t n = 1 + rng.NextUint64(120);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(pool[rng.NextUint64(sizeof(pool) / sizeof(pool[0]))]);
    }
    // Run order = query order over *normalized* keys (plain double sort
    // cannot place the NaNs).
    std::sort(keys.begin(), keys.end(), [&](double a, double b) {
      return cmp.KeyLess(a, b);
    });
    WriteRun(keys);
  }

  MetricsCounter* full = GlobalMetrics().GetCounter("sort.compare.count");
  auto merge_with = [&](bool use_ovc, std::vector<Row>* out) {
    MergeOptions options;
    options.use_ovc = use_ovc;
    auto stats = Merge(options, out);
    ASSERT_TRUE(stats.ok());
  };
  std::vector<Row> legacy, ovc;
  const uint64_t before_legacy = full->value();
  merge_with(false, &legacy);
  const uint64_t legacy_compares = full->value() - before_legacy;
  merge_with(true, &ovc);
  const uint64_t ovc_compares = full->value() - before_legacy - legacy_compares;

  ExpectBitIdentical(ovc, legacy);
  // Both streams must be totally ordered under the comparator.
  for (size_t i = 0; i + 1 < ovc.size(); ++i) {
    EXPECT_FALSE(cmp.Less(ovc[i + 1], ovc[i])) << i;
  }
  if (num_ways > 1) {
    // The point of the machinery: most tournament repairs decide on the
    // code alone, so full key comparisons must drop.
    EXPECT_LT(ovc_compares, legacy_compares);
  }
}

INSTANTIATE_TEST_SUITE_P(WayCounts, MergerOvcEquivalenceTest,
                         ::testing::Values(1, 3, 5, 7, 13));

}  // namespace
}  // namespace topk
