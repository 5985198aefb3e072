#include "histogram/sizing_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace topk {
namespace {

TEST(BucketSizingPolicyTest, MedianPolicy) {
  // B=1 over runs of 1000 rows: one bucket of 500 rows at the median.
  BucketSizingPolicy policy(1, 1000);
  EXPECT_EQ(policy.rows_per_bucket(), 500u);
}

TEST(BucketSizingPolicyTest, DecilePolicy) {
  // B=9 over runs of 1000 rows: buckets of 100 rows at each decile.
  BucketSizingPolicy policy(9, 1000);
  EXPECT_EQ(policy.rows_per_bucket(), 100u);
}

TEST(BucketSizingPolicyTest, EveryKeyPolicy) {
  BucketSizingPolicy policy(1000, 1000);
  EXPECT_EQ(policy.rows_per_bucket(), 1u);
}

TEST(BucketSizingPolicyTest, DisabledPolicies) {
  EXPECT_EQ(BucketSizingPolicy(0, 1000).rows_per_bucket(), 0u);
  EXPECT_EQ(BucketSizingPolicy(10, 0).rows_per_bucket(), 0u);
}

TEST(BucketSizingPolicyTest, WidthAtLeastOne) {
  // More buckets than rows: width clamps to one row per bucket.
  BucketSizingPolicy policy(1000, 10);
  EXPECT_EQ(policy.rows_per_bucket(), 1u);
}

TEST(BucketSizingPolicyTest, RoundsHalfUpWithoutOverflow) {
  EXPECT_EQ(BucketSizingPolicy(1, 1001).rows_per_bucket(), 501u);
  EXPECT_EQ(BucketSizingPolicy(2, 1000).rows_per_bucket(), 333u);
  EXPECT_EQ(BucketSizingPolicy(2, 1001).rows_per_bucket(), 334u);
  // The optimized operator's one-bucket filter over R = 2(k+offset) rows,
  // saturated for k+offset beyond half the range: R must not wrap.
  EXPECT_EQ(BucketSizingPolicy(1, 2 * 120).rows_per_bucket(), 120u);
  EXPECT_EQ(
      BucketSizingPolicy(1, std::numeric_limits<uint64_t>::max())
          .rows_per_bucket(),
      uint64_t{1} << 63);
}

TEST(RunHistogramBuilderTest, ClosesBucketEveryWidthRows) {
  BucketSizingPolicy policy(9, 1000);  // width 100
  RunHistogramBuilder builder(policy);
  int buckets = 0;
  for (int i = 1; i <= 1000; ++i) {
    auto bucket = builder.AddSpilledRow(i * 0.001);
    if (bucket.has_value()) {
      ++buckets;
      EXPECT_EQ(bucket->count, 100u);
      EXPECT_DOUBLE_EQ(bucket->boundary, buckets * 100 * 0.001);
    }
  }
  // Capped at 9 buckets; the 10th segment (rows 901..1000) yields none.
  EXPECT_EQ(buckets, 9);
}

TEST(RunHistogramBuilderTest, MedianPolicyYieldsOneBucket) {
  BucketSizingPolicy policy(1, 1000);
  RunHistogramBuilder builder(policy);
  int buckets = 0;
  for (int i = 1; i <= 1000; ++i) {
    if (builder.AddSpilledRow(i).has_value()) ++buckets;
  }
  EXPECT_EQ(buckets, 1);
}

TEST(RunHistogramBuilderTest, FinishRunReturnsCollectedBucketsAndResets) {
  BucketSizingPolicy policy(9, 1000);
  RunHistogramBuilder builder(policy);
  for (int i = 1; i <= 350; ++i) builder.AddSpilledRow(i);
  EXPECT_EQ(builder.rows_in_current_bucket(), 50u);  // partial tail
  auto buckets = builder.FinishRun();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].boundary, 100.0);
  EXPECT_EQ(buckets[2].boundary, 300.0);
  EXPECT_EQ(builder.rows_in_current_bucket(), 0u);

  // Next run starts fresh.
  for (int i = 1; i <= 100; ++i) builder.AddSpilledRow(i * 2.0);
  auto next = builder.FinishRun();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].boundary, 200.0);
}

TEST(RunHistogramBuilderTest, DisabledPolicyProducesNothing) {
  BucketSizingPolicy policy(0, 1000);
  RunHistogramBuilder builder(policy);
  for (int i = 1; i <= 1000; ++i) {
    EXPECT_FALSE(builder.AddSpilledRow(i).has_value());
  }
  EXPECT_TRUE(builder.FinishRun().empty());
}

TEST(RunHistogramBuilderTest, TruncatedRunKeepsCompleteBucketsOnly) {
  BucketSizingPolicy policy(9, 1000);
  RunHistogramBuilder builder(policy);
  // Run truncated by the cutoff after 250 rows.
  for (int i = 1; i <= 250; ++i) builder.AddSpilledRow(i);
  auto buckets = builder.FinishRun();
  EXPECT_EQ(buckets.size(), 2u);  // rows 201-250 discarded
}

}  // namespace
}  // namespace topk
