/// Concurrency contract of CutoffFilter shared by several threads (Sec 4.4):
/// while any number of threads mutate it (InsertBucket / ProposeCutoff, or
/// RowSpilled through a Spiller each), the published cutoff only ever
/// tightens — an observer never sees it loosen, because a looser cutoff
/// could readmit rows that were already eliminated. Run this under
/// ThreadSanitizer (tools/run_sanitized.sh thread) to also validate the
/// lock-free probe path against the locked mutation path.

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "histogram/cutoff_filter.h"

namespace topk {
namespace {

CutoffFilter::Options MakeOptions(SortDirection direction) {
  CutoffFilter::Options options;
  options.k = 100;
  options.direction = direction;
  options.target_buckets_per_run = 8;
  options.target_run_rows = 512;
  return options;
}

/// Reader thread: samples cutoff() in a loop and records every transition.
/// Monotonicity check: for consecutive samples c1 then c2, c2 must not sort
/// after c1 in the query direction (KeyLess(c1, c2) must be false).
void CheckMonotone(const CutoffFilter& filter,
                   const std::atomic<bool>& stop,
                   std::atomic<bool>* violation) {
  const RowComparator& cmp = filter.comparator();
  std::optional<double> prev;
  while (!stop.load(std::memory_order_relaxed)) {
    std::optional<double> cur = filter.cutoff();
    if (cur.has_value()) {
      if (prev.has_value() && cmp.KeyLess(*prev, *cur)) {
        violation->store(true);
      }
      prev = cur;
    } else if (prev.has_value()) {
      // Once published, a cutoff can never disappear.
      violation->store(true);
    }
  }
}

class SharedFilterConcurrencyTest
    : public ::testing::TestWithParam<SortDirection> {};

TEST_P(SharedFilterConcurrencyTest, CutoffOnlyTightensUnderConcurrentInserts) {
  const SortDirection direction = GetParam();
  CutoffFilter filter(MakeOptions(direction));
  const RowComparator cmp(direction);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back(
        [&filter, &stop, &violation] { CheckMonotone(filter, stop, &violation); });
  }

  constexpr int kWriters = 4;
  constexpr int kBucketsPerWriter = 400;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&filter, direction, w] {
      // Each writer inserts buckets whose boundaries improve over time, from
      // a writer-specific offset, so the shared queue sees interleaved
      // progress from several histogram streams.
      for (int i = 0; i < kBucketsPerWriter; ++i) {
        const double base = 1000.0 - i + 0.1 * w;
        const double boundary =
            direction == SortDirection::kAscending ? base : -base;
        filter.InsertBucket(HistogramBucket{boundary, /*count=*/10});
        if (i % 64 == 0) {
          // Exact-cutoff proposals (the k-th row of an in-memory phase).
          filter.ProposeCutoff(boundary);
        }
        if (i % 16 == 0) {
          // Exercise the hot lock-free read path concurrently.
          filter.EliminateKey(boundary);
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(violation.load()) << "published cutoff loosened";

  // With 4*400 buckets of 10 rows each and k=100 the filter must have
  // established some cutoff by the end.
  ASSERT_TRUE(filter.cutoff().has_value());
  // Final sanity: the cutoff eliminates a clearly-beyond key and keeps a
  // clearly-within key.
  const double beyond =
      direction == SortDirection::kAscending ? 1.0e12 : -1.0e12;
  EXPECT_TRUE(filter.EliminateKey(beyond));
  const double within =
      direction == SortDirection::kAscending ? -1.0e12 : 1.0e12;
  EXPECT_FALSE(filter.EliminateKey(within));
}

TEST_P(SharedFilterConcurrencyTest, SpillersShareOneModel) {
  // Several spilling threads, each with its own run histograms, probing
  // and feeding one filter: the model must establish a valid cutoff, and
  // the readers must never see it loosen.
  const SortDirection direction = GetParam();
  CutoffFilter::Options options;
  options.k = 1000;
  options.direction = direction;
  options.target_buckets_per_run = 10;
  options.target_run_rows = 100;
  CutoffFilter filter(options);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader(
      [&filter, &stop, &violation] { CheckMonotone(filter, stop, &violation); });
  std::vector<std::thread> spillers;
  for (int t = 0; t < 4; ++t) {
    spillers.emplace_back([&filter, direction, t] {
      CutoffFilter::Spiller spiller(&filter);
      Random rng(t);
      for (int i = 0; i < 5000; ++i) {
        const double unit = rng.NextDouble();
        const double key =
            direction == SortDirection::kAscending ? unit : -unit;
        if (!filter.EliminateKey(key)) spiller.RowSpilled(key);
        if (i % 200 == 199) spiller.RunFinished();
      }
    });
  }
  for (auto& t : spillers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_FALSE(violation.load()) << "published cutoff loosened";
  ASSERT_TRUE(filter.cutoff().has_value());
  const double magnitude =
      direction == SortDirection::kAscending ? *filter.cutoff()
                                             : -*filter.cutoff();
  EXPECT_GT(magnitude, 0.0);
  EXPECT_LE(magnitude, 1.0);
  EXPECT_GT(filter.buckets_inserted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Directions, SharedFilterConcurrencyTest,
                         ::testing::Values(SortDirection::kAscending,
                                           SortDirection::kDescending),
                         [](const auto& info) {
                           return info.param == SortDirection::kAscending
                                      ? "Ascending"
                                      : "Descending";
                         });

}  // namespace
}  // namespace topk
