#include "obs/obs_context.h"

#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::MaterializeDataset;
using testing_util::RunOperator;
using testing_util::ScratchDir;

/// One spilling histogram query against its own StorageEnv, recorded into
/// its own ObsContext. Row count varies per query so two concurrent
/// queries are distinguishable in every metric.
struct QueryRun {
  std::shared_ptr<ObsContext> obs;
  IoStats::Snapshot io;
  OperatorStats stats;
};

QueryRun RunScopedQuery(const std::string& spill_dir, uint64_t rows,
                        uint64_t seed) {
  QueryRun run;
  run.obs = ObsContext::Create(std::string("q").append(std::to_string(seed)));
  StorageEnv env;
  TopKOptions options;
  options.k = 2000;
  options.memory_limit_bytes = 16 * 1024;  // forces the external path
  options.env = &env;
  options.spill_dir = spill_dir;
  options.obs = run.obs;
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  DatasetSpec spec;
  spec.WithRows(rows).WithSeed(seed);
  auto rows_in = MaterializeDataset(spec);
  auto result = RunOperator(op->get(), rows_in);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  run.obs->MarkQueryComplete();
  run.io = env.stats()->snapshot();
  run.stats = (*op)->stats();
  return run;
}

uint64_t ScopedHistogramCount(const QueryRun& run, const char* name) {
  return run.obs->metrics().GetHistogram(name)->snapshot().count;
}

uint64_t ScopedCounter(const QueryRun& run, const char* name) {
  return run.obs->metrics().GetCounter(name)->value();
}

TEST(ObsContextTest, ConcurrentQueriesGetDisjointScopedMetrics) {
  ScratchDir scratch;
  const RegistrySnapshot global_baseline = GlobalMetrics().TakeSnapshot();

  // Two spilling queries of different sizes, truly concurrent: per-query
  // metrics must reflect each query's own StorageEnv exactly, while the
  // global registry aggregates both.
  QueryRun a, b;
  std::thread ta([&] { a = RunScopedQuery(scratch.str() + "/a", 30000, 1); });
  std::thread tb([&] { b = RunScopedQuery(scratch.str() + "/b", 60000, 2); });
  ta.join();
  tb.join();

  ASSERT_GT(a.stats.rows_spilled, 0u);
  ASSERT_GT(b.stats.rows_spilled, 0u);

  // Every storage call against query A's env — and no other call — shows
  // up in A's scoped latency histograms. That is disjointness measured at
  // the source of truth, not just "the numbers differ".
  EXPECT_EQ(ScopedHistogramCount(a, "storage.write_nanos"),
            a.io.write_calls);
  EXPECT_EQ(ScopedHistogramCount(b, "storage.write_nanos"),
            b.io.write_calls);
  EXPECT_EQ(ScopedHistogramCount(a, "storage.read_nanos"), a.io.read_calls);
  EXPECT_EQ(ScopedHistogramCount(b, "storage.read_nanos"), b.io.read_calls);
  EXPECT_GT(a.io.write_calls, 0u);
  EXPECT_GT(b.io.write_calls, 0u);
  EXPECT_NE(a.io.write_calls, b.io.write_calls);

  // Cutoff-update counts are per-query work; both queries did some and
  // each scoped registry saw only its own.
  EXPECT_GT(ScopedCounter(a, "filter.cutoff_updates"), 0u);
  EXPECT_GT(ScopedCounter(b, "filter.cutoff_updates"), 0u);
  EXPECT_EQ(ScopedCounter(a, "filter.cutoff_updates"),
            a.obs->cutoff_events().size() + a.obs->cutoff_events_dropped());
  EXPECT_EQ(ScopedCounter(b, "filter.cutoff_updates"),
            b.obs->cutoff_events().size() + b.obs->cutoff_events_dropped());

  // The global registry aggregated both queries: its delta over the run
  // equals the sum of the two scoped registries for per-query metrics.
  const RegistrySnapshot global_delta =
      GlobalMetrics().TakeSnapshot().DeltaSince(global_baseline);
  const auto it = global_delta.histograms.find("storage.write_nanos");
  ASSERT_NE(it, global_delta.histograms.end());
  EXPECT_EQ(it->second.count, a.io.write_calls + b.io.write_calls);
  const auto cutoff_it = global_delta.counters.find("filter.cutoff_updates");
  ASSERT_NE(cutoff_it, global_delta.counters.end());
  EXPECT_EQ(cutoff_it->second, ScopedCounter(a, "filter.cutoff_updates") +
                                   ScopedCounter(b, "filter.cutoff_updates"));
}

TEST(ObsContextTest, ProfileSelfTimesTelescopeToTotal) {
  ScratchDir scratch;
  QueryRun run = RunScopedQuery(scratch.str() + "/q", 30000, 3);
  const ProfileReport report = BuildProfileReport(*run.obs);

  EXPECT_GT(report.total_wall_nanos, 0);
  EXPECT_EQ(report.phases.wall_nanos, report.total_wall_nanos);

  // Foreground self times sum exactly to the root's wall (the report
  // clamps negatives, so "exactly" can only be missed downward — allow the
  // acceptance criterion's 5%).
  int64_t self_sum = 0;
  const std::function<void(const ProfilePhase&)> walk =
      [&](const ProfilePhase& phase) {
        self_sum += phase.self_nanos;
        for (const ProfilePhase& child : phase.children) walk(child);
      };
  walk(report.phases);
  EXPECT_GE(self_sum, report.total_wall_nanos * 95 / 100);
  EXPECT_LE(self_sum, report.total_wall_nanos);

  EXPECT_EQ(report.peak_memory_bytes, run.obs->peak_memory_bytes());
  EXPECT_GT(report.peak_spill_bytes, 0u);
  EXPECT_FALSE(report.cutoff_events.empty());
}

TEST(ObsContextTest, ReinstallingCurrentContextKeepsPhaseCursor) {
  auto obs = ObsContext::Create("nested");
  ObsScope outer(obs);
  PhaseScope phase("consume");
  {
    // An operator entry point re-installing the already-current context
    // must not reset the phase cursor to the root.
    ObsScope inner(obs);
    PhaseScope child("switch_to_external");
  }
  const ProfileReport report = BuildProfileReport(*obs);
  ASSERT_EQ(report.phases.children.size(), 1u);
  EXPECT_EQ(report.phases.children[0].name, "consume");
  ASSERT_EQ(report.phases.children[0].children.size(), 1u);
  EXPECT_EQ(report.phases.children[0].children[0].name,
            "switch_to_external");
}

TEST(ObsContextTest, PoolTasksInheritTheSpawningScope) {
  auto obs = ObsContext::Create("pool");
  {
    // The pool's destructor drains the queue, so every task ran by the
    // time the assertions below execute.
    ThreadPool pool(2);
    ObsScope scope(obs);
    for (int i = 0; i < 8; ++i) {
      pool.Schedule([] {
        static ObsCounter counter("test.obs.pool_task");
        counter.Add(1);
        ObsRecordIoWait(100);
      });
    }
  }
  EXPECT_EQ(obs->metrics().GetCounter("test.obs.pool_task")->value(), 8u);
  // Pool work lands under the background root, never the foreground tree.
  const ProfileReport report = BuildProfileReport(*obs);
  EXPECT_TRUE(report.phases.children.empty());
  EXPECT_GE(report.background.entered, 8u);
  EXPECT_GE(report.background.io_wait_nanos, 800);
}

TEST(ObsContextTest, ScopesTakeNoReference) {
  // Operators install their query's context on every Consume call; the
  // install must not touch the reference count.
  auto obs = ObsContext::Create("refcount");
  auto other = ObsContext::Create("other");
  const long count = obs.use_count();
  {
    ObsScope outer(obs);
    EXPECT_EQ(obs.use_count(), count);
    {
      ObsScope again(obs);  // re-installing the current context
      EXPECT_EQ(obs.use_count(), count);
      ObsScope nested(other);
      EXPECT_EQ(CurrentObsContext(), other.get());
      EXPECT_EQ(obs.use_count(), count);
      EXPECT_EQ(other.use_count(), 1);
    }
    EXPECT_EQ(CurrentObsContext(), obs.get());
    EXPECT_EQ(obs.use_count(), count);
  }
  EXPECT_EQ(CurrentObsContext(), nullptr);
  EXPECT_EQ(obs.use_count(), count);
}

TEST(ObsContextTest, PoolTaskRecordsAfterItsSchedulingScopeCloses) {
  auto obs = ObsContext::Create("late");
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> recorded;
  std::future<void> done = recorded.get_future();
  {
    ThreadPool pool(1);
    {
      ObsScope scope(obs);
      pool.Schedule([opened, &recorded] {
        opened.wait();
        static ObsCounter counter("test.obs.late_task");
        counter.Add(1);
        recorded.set_value();
      });
      // Scheduling is where the reference is taken: the queued task owns
      // one.
      EXPECT_EQ(obs.use_count(), 2);
    }
    // The scheduling scope is closed before the task runs.
    EXPECT_EQ(CurrentObsContext(), nullptr);
    gate.set_value();
    done.wait();
  }
  EXPECT_EQ(obs->metrics().GetCounter("test.obs.late_task")->value(), 1u);
  EXPECT_EQ(BuildProfileReport(*obs).background.entered, 1u);
  EXPECT_EQ(obs.use_count(), 1);
}

TEST(ObsContextTest, TraceBufferCapDropsAndCounts) {
  Tracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.set_max_events_per_thread(16);
  tracer.Start();
  auto obs = ObsContext::Create("dropper");
  {
    ObsScope scope(obs);
    for (int i = 0; i < 64; ++i) {
      TraceInstant("test.obs.flood", "test");
    }
  }
  tracer.Stop();
  EXPECT_EQ(tracer.event_count(), 16u);
  EXPECT_EQ(tracer.dropped_count(), 48u);
  EXPECT_EQ(obs->metrics().GetCounter("obs.trace.events_dropped")->value(),
            48u);
  const ProfileReport report = BuildProfileReport(*obs);
  EXPECT_EQ(report.trace_events_dropped, 48u);
  // Restore the default cap; Clear() resets the dropped count.
  tracer.set_max_events_per_thread(262144);
  tracer.Clear();
  EXPECT_EQ(tracer.dropped_count(), 0u);
}

TEST(ObsContextTest, DeltaSinceSubtractsAccumulationsKeepsLevels) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(10);
  registry.GetGauge("g")->Set(7);
  registry.GetHistogram("h")->Record(100);
  const RegistrySnapshot baseline = registry.TakeSnapshot();

  registry.GetCounter("c")->Add(5);
  registry.GetGauge("g")->Set(3);
  registry.GetHistogram("h")->Record(200);
  registry.GetHistogram("h")->Record(400);
  const RegistrySnapshot delta =
      registry.TakeSnapshot().DeltaSince(baseline);

  EXPECT_EQ(delta.counters.at("c"), 5u);
  EXPECT_EQ(delta.gauges.at("g"), 3);  // level, not difference
  EXPECT_EQ(delta.histograms.at("h").count, 2u);
  EXPECT_EQ(delta.histograms.at("h").sum_nanos, 600u);

  // A metric born after the baseline appears whole.
  registry.GetCounter("late")->Add(2);
  EXPECT_EQ(registry.TakeSnapshot().DeltaSince(baseline).counters.at("late"),
            2u);

  // An interval with no samples zeroes the lifetime min/max instead of
  // reporting stale extremes.
  const RegistrySnapshot quiet =
      registry.TakeSnapshot().DeltaSince(registry.TakeSnapshot());
  EXPECT_EQ(quiet.histograms.at("h").count, 0u);
  EXPECT_EQ(quiet.histograms.at("h").min_nanos, 0);
  EXPECT_EQ(quiet.histograms.at("h").max_nanos, 0);
}

/// The profile's peak memory is the operator's own figure on every Finish
/// path: the input kept in memory, and the input spilled.
class PeakMemoryTest
    : public ::testing::TestWithParam<std::tuple<TopKAlgorithm, bool>> {};

TEST_P(PeakMemoryTest, ProfilePeakEqualsOperatorStats) {
  const auto [algorithm, spills] = GetParam();
  ScratchDir scratch;
  StorageEnv env;
  auto obs = ObsContext::Create("peak");
  TopKOptions options;
  options.k = spills ? 2000 : 50;
  options.memory_limit_bytes = spills ? 16 * 1024 : 16 << 20;
  if (algorithm == TopKAlgorithm::kHeap) {
    // The in-memory operator never spills; past its budget it fails.
    options.memory_limit_bytes = std::numeric_limits<size_t>::max();
  }
  options.env = &env;
  options.spill_dir = scratch.str();
  options.obs = obs;
  auto op = MakeTopKOperator(algorithm, options);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  DatasetSpec spec;
  spec.WithRows(spills ? 20000 : 500).WithSeed(11);
  auto result = RunOperator(op->get(), MaterializeDataset(spec));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const OperatorStats& stats = (*op)->stats();
  if (algorithm != TopKAlgorithm::kHeap) {
    EXPECT_EQ(stats.rows_spilled > 0, spills);
  }
  EXPECT_GT(stats.peak_memory_bytes, 0u);
  EXPECT_EQ(obs->peak_memory_bytes(), stats.peak_memory_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PeakMemoryTest,
    ::testing::Combine(::testing::Values(TopKAlgorithm::kHeap,
                                         TopKAlgorithm::kTraditionalExternal,
                                         TopKAlgorithm::kOptimizedExternal,
                                         TopKAlgorithm::kHistogram),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<TopKAlgorithm, bool>>&
           info) {
      std::string name = TopKAlgorithmName(std::get<0>(info.param)) +
                         (std::get<1>(info.param) ? "_spills" : "_fits");
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace topk
