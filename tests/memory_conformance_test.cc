/// Memory-conformance suite: every operator leases its memory from the
/// arbiter it is handed, releases everything by destruction time, survives
/// injected allocation failures as clean OutOfMemory/ResourceExhausted
/// statuses (never a crash), and — via a counting global allocator — its
/// real heap footprint is consistent with what it leased.

#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/resource_arbiter.h"
#include "io/spill_manager.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

// ---------------------------------------------------------------------------
// Counting global allocator. Tracks live and peak heap bytes via
// malloc_usable_size so the tests below can compare the process's actual
// footprint against the arbiter's books. Thread-safe (relaxed atomics);
// alignment-overloaded news fall through to the default path uncounted,
// which only makes the measured peak an undercount — fine for the
// directional assertions used here.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

void CountAlloc(void* p) {
  if (p == nullptr) return;
  const size_t size = ::malloc_usable_size(p);
  const size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

/// When nonzero, counts this thread's allocations down; the one that
/// reaches zero throws std::bad_alloc.
thread_local size_t t_fail_countdown = 0;

void CountFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(::malloc_usable_size(p), std::memory_order_relaxed);
}
}  // namespace

// noinline keeps GCC from inlining the malloc/free pair into call sites,
// where it would misfire -Wmismatched-new-delete (the pairing is
// consistent: every replaced operator goes through malloc/free).
#if defined(__GNUC__)
#define TOPK_COUNTING_NOINLINE __attribute__((noinline))
#else
#define TOPK_COUNTING_NOINLINE
#endif

TOPK_COUNTING_NOINLINE void* operator new(size_t size) {
  if (t_fail_countdown != 0 && --t_fail_countdown == 0) {
    throw std::bad_alloc();
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  CountAlloc(p);
  return p;
}
TOPK_COUNTING_NOINLINE void* operator new[](size_t size) {
  return ::operator new(size);
}
TOPK_COUNTING_NOINLINE void operator delete(void* p) noexcept {
  CountFree(p);
  std::free(p);
}
TOPK_COUNTING_NOINLINE void operator delete[](void* p) noexcept {
  ::operator delete(p);
}
TOPK_COUNTING_NOINLINE void operator delete(void* p, size_t) noexcept {
  ::operator delete(p);
}
TOPK_COUNTING_NOINLINE void operator delete[](void* p, size_t) noexcept {
  ::operator delete(p);
}

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::RunOperator;
using testing_util::ScratchDir;

constexpr size_t kChunk = 256 * 1024;  // mirrors kLeaseChunkBytes

const std::vector<TopKAlgorithm> kAllAlgorithms = {
    TopKAlgorithm::kHeap, TopKAlgorithm::kTraditionalExternal,
    TopKAlgorithm::kOptimizedExternal, TopKAlgorithm::kHistogram};

/// The histogram operator's parallel run generation: its workers lease
/// their buffers from the same arbiter.
constexpr size_t kParallelWorkers = 4;

std::vector<Row> Dataset(uint64_t rows = 20000) {
  DatasetSpec spec;
  spec.WithRows(rows).WithSeed(91).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

/// Small enough that the external operators spill; the heap operator runs
/// unbounded (its own memory_limit failure mode is tested elsewhere — here
/// only the arbiter should ever say no).
TopKOptions ConformanceOptions(StorageEnv* env, const std::string& dir,
                               TopKAlgorithm algorithm,
                               MemoryArbiter* arbiter) {
  TopKOptions options;
  options.k = 300;
  options.memory_limit_bytes = 16 * 1024;
  options.io_background_threads = 0;
  options.env = env;
  options.spill_dir = dir;
  options.arbiter = arbiter;
  if (algorithm == TopKAlgorithm::kHeap) {
    options.memory_limit_bytes = std::numeric_limits<size_t>::max();
  }
  return options;
}

TEST(MemoryConformanceTest, EveryOperatorReleasesAllLeases) {
  const auto rows = Dataset();
  const auto expected = ReferenceTopK(rows, 300, 0, SortDirection::kAscending);
  std::vector<std::pair<TopKAlgorithm, size_t>> cells;
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    cells.emplace_back(algorithm, 1);
  }
  cells.emplace_back(TopKAlgorithm::kHistogram, kParallelWorkers);
  for (const auto& [algorithm, workers] : cells) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm) + " x" +
                 std::to_string(workers));
    MemoryArbiter arbiter;  // accounting only
    ScratchDir scratch;
    StorageEnv env;
    {
      TopKOptions options =
          ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
      options.workers = workers;
      auto op = MakeTopKOperator(algorithm, options);
      ASSERT_TRUE(op.ok()) << op.status().ToString();
      auto result = RunOperator(op->get(), rows);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameRows(expected, *result);
    }
    // Leases live at most as long as the operator: with it destroyed, the
    // arbiter's books must be exactly empty.
    EXPECT_EQ(arbiter.granted_bytes(), 0u);
    EXPECT_GT(arbiter.peak_bytes(), 0u) << "operator never leased anything";
    EXPECT_GT(arbiter.grant_count(), 0u);
  }
}

TEST(MemoryConformanceTest, ArbiterPeakCoversTheBufferedFootprint) {
  // A spilling workload buffers up to memory_limit_bytes before each run;
  // the operator's lease must cover that footprint, so the arbiter peak
  // cannot be below half the configured limit.
  const size_t limit = 512 * 1024;
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(17).WithPayload(40, 40);  // ~2.5 MiB input
  const auto rows = MaterializeDataset(spec);
  for (const auto& [algorithm, workers] :
       std::vector<std::pair<TopKAlgorithm, size_t>>{
           {TopKAlgorithm::kTraditionalExternal, 1},
           {TopKAlgorithm::kHistogram, 1},
           {TopKAlgorithm::kHistogram, kParallelWorkers}}) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm) + " x" +
                 std::to_string(workers));
    MemoryArbiter arbiter;
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    options.memory_limit_bytes = limit;
    options.workers = workers;
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(arbiter.peak_bytes(), limit / 2)
        << "the sort buffer was not charged to the arbiter";
  }
}

TEST(MemoryConformanceTest, MeasuredHeapBacksTheGrantedBytes) {
  // The leases describe real memory: the measured heap growth while the
  // query runs must be able to account for the arbiter peak, modulo chunk
  // rounding (every lease rounds up by < 1 chunk) and a generous fixed
  // slack for allocator overhead and test scaffolding.
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(29).WithPayload(56, 56);  // ~5 MiB input
  const auto rows = MaterializeDataset(spec);
  MemoryArbiter arbiter;
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = ConformanceOptions(&env, scratch.str(),
                                           TopKAlgorithm::kHistogram, &arbiter);
  options.memory_limit_bytes = 4 * 1024 * 1024;

  const size_t live_before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live_before, std::memory_order_relaxed);
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  auto result = RunOperator(op->get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t measured_peak_delta =
      g_peak_bytes.load(std::memory_order_relaxed) - live_before;
  EXPECT_GE(measured_peak_delta + 8 * kChunk, arbiter.peak_bytes())
      << "arbiter books exceed what the process ever allocated: leases are "
         "over-claiming (peak_delta="
      << measured_peak_delta << ", arbiter peak=" << arbiter.peak_bytes()
      << ")";
  EXPECT_GT(arbiter.peak_bytes(), 0u);
}

TEST(MemoryConformanceTest, FirstGrantDenialFailsTheQueryCleanly) {
  // nth=1 denies the operator's very first (bootstrap) grant: Consume must
  // surface a clean OutOfMemory on row one — and keep returning it (the
  // first-error latch), never crash.
  const auto rows = Dataset(100);
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    MemoryArbiter arbiter;
    MemFaultProfile profile;
    profile.deny_nth = 1;
    arbiter.SetFaultProfile(profile);
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    Status first = (*op)->Consume(rows[0]);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.code(), StatusCode::kOutOfMemory)
        << first.ToString();
    if (algorithm != TopKAlgorithm::kHeap) {
      // The spilling operators latch the first error so Suspend reports
      // the real cause of death instead of a precondition complaint.
      Status latched = (*op)->Suspend();
      ASSERT_FALSE(latched.ok());
      EXPECT_EQ(latched.code(), StatusCode::kOutOfMemory)
          << latched.ToString();
    }
  }
}

TEST(MemoryConformanceTest, ThrownBadAllocIsContainedAtConsume) {
  // mode=throw turns the same denial into a real std::bad_alloc thrown out
  // of the arbiter; RunWithAllocGuard must convert it at the operator
  // boundary into OutOfMemory naming the containment site.
  const auto rows = Dataset(100);
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    MemoryArbiter arbiter;
    MemFaultProfile profile;
    profile.deny_nth = 1;
    profile.throw_bad_alloc = true;
    arbiter.SetFaultProfile(profile);
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    Status status = (*op)->Consume(rows[0]);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kOutOfMemory) << status.ToString();
    EXPECT_NE(status.message().find("allocation failure contained at"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(MemoryConformanceTest, ThrowingFaultsArmedAtFinishNeverEscape) {
  // Arm a deny-everything throwing profile only after the input is fully
  // consumed, so the faults land inside Finish (merge readers, prefetch,
  // writers). Degradation paths swallow refusals by design, so Finish may
  // still succeed — the contract under test is: byte-identical rows or a
  // clean memory status, never an escaped exception.
  const auto rows = Dataset();
  const auto expected = ReferenceTopK(rows, 300, 0, SortDirection::kAscending);
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    MemoryArbiter arbiter;
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    for (const Row& row : rows) {
      ASSERT_TRUE((*op)->Consume(row).ok());
    }
    MemFaultProfile profile;
    profile.deny_rate = 1.0;
    profile.throw_bad_alloc = true;
    arbiter.SetFaultProfile(profile);
    auto result = (*op)->Finish();
    if (result.ok()) {
      ExpectSameRows(expected, *result);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory)
          << result.status().ToString();
      EXPECT_NE(
          result.status().message().find("allocation failure contained at"),
          std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST(MemoryConformanceTest, HardBudgetDenialNamesTheBudget) {
  // A budget below one lease chunk means the first real growth is refused:
  // the query must fail with ResourceExhausted that names the configured
  // budget (the greppable operator signature), not crash or mis-answer.
  const auto rows = Dataset(2000);
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    MemoryArbiter::Options arb_options;
    arb_options.budget_bytes = 64 * 1024;  // < one chunk
    MemoryArbiter arbiter(arb_options);
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    Status status = Status::OK();
    for (const Row& row : rows) {
      status = (*op)->Consume(row);
      if (!status.ok()) break;
    }
    if (status.ok()) {
      status = (*op)->Finish().status();
    }
    ASSERT_FALSE(status.ok()) << "a 64 KiB budget cannot fit this query";
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
    EXPECT_NE(status.message().find("mem_budget_bytes="), std::string::npos)
        << status.ToString();
    EXPECT_GT(arbiter.denial_count(), 0u);
  }
}

TEST(MemoryConformanceTest, AmpleBudgetKeepsOutputIdentical) {
  // With admission control on but the budget comfortably above the
  // workload, the degradation machinery must not change the answer.
  const auto rows = Dataset();
  const auto expected = ReferenceTopK(rows, 300, 0, SortDirection::kAscending);
  for (const TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    MemoryArbiter::Options arb_options;
    arb_options.budget_bytes = 64u << 20;
    MemoryArbiter arbiter(arb_options);
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options =
        ConformanceOptions(&env, scratch.str(), algorithm, &arbiter);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    auto result = RunOperator(op->get(), rows);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(expected, *result);
    EXPECT_EQ(arbiter.denial_count(), 0u);
  }
}

TEST(MemoryConformanceTest, ManifestSaveSurvivesEveryFailedAllocation) {
  // SaveManifest marks a write in flight before it copies the run registry
  // and serializes it. Fail each of its allocations in turn, with
  // synchronous and background writes: the call may throw, but the mark
  // must end, or the next save, FlushManifest and the destructor would
  // wait on it forever.
  ScratchDir scratch;
  StorageEnv env;
  for (const size_t io_threads : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(io_threads);
    IoPipelineOptions io;
    io.background_threads = io_threads;
    auto spill = SpillManager::Create(
        &env, scratch.str() + "/io" + std::to_string(io_threads), io);
    ASSERT_TRUE(spill.ok()) << spill.status().ToString();
    for (uint64_t id = 0; id < 3; ++id) {
      RunMeta meta;
      meta.id = id;
      meta.path = "run-" + std::to_string(id) + ".tkr";
      meta.rows = 100;
      meta.histogram = {{1.0 * id, 50}, {2.0 * id, 50}};
      ASSERT_TRUE((*spill)->AddRun(std::move(meta)).ok());
    }
    size_t failed = 0;
    for (size_t nth = 1;; ++nth) {
      Status status;
      t_fail_countdown = nth;
      try {
        status = (*spill)->SaveManifest("state.manifest");
      } catch (const std::bad_alloc&) {
        status = Status::OutOfMemory("thrown");
      }
      const bool fired = t_fail_countdown == 0;
      t_fail_countdown = 0;
      (void)(*spill)->FlushManifest();
      if (!fired) {
        EXPECT_TRUE(status.ok()) << status.ToString();
        break;
      }
      ++failed;
    }
    EXPECT_GT(failed, 0u);
    ASSERT_TRUE((*spill)->SaveManifest("state.manifest").ok());
    ASSERT_TRUE((*spill)->FlushManifest().ok());
  }
}

}  // namespace
}  // namespace topk
