/// Memory-fault chaos harness, in the chaos_crash_test style: fork a child
/// per (fault profile, operator) cell and run a query whose arbiter is
/// armed with allocation-failure injection or a starvation budget. The
/// child reports through its exit code:
///
///   10  the query completed and its rows are byte-identical to the
///       reference answer (degradation, if any, was invisible)
///   11  the query failed cleanly with OutOfMemory / ResourceExhausted
///   12  wrong rows, or a failure with any other status code
///
/// Anything else — especially a signal (bad_alloc escaping a boundary
/// aborts the process) — is a containment bug the parent turns into a test
/// failure. Children run a synchronous I/O pipeline
/// (io_background_threads=0) so no pool threads cross the fork.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/resource_arbiter.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

constexpr int kExitIdentical = 10;
constexpr int kExitCleanDenial = 11;
constexpr int kExitWrong = 12;

constexpr uint64_t kK = 400;

std::vector<Row> Dataset() {
  DatasetSpec spec;
  spec.WithRows(12000).WithSeed(47).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

/// One cell's arbiter configuration: a byte budget (0 = unlimited) plus an
/// optional fault-profile spec in the --mem-fault-profile syntax.
struct MemChaosCell {
  const char* name;
  size_t budget_bytes;
  const char* fault_spec;
  bool may_complete;  // exit 10 allowed
  bool may_deny;      // exit 11 allowed
};

const MemChaosCell kCells[] = {
    // Ample budget, no faults: admission control on, must complete.
    {"ample-budget", 256u << 20, "", true, false},
    // The very first (bootstrap) grant is denied: deterministic clean OOM.
    {"nth1-status", 0, "nth=1,mode=status", false, true},
    // Same denial as a thrown bad_alloc: containment must make it clean.
    {"nth1-throw", 0, "nth=1,mode=throw", false, true},
    // A later grant fails; depending on the operator's grant schedule the
    // query either absorbs it (degradation paths swallow refusals) or
    // surfaces a clean memory status.
    {"nth7-status", 0, "nth=7,mode=status", true, true},
    {"nth7-throw", 0, "nth=7,mode=throw", true, true},
    // Probabilistic denial of every 20th grant on average, both modes.
    {"deny5pct-status", 0, "deny=0.05,seed=3,mode=status", true, true},
    {"deny5pct-throw", 0, "deny=0.05,seed=3,mode=throw", true, true},
    // Starvation: a budget below one lease chunk refuses the first real
    // growth — deterministic clean ResourceExhausted.
    {"starved-budget", 64 * 1024, "", false, true},
    // Faults on top of a real (but workable) budget.
    {"budget-plus-faults", 32u << 20, "deny=0.02,seed=11,mode=throw", true,
     true},
};

/// An operator under test: an algorithm and its run-generation workers.
/// With several workers, an allocation failure hits a worker thread and
/// must still surface as a status from Consume or Finish.
struct MemChaosOperator {
  TopKAlgorithm algorithm;
  size_t workers;
};

const MemChaosOperator kOperators[] = {
    {TopKAlgorithm::kHeap, 1},
    {TopKAlgorithm::kTraditionalExternal, 1},
    {TopKAlgorithm::kOptimizedExternal, 1},
    {TopKAlgorithm::kHistogram, 1},
    {TopKAlgorithm::kHistogram, 4}};

/// Child body: run the query against an armed arbiter and classify the
/// outcome. Never returns; never asserts (the parent owns the test state).
[[noreturn]] void RunChild(const MemChaosOperator& op_under_test,
                           const MemChaosCell& cell,
                           const std::vector<Row>& rows,
                           const std::vector<Row>& expected,
                           const std::string& spill_dir) {
  MemoryArbiter::Options arb_options;
  arb_options.budget_bytes = cell.budget_bytes;
  MemoryArbiter arbiter(arb_options);
  if (cell.fault_spec[0] != '\0') {
    auto profile = MemFaultProfile::Parse(cell.fault_spec);
    if (!profile.ok()) ::_exit(3);
    arbiter.SetFaultProfile(*profile);
  }

  const TopKAlgorithm algorithm = op_under_test.algorithm;
  StorageEnv env;
  TopKOptions options;
  options.k = kK;
  options.workers = op_under_test.workers;
  options.memory_limit_bytes = 16 * 1024;
  options.io_background_threads = 0;
  options.env = &env;
  options.spill_dir = spill_dir;
  options.arbiter = &arbiter;
  if (algorithm == TopKAlgorithm::kHeap) {
    options.memory_limit_bytes = std::numeric_limits<size_t>::max();
  }

  auto op = MakeTopKOperator(algorithm, options);
  if (!op.ok()) ::_exit(4);

  const auto classify = [](const Status& status) -> int {
    return (status.code() == StatusCode::kOutOfMemory ||
            status.code() == StatusCode::kResourceExhausted)
               ? kExitCleanDenial
               : kExitWrong;
  };
  for (const Row& row : rows) {
    Status status = (*op)->Consume(row);
    if (!status.ok()) ::_exit(classify(status));
  }
  auto result = (*op)->Finish();
  if (!result.ok()) ::_exit(classify(result.status()));

  if (result->size() != expected.size()) ::_exit(kExitWrong);
  for (size_t i = 0; i < expected.size(); ++i) {
    if ((*result)[i].key != expected[i].key ||
        (*result)[i].id != expected[i].id ||
        (*result)[i].payload != expected[i].payload) {
      ::_exit(kExitWrong);
    }
  }
  ::_exit(kExitIdentical);
}

TEST(MemChaosTest, FaultMatrixNeverCrashesAnOperator) {
  const auto rows = Dataset();
  const auto expected = ReferenceTopK(rows, kK, 0, SortDirection::kAscending);
  for (const MemChaosOperator& op_under_test : kOperators) {
    for (const MemChaosCell& cell : kCells) {
      SCOPED_TRACE(TopKAlgorithmName(op_under_test.algorithm) + " x" +
                   std::to_string(op_under_test.workers) + " @ " + cell.name);
      ScratchDir scratch;
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        RunChild(op_under_test, cell, rows, expected, scratch.str());
      }
      int wait_status = 0;
      ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
      ASSERT_TRUE(WIFEXITED(wait_status))
          << "child crashed (signal "
          << (WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0)
          << ") — an allocation failure escaped containment";
      const int code = WEXITSTATUS(wait_status);
      if (code == kExitIdentical) {
        EXPECT_TRUE(cell.may_complete)
            << "query completed where a denial was mandatory";
      } else if (code == kExitCleanDenial) {
        EXPECT_TRUE(cell.may_deny)
            << "query was denied under a fault-free ample budget";
      } else {
        ADD_FAILURE() << "child exit code " << code
                      << " (wrong rows, wrong status code, or harness "
                         "failure)";
      }
    }
  }
}

}  // namespace
}  // namespace topk
