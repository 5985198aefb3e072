/// Deterministic crash-point chaos harness: fork a child per (crash point,
/// operator) cell, let the armed crash point kill it with _exit(42) at a
/// phase boundary where resume state is durable, then resume from the
/// manifest in the parent and assert the recovered output is byte-identical
/// to the uninterrupted query. Children run with a synchronous I/O pipeline
/// (io_background_threads=0) so no pool threads cross the fork.
///
/// This file must stay free of tests that run queries in the parent before
/// the forking tests: the TOPK_CRASH_AT environment check is latched on the
/// process's first HitCrashPoint, and children inherit that latch.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/query_control.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

constexpr char kManifest[] = "chaos.tkm";

/// Distinct keys are load-bearing: a mid-input resume replays the input
/// tail into different run boundaries than the crashed execution had, and
/// only key-distinctness makes the final top-k byte-identical regardless
/// of how rows were packed into runs. Uniform double draws collide with
/// negligible probability at this scale.
std::vector<Row> Dataset() {
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(23).WithPayload(24, 24);
  return MaterializeDataset(spec);
}

/// Sec 5.5's adversarial input: under an ascending query each run lies
/// wholly below the one before, so the cutoff leaves whole runs behind it
/// and the merge phase deletes them unmerged (post-drop-checkpoint).
std::vector<Row> DescendingDataset() {
  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(23).WithPayload(24, 24);
  spec.WithDistribution(KeyDistribution::kDescending);
  return MaterializeDataset(spec);
}

TopKOptions ChaosOptions(StorageEnv* env, const std::string& dir,
                         TopKAlgorithm algorithm, size_t workers) {
  TopKOptions options;
  options.workers = workers;
  options.k = 500;
  options.memory_limit_bytes = 16 * 1024;
  options.merge_fan_in = 4;  // force intermediate merge steps
  options.io_background_threads = 0;
  options.env = env;
  options.spill_dir = dir;
  options.manifest_filename = kManifest;
  if (algorithm == TopKAlgorithm::kOptimizedExternal) {
    // Also exercise the optimized baseline's mid-input checkpoints.
    options.checkpoint_input_every_rows = 4000;
  }
  return options;
}

/// Child body: arm the crash point, run the query, and report via exit
/// code. kCrashExitCode (42) means the armed point fired; anything else is
/// a harness failure the parent turns into a test failure.
[[noreturn]] void RunChild(TopKAlgorithm algorithm,
                           const std::vector<Row>& rows,
                           const std::string& spill_dir,
                           const std::string& crash_point, bool use_env,
                           bool suspend, size_t workers) {
  if (use_env) {
    ::setenv("TOPK_CRASH_AT", crash_point.c_str(), 1);
  } else if (!ArmCrashPoint(crash_point).ok()) {
    ::_exit(3);
  }
  StorageEnv env;
  TopKOptions options = ChaosOptions(&env, spill_dir, algorithm, workers);
  auto op = MakeTopKOperator(algorithm, options);
  if (!op.ok()) ::_exit(4);
  for (const Row& row : rows) {
    if (!(*op)->Consume(row).ok()) ::_exit(5);
  }
  if (suspend) {
    if (!(*op)->Suspend().ok()) ::_exit(6);
  } else {
    if (!(*op)->Finish().ok()) ::_exit(6);
  }
  ::_exit(7);  // the armed crash point never fired
}

/// Forks the child and asserts it died at the crash point.
void CrashChildAt(TopKAlgorithm algorithm, const std::vector<Row>& rows,
                  const std::string& spill_dir,
                  const std::string& crash_point, bool use_env,
                  bool suspend, size_t workers) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    RunChild(algorithm, rows, spill_dir, crash_point, use_env, suspend,
             workers);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(wait_status)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(wait_status), kCrashExitCode)
      << "crash point '" << crash_point << "' did not fire (exit code "
      << WEXITSTATUS(wait_status) << ")";
}

/// Resumes the crashed execution and finishes it, replaying the input tail
/// when the restored state asks for it (optimized mid-input checkpoints).
Result<std::vector<Row>> ResumeAndFinish(TopKAlgorithm algorithm,
                                         const std::vector<Row>& rows,
                                         const std::string& spill_dir,
                                         size_t workers) {
  StorageEnv env;
  TopKOptions options = ChaosOptions(&env, spill_dir, algorithm, workers);
  RestoreReport report;
  std::unique_ptr<TopKOperator> op;
  TOPK_ASSIGN_OR_RETURN(op, ResumeTopKOperator(algorithm, options, &report));
  if (!report.quarantined.empty()) {
    return Status::Corruption(
        "crash at a durable point must not corrupt runs");
  }
  if (op->resume_accepts_input()) {
    for (size_t i = op->resume_input_offset(); i < rows.size(); ++i) {
      TOPK_RETURN_NOT_OK(op->Consume(rows[i]));
    }
  }
  return op->Finish();
}

/// One cell of the chaos matrix: crash there, resume, demand the exact
/// rows the uninterrupted query produces.
void RunCell(TopKAlgorithm algorithm, const std::vector<Row>& rows,
             const std::vector<Row>& expected, const std::string& crash_point,
             bool use_env = false, size_t workers = 1) {
  SCOPED_TRACE(TopKAlgorithmName(algorithm) + " @ " + crash_point +
               " workers=" + std::to_string(workers));
  const bool suspend = crash_point == "post-manifest-checkpoint";
  ScratchDir scratch;
  ASSERT_NO_FATAL_FAILURE(CrashChildAt(algorithm, rows, scratch.str(),
                                       crash_point, use_env, suspend,
                                       workers));
  ASSERT_TRUE(
      std::filesystem::exists(scratch.str() + std::string("/") + kManifest))
      << "crashed child left no manifest";
  auto result = ResumeAndFinish(algorithm, rows, scratch.str(), workers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(expected, *result);
}

/// The TOPK_CRASH_AT kill switch: same contract as ArmCrashPoint, armed
/// from the environment so any binary can be crashed by a harness. Must
/// run before any test that fires HitCrashPoint in the parent process.
TEST(ChaosCrashTest, EnvVarKillSwitch) {
  const auto rows = Dataset();
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  RunCell(TopKAlgorithm::kHistogram, rows, expected, "post-run-flush",
          /*use_env=*/true);
}

TEST(ChaosCrashTest, EveryCrashPointEveryExternalOperator) {
  const auto rows = Dataset();
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kHistogram, TopKAlgorithm::kTraditionalExternal,
        TopKAlgorithm::kOptimizedExternal}) {
    for (const std::string& point : KnownCrashPoints()) {
      if (point == "optimized.mid-input" &&
          algorithm != TopKAlgorithm::kOptimizedExternal) {
        continue;  // the only operator with mid-input checkpoints
      }
      if (point == "post-drop-checkpoint") {
        continue;  // needs descending input: DropCheckpointResumes
      }
      ASSERT_NO_FATAL_FAILURE(RunCell(algorithm, rows, expected, point));
    }
  }
}

TEST(ChaosCrashTest, DropCheckpointResumes) {
  // Only the histogram operator deletes runs beyond its cutoff, and only
  // descending input leaves whole runs behind the cutoff at merge time.
  const auto rows = DescendingDataset();
  const auto expected =
      ReferenceTopK(rows, 500, 0, SortDirection::kAscending);
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    ASSERT_NO_FATAL_FAILURE(RunCell(TopKAlgorithm::kHistogram, rows, expected,
                                    "post-drop-checkpoint",
                                    /*use_env=*/false, workers));
  }
}

TEST(ChaosCrashTest, UnknownCrashPointRejected) {
  Status status = ArmCrashPoint("no-such-point");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The rejection lists the valid points for harness authors.
  EXPECT_NE(status.message().find("post-run-flush"), std::string::npos);
}

TEST(ChaosCrashTest, DisarmedHitIsFree) {
  DisarmCrashPoints();
  HitCrashPoint("post-run-flush");  // must be a no-op, not a crash
}

}  // namespace
}  // namespace topk
