/// Command-line driver: run any of the library's top-k algorithms on a
/// synthetic workload and report the full execution statistics. Handy for
/// exploring the paper's parameter space without writing code.
///
///   topk_cli --algorithm=histogram --n=2e6 --k=5e4 --memory-mb=2
///            --dist=fal --shape=1.25 --buckets=50 --payload=56
///
/// Supported flags (defaults in parentheses):
///   --algorithm   heap | traditional | optimized | histogram (histogram)
///   --n           input rows (1e6)
///   --k           output rows (1e4)
///   --offset      OFFSET clause (0)
///   --memory-mb   operator memory budget in MiB (4)
///   --dist        uniform | fal | lognormal | ascending | descending
///   --shape       fal shape parameter z (1.25)
///   --payload     payload bytes per row (56)
///   --buckets     histogram buckets per run (50)
///   --direction   asc | desc (asc)
///   --fan-in      merge fan-in (64)
///   --ovc         offset-value coding on the merge loser trees; output is
///                 byte-identical either way, the switch exists for A/B
///                 comparisons (true, or the TOPK_OVC env default)
///   --early-merge optimized baseline: enable early merge (true)
///   --workers     histogram operator: run-generation threads sharing one
///                 cutoff filter (Sec 4.4); every other algorithm rejects a
///                 value other than 1 (1)
///   --io-threads  background I/O pipeline threads, 0 = synchronous (2)
///   --prefetch-budget-mb  merge-wide adaptive prefetch memory budget in
///                 MiB; 0 pins the fixed one-block lookahead (8)
///   --io-latency-us  injected storage latency per I/O call, emulating
///                 disaggregated storage (0)
///   --fault-profile  inject storage faults, e.g.
///                 "transient=0.01,spike=0.005,spike-us=2000,torn=0.001,
///                 bitflip=0.0001,seed=7" (off)
///   --io-retry-attempts  max attempts per storage call for transient
///                 faults, 1 = no retries (4)
///   --io-deadline-ms  wall-clock deadline per storage operation across all
///                 of its retries, and per merge-read block wait; 0 =
///                 unbounded (0)
///   --io-retry-budget  shared retry-token budget across all pool threads;
///                 an exhausted budget fails retries fast, successes refill
///                 it; 0 = unbounded (0)
///   --hedge       hedge straggling prefetch reads: re-request an overdue
///                 block on a second handle, first completion wins (false)
///   --hedge-multiplier  issue the hedge when the wait exceeds this multiple
///                 of the reader's round-trip EWMA (3.0)
///   --storage-breaker  trip a circuit breaker per storage op class under
///                 sustained failure and fail fast until probes succeed
///                 (false)
///   --spill-quota-mb  cap on spill bytes on disk at once; the histogram
///                 operator consolidates runs before giving up; 0 =
///                 unlimited (0)
///   --mem-budget-mb  process-wide memory-arbiter budget in MiB; consumers
///                 degrade (smaller prefetch windows, early spills, run
///                 consolidation, synchronous writes) under soft pressure
///                 and new grants fail with RESOURCE_EXHAUSTED (exit 3)
///                 under hard pressure; 0 = accounting only (0)
///   --mem-fault-profile  inject allocation failures at the memory
///                 arbiter, e.g. "deny=0.01,seed=7,mode=status" or
///                 "nth=25,mode=throw" (also available as the
///                 TOPK_MEM_FAULT environment variable) (off)
///   --manifest    keep a spill manifest of this name checkpointed inside
///                 --spill-dir, enabling crash recovery (off)
///   --suspend-before-merge  consume the input, persist the runs + manifest,
///                 and exit without merging — the crash/suspend half of a
///                 resume exercise (false)
///   --resume-from=NAME  resume from manifest NAME inside --spill-dir. A
///                 merge-phase manifest resumes straight into the merge; an
///                 optimized-external manifest with a mid-input checkpoint
///                 makes the CLI regenerate the input and replay it from the
///                 checkpointed row before finishing (off)
///   --cancel-after-ms  trip the query's cancellation token from a control
///                 thread after this many milliseconds; the query unwinds
///                 with CANCELLED (0 = never)
///   --query-deadline-ms  arm a query-wide deadline; past it the query
///                 unwinds with DEADLINE_EXCEEDED (0 = none)
///   --on-cancel   release | keep — what a cancelled query does with its
///                 spill state: delete it, or checkpoint the manifest and
///                 keep the directory for --resume-from (release)
///   --checkpoint-every-rows  optimized baseline: make a durable input
///                 checkpoint every N consumed rows so mid-input crashes
///                 resume with replay from the last checkpoint; requires
///                 --manifest (0 = off)
///   --crash-at=POINT  arm a deterministic crash point; the process exits
///                 with code 42 when execution reaches it (also available
///                 as the TOPK_CRASH_AT environment variable)
///   --seed        RNG seed (42)
///   --spill-dir   run directory (under $TMPDIR)
///   --verify      cross-check against the in-memory reference (false)
///   --input       read sort keys from a file (one per line; overrides
///                 --n/--dist; --payload bytes are attached per row)
///   --trace-out   write a Chrome trace-event JSON of the execution to FILE
///                 (open in Perfetto / chrome://tracing)
///   --metrics-json  write the unified stats document (operator stats +
///                 storage traffic + scoped metrics + profile) to FILE
///   --profile     print an EXPLAIN ANALYZE-style profile report after the
///                 query: phase tree with wall/self/I/O-wait time, bytes,
///                 cutoff-filter evolution, I/O event highlights (false)
///   --progress    print a progress line every ~5% of the input (false)

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include <fstream>

#include "common/query_control.h"

#include "common/flags.h"
#include "common/resource_arbiter.h"
#include "gen/generator.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/profile.h"
#include "obs/stats_export.h"
#include "obs/trace.h"
#include "topk/operator_factory.h"
#include "topk/stats_reporter.h"

namespace {

int Fail(const topk::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  // Memory exhaustion gets a distinct exit status so harnesses can tell a
  // clean arbiter denial from any other failure (and from a crash).
  if (status.code() == topk::StatusCode::kResourceExhausted ||
      status.code() == topk::StatusCode::kOutOfMemory) {
    return 3;
  }
  return 1;
}

/// Loads one sort key per line from `path` (trace-driven execution).
topk::Result<std::vector<double>> LoadKeys(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return topk::Status::IoError("cannot open --input file " + path);
  }
  std::vector<double> keys;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    const double key = std::strtod(line.c_str(), &end);
    if (end == line.c_str()) {
      return topk::Status::InvalidArgument(
          "bad key at " + path + ":" + std::to_string(line_number));
    }
    keys.push_back(key);
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topk;

  auto flags_result = Flags::Parse(argc, argv);
  if (!flags_result.ok()) return Fail(flags_result.status());
  const Flags& flags = *flags_result;

  TopKAlgorithm algorithm;
  const std::string algorithm_name =
      flags.GetString("algorithm", "histogram");
  if (!ParseTopKAlgorithm(algorithm_name, &algorithm)) {
    return Fail(Status::InvalidArgument("unknown --algorithm '" +
                                        algorithm_name + "'"));
  }

  DatasetSpec spec;
  int64_t n = 0, k = 0, offset = 0, payload = 0, buckets = 0, fan_in = 0,
          seed = 0;
  int64_t workers = 1, io_threads = 0, io_latency_us = 0,
          io_retry_attempts = 0;
  int64_t io_deadline_ms = 0, io_retry_budget = 0;
  int64_t cancel_after_ms = 0, query_deadline_ms = 0;
  int64_t checkpoint_every_rows = 0;
  double memory_mb = 0, shape = 0, prefetch_budget_mb = 8.0;
  double hedge_multiplier = 3.0, spill_quota_mb = 0, mem_budget_mb = 0;
  bool early_merge = true, verify = false, progress = false;
  bool suspend_before_merge = false, hedge = false, storage_breaker = false;
  bool profile = false;
  bool use_ovc = DefaultOvcEnabled();
  {
    auto status = [&]() -> Status {
      TOPK_ASSIGN_OR_RETURN(n, flags.GetInt("n", 1000000));
      TOPK_ASSIGN_OR_RETURN(k, flags.GetInt("k", 10000));
      TOPK_ASSIGN_OR_RETURN(offset, flags.GetInt("offset", 0));
      TOPK_ASSIGN_OR_RETURN(payload, flags.GetInt("payload", 56));
      TOPK_ASSIGN_OR_RETURN(buckets, flags.GetInt("buckets", 50));
      if (buckets < 0) {
        return Status::InvalidArgument("--buckets must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(fan_in, flags.GetInt("fan-in", 64));
      TOPK_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 42));
      TOPK_ASSIGN_OR_RETURN(memory_mb, flags.GetDouble("memory-mb", 4.0));
      TOPK_ASSIGN_OR_RETURN(shape, flags.GetDouble("shape", 1.25));
      TOPK_ASSIGN_OR_RETURN(early_merge,
                            flags.GetBool("early-merge", true));
      TOPK_ASSIGN_OR_RETURN(use_ovc, flags.GetBool("ovc", use_ovc));
      TOPK_ASSIGN_OR_RETURN(workers, flags.GetInt("workers", 1));
      if (workers < 1 || workers > static_cast<int64_t>(kMaxWorkers)) {
        return Status::InvalidArgument("--workers must be in [1, " +
                                       std::to_string(kMaxWorkers) + "]");
      }
      TOPK_ASSIGN_OR_RETURN(io_threads, flags.GetInt("io-threads", 2));
      if (io_threads < 0 || io_threads > 64) {
        return Status::InvalidArgument("--io-threads must be in [0, 64]");
      }
      TOPK_ASSIGN_OR_RETURN(io_latency_us,
                            flags.GetInt("io-latency-us", 0));
      if (io_latency_us < 0) {
        return Status::InvalidArgument("--io-latency-us must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(prefetch_budget_mb,
                            flags.GetDouble("prefetch-budget-mb", 8.0));
      if (prefetch_budget_mb < 0 || prefetch_budget_mb > 4096) {
        return Status::InvalidArgument(
            "--prefetch-budget-mb must be in [0, 4096]");
      }
      TOPK_ASSIGN_OR_RETURN(io_retry_attempts,
                            flags.GetInt("io-retry-attempts", 4));
      if (io_retry_attempts < 1 || io_retry_attempts > 100) {
        return Status::InvalidArgument(
            "--io-retry-attempts must be in [1, 100]");
      }
      TOPK_ASSIGN_OR_RETURN(io_deadline_ms,
                            flags.GetInt("io-deadline-ms", 0));
      if (io_deadline_ms < 0) {
        return Status::InvalidArgument("--io-deadline-ms must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(io_retry_budget,
                            flags.GetInt("io-retry-budget", 0));
      if (io_retry_budget < 0) {
        return Status::InvalidArgument("--io-retry-budget must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(hedge, flags.GetBool("hedge", false));
      TOPK_ASSIGN_OR_RETURN(hedge_multiplier,
                            flags.GetDouble("hedge-multiplier", 3.0));
      if (hedge_multiplier < 1.0) {
        return Status::InvalidArgument("--hedge-multiplier must be >= 1");
      }
      TOPK_ASSIGN_OR_RETURN(storage_breaker,
                            flags.GetBool("storage-breaker", false));
      TOPK_ASSIGN_OR_RETURN(spill_quota_mb,
                            flags.GetDouble("spill-quota-mb", 0.0));
      if (spill_quota_mb < 0) {
        return Status::InvalidArgument("--spill-quota-mb must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(mem_budget_mb,
                            flags.GetDouble("mem-budget-mb", 0.0));
      if (mem_budget_mb < 0) {
        return Status::InvalidArgument("--mem-budget-mb must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(cancel_after_ms,
                            flags.GetInt("cancel-after-ms", 0));
      if (cancel_after_ms < 0) {
        return Status::InvalidArgument("--cancel-after-ms must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(query_deadline_ms,
                            flags.GetInt("query-deadline-ms", 0));
      if (query_deadline_ms < 0) {
        return Status::InvalidArgument("--query-deadline-ms must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(checkpoint_every_rows,
                            flags.GetInt("checkpoint-every-rows", 0));
      if (checkpoint_every_rows < 0) {
        return Status::InvalidArgument(
            "--checkpoint-every-rows must be >= 0");
      }
      TOPK_ASSIGN_OR_RETURN(verify, flags.GetBool("verify", false));
      TOPK_ASSIGN_OR_RETURN(profile, flags.GetBool("profile", false));
      TOPK_ASSIGN_OR_RETURN(progress, flags.GetBool("progress", false));
      TOPK_ASSIGN_OR_RETURN(suspend_before_merge,
                            flags.GetBool("suspend-before-merge", false));
      return Status::OK();
    }();
    if (!status.ok()) return Fail(status);
  }

  KeyDistribution dist;
  const std::string dist_name = flags.GetString("dist", "uniform");
  if (!ParseKeyDistribution(dist_name, &dist)) {
    return Fail(Status::InvalidArgument("unknown --dist '" + dist_name + "'"));
  }
  const std::string direction_name = flags.GetString("direction", "asc");
  const std::string input_path = flags.GetString("input", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_json = flags.GetString("metrics-json", "");
  const std::string fault_profile_spec = flags.GetString("fault-profile", "");
  const std::string mem_fault_profile_spec =
      flags.GetString("mem-fault-profile", "");
  const std::string manifest_name = flags.GetString("manifest", "");
  const std::string resume_from = flags.GetString("resume-from", "");
  const std::string crash_at = flags.GetString("crash-at", "");
  const std::string on_cancel_name = flags.GetString("on-cancel", "release");
  const std::string spill_dir = flags.GetString(
      "spill-dir", (std::filesystem::temp_directory_path() /
                    ("topk_cli_" + std::to_string(::getpid())))
                       .string());
  if (const auto unread = flags.UnreadFlags(); !unread.empty()) {
    return Fail(Status::InvalidArgument("unknown flag --" + unread.front()));
  }

  std::vector<double> trace_keys;
  if (!input_path.empty()) {
    auto keys = LoadKeys(input_path);
    if (!keys.ok()) return Fail(keys.status());
    trace_keys = std::move(*keys);
    n = static_cast<int64_t>(trace_keys.size());
  }

  spec.WithRows(static_cast<uint64_t>(n))
      .WithDistribution(dist)
      .WithPayload(static_cast<size_t>(payload),
                   static_cast<size_t>(payload))
      .WithSeed(static_cast<uint64_t>(seed));
  spec.keys.fal_shape = shape;

  if (suspend_before_merge && manifest_name.empty()) {
    return Fail(Status::InvalidArgument(
        "--suspend-before-merge requires --manifest"));
  }
  if (!resume_from.empty() && suspend_before_merge) {
    return Fail(Status::InvalidArgument(
        "--resume-from and --suspend-before-merge are mutually exclusive"));
  }
  if (checkpoint_every_rows > 0 && manifest_name.empty() &&
      resume_from.empty()) {
    return Fail(Status::InvalidArgument(
        "--checkpoint-every-rows requires --manifest"));
  }
  if (on_cancel_name != "release" && on_cancel_name != "keep") {
    return Fail(Status::InvalidArgument("--on-cancel must be release|keep"));
  }
  if (!crash_at.empty()) {
    Status armed = ArmCrashPoint(crash_at);
    if (!armed.ok()) return Fail(armed);
  }

  StorageEnv::Options env_options;
  env_options.write_latency_nanos = io_latency_us * 1000;
  env_options.read_latency_nanos = io_latency_us * 1000;
  StorageEnv env(env_options);
  if (!fault_profile_spec.empty()) {
    auto profile = FaultProfile::Parse(fault_profile_spec);
    if (!profile.ok()) return Fail(profile.status());
    env.SetFaultProfile(*profile);
    std::printf("fault profile: %s\n", profile->ToString().c_str());
  }
  if (storage_breaker) {
    env.EnableStorageHealth(StorageHealth::Options());
  }
  if (mem_budget_mb > 0) {
    GlobalMemoryArbiter()->Reset(
        static_cast<size_t>(mem_budget_mb * 1024.0 * 1024.0));
    std::printf("memory budget: %.1f MiB (arbiter-enforced)\n",
                mem_budget_mb);
  }
  if (!mem_fault_profile_spec.empty()) {
    auto mem_profile = MemFaultProfile::Parse(mem_fault_profile_spec);
    if (!mem_profile.ok()) return Fail(mem_profile.status());
    GlobalMemoryArbiter()->SetFaultProfile(*mem_profile);
    std::printf("memory fault profile: %s\n",
                mem_profile->ToString().c_str());
  }
  TopKOptions options;
  options.k = static_cast<uint64_t>(k);
  options.offset = static_cast<uint64_t>(offset);
  options.direction = direction_name == "desc" ? SortDirection::kDescending
                                               : SortDirection::kAscending;
  options.memory_limit_bytes =
      static_cast<size_t>(memory_mb * 1024.0 * 1024.0);
  options.histogram_buckets_per_run = static_cast<uint64_t>(buckets);
  options.merge_fan_in = static_cast<size_t>(fan_in);
  options.enable_early_merge = early_merge;
  options.use_ovc = use_ovc;
  options.workers = static_cast<size_t>(workers);
  options.io_background_threads = static_cast<size_t>(io_threads);
  options.prefetch_memory_budget =
      static_cast<size_t>(prefetch_budget_mb * 1024.0 * 1024.0);
  options.io_retry.max_attempts = static_cast<int>(io_retry_attempts);
  options.io_retry.deadline_nanos = io_deadline_ms * 1'000'000;
  if (io_retry_budget > 0) {
    GlobalRetryBudget()->Reset(static_cast<double>(io_retry_budget),
                               /*refill_per_success=*/0.1);
    options.io_retry.retry_budget = GlobalRetryBudget();
  }
  options.io_hedge_reads = hedge;
  options.io_hedge_latency_multiplier = hedge_multiplier;
  options.spill_quota_bytes =
      static_cast<uint64_t>(spill_quota_mb * 1024.0 * 1024.0);
  options.manifest_filename =
      resume_from.empty() ? manifest_name : resume_from;
  options.env = &env;
  options.spill_dir = spill_dir;
  options.checkpoint_input_every_rows =
      static_cast<uint64_t>(checkpoint_every_rows);
  options.on_cancel = on_cancel_name == "keep" ? OnCancelPolicy::kKeepForResume
                                               : OnCancelPolicy::kReleaseSpill;
  if (algorithm == TopKAlgorithm::kHeap) {
    // The in-memory operator holds its whole output, whatever --memory-mb.
    options.memory_limit_bytes = std::numeric_limits<size_t>::max();
  }

  // Query lifecycle control: one token shared by the query and (when
  // --cancel-after-ms asks for it) a controller thread that trips it.
  std::thread canceller;
  CancellationToken canceller_quit;
  struct CancellerJoin {
    CancellationToken* quit;
    std::thread* thread;
    ~CancellerJoin() {
      if (thread->joinable()) {
        quit->RequestCancel();
        thread->join();
      }
    }
  } canceller_join{&canceller_quit, &canceller};
  if (cancel_after_ms > 0 || query_deadline_ms > 0) {
    options.cancel = std::make_shared<CancellationToken>();
    if (query_deadline_ms > 0) {
      options.cancel->SetDeadline(
          static_cast<uint64_t>(query_deadline_ms) * 1'000'000);
    }
    if (cancel_after_ms > 0) {
      canceller = std::thread([token = options.cancel, &canceller_quit,
                               cancel_after_ms] {
        if (canceller_quit.WaitFor(
                static_cast<uint64_t>(cancel_after_ms) * 1'000'000)) {
          token->RequestCancel("--cancel-after-ms=" +
                               std::to_string(cancel_after_ms));
        }
      });
    }
  }

  // One observability scope for the whole query: every metric recorded
  // below lands in both the global registry and this query's own registry,
  // and phase scopes hang off its timeline. In this single-query process
  // the scoped snapshot matches the global registry's deltas.
  std::shared_ptr<ObsContext> obs = ObsContext::Create(algorithm_name);
  options.obs = obs;
  ObsScope main_scope(obs);

  if (!trace_out.empty()) {
    GlobalTracer().Start();
  }

  RestoreReport restore_report;
  Result<std::unique_ptr<TopKOperator>> op =
      resume_from.empty()
          ? MakeTopKOperator(algorithm, options)
          : ResumeTopKOperator(algorithm, options, &restore_report);
  if (!op.ok()) return Fail(op.status());

  if (resume_from.empty()) {
    // The limit the operator runs with, not the flag: the heap operator
    // ignores --memory-mb.
    char memory[32] = "unbounded";
    if (options.memory_limit_bytes != std::numeric_limits<size_t>::max()) {
      std::snprintf(memory, sizeof(memory), "%.1f MiB", memory_mb);
    }
    std::printf("running %s: top-%lld%s of %lld %s rows, %s memory\n",
                TopKAlgorithmName(algorithm).c_str(),
                static_cast<long long>(k),
                offset > 0 ? (" offset " + std::to_string(offset)).c_str()
                           : "",
                static_cast<long long>(n),
                trace_keys.empty() ? dist_name.c_str() : "trace", memory);
  } else {
    std::printf(
        "resuming %s: top-%lld%s from %s/%s (%zu runs restored, %zu "
        "quarantined)\n",
        TopKAlgorithmName(algorithm).c_str(), static_cast<long long>(k),
        offset > 0 ? (" offset " + std::to_string(offset)).c_str() : "",
        spill_dir.c_str(), resume_from.c_str(), restore_report.runs_restored,
        restore_report.quarantined.size());
    for (const QuarantinedRun& bad : restore_report.quarantined) {
      std::printf("  quarantined run %llu (%s): %s\n",
                  static_cast<unsigned long long>(bad.meta.id),
                  bad.meta.path.c_str(), bad.reason.ToString().c_str());
    }
  }

  // Progress reporting: one line every ~5% of the input showing how the
  // cutoff filter is eating the stream.
  const uint64_t progress_stride =
      progress ? std::max<uint64_t>(static_cast<uint64_t>(n) / 20, 1) : 0;
  uint64_t consumed = 0;
  const auto maybe_report = [&](const Stopwatch& w) {
    if (progress_stride == 0 || consumed % progress_stride != 0) return;
    const OperatorStats& s = (*op)->stats();
    const double eliminated_pct =
        s.rows_consumed == 0
            ? 0.0
            : 100.0 * static_cast<double>(s.rows_eliminated_input) /
                  static_cast<double>(s.rows_consumed);
    std::printf("  %5.1f%%  %12llu rows  %5.1f%% eliminated  %7.2fs\n",
                100.0 * static_cast<double>(consumed) /
                    static_cast<double>(n > 0 ? n : 1),
                static_cast<unsigned long long>(s.rows_consumed),
                eliminated_pct, w.ElapsedSeconds());
    std::fflush(stdout);
  };

  Row row;
  Stopwatch watch;
  // A resumed operator normally rejects input, but an optimized-external
  // execution restored from a mid-input checkpoint wants the input tail
  // replayed: regenerate the deterministic input and skip the rows the
  // checkpoint already covers.
  const bool replay_input = !resume_from.empty() && (*op)->resume_accepts_input();
  const uint64_t replay_skip = replay_input ? (*op)->resume_input_offset() : 0;
  if (replay_input) {
    std::printf("  mid-input checkpoint: replaying input from row %llu\n",
                static_cast<unsigned long long>(replay_skip));
  }
  if (resume_from.empty() || replay_input) {
    PhaseScope consume_phase("consume");
    if (!trace_keys.empty()) {
      const std::string fill(static_cast<size_t>(payload), 'p');
      for (size_t i = 0; i < trace_keys.size(); ++i) {
        if (i < replay_skip) continue;
        Status status = (*op)->Consume(Row(trace_keys[i], i, fill));
        if (!status.ok()) return Fail(status);
        ++consumed;
        maybe_report(watch);
      }
    } else {
      RowGenerator gen(spec);
      uint64_t index = 0;
      while (gen.Next(&row)) {
        if (index++ < replay_skip) continue;
        Status status = (*op)->Consume(std::move(row));
        if (!status.ok()) return Fail(status);
        ++consumed;
        maybe_report(watch);
      }
    }
  }
  if (suspend_before_merge) {
    Status status = [&] {
      PhaseScope suspend_phase("suspend");
      return (*op)->Suspend();
    }();
    if (!status.ok()) return Fail(status);
    obs->MarkQueryComplete();
    std::printf(
        "suspended after %llu rows: runs and manifest '%s' left in %s\n"
        "resume with --resume-from=%s --spill-dir=%s\n",
        static_cast<unsigned long long>(consumed), manifest_name.c_str(),
        spill_dir.c_str(), manifest_name.c_str(), spill_dir.c_str());
    std::printf("\n%s", FormatOperatorStats((*op)->stats()).c_str());
    std::printf("  %-28s %s\n", "storage traffic",
                env.stats()->ToString().c_str());
    if (!trace_out.empty()) {
      GlobalTracer().Stop();
      Status trace_status = GlobalTracer().WriteJsonFile(trace_out);
      if (!trace_status.ok()) return Fail(trace_status);
    }
    if (!metrics_json.empty()) {
      StatsExport exported;
      exported.operator_name = TopKAlgorithmName(algorithm);
      exported.operator_stats = (*op)->stats();
      exported.io = env.stats()->snapshot();
      exported.metrics = obs->metrics().TakeSnapshot();
      exported.obs = obs.get();
      std::ofstream out(metrics_json, std::ios::binary | std::ios::trunc);
      if (!out) {
        return Fail(Status::IoError("cannot open --metrics-json file " +
                                    metrics_json));
      }
      out << FormatStatsJson(exported) << "\n";
      std::printf("metrics written to %s\n", metrics_json.c_str());
    }
    if (profile) {
      std::printf("\n%s", FormatProfileText(BuildProfileReport(*obs)).c_str());
    }
    return 0;
  }
  Result<std::vector<Row>> result = [&]() {
    PhaseScope finish_phase("finish");
    TraceSpan finish_span("topk.finish", "topk");
    return (*op)->Finish();
  }();
  if (!result.ok()) return Fail(result.status());
  obs->MarkQueryComplete();
  const double seconds = watch.ElapsedSeconds();

  if (!trace_out.empty()) {
    GlobalTracer().Stop();
    Status status = GlobalTracer().WriteJsonFile(trace_out);
    if (!status.ok()) return Fail(status);
    std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                GlobalTracer().event_count());
  }
  if (!metrics_json.empty()) {
    StatsExport exported;
    exported.operator_name = TopKAlgorithmName(algorithm);
    exported.operator_stats = (*op)->stats();
    exported.io = env.stats()->snapshot();
    exported.metrics = obs->metrics().TakeSnapshot();
    exported.obs = obs.get();
    std::ofstream out(metrics_json, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(Status::IoError("cannot open --metrics-json file " +
                                  metrics_json));
    }
    out << FormatStatsJson(exported) << "\n";
    if (!out) {
      return Fail(Status::IoError("failed writing " + metrics_json));
    }
    std::printf("metrics written to %s\n", metrics_json.c_str());
  }

  std::printf("\n%zu rows in %.3fs", result->size(), seconds);
  if (!result->empty()) {
    std::printf(" — keys %.6g .. %.6g", result->front().key,
                result->back().key);
  }
  std::printf("\n\n%s", FormatOperatorStats((*op)->stats()).c_str());
  std::printf("  %-28s %s\n", "storage traffic",
              env.stats()->ToString().c_str());
  if (profile) {
    std::printf("\n%s", FormatProfileText(BuildProfileReport(*obs)).c_str());
  }

  if (verify) {
    std::vector<Row> all;
    if (!trace_keys.empty()) {
      const std::string fill(static_cast<size_t>(payload), 'p');
      all.reserve(trace_keys.size());
      for (size_t i = 0; i < trace_keys.size(); ++i) {
        all.push_back(Row(trace_keys[i], i, fill));
      }
    } else {
      RowGenerator regen(spec);
      all.reserve(spec.num_rows);
      while (regen.Next(&row)) all.push_back(row);
    }
    RowComparator cmp(options.direction);
    std::sort(all.begin(), all.end(), cmp);
    const size_t begin = std::min<size_t>(options.offset, all.size());
    const size_t end = std::min<size_t>(begin + options.k, all.size());
    bool ok = result->size() == end - begin;
    for (size_t i = 0; ok && i < result->size(); ++i) {
      ok = (*result)[i].id == all[begin + i].id;
    }
    std::printf("\nverification vs full sort: %s\n",
                ok ? "IDENTICAL" : "MISMATCH");
    if (!ok) return 2;
  }

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  return 0;
}
