#include "sort/merger.h"

#include <memory>

#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sort/loser_tree.h"

namespace topk {

namespace {

/// One merge input: a run reader with a one-row lookahead buffer, plus the
/// row's normalized key and offset-value code (the OVC is relative to the
/// most recent row this way surrendered to the output — see
/// row/normalized_key.h for the coding rules).
struct MergeWay {
  std::unique_ptr<RunReader> reader;
  Row current;
  NormalizedKey norm;
  OffsetValueCode ovc = kOvcExhausted;
  bool exhausted = false;

  Status Advance(MergeStats* stats, SortDirection direction) {
    bool eof = false;
    TOPK_RETURN_NOT_OK(reader->Next(&current, &eof));
    if (eof) {
      exhausted = true;
      ovc = kOvcExhausted;
      // Hand this reader's budget slots back immediately instead of when
      // the merge finishes.
      reader->CancelPrefetch();
    } else {
      ++stats->rows_read;
      // The row this one replaces was just surrendered to the output (it is
      // the previous overall winner), so it is exactly the base the new
      // code must be relative to.
      const NormalizedKey base = norm;
      norm = current.normalized_key(direction);
      ovc = MakeOvcAgainstBase(norm, base);
    }
    return Status::OK();
  }

  /// First read of the run: the code is relative to the virtual
  /// sorts-before-everything base all ways start from.
  Status AdvanceFirst(MergeStats* stats, SortDirection direction) {
    bool eof = false;
    TOPK_RETURN_NOT_OK(reader->Next(&current, &eof));
    if (eof) {
      exhausted = true;
      ovc = kOvcExhausted;
      reader->CancelPrefetch();
    } else {
      ++stats->rows_read;
      norm = current.normalized_key(direction);
      ovc = MakeInitialOvc(norm);
    }
    return Status::OK();
  }
};

/// Cancels every way's prefetch pipeline on scope exit — before the ways
/// (and their readers) are destroyed. A merge that stops early at k rows
/// or the cutoff leaves lookahead blocks in flight on most ways; cancel
/// marks them deliberately discarded (io.prefetch.blocks_cancelled) and
/// stops the pumps, so reader teardown waits at most one in-flight block
/// per run and the blocks_unconsumed overshoot signal stays clean.
struct PrefetchCancelGuard {
  std::vector<MergeWay>* ways;
  ~PrefetchCancelGuard() {
    for (MergeWay& way : *ways) {
      if (way.reader != nullptr) way.reader->CancelPrefetch();
    }
  }
};

/// Tournament-comparison tallies, accumulated locally (the merge loop is
/// far too hot for a relaxed atomic per comparison) and published once per
/// merge step — globally and, when a per-query context is installed, to
/// that query's scoped registry.
struct CompareCounts {
  /// Full key comparisons performed (comparator or normalized-key bytes).
  uint64_t full = 0;
  /// Comparisons decided by the offset-value codes alone.
  uint64_t ovc_hits = 0;

  ~CompareCounts() {
    static ObsCounter count("sort.compare.count");
    static ObsCounter hits("sort.compare.ovc_hits");
    count.Add(full);
    hits.Add(ovc_hits);
  }
};

}  // namespace

Result<MergeStats> MergeRuns(SpillManager* spill,
                             const std::vector<RunMeta>& runs,
                             const RowComparator& comparator,
                             const MergeOptions& options,
                             const RowSink& sink) {
  MergeStats stats;
  if (runs.empty()) {
    stats.exhausted_inputs = true;
    return stats;
  }
  TraceSpan span("merge.run", "sort",
                 {TraceArg("ways", runs.size()),
                  TraceArg("prefetch_depth_cap",
                           spill->PrefetchDepthCap(runs.size()))});
  const SortDirection direction = comparator.direction();

  if (!options.seek_bytes.empty() &&
      options.seek_bytes.size() != runs.size()) {
    return Status::InvalidArgument(
        "seek_bytes must be parallel to the run list");
  }
  if (options.seek_rows_total > options.skip) {
    return Status::InvalidArgument("seek skips more rows than the offset");
  }

  std::vector<MergeWay> ways(runs.size());
  PrefetchCancelGuard cancel_guard{&ways};
  for (size_t i = 0; i < runs.size(); ++i) {
    // Each reader's lookahead cap is this merge's share of the budget.
    TOPK_ASSIGN_OR_RETURN(ways[i].reader,
                          spill->OpenRun(runs[i], runs.size()));
    if (!options.seek_bytes.empty() && options.seek_bytes[i] > 0) {
      TOPK_RETURN_NOT_OK(ways[i].reader->SkipToByte(options.seek_bytes[i]));
    }
    TOPK_RETURN_NOT_OK(ways[i].AdvanceFirst(&stats, direction));
  }

  CompareCounts compares;
  // OVC fast path. Both contestants' codes are always relative to the
  // same base (initially the virtual start key, later the previous
  // overall winner — the loser tree preserves this, see
  // row/normalized_key.h), so differing codes decide the comparison
  // outright. Equal codes fall back to one normalized-key comparison,
  // after which the loser's code is recomputed relative to the winner —
  // the update that keeps every stored loser comparable on later
  // replays. Exhausted ways carry the sentinel code and lose to every
  // live way for free.
  const auto ovc_less = [&ways, &compares](size_t a, size_t b) {
    MergeWay& wa = ways[a];
    MergeWay& wb = ways[b];
    if (wa.ovc != wb.ovc) {
      ++compares.ovc_hits;
      return wa.ovc < wb.ovc;
    }
    if (wa.exhausted) return false;  // both exhausted: order is moot
    ++compares.full;
    const size_t offset = wa.norm.FirstDifferingByte(wb.norm);
    if (offset >= 16) return false;  // identical (key, id): keep stable
    if (wa.norm.ByteAt(offset) < wb.norm.ByteAt(offset)) {
      wb.ovc = MakeOvc(offset, wb.norm.ByteAt(offset));
      return true;
    }
    wa.ovc = MakeOvc(offset, wa.norm.ByteAt(offset));
    return false;
  };
  // Legacy path: every repair re-compares the full (key, id) pair through
  // RowComparator. Kept for the CI equivalence matrix and as the A/B
  // baseline; the ordering is identical, so output bytes are too.
  const auto legacy_less = [&ways, &compares, &comparator](size_t a,
                                                           size_t b) {
    if (ways[a].exhausted) return false;
    if (ways[b].exhausted) return true;
    ++compares.full;
    return comparator.Less(ways[a].current, ways[b].current);
  };
  // The tree is instantiated per comparator, so each tournament match is a
  // direct call the compiler can inline.
  const auto drain = [&](auto less) -> Status {
    LoserTree tree(ways.size(), less);
    tree.Build();
    // Rows already skipped via seeks count toward the offset.
    const uint64_t residual_skip = options.skip - options.seek_rows_total;
    stats.rows_skipped = options.seek_rows_total;
    const uint64_t kMax = std::numeric_limits<uint64_t>::max();
    const uint64_t target = (options.limit > kMax - residual_skip)
                                ? kMax
                                : residual_skip + options.limit;
    uint64_t produced = 0;  // skipped + emitted
    uint64_t last_key_norm = 0;
    for (;;) {
      // One relaxed load per merged row: a cancelled query's merge unwinds
      // within a single row step, and the PrefetchCancelGuard above cancels
      // every way's in-flight prefetch on the way out.
      TOPK_RETURN_IF_CANCELLED(options.cancel);
      const size_t w = tree.winner();
      if (produced >= target) {
        // Limit reached; only key-ties of the last emitted row may follow.
        // Tie detection runs on the normalized key word, so NaN and ±0.0
        // boundary keys tie exactly as they order.
        if (!options.with_ties || stats.rows_emitted == 0 ||
            ways[w].exhausted || ways[w].norm.key_word != last_key_norm) {
          break;
        }
      }
      if (ways[w].exhausted) {
        stats.exhausted_inputs = true;
        break;
      }
      if (options.stop_filter != nullptr &&
          options.stop_filter->EliminateNormalizedKey(ways[w].norm.key_word)) {
        // Every remaining row in every run sorts at or after this one.
        break;
      }
      Row row = std::move(ways[w].current);
      const uint64_t row_key_norm = ways[w].norm.key_word;
      TOPK_RETURN_NOT_OK(ways[w].Advance(&stats, direction));
      tree.ReplayWinner();

      ++produced;
      if (produced <= residual_skip) {
        ++stats.rows_skipped;
        continue;
      }
      stats.last_key = row.key;
      last_key_norm = row_key_norm;
      ++stats.rows_emitted;
      if (options.refine_filter != nullptr &&
          stats.rows_emitted + stats.rows_skipped ==
              options.refine_filter->k()) {
        options.refine_filter->ProposeCutoff(row.key);
      }
      TOPK_RETURN_NOT_OK(sink(std::move(row)));
    }
    return Status::OK();
  };
  TOPK_RETURN_NOT_OK(options.use_ovc ? drain(ovc_less) : drain(legacy_less));
  if (!stats.exhausted_inputs) {
    // Check whether we happened to stop exactly at the end of all inputs.
    bool all_done = true;
    for (const MergeWay& way : ways) {
      if (!way.exhausted) {
        all_done = false;
        break;
      }
    }
    stats.exhausted_inputs = all_done;
  }
  return stats;
}

}  // namespace topk
