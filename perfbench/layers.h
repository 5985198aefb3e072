#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "row/row.h"

namespace perfbench {

/// The query shape the layer drivers replay: the workload's own output
/// size, memory limit and I/O threads.
struct LayerSetup {
  /// True for the histogram operator: run generation is filtered by a
  /// CutoffFilter. False replays the optimized baseline's cutoff instead,
  /// the last key of every full (k-row) run.
  bool histogram = false;
  uint64_t k = 0;
  size_t memory_bytes = 0;
  size_t io_threads = 0;
  /// Created by the drivers and removed before they return.
  std::string spill_dir;
};

/// Cost of each module's public calls. Every figure comes from one clock
/// pair around a batch of calls (or around one whole call), never one pair
/// per row.
struct LayerCosts {
  /// CutoffFilter::EliminateKey, ns per probe (histogram only).
  double probe_ns = 0;
  /// Probes that kept their row; publishing it keeps the timed probe loop
  /// from being optimized away.
  double probe_pass_frac = 0;
  /// CutoffFilter::RowSpilled and RunFinished replayed on the spilled
  /// keys, ns per spilled row (histogram only).
  double account_ns = 0;
  /// ReplacementSelectionRunGenerator::Add and Flush, ns per row added;
  /// includes the spill hook, serialization, checksum and block hand-off.
  double rungen_ns = 0;
  /// Rows the generator wrote to runs per row added to it.
  double rungen_spill_frac = 0;
  /// ReduceRunsForFinalMerge plus the final MergeRuns, ns per row read.
  double merge_ns = 0;
  /// SerializeRow, ns per row.
  double serialize_ns = 0;
  /// Crc32c throughput over serialized rows, MB (1e6 bytes) per second.
  double crc_mb_per_s = 0;
  /// RunWriter::Append and Finish, ns per row.
  double append_ns = 0;
  /// RunReader::Next (with inline checksum verification), ns per row.
  double read_ns = 0;
};

/// Replays the spill path on `rows` (the workload's input, in input order):
/// run generation with the workload's filter, the cutoff filter's
/// accounting, a read and rewrite of the runs written, and the final merge.
topk::Result<LayerCosts> MeasureLayers(const LayerSetup& setup,
                                       std::vector<topk::Row> rows);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
