#ifndef TOPK_IO_RUN_FILE_H_
#define TOPK_IO_RUN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "histogram/bucket.h"
#include "io/async_io.h"
#include "io/block_io.h"
#include "io/retry.h"
#include "io/storage_env.h"
#include "row/row.h"

namespace topk {

class SpillQuota;

/// One entry of a run's sparse seek index: after `rows` rows (the last of
/// which has sort key `key`), the run file position is `bytes`. Runs stored
/// with such an index act as the paper's "runs stored in search structures"
/// (Sec 4.1): the merge logic can start mid-run without reading the prefix.
struct RunIndexEntry {
  double key = 0.0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

/// Metadata describing one sorted run on secondary storage. Kept in memory
/// by the spill manager ("retain any information once gained", Sec 2.1); the
/// per-run histogram recorded here powers the merge planner's
/// lowest-keys-first policy, and the seek index powers the histogram-guided
/// offset skip of Sec 4.1.
struct RunMeta {
  uint64_t id = 0;
  std::string path;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  /// Keys of the first and last row in run order (= query order).
  double first_key = 0.0;
  double last_key = 0.0;
  /// The histogram collected from this run while it was written. Bucket
  /// counts sum to at most `rows` (a partial tail segment carries no
  /// bucket).
  std::vector<HistogramBucket> histogram;
  /// Sparse seek index (every RunWriter index_stride rows).
  std::vector<RunIndexEntry> index;
  /// CRC-32C over the run's serialized row data (excluding the magic).
  uint32_t crc32c = 0;
};

/// Default seek-index granularity (rows between entries).
inline constexpr uint64_t kDefaultIndexStride = 1024;

/// Writes one sorted run. The caller appends rows in sorted (query) order;
/// the writer checks that invariant, accounts bytes, and produces RunMeta.
class RunWriter {
 public:
  /// Creates the file eagerly so I/O errors surface before rows are lost.
  /// `index_stride` > 0 records a RunIndexEntry every that-many rows.
  /// A non-null `io_pool` routes full blocks through a DoubleBufferedWriter
  /// so the storage round trip overlaps with run generation; the writer
  /// must not outlive the pool. `retry` governs transient-failure retries
  /// of every block write (stacked *under* the double buffer, so backoff
  /// runs on the pool thread). A non-null `quota` charges every block
  /// against the spill disk-space quota before it is written (above the
  /// retry layer: a quota breach is permanent ResourceExhausted, never
  /// retried). A non-null `arbiter` leases the double buffer's in-flight
  /// block copy; a refused lease degrades that writer to synchronous
  /// write-through instead of failing the run.
  static Result<std::unique_ptr<RunWriter>> Create(
      StorageEnv* env, std::string path, uint64_t run_id,
      const RowComparator& comparator,
      size_t block_bytes = kDefaultBlockBytes,
      uint64_t index_stride = kDefaultIndexStride,
      ThreadPool* io_pool = nullptr,
      const RetryPolicy& retry = RetryPolicy(),
      SpillQuota* quota = nullptr,
      MemoryArbiter* arbiter = nullptr);

  /// Validates, serializes and appends one row (see AppendSerialized).
  Status Append(const Row& row);

  /// Appends one row already in wire format (row/serialization.h):
  /// `bytes` is its whole serialized form, `key` its sort key and `norm`
  /// its normalized key in the run's direction. The caller has validated
  /// the payload when it serialized the row. This is the writer's one
  /// append path; run generators hand it the bytes they buffered.
  Status AppendSerialized(double key, const NormalizedKey& norm,
                          std::string_view bytes);

  /// Flushes, closes the file, and returns the run's metadata (histogram is
  /// attached by the caller / sizing policy afterwards if desired). A
  /// failed Finish leaves the run open: one a cancellation stopped can be
  /// finished by a later call (BlockWriter::Close).
  Result<RunMeta> Finish();

  uint64_t rows_written() const { return meta_.rows; }
  uint64_t run_id() const { return meta_.id; }

 private:
  RunWriter(std::unique_ptr<BlockWriter> writer, std::string path,
            uint64_t run_id, const RowComparator& comparator,
            uint64_t index_stride);

  std::unique_ptr<BlockWriter> writer_;
  RowComparator comparator_;
  RunMeta meta_;
  /// Normalized key of the last appended row: the sorted-order invariant
  /// check is one integer compare and needs no copy of the row (the old
  /// full-Row copy duplicated the payload on every append).
  NormalizedKey last_key_norm_;
  std::string scratch_;
  uint64_t index_stride_;
  bool finished_ = false;
};

/// Inline integrity checking for a RunReader: when enabled, the reader
/// accumulates CRC-32C over every serialized row it returns and, at a clean
/// EOF, checks row count and checksum against the values recorded at write
/// time. A mismatch is permanent Corruption — by definition not transient,
/// so the retry layer never touches it. The check is skipped when the run
/// was entered mid-file via SkipToByte (the prefix never passed through the
/// CRC) or abandoned before EOF (a k-limited merge).
struct RunReadVerification {
  bool enabled = false;
  uint32_t expected_crc32c = 0;
  uint64_t expected_rows = 0;
  /// For error messages only.
  uint64_t run_id = 0;
};

/// Streams rows back from a run file in sorted order.
class RunReader {
 public:
  /// A non-null `prefetch_pool` inserts a PrefetchingBlockReader under the
  /// block reader so the next blocks are fetched while the current one is
  /// merged; the reader must not outlive the pool. `retry` governs
  /// transient-failure retries of every block read (under the prefetcher,
  /// so backoff rides the pool thread); `verify` enables inline CRC/row
  /// count verification at EOF. With a pool, `prefetch_budget` is required
  /// and gates every window slot beyond the first; `prefetch_depth_cap`
  /// bounds the adaptive lookahead window and `tuning` carries the
  /// degraded-storage knobs (hedged reads, consumer deadline). Without a
  /// pool the reads are synchronous and those three are unused.
  static Result<std::unique_ptr<RunReader>> Open(
      StorageEnv* env, const std::string& path,
      size_t block_bytes = kDefaultBlockBytes,
      ThreadPool* prefetch_pool = nullptr,
      const RetryPolicy& retry = RetryPolicy(),
      const RunReadVerification& verify = RunReadVerification(),
      size_t prefetch_depth_cap = 1,
      PrefetchBudget* prefetch_budget = nullptr,
      const PrefetchTuning& tuning = PrefetchTuning());

  /// Reads the next row. Sets `*eof` at end of run; with verification
  /// enabled a clean EOF that fails the CRC / row-count check returns
  /// Corruption instead.
  Status Next(Row* row, bool* eof);

  /// Skips `bytes` of row data (must land exactly on a row boundary, e.g.
  /// a RunIndexEntry position). Only valid before the first Next().
  /// Disables EOF verification: the skipped prefix cannot be checksummed.
  Status SkipToByte(uint64_t bytes);

  /// Marks the remaining prefetch lookahead as deliberately discarded and
  /// stops the background pump (no-op without a prefetcher). Merges call
  /// this on every input when they stop early at k rows / the cutoff, so
  /// abandoned lookahead is counted under io.prefetch.blocks_cancelled
  /// instead of polluting the blocks_unconsumed overshoot signal.
  void CancelPrefetch();

 private:
  RunReader(std::unique_ptr<BlockReader> reader,
            const RunReadVerification& verify,
            PrefetchingBlockReader* prefetcher);

  std::unique_ptr<BlockReader> reader_;
  /// Borrowed from the stack under reader_ (null when prefetch is off).
  PrefetchingBlockReader* prefetcher_;
  std::vector<char> scratch_;
  RunReadVerification verify_;
  uint32_t crc_ = 0;
  uint64_t rows_read_ = 0;
  bool skipped_ = false;
};

/// Magic bytes at the head of every run file.
inline constexpr char kRunFileMagic[8] = {'T', 'K', 'R', 'U',
                                          'N', '0', '1', '\n'};

}  // namespace topk

#endif  // TOPK_IO_RUN_FILE_H_
