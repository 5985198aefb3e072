#include "io/run_file.h"

#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "io/async_io.h"
#include "io/spill_quota.h"
#include "row/serialization.h"

namespace topk {

RunWriter::RunWriter(std::unique_ptr<BlockWriter> writer, std::string path,
                     uint64_t run_id, const RowComparator& comparator,
                     uint64_t index_stride)
    : writer_(std::move(writer)),
      comparator_(comparator),
      index_stride_(index_stride) {
  meta_.id = run_id;
  meta_.path = std::move(path);
}

Result<std::unique_ptr<RunWriter>> RunWriter::Create(
    StorageEnv* env, std::string path, uint64_t run_id,
    const RowComparator& comparator, size_t block_bytes,
    uint64_t index_stride, ThreadPool* io_pool, const RetryPolicy& retry,
    SpillQuota* quota, MemoryArbiter* arbiter) {
  std::unique_ptr<WritableFile> file;
  TOPK_ASSIGN_OR_RETURN(file, env->NewWritableFile(path));
  // Stack: base -> retry -> quota -> double buffer. Background flushes
  // retry their transient failures on the pool thread; only an exhausted
  // retry budget reaches the double buffer's latch (with the attempt count
  // recorded in the message). The quota check sits above the retries:
  // ResourceExhausted is permanent, so a full quota fails the block
  // immediately instead of burning backoff on it.
  file = MaybeWrapWithRetries(std::move(file), path, retry);
  if (quota != nullptr) {
    file = std::make_unique<QuotaChargingWritableFile>(std::move(file), path,
                                                       quota);
  }
  if (io_pool != nullptr) {
    file = std::make_unique<DoubleBufferedWriter>(std::move(file), io_pool,
                                                  arbiter);
  }
  auto block_writer =
      std::make_unique<BlockWriter>(std::move(file), block_bytes);
  TOPK_RETURN_NOT_OK(
      block_writer->Append(std::string_view(kRunFileMagic, 8)));
  return std::unique_ptr<RunWriter>(
      new RunWriter(std::move(block_writer), std::move(path), run_id,
                    comparator, index_stride));
}

Status RunWriter::Append(const Row& row) {
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  scratch_.clear();
  SerializeRow(row, &scratch_);
  return AppendSerialized(row.key, row.normalized_key(comparator_.direction()),
                          scratch_);
}

Status RunWriter::AppendSerialized(double key, const NormalizedKey& norm,
                                   std::string_view bytes) {
  if (finished_) {
    return Status::FailedPrecondition("append to finished run");
  }
  if (meta_.rows > 0 && norm < last_key_norm_) {
    return Status::InvalidArgument(
        "rows must be appended to a run in sorted order");
  }
  TOPK_RETURN_NOT_OK(writer_->Append(bytes));
  meta_.crc32c = Crc32c(meta_.crc32c, bytes.data(), bytes.size());
  if (meta_.rows == 0) meta_.first_key = key;
  meta_.last_key = key;
  last_key_norm_ = norm;
  ++meta_.rows;
  if (index_stride_ > 0 && meta_.rows % index_stride_ == 0) {
    // Position after this row, relative to the start of row data (i.e.
    // excluding the file magic) — exactly what RunReader::SkipToByte wants.
    meta_.index.push_back(RunIndexEntry{
        key, meta_.rows, writer_->bytes_appended() - sizeof(kRunFileMagic)});
  }
  return Status::OK();
}

Result<RunMeta> RunWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("run already finished");
  }
  TOPK_RETURN_NOT_OK(writer_->Close());
  finished_ = true;
  meta_.bytes = writer_->bytes_appended();
  return meta_;
}

RunReader::RunReader(std::unique_ptr<BlockReader> reader,
                     const RunReadVerification& verify,
                     PrefetchingBlockReader* prefetcher)
    : reader_(std::move(reader)), prefetcher_(prefetcher), verify_(verify) {
  scratch_.resize(kRowHeaderBytes);
}

Result<std::unique_ptr<RunReader>> RunReader::Open(
    StorageEnv* env, const std::string& path, size_t block_bytes,
    ThreadPool* prefetch_pool, const RetryPolicy& retry,
    const RunReadVerification& verify, size_t prefetch_depth_cap,
    PrefetchBudget* prefetch_budget, const PrefetchTuning& tuning) {
  std::unique_ptr<SequentialFile> file;
  TOPK_ASSIGN_OR_RETURN(file, env->NewSequentialFile(path));
  // Stack: base -> retry -> prefetcher. Background prefetches retry their
  // transient failures on the pool thread; only an exhausted budget is
  // latched and surfaced to the merge.
  file = MaybeWrapWithRetries(std::move(file), path, retry);
  PrefetchingBlockReader* prefetcher = nullptr;
  if (prefetch_pool != nullptr) {
    // A window deeper than one block only overlaps round trips if the
    // slots can read concurrently; the factory opens extra handles on the
    // (immutable, fully written) run file, each retry-wrapped like the
    // first.
    SequentialFileFactory reopen =
        [env, path, retry]() -> Result<std::unique_ptr<SequentialFile>> {
      std::unique_ptr<SequentialFile> extra;
      TOPK_ASSIGN_OR_RETURN(extra, env->NewSequentialFile(path));
      return MaybeWrapWithRetries(std::move(extra), path, retry);
    };
    auto prefetching = std::make_unique<PrefetchingBlockReader>(
        std::move(file), prefetch_pool, block_bytes, prefetch_depth_cap,
        prefetch_budget, std::move(reopen), tuning);
    prefetcher = prefetching.get();
    file = std::move(prefetching);
  }
  auto block_reader =
      std::make_unique<BlockReader>(std::move(file), block_bytes);
  char magic[8];
  bool eof = false;
  TOPK_RETURN_NOT_OK(block_reader->ReadExact(8, magic, &eof));
  if (eof || std::memcmp(magic, kRunFileMagic, 8) != 0) {
    return Status::Corruption("not a run file: " + path);
  }
  return std::unique_ptr<RunReader>(
      new RunReader(std::move(block_reader), verify, prefetcher));
}

void RunReader::CancelPrefetch() {
  if (prefetcher_ != nullptr) prefetcher_->CancelPrefetch();
}

Status RunReader::SkipToByte(uint64_t bytes) {
  skipped_ = true;
  return reader_->Skip(bytes);
}

Status RunReader::Next(Row* row, bool* eof) {
  TOPK_RETURN_NOT_OK(
      reader_->ReadExact(kRowHeaderBytes, scratch_.data(), eof));
  const bool verifying = verify_.enabled && !skipped_;
  if (*eof) {
    // Clean end of run: with the whole run read, the stream must match the
    // checksum and row count recorded at write time. Catches bit flips
    // (silent storage corruption) and truncation at a row boundary, which
    // the framing checks below cannot see.
    if (verifying) {
      if (rows_read_ != verify_.expected_rows) {
        return Status::Corruption(
            "run " + std::to_string(verify_.run_id) + " has " +
            std::to_string(rows_read_) + " rows, expected " +
            std::to_string(verify_.expected_rows));
      }
      if (crc_ != verify_.expected_crc32c) {
        return Status::Corruption("run " + std::to_string(verify_.run_id) +
                                  " CRC-32C mismatch on read");
      }
    }
    return Status::OK();
  }
  const RowHeader header = ReadRowHeader(scratch_.data());
  const uint32_t len = header.payload_len;
  if (len > kMaxRowPayloadBytes) {
    return Status::Corruption("row payload length " + std::to_string(len) +
                              " exceeds the format limit");
  }
  row->key = header.key;
  row->id = header.id;
  row->payload.resize(len);
  if (len > 0) {
    bool payload_eof = false;
    TOPK_RETURN_NOT_OK(
        reader_->ReadExact(len, row->payload.data(), &payload_eof));
    if (payload_eof) return Status::Corruption("run truncated mid-row");
  }
  if (verifying) {
    crc_ = Crc32c(crc_, scratch_.data(), kRowHeaderBytes);
    if (len > 0) crc_ = Crc32c(crc_, row->payload.data(), len);
    ++rows_read_;
  }
  return Status::OK();
}

}  // namespace topk
