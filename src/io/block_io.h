#ifndef TOPK_IO_BLOCK_IO_H_
#define TOPK_IO_BLOCK_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/storage_env.h"

namespace topk {

/// Default I/O unit. Spill traffic is sequential, so we batch rows into
/// large blocks before touching the storage env; each Append/Read of a block
/// corresponds to one (possibly latency-injected) storage call.
inline constexpr size_t kDefaultBlockBytes = 256 * 1024;

/// Accumulates bytes and writes them to a WritableFile in block-size units.
class BlockWriter {
 public:
  BlockWriter(std::unique_ptr<WritableFile> file,
              size_t block_bytes = kDefaultBlockBytes);
  ~BlockWriter();

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  /// Buffers `data`, flushing whole blocks as they fill. A failure leaves
  /// the writer as it was before the call, so the call can be repeated,
  /// unless part of `data` had reached the file already: that tears the
  /// file, and every later call returns the same error.
  Status Append(std::string_view data);

  /// Flushes any buffered bytes and closes the file; once that succeeded,
  /// further calls do nothing. A cancellation stops it before storage is
  /// touched (io/retry.h), so it can be repeated; every later call returns
  /// any other failure again.
  Status Close();

  /// Total bytes appended (buffered + written).
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  Status FlushBuffer();

  std::unique_ptr<WritableFile> file_;
  std::string buffer_;
  size_t block_bytes_;
  uint64_t bytes_appended_ = 0;
  bool closed_ = false;
  /// A torn Append or a failed Close, returned by every later call.
  Status failed_;
};

/// Streams a file through a block-size read buffer and hands out bytes.
class BlockReader {
 public:
  BlockReader(std::unique_ptr<SequentialFile> file,
              size_t block_bytes = kDefaultBlockBytes);

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  /// Reads exactly `n` bytes into `out`. Sets `*eof` instead of failing when
  /// the file ends cleanly *before* the first byte; a file ending mid-read
  /// is Corruption.
  Status ReadExact(size_t n, char* out, bool* eof);

  /// Skips `n` bytes (serves from the buffer, then seeks the file).
  Status Skip(uint64_t n);

  uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  Status Refill();

  std::unique_ptr<SequentialFile> file_;
  std::vector<char> buffer_;
  size_t block_bytes_;
  size_t pos_ = 0;
  size_t limit_ = 0;
  bool at_eof_ = false;
  uint64_t bytes_consumed_ = 0;
};

}  // namespace topk

#endif  // TOPK_IO_BLOCK_IO_H_
