#include "io/block_io.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/query_control.h"

namespace topk {

BlockWriter::BlockWriter(std::unique_ptr<WritableFile> file,
                         size_t block_bytes)
    : file_(std::move(file)), block_bytes_(block_bytes) {
  buffer_.reserve(block_bytes_);
}

BlockWriter::~BlockWriter() {
  // Best effort; callers that care about errors must Close() explicitly. A
  // destructor cannot return a Status, so a failure here can only be logged
  // — never silently discarded.
  if (!closed_ && failed_.ok()) {
    Status status = Close();
    if (!status.ok() && !IsCancellation(status.code())) {
      TOPK_LOG(Warning) << "BlockWriter close error dropped in destructor: "
                        << status.ToString();
    }
  }
}

Status BlockWriter::Append(std::string_view data) {
  if (closed_) {
    return Status::FailedPrecondition("append to closed BlockWriter");
  }
  TOPK_RETURN_NOT_OK(failed_);
  const size_t total = data.size();
  const size_t buffered = buffer_.size();
  bool flushed = false;
  while (!data.empty()) {
    const size_t room = block_bytes_ - buffer_.size();
    const size_t take = std::min(room, data.size());
    buffer_.append(data.data(), take);
    data.remove_prefix(take);
    if (buffer_.size() == block_bytes_) {
      Status status = FlushBuffer();
      if (!status.ok()) {
        if (flushed) {
          // Part of `data` is in the file already: the file is torn.
          failed_ = status;
        } else {
          // Nothing of `data` reached the file: the call fails whole.
          buffer_.resize(buffered);
        }
        return status;
      }
      flushed = true;
    }
  }
  // Counted only after every flush succeeded: a failed Append must not
  // overstate the run's byte accounting.
  bytes_appended_ += total;
  return Status::OK();
}

Status BlockWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  TOPK_RETURN_NOT_OK(file_->Append(buffer_));
  buffer_.clear();
  return Status::OK();
}

Status BlockWriter::Close() {
  if (closed_) return Status::OK();
  TOPK_RETURN_NOT_OK(failed_);
  Status status = FlushBuffer();
  if (status.ok()) status = file_->Flush();
  if (status.ok()) status = file_->Close();
  if (status.ok()) {
    closed_ = true;
  } else if (!IsCancellation(status.code())) {
    failed_ = status;
  }
  return status;
}

BlockReader::BlockReader(std::unique_ptr<SequentialFile> file,
                         size_t block_bytes)
    : file_(std::move(file)), block_bytes_(block_bytes) {
  buffer_.resize(block_bytes_);
}

Status BlockReader::Refill() {
  pos_ = 0;
  limit_ = 0;
  if (at_eof_) return Status::OK();
  size_t got = 0;
  TOPK_RETURN_NOT_OK(file_->Read(block_bytes_, buffer_.data(), &got));
  limit_ = got;
  if (got == 0) at_eof_ = true;
  return Status::OK();
}

Status BlockReader::ReadExact(size_t n, char* out, bool* eof) {
  *eof = false;
  size_t produced = 0;
  while (produced < n) {
    if (pos_ == limit_) {
      TOPK_RETURN_NOT_OK(Refill());
      if (limit_ == 0) {
        if (produced == 0) {
          *eof = true;
          return Status::OK();
        }
        return Status::Corruption("file truncated mid-record");
      }
    }
    const size_t take = std::min(n - produced, limit_ - pos_);
    std::memcpy(out + produced, buffer_.data() + pos_, take);
    pos_ += take;
    produced += take;
  }
  bytes_consumed_ += n;
  return Status::OK();
}

Status BlockReader::Skip(uint64_t n) {
  const uint64_t buffered = limit_ - pos_;
  if (n <= buffered) {
    pos_ += n;
  } else {
    const uint64_t beyond = n - buffered;
    pos_ = 0;
    limit_ = 0;
    TOPK_RETURN_NOT_OK(file_->Skip(beyond));
  }
  bytes_consumed_ += n;
  return Status::OK();
}

}  // namespace topk
