#ifndef TOPK_IO_SPILL_QUOTA_H_
#define TOPK_IO_SPILL_QUOTA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "io/storage_env.h"

namespace topk {

/// Disk-space accounting for one spill directory. Every block appended to a
/// run file is charged against `quota_bytes` before it is written; once the
/// pool is full, further spill writes fail with ResourceExhausted naming
/// the quota — the operator-level equivalent of a scratch volume running
/// out, surfaced as a Status instead of a crashed query. Deleting a spill
/// file credits its bytes back, so merge steps that consolidate many runs
/// into one net-shrink the footprint.
///
/// Exempt paths exist for exactly one caller: emergency consolidation. When
/// the histogram operator consolidates to survive a full quota, the merged
/// output run must be writable while the pool is exhausted — its path is
/// exempt from the admission check (its bytes are still tracked, and the
/// exemption ends when the run registers via ChargeAtLeast).
class SpillQuota {
 public:
  /// `quota_bytes` = 0 disables enforcement (accounting still runs).
  explicit SpillQuota(uint64_t quota_bytes);

  bool enabled() const { return quota_bytes_ > 0; }
  uint64_t quota_bytes() const { return quota_bytes_; }
  uint64_t charged_bytes() const;

  /// Admission check + charge for `bytes` about to be appended to `path`.
  /// ResourceExhausted when the write would exceed the quota (and the path
  /// is not exempt); nothing is charged on failure.
  Status Charge(const std::string& path, uint64_t bytes);

  /// Raises `path`'s charge to at least `bytes` without ever failing — used
  /// when a finished or restored run registers with its final size (the
  /// bytes already exist on disk; refusing to account for them would only
  /// make the books wrong). Clears any consolidation exemption.
  void ChargeAtLeast(const std::string& path, uint64_t bytes);

  /// Returns `path`'s bytes to the pool (file deleted / released).
  uint64_t CreditFile(const std::string& path);

  /// Returns `bytes` charged to `path` for a write that reached no storage
  /// and will be made again.
  void Refund(const std::string& path, uint64_t bytes);

  /// Marks `path` exempt from the admission check until it registers.
  void AddExemption(const std::string& path);

 private:
  const uint64_t quota_bytes_;
  mutable std::mutex mu_;
  uint64_t charged_ = 0;
  std::unordered_map<std::string, uint64_t> per_path_;
  std::unordered_set<std::string> exempt_;
};

/// WritableFile decorator that charges every Append against a SpillQuota
/// before forwarding it. Stacks *above* the retry layer: ResourceExhausted
/// is permanent, so a quota breach fails the write immediately instead of
/// burning retries on an error no retry can fix.
class QuotaChargingWritableFile : public WritableFile {
 public:
  QuotaChargingWritableFile(std::unique_ptr<WritableFile> base,
                            std::string path, SpillQuota* quota);

  Status Append(std::string_view data) override;
  Status Flush() override;
  Status Close() override;

 private:
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  SpillQuota* quota_;
};

}  // namespace topk

#endif  // TOPK_IO_SPILL_QUOTA_H_
