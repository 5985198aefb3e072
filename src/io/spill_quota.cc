#include "io/spill_quota.h"

#include <algorithm>

#include "common/query_control.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"

namespace topk {

namespace {

ObsCounter& QuotaRejectedCounter() {
  static ObsCounter counter("spill.quota_rejections");
  return counter;
}
ObsGauge& QuotaChargedGauge() {
  static ObsGauge gauge("spill.quota_charged_bytes");
  return gauge;
}

}  // namespace

SpillQuota::SpillQuota(uint64_t quota_bytes) : quota_bytes_(quota_bytes) {}

uint64_t SpillQuota::charged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_;
}

Status SpillQuota::Charge(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled() && charged_ + bytes > quota_bytes_ &&
      exempt_.find(path) == exempt_.end()) {
    QuotaRejectedCounter().Add(1);
    return Status::ResourceExhausted(
        "spill quota exceeded: appending " + std::to_string(bytes) +
        " bytes to " + path + " would use " +
        std::to_string(charged_ + bytes) + " of " +
        std::to_string(quota_bytes_) + " bytes (spill_quota_bytes)");
  }
  charged_ += bytes;
  per_path_[path] += bytes;
  QuotaChargedGauge().Set(static_cast<int64_t>(charged_));
  return Status::OK();
}

void SpillQuota::ChargeAtLeast(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& charged_for_path = per_path_[path];
  if (bytes > charged_for_path) {
    charged_ += bytes - charged_for_path;
    charged_for_path = bytes;
    QuotaChargedGauge().Set(static_cast<int64_t>(charged_));
  }
  exempt_.erase(path);
}

uint64_t SpillQuota::CreditFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_path_.find(path);
  if (it == per_path_.end()) {
    exempt_.erase(path);
    return 0;
  }
  const uint64_t bytes = it->second;
  charged_ -= std::min(charged_, bytes);
  per_path_.erase(it);
  exempt_.erase(path);
  QuotaChargedGauge().Set(static_cast<int64_t>(charged_));
  return bytes;
}

void SpillQuota::Refund(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_path_.find(path);
  if (it == per_path_.end()) return;
  bytes = std::min(bytes, it->second);
  it->second -= bytes;
  charged_ -= std::min(charged_, bytes);
  QuotaChargedGauge().Set(static_cast<int64_t>(charged_));
}

void SpillQuota::AddExemption(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  exempt_.insert(path);
}

QuotaChargingWritableFile::QuotaChargingWritableFile(
    std::unique_ptr<WritableFile> base, std::string path, SpillQuota* quota)
    : base_(std::move(base)), path_(std::move(path)), quota_(quota) {}

Status QuotaChargingWritableFile::Append(std::string_view data) {
  Status admitted = quota_->Charge(path_, data.size());
  if (!admitted.ok()) return admitted;
  // A failed append below (already retried by the layer underneath) leaves
  // the charge in place: the accounting stays conservative and the whole
  // file's charge is credited back when the run is deleted. A cancellation
  // stopped the write before storage, and the block is written again.
  Status status = base_->Append(data);
  if (IsCancellation(status.code())) quota_->Refund(path_, data.size());
  return status;
}

Status QuotaChargingWritableFile::Flush() { return base_->Flush(); }

Status QuotaChargingWritableFile::Close() { return base_->Close(); }

}  // namespace topk
