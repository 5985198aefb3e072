#include "topk/operator_factory.h"

#include <algorithm>
#include <cmath>

namespace topk {

namespace {

std::unique_ptr<CutoffPolicy> MakePolicy(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kHeap:
      return std::make_unique<BoundedHeapPolicy>();
    case TopKAlgorithm::kTraditionalExternal:
      return std::make_unique<CutoffPolicy>();
    case TopKAlgorithm::kOptimizedExternal:
      return MakeRunKthKeyPolicy();
    case TopKAlgorithm::kHistogram:
      return MakeHistogramFilterPolicy();
  }
  return nullptr;
}

}  // namespace

std::string TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kHeap:
      return "heap";
    case TopKAlgorithm::kTraditionalExternal:
      return "traditional-external";
    case TopKAlgorithm::kOptimizedExternal:
      return "optimized-external";
    case TopKAlgorithm::kHistogram:
      return "histogram";
  }
  return "unknown";
}

bool ParseTopKAlgorithm(const std::string& name, TopKAlgorithm* out) {
  if (name == "heap") {
    *out = TopKAlgorithm::kHeap;
  } else if (name == "traditional-external" || name == "traditional") {
    *out = TopKAlgorithm::kTraditionalExternal;
  } else if (name == "optimized-external" || name == "optimized") {
    *out = TopKAlgorithm::kOptimizedExternal;
  } else if (name == "histogram") {
    *out = TopKAlgorithm::kHistogram;
  } else {
    return false;
  }
  return true;
}

Result<std::unique_ptr<TopKOperator>> MakeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options) {
  std::unique_ptr<CutoffPolicy> policy = MakePolicy(algorithm);
  if (policy == nullptr) {
    return Status::InvalidArgument("unknown top-k algorithm");
  }
  return TopKOperator::Open(algorithm, options, std::move(policy),
                            /*resume=*/false, /*report=*/nullptr);
}

Result<std::unique_ptr<TopKOperator>> ResumeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options,
    RestoreReport* report) {
  std::unique_ptr<CutoffPolicy> policy = MakePolicy(algorithm);
  if (policy == nullptr || algorithm == TopKAlgorithm::kHeap) {
    return Status::InvalidArgument(
        "algorithm " + TopKAlgorithmName(algorithm) +
        " does not support manifest resume (supported: histogram, "
        "traditional-external, optimized-external)");
  }
  return TopKOperator::Open(algorithm, options, std::move(policy),
                            /*resume=*/true, report);
}

Result<TopKOptions> ApproximateTopK(const TopKOptions& options,
                                    double tolerance) {
  if (tolerance < 0.0 || tolerance >= 1.0) {
    return Status::InvalidArgument("tolerance must be in [0, 1)");
  }
  const uint64_t guaranteed_rows = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(static_cast<double>(options.k) * (1.0 - tolerance))));
  TopKOptions approx = options;
  approx.approx_filter_k = guaranteed_rows + options.offset;
  return approx;
}

}  // namespace topk
