/// Pause-and-resume paging (Sec 2.7): a BI dashboard fetches a TPC-H
/// Lineitem report one page at a time with LIMIT/OFFSET. Each page is an
/// independent top-(offset+limit) query; the histogram algorithm supports
/// the offset natively and still filters the input eagerly.
///
///   SELECT * FROM lineitem ORDER BY l_orderkey LIMIT 2000 OFFSET <page>;

#include <cstdio>
#include <filesystem>

#include "gen/lineitem.h"
#include "topk/operator_factory.h"

int main() {
  using namespace topk;

  constexpr uint64_t kTableRows = 400000;
  constexpr uint64_t kPageSize = 2000;
  constexpr int kPages = 3;

  StorageEnv env;
  uint64_t total_spilled = 0;
  double page_boundaries[kPages][2] = {};

  for (int page = 0; page < kPages; ++page) {
    TopKOptions options;
    options.k = kPageSize;
    options.offset = page * kPageSize;
    options.memory_limit_bytes = 1 << 20;
    options.env = &env;
    options.spill_dir = (std::filesystem::temp_directory_path() /
                         ("topk_paging_" + std::to_string(page)))
                            .string();
    auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
    if (!op.ok()) {
      std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
      return 1;
    }

    // Re-scan the table for each page, exactly like a stateless paging
    // endpoint would.
    LineitemGenerator table(kTableRows, 77);
    Row row;
    while (table.Next(&row)) {
      Status status = (*op)->Consume(std::move(row));
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
    auto result = (*op)->Finish();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (result->size() != kPageSize) {
      std::fprintf(stderr, "page %d: unexpected row count %zu\n", page,
                   result->size());
      return 1;
    }

    total_spilled += (*op)->stats().rows_spilled;
    page_boundaries[page][0] = result->front().key;
    page_boundaries[page][1] = result->back().key;

    Lineitem first;
    ParseLineitemPayload(result->front().payload, &first);
    std::printf(
        "page %d: l_orderkey %8.0f .. %8.0f  (first row: qty %.0f, price "
        "%.2f, ship '%s')\n",
        page, result->front().key, result->back().key, first.quantity,
        first.extendedprice, first.shipmode);
  }

  // Pages must tile the key space without overlap.
  for (int page = 1; page < kPages; ++page) {
    if (page_boundaries[page][0] < page_boundaries[page - 1][1]) {
      std::fprintf(stderr, "pages overlap!\n");
      return 1;
    }
  }
  std::printf(
      "\n%d pages x %llu rows served from a %llu-row table; %llu rows "
      "spilled in total (full sorts would have spilled %llu).\n",
      kPages, static_cast<unsigned long long>(kPageSize),
      static_cast<unsigned long long>(kTableRows),
      static_cast<unsigned long long>(total_spilled),
      static_cast<unsigned long long>(kTableRows * kPages));
  return 0;
}
