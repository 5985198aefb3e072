#ifndef TOPK_TESTS_TEST_UTIL_H_
#define TOPK_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gen/generator.h"
#include "io/async_io.h"
#include "io/storage_env.h"
#include "row/row.h"
#include "topk/topk_operator.h"

namespace topk {
namespace testing_util {

/// `name` with its path separators replaced: a parameterized test's name
/// holds '/', and a scratch path built from it must stay one directory deep
/// for remove_all to take it whole.
inline std::string PathSafe(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  return name;
}

/// `<temp dir>/<prefix>_<pid>_<test name>` for the running test; the
/// fixture creates it and removes it in TearDown.
inline std::filesystem::path TestScratchPath(const std::string& prefix) {
  return std::filesystem::temp_directory_path() /
         (prefix + "_" + std::to_string(::getpid()) + "_" +
          PathSafe(
              ::testing::UnitTest::GetInstance()->current_test_info()->name()));
}

/// Creates a unique scratch directory for the current test and removes it on
/// destruction.
class ScratchDir {
 public:
  ScratchDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "topk_test";
    if (info != nullptr) {
      name = PathSafe(std::string(info->test_suite_name()) + "_" +
                      info->name());
    }
    path_ = std::filesystem::temp_directory_path() /
            (name + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }

  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Materializes the full dataset of `spec` (test scale only).
inline std::vector<Row> MaterializeDataset(const DatasetSpec& spec) {
  RowGenerator gen(spec);
  std::vector<Row> rows;
  rows.reserve(spec.num_rows);
  Row row;
  while (gen.Next(&row)) rows.push_back(row);
  return rows;
}

/// Ground truth: full sort, then slice [offset, offset + k).
inline std::vector<Row> ReferenceTopK(std::vector<Row> rows, uint64_t k,
                                      uint64_t offset,
                                      SortDirection direction) {
  RowComparator cmp(direction);
  std::sort(rows.begin(), rows.end(), cmp);
  const size_t begin = std::min<size_t>(offset, rows.size());
  const size_t end = std::min<size_t>(begin + k, rows.size());
  return std::vector<Row>(rows.begin() + begin, rows.begin() + end);
}

/// Ground truth for WITH TIES: sort, slice [offset, offset + k), then
/// extend while keys equal the boundary key.
inline std::vector<Row> ReferenceTopKWithTies(std::vector<Row> rows,
                                              uint64_t k, uint64_t offset,
                                              SortDirection direction) {
  RowComparator cmp(direction);
  std::sort(rows.begin(), rows.end(), cmp);
  const size_t begin = std::min<size_t>(offset, rows.size());
  size_t end = std::min<size_t>(begin + k, rows.size());
  if (end > begin) {
    const double boundary = rows[end - 1].key;
    while (end < rows.size() && rows[end].key == boundary) ++end;
  }
  return std::vector<Row>(rows.begin() + begin, rows.begin() + end);
}

/// Feeds `rows` into `op` and finishes it.
inline Result<std::vector<Row>> RunOperator(TopKOperator* op,
                                            const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    TOPK_RETURN_NOT_OK(op->Consume(row));
  }
  return op->Finish();
}

/// Asserts two row vectors are identical (key, id, payload).
inline void ExpectSameRows(const std::vector<Row>& expected,
                           const std::vector<Row>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].key, actual[i].key) << "row " << i;
    ASSERT_EQ(expected[i].id, actual[i].id) << "row " << i;
    ASSERT_EQ(expected[i].payload, actual[i].payload) << "row " << i;
  }
}

/// Like ExpectSameRows, but compares keys by bit pattern: ASSERT_EQ on a
/// double says NaN != NaN, so NaN-bearing expectations need this variant.
inline void ExpectSameRowsBitwise(const std::vector<Row>& expected,
                                  const std::vector<Row>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(expected[i].key),
              std::bit_cast<uint64_t>(actual[i].key))
        << "row " << i;
    ASSERT_EQ(expected[i].id, actual[i].id) << "row " << i;
    ASSERT_EQ(expected[i].payload, actual[i].payload) << "row " << i;
  }
}

/// Reads `path` through a PrefetchingBlockReader wired the way
/// RunReader::Open wires it: `budget` gates the window, and a factory
/// reopens `path` for the extra slots and hedges. `base` replaces the
/// first handle when given (tests wrap it to stall or fail reads).
inline std::unique_ptr<PrefetchingBlockReader> MakePrefetchingReader(
    StorageEnv* env, const std::string& path, ThreadPool* pool,
    size_t block_bytes, PrefetchBudget* budget, size_t depth_cap = 1,
    const PrefetchTuning& tuning = PrefetchTuning(),
    std::unique_ptr<SequentialFile> base = nullptr) {
  if (base == nullptr) {
    auto opened = env->NewSequentialFile(path);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return nullptr;
    base = std::move(*opened);
  }
  return std::make_unique<PrefetchingBlockReader>(
      std::move(base), pool, block_bytes, depth_cap, budget,
      [env, path] { return env->NewSequentialFile(path); }, tuning);
}

}  // namespace testing_util
}  // namespace topk

#endif  // TOPK_TESTS_TEST_UTIL_H_
