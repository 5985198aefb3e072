#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"

#include "io/block_io.h"
#include "io/run_file.h"
#include "io/spill_manager.h"
#include "io/storage_env.h"
#include "row/serialization.h"
#include "tests/test_util.h"

namespace topk {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::TestScratchPath("topk_io_test");
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  StorageEnv env_;
};

TEST_F(IoTest, WritableFileRoundTrip) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Close().ok());

  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  char buf[64];
  size_t got = 0;
  ASSERT_TRUE((*in)->Read(sizeof(buf), buf, &got).ok());
  EXPECT_EQ(std::string(buf, got), "hello world");
}

TEST_F(IoTest, OpenMissingFileFails) {
  auto in = env_.NewSequentialFile(Path("missing"));
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, StatsCountTraffic) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(1000, 'x')).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(env_.stats()->bytes_written(), 1000u);
  EXPECT_EQ(env_.stats()->write_calls(), 1u);
  EXPECT_EQ(env_.stats()->files_created(), 1u);

  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  char buf[4096];
  size_t got = 0;
  ASSERT_TRUE((*in)->Read(sizeof(buf), buf, &got).ok());
  EXPECT_EQ(got, 1000u);
  EXPECT_EQ(env_.stats()->bytes_read(), 1000u);
}

TEST_F(IoTest, DeleteFileUpdatesStatsAndErrsOnMissing) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(env_.DeleteFile(Path("f")).ok());
  EXPECT_EQ(env_.stats()->files_deleted(), 1u);
  EXPECT_FALSE(env_.DeleteFile(Path("f")).ok());
}

TEST_F(IoTest, FileSize) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("12345").ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto size = env_.FileSize(Path("f"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5u);
}

TEST_F(IoTest, InjectedWriteFailure) {
  env_.InjectWriteFailure(2);
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("a").ok());
  const Status failed = (*file)->Append("b");
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // Injection is one-shot.
  EXPECT_TRUE((*file)->Append("c").ok());
}

TEST_F(IoTest, InjectedReadFailure) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  ASSERT_TRUE((*file)->Close().ok());
  env_.InjectReadFailure(1);
  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  char buf[8];
  size_t got = 0;
  EXPECT_EQ((*in)->Read(sizeof(buf), buf, &got).code(),
            StatusCode::kIoError);
}

TEST_F(IoTest, BlockWriterBuffersUntilBlockSize) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  BlockWriter writer(std::move(*file), /*block_bytes=*/16);
  ASSERT_TRUE(writer.Append("0123456789").ok());
  // 10 bytes < block: nothing on storage yet.
  EXPECT_EQ(env_.stats()->write_calls(), 0u);
  ASSERT_TRUE(writer.Append("0123456789").ok());
  // Crossed 16: one block flushed.
  EXPECT_EQ(env_.stats()->write_calls(), 1u);
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.bytes_appended(), 20u);
  EXPECT_EQ(env_.stats()->bytes_written(), 20u);
}

TEST_F(IoTest, BlockWriterAppendAfterCloseFails) {
  auto file = env_.NewWritableFile(Path("f"));
  ASSERT_TRUE(file.ok());
  BlockWriter writer(std::move(*file));
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.Append("x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(IoTest, BlockReaderReadExactAndEof) {
  {
    auto file = env_.NewWritableFile(Path("f"));
    ASSERT_TRUE(file.ok());
    BlockWriter writer(std::move(*file), 8);
    ASSERT_TRUE(writer.Append("abcdefghij").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  BlockReader reader(std::move(*in), 4);
  char buf[6];
  bool eof = false;
  ASSERT_TRUE(reader.ReadExact(6, buf, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(std::string(buf, 6), "abcdef");
  ASSERT_TRUE(reader.ReadExact(4, buf, &eof).ok());
  EXPECT_EQ(std::string(buf, 4), "ghij");
  ASSERT_TRUE(reader.ReadExact(1, buf, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(IoTest, BlockReaderTruncationMidRecordIsCorruption) {
  {
    auto file = env_.NewWritableFile(Path("f"));
    ASSERT_TRUE(file.ok());
    BlockWriter writer(std::move(*file));
    ASSERT_TRUE(writer.Append("abc").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  BlockReader reader(std::move(*in));
  char buf[8];
  bool eof = false;
  EXPECT_EQ(reader.ReadExact(8, buf, &eof).code(), StatusCode::kCorruption);
}

TEST_F(IoTest, BlockReaderSkip) {
  {
    auto file = env_.NewWritableFile(Path("f"));
    ASSERT_TRUE(file.ok());
    BlockWriter writer(std::move(*file));
    ASSERT_TRUE(writer.Append("0123456789").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto in = env_.NewSequentialFile(Path("f"));
  ASSERT_TRUE(in.ok());
  BlockReader reader(std::move(*in), 4);
  char buf[4];
  bool eof = false;
  ASSERT_TRUE(reader.ReadExact(2, buf, &eof).ok());
  ASSERT_TRUE(reader.Skip(5).ok());
  ASSERT_TRUE(reader.ReadExact(3, buf, &eof).ok());
  EXPECT_EQ(std::string(buf, 3), "789");
}

TEST_F(IoTest, RunWriterReaderRoundTrip) {
  RowComparator cmp;
  auto writer = RunWriter::Create(&env_, Path("run"), 1, cmp);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 100; ++i) {
    const Row row(i, i, std::string("p").append(std::to_string(i)));
    ASSERT_TRUE((*writer)->Append(row).ok());
  }
  auto meta = (*writer)->Finish();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->rows, 100u);
  EXPECT_EQ(meta->first_key, 0.0);
  EXPECT_EQ(meta->last_key, 99.0);
  EXPECT_GT(meta->bytes, 0u);

  auto reader = RunReader::Open(&env_, Path("run"));
  ASSERT_TRUE(reader.ok());
  Row row;
  bool eof = false;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*reader)->Next(&row, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(row.key, i);
    EXPECT_EQ(row.payload, std::string("p").append(std::to_string(i)));
  }
  ASSERT_TRUE((*reader)->Next(&row, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(IoTest, RunWriterRejectsOutOfOrderRows) {
  RowComparator cmp;
  auto writer = RunWriter::Create(&env_, Path("run"), 1, cmp);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(Row(5.0, 1)).ok());
  EXPECT_EQ((*writer)->Append(Row(4.0, 2)).code(),
            StatusCode::kInvalidArgument);
  // Equal keys with ascending ids are fine.
  ASSERT_TRUE((*writer)->Append(Row(5.0, 2)).ok());
}

TEST_F(IoTest, AppendSerializedWritesWhatAppendWrites) {
  // Run generators hand the writer rows they serialized themselves. The
  // run must come out exactly as Append would have written it: file bytes,
  // checksum, seek index and key range. Payloads straddle the string's
  // inline-buffer edge (15 and 16 bytes) and reach a 4 KiB row.
  const RowComparator cmp;
  const size_t payloads[] = {0, 15, 16, 64, 4096, 16, 0, 15, 4096, 64, 0};
  std::vector<Row> rows;
  for (size_t i = 0; i < std::size(payloads); ++i) {
    rows.emplace_back(0.5 * static_cast<double>(i / 2), i,
                      std::string(payloads[i], static_cast<char>('a' + i)));
  }
  const uint64_t stride = 3;
  auto by_row = RunWriter::Create(&env_, Path("by_row"), 1, cmp,
                                  kDefaultBlockBytes, stride);
  auto by_bytes = RunWriter::Create(&env_, Path("by_bytes"), 1, cmp,
                                    kDefaultBlockBytes, stride);
  ASSERT_TRUE(by_row.ok());
  ASSERT_TRUE(by_bytes.ok());
  std::string wire;
  for (const Row& row : rows) {
    ASSERT_TRUE((*by_row)->Append(row).ok());
    wire.clear();
    SerializeRow(row, &wire);
    ASSERT_TRUE((*by_bytes)
                    ->AppendSerialized(row.key,
                                       row.normalized_key(cmp.direction()),
                                       wire)
                    .ok());
  }
  auto row_meta = (*by_row)->Finish();
  auto bytes_meta = (*by_bytes)->Finish();
  ASSERT_TRUE(row_meta.ok());
  ASSERT_TRUE(bytes_meta.ok());
  EXPECT_EQ(bytes_meta->rows, rows.size());
  EXPECT_EQ(bytes_meta->rows, row_meta->rows);
  EXPECT_EQ(bytes_meta->bytes, row_meta->bytes);
  EXPECT_EQ(bytes_meta->crc32c, row_meta->crc32c);
  EXPECT_EQ(bytes_meta->first_key, row_meta->first_key);
  EXPECT_EQ(bytes_meta->last_key, row_meta->last_key);
  ASSERT_EQ(bytes_meta->index.size(), rows.size() / stride);
  ASSERT_EQ(bytes_meta->index.size(), row_meta->index.size());
  for (size_t i = 0; i < row_meta->index.size(); ++i) {
    EXPECT_EQ(bytes_meta->index[i].key, row_meta->index[i].key) << i;
    EXPECT_EQ(bytes_meta->index[i].rows, row_meta->index[i].rows) << i;
    EXPECT_EQ(bytes_meta->index[i].bytes, row_meta->index[i].bytes) << i;
  }
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string written = file_bytes(Path("by_bytes"));
  EXPECT_EQ(written.size(), bytes_meta->bytes);
  EXPECT_EQ(written, file_bytes(Path("by_row")));

  // The sorted-order check guards this path too.
  auto writer = RunWriter::Create(&env_, Path("out_of_order"), 2, cmp);
  ASSERT_TRUE(writer.ok());
  const Row high(5.0, 1, "x"), low(4.0, 2, "y");
  wire.clear();
  SerializeRow(high, &wire);
  ASSERT_TRUE((*writer)
                  ->AppendSerialized(high.key,
                                     high.normalized_key(cmp.direction()),
                                     wire)
                  .ok());
  wire.clear();
  SerializeRow(low, &wire);
  EXPECT_EQ((*writer)
                ->AppendSerialized(low.key,
                                   low.normalized_key(cmp.direction()), wire)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, RunWriterDescendingOrder) {
  RowComparator cmp(SortDirection::kDescending);
  auto writer = RunWriter::Create(&env_, Path("run"), 1, cmp);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(Row(9.0, 1)).ok());
  ASSERT_TRUE((*writer)->Append(Row(3.0, 2)).ok());
  EXPECT_EQ((*writer)->Append(Row(4.0, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, RunReaderRejectsNonRunFile) {
  auto file = env_.NewWritableFile(Path("junk"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("this is not a run file at all").ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto reader = RunReader::Open(&env_, Path("junk"));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, SpillManagerLifecycle) {
  const std::string spill_dir = Path("spill");
  {
    auto spill = SpillManager::Create(&env_, spill_dir);
    ASSERT_TRUE(spill.ok());
    RowComparator cmp;
    auto writer = (*spill)->NewRun(cmp);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Row(1.0, 1)).ok());
    auto meta = (*writer)->Finish();
    ASSERT_TRUE(meta.ok());
    (*spill)->AddRun(*meta);
    EXPECT_EQ((*spill)->run_count(), 1u);
    EXPECT_EQ((*spill)->total_rows_spilled(), 1u);
    EXPECT_EQ((*spill)->total_runs_created(), 1u);
    EXPECT_TRUE(std::filesystem::exists(meta->path));

    auto reader = (*spill)->OpenRun(*meta);
    ASSERT_TRUE(reader.ok());
  }
  // Destructor removes the whole spill directory.
  EXPECT_FALSE(std::filesystem::exists(spill_dir));
}

TEST_F(IoTest, SpillManagerDeleteRunsIfDeletesFile) {
  auto spill = SpillManager::Create(&env_, Path("spill"));
  ASSERT_TRUE(spill.ok());
  RowComparator cmp;
  auto writer = (*spill)->NewRun(cmp);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(Row(1.0, 1)).ok());
  auto meta = (*writer)->Finish();
  ASSERT_TRUE(meta.ok());
  (*spill)->AddRun(*meta);
  const auto picked = [&](const RunMeta& run) { return run.id == meta->id; };
  auto deleted = (*spill)->DeleteRunsIf(picked);
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(deleted->size(), 1u);
  EXPECT_EQ(deleted->front().id, meta->id);
  EXPECT_EQ((*spill)->run_count(), 0u);
  EXPECT_FALSE(std::filesystem::exists(meta->path));
  // Totals are historical and unaffected by removal.
  EXPECT_EQ((*spill)->total_rows_spilled(), 1u);
  // The run is no longer registered: nothing left to delete or release.
  deleted = (*spill)->DeleteRunsIf(picked);
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(deleted->empty());
  EXPECT_EQ((*spill)->ReleaseRun(meta->id).status().code(),
            StatusCode::kNotFound);
}

TEST_F(IoTest, SpillManagerAssignsDistinctRunIds) {
  auto spill = SpillManager::Create(&env_, Path("spill"));
  ASSERT_TRUE(spill.ok());
  RowComparator cmp;
  auto w1 = (*spill)->NewRun(cmp);
  auto w2 = (*spill)->NewRun(cmp);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_NE((*w1)->run_id(), (*w2)->run_id());
}

TEST_F(IoTest, LatencyInjectionSlowsWrites) {
  StorageEnv::Options options;
  options.write_latency_nanos = 2 * 1000 * 1000;  // 2 ms
  StorageEnv slow_env(options);
  auto file = slow_env.NewWritableFile(Path("slow"));
  ASSERT_TRUE(file.ok());
  Stopwatch watch;
  ASSERT_TRUE((*file)->Append("x").ok());
  EXPECT_GE(watch.ElapsedNanos(), 2 * 1000 * 1000);
  ASSERT_TRUE((*file)->Close().ok());
}

}  // namespace
}  // namespace topk
