/// Storage durability features: run checksums, verification, disk quotas.

#include <array>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "io/spill_manager.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::MaterializeDataset;
using testing_util::ScratchDir;

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32c(0, data, 9), 0xE3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "histogram-guided top-k external merge sort";
  const uint32_t one_shot = Crc32c(0, data.data(), data.size());
  uint32_t incremental = 0;
  for (char c : data) incremental = Crc32c(incremental, &c, 1);
  EXPECT_EQ(incremental, one_shot);
}

TEST(Crc32cTest, EmptyInputIsZeroNoop) {
  EXPECT_EQ(Crc32c(0, "", 0), 0u);
  EXPECT_EQ(Crc32c(123u, "", 0), 123u);
}

TEST(Crc32cTest, SensitiveToSingleBit) {
  std::string a = "payload", b = "paylobd";
  EXPECT_NE(Crc32c(0, a.data(), a.size()), Crc32c(0, b.data(), b.size()));
}

/// Bit-at-a-time CRC-32C straight from the polynomial: the reference the
/// fast paths are held to.
uint32_t ReferenceCrc32c(uint32_t crc, const unsigned char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return ~crc;
}

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

/// Crc32c and the implementations it may dispatch to on this CPU.
std::vector<std::pair<const char*, Crc32cFn>> Crc32cPaths() {
  std::vector<std::pair<const char*, Crc32cFn>> paths = {
      {"dispatch", &Crc32c}, {"portable", &internal::Crc32cPortable}};
  if (internal::Crc32cHardwareAvailable()) {
    paths.emplace_back("hardware", &internal::Crc32cHardware);
  }
  return paths;
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 Appendix B.4.
  std::array<unsigned char, 32> zeros{}, ones{}, ascending{}, descending{};
  ones.fill(0xff);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  for (const auto& [name, crc32c] : Crc32cPaths()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc32c(0, zeros.data(), 32), 0x8A9136AAu);
    EXPECT_EQ(crc32c(0, ones.data(), 32), 0x62A8AB43u);
    EXPECT_EQ(crc32c(0, ascending.data(), 32), 0x46DD794Eu);
    EXPECT_EQ(crc32c(0, descending.data(), 32), 0x113FDB5Cu);
    EXPECT_EQ(crc32c(0, "123456789", 9), 0xE3069283u);
  }
}

TEST(Crc32cTest, PathsMatchReferenceAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buffer(1024 + 8);
  Random rng(13);
  for (auto& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextUint64());
  }
  const auto paths = Crc32cPaths();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(n * 2654435761u);
      const uint32_t expected = ReferenceCrc32c(seed, data, n);
      for (const auto& [name, crc32c] : paths) {
        ASSERT_EQ(crc32c(seed, data, n), expected)
            << name << " offset=" << offset << " n=" << n;
      }
    }
  }
}

TEST(Crc32cTest, PathsChainAcrossRandomSplits) {
  std::vector<unsigned char> buffer(1024 + 8);
  Random rng(17);
  for (auto& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextUint64());
  }
  const auto paths = Crc32cPaths();
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.NextUint64(8);
    const size_t n = rng.NextUint64(1025);
    const unsigned char* data = buffer.data() + offset;
    const uint32_t expected = ReferenceCrc32c(0, data, n);
    for (const auto& [name, crc32c] : paths) {
      uint32_t crc = 0;
      size_t done = 0;
      while (done < n) {
        const size_t piece =
            1 + rng.NextUint64(std::min<size_t>(n - done, 100));
        crc = crc32c(crc, data + done, piece);
        done += piece;
      }
      ASSERT_EQ(crc, expected) << name << " trial=" << trial << " n=" << n;
    }
  }
}

TEST(Crc32cTest, HardwarePathMatchesPortable) {
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 CRC32 instruction";
  }
  std::vector<unsigned char> buffer(4096);
  Random rng(19);
  for (auto& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextUint64());
  }
  uint32_t hardware = 0, portable = 0;
  for (size_t n : {1, 7, 8, 9, 63, 84, 4096}) {
    hardware = internal::Crc32cHardware(hardware, buffer.data(), n);
    portable = internal::Crc32cPortable(portable, buffer.data(), n);
    EXPECT_EQ(hardware, portable) << "n=" << n;
  }
}

class RunVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  RunMeta WriteRun(int rows) {
    RowComparator cmp;
    auto writer = spill_->NewRun(cmp);
    EXPECT_TRUE(writer.ok());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          (*writer)->Append(Row(i, i, "payload" + std::to_string(i))).ok());
    }
    auto meta = (*writer)->Finish();
    EXPECT_TRUE(meta.ok());
    spill_->AddRun(*meta);
    return *meta;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
};

TEST_F(RunVerifyTest, IntactRunVerifies) {
  RunMeta meta = WriteRun(500);
  EXPECT_NE(meta.crc32c, 0u);
  EXPECT_TRUE(spill_->VerifyRun(meta, RowComparator()).ok());
}

TEST_F(RunVerifyTest, FlippedByteDetected) {
  RunMeta meta = WriteRun(500);
  {
    // Corrupt one payload byte in the middle of the file.
    std::fstream file(meta.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(meta.bytes / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(meta.bytes / 2));
    byte ^= 0x40;
    file.write(&byte, 1);
  }
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST_F(RunVerifyTest, TruncationDetected) {
  RunMeta meta = WriteRun(500);
  std::filesystem::resize_file(meta.path, meta.bytes - 10);
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(RunVerifyTest, WrongRowCountDetected) {
  RunMeta meta = WriteRun(100);
  meta.rows = 99;
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(DiskQuotaTest, WritesBeyondQuotaFail) {
  StorageEnv::Options env_options;
  env_options.max_bytes_written = 1024;
  StorageEnv env(env_options);
  ScratchDir scratch;
  auto file = env.NewWritableFile(scratch.str() + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(1000, 'x')).ok());
  const Status status = (*file)->Append(std::string(100, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(DiskQuotaTest, OperatorSurfacesQuotaExhaustion) {
  StorageEnv::Options env_options;
  env_options.max_bytes_written = 64 * 1024;  // far below the spill volume
  StorageEnv env(env_options);
  ScratchDir scratch;
  TopKOptions options;
  options.k = 2000;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(100000).WithPayload(32, 32).WithSeed(9);
  auto rows = MaterializeDataset(spec);
  Status status = Status::OK();
  for (const Row& row : rows) {
    status = (*op)->Consume(row);
    if (!status.ok()) break;
  }
  if (status.ok()) status = (*op)->Finish().status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
}

TEST(DiskQuotaTest, HistogramFitsWhereTraditionalExceedsQuota) {
  // The paper's operational argument in miniature: with a bounded scratch
  // volume, the filtering operator completes while the full sort cannot.
  ScratchDir scratch;
  DatasetSpec spec;
  spec.WithRows(60000).WithPayload(32, 32).WithSeed(10);
  auto rows = MaterializeDataset(spec);

  StorageEnv::Options env_options;
  env_options.max_bytes_written = 2 << 20;  // 2 MiB scratch
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal, TopKAlgorithm::kHistogram}) {
    StorageEnv env(env_options);
    TopKOptions options;
    options.k = 1000;
    options.memory_limit_bytes = 16 * 1024;
    options.env = &env;
    options.spill_dir = scratch.str() + "/" + TopKAlgorithmName(algorithm);
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok());
    Status status = Status::OK();
    for (const Row& row : rows) {
      status = (*op)->Consume(row);
      if (!status.ok()) break;
    }
    if (status.ok()) status = (*op)->Finish().status();
    if (algorithm == TopKAlgorithm::kTraditionalExternal) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

}  // namespace
}  // namespace topk
