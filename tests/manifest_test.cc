#include "io/manifest.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "common/crc32.h"
#include "common/random.h"
#include "io/spill_manager.h"
#include "sort/merger.h"
#include "tests/test_util.h"

namespace topk {
namespace {

using testing_util::ScratchDir;

class ManifestTest : public ::testing::Test {
 protected:
  /// Builds a spill directory with `num_runs` indexed runs and returns the
  /// registered metadata.
  std::vector<RunMeta> BuildRuns(SpillManager* spill, int num_runs,
                                 int rows_per_run, uint64_t seed) {
    RowComparator cmp;
    Random rng(seed);
    uint64_t id = 0;
    for (int r = 0; r < num_runs; ++r) {
      auto writer = spill->NewRun(cmp, /*index_stride=*/16);
      EXPECT_TRUE(writer.ok());
      std::vector<double> keys;
      for (int i = 0; i < rows_per_run; ++i) keys.push_back(rng.NextDouble());
      std::sort(keys.begin(), keys.end());
      for (double key : keys) {
        EXPECT_TRUE((*writer)->Append(Row(key, id++, "p")).ok());
      }
      auto meta = (*writer)->Finish();
      EXPECT_TRUE(meta.ok());
      // Attach a small histogram like an operator would.
      meta->histogram.push_back(
          HistogramBucket{keys[rows_per_run / 2], 50});
      spill->AddRun(*meta);
    }
    return spill->runs();
  }

  ScratchDir scratch_;
  StorageEnv env_;
};

TEST_F(ManifestTest, WriteReadRoundTrip) {
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 4, 100, 1);

  const std::string path = scratch_.str() + "/m.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, runs).ok());
  auto loaded = ReadManifest(&env_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunMeta& a = runs[i];
    const RunMeta& b = (*loaded)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.first_key, b.first_key);  // %.17g round-trips exactly
    EXPECT_EQ(a.last_key, b.last_key);
    EXPECT_EQ(a.crc32c, b.crc32c);
    ASSERT_EQ(a.histogram.size(), b.histogram.size());
    for (size_t j = 0; j < a.histogram.size(); ++j) {
      EXPECT_EQ(a.histogram[j], b.histogram[j]);
    }
    ASSERT_EQ(a.index.size(), b.index.size());
    for (size_t j = 0; j < a.index.size(); ++j) {
      EXPECT_EQ(a.index[j].key, b.index[j].key);
      EXPECT_EQ(a.index[j].rows, b.index[j].rows);
      EXPECT_EQ(a.index[j].bytes, b.index[j].bytes);
    }
  }
}

TEST_F(ManifestTest, EmptyRegistryRoundTrips) {
  const std::string path = scratch_.str() + "/empty.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, {}).ok());
  auto loaded = ReadManifest(&env_, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(ManifestTest, CorruptManifestsRejected) {
  const std::string dir = scratch_.str();
  auto write = [&](const std::string& name, const std::string& content) {
    auto file = env_.NewWritableFile(dir + "/" + name);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append(content).ok());
    EXPECT_TRUE((*file)->Close().ok());
    return dir + "/" + name;
  };
  // Appends a correct `end <count> <crc>` record so the case under test
  // reaches the semantic checks instead of dying on the checksum.
  auto seal = [](std::string content, uint64_t count) {
    const uint32_t crc = Crc32c(0, content.data(), content.size());
    return content + "end " + std::to_string(count) + " " +
           std::to_string(crc) + "\n";
  };

  EXPECT_EQ(ReadManifest(&env_, write("bad1", "not a manifest\n"))
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReadManifest(&env_, write("bad2", "topk-manifest v1\n"))
                .status()
                .code(),
            StatusCode::kCorruption);  // old version header
  EXPECT_EQ(ReadManifest(&env_, write("bad3", "topk-manifest v2\n"))
                .status()
                .code(),
            StatusCode::kCorruption);  // no end record
  EXPECT_EQ(
      ReadManifest(
          &env_,
          write("bad4", seal("topk-manifest v2\nrun zzz\n", 1)))
          .status()
          .code(),
      StatusCode::kCorruption);  // malformed run record
  EXPECT_EQ(
      ReadManifest(&env_, write("bad5", seal("topk-manifest v2\n", 3)))
          .status()
          .code(),
      StatusCode::kCorruption);  // count mismatch
  EXPECT_EQ(
      ReadManifest(
          &env_,
          write("bad6", seal("topk-manifest v2\nhist 0 0.5 10\n", 0)))
          .status()
          .code(),
      StatusCode::kCorruption);  // hist before its run
  EXPECT_EQ(
      ReadManifest(
          &env_,
          write("bad7", seal("topk-manifest v2\n", 0) + "run trailing\n"))
          .status()
          .code(),
      StatusCode::kCorruption);  // content after end
  EXPECT_EQ(
      ReadManifest(&env_, write("bad8", "topk-manifest v2\nend 0 12345\n"))
          .status()
          .code(),
      StatusCode::kCorruption);  // end CRC wrong
  EXPECT_EQ(
      ReadManifest(
          &env_,
          write("bad9", seal("topk-manifest v2\n", 0).substr(
                            0, seal("topk-manifest v2\n", 0).size() - 1) +
                            "garbage\n"))
          .status()
          .code(),
      StatusCode::kCorruption);  // trailing bytes on the end record
}

/// The corruption grid (Sec 8 fault model): starting from a real manifest,
/// truncate at every line boundary and flip a bit in every byte. Every
/// mutation must be rejected with Corruption — never a crash, never a
/// partially-loaded registry. Single-bit flips ahead of the end record are
/// caught by its CRC-32C even when the mutated field still parses.
TEST_F(ManifestTest, CorruptionGridRejectsEveryMutation) {
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 3, 64, 5);
  const std::string path = scratch_.str() + "/grid.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, runs).ok());

  std::string content;
  {
    auto file = env_.NewSequentialFile(path);
    ASSERT_TRUE(file.ok());
    char buf[64 * 1024];
    size_t got = 0;
    ASSERT_TRUE((*file)->Read(sizeof(buf), buf, &got).ok());
    ASSERT_LT(got, sizeof(buf)) << "grid assumes the manifest fits one read";
    content.assign(buf, got);
  }
  ASSERT_GT(content.size(), 0u);

  const std::string mutant_path = scratch_.str() + "/mutant.manifest";
  auto write_mutant = [&](const std::string& mutated) {
    auto file = env_.NewWritableFile(mutant_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(mutated).ok());
    ASSERT_TRUE((*file)->Close().ok());
  };

  // Truncation at every line boundary (both keeping and dropping the
  // newline). Only the untruncated file may load; everything shorter is a
  // torn write and must be rejected.
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] != '\n') continue;
    for (const size_t cut : {i, i + 1}) {
      // cut == size is the intact manifest; cut == size-1 merely drops the
      // trailing newline, which the parser deliberately tolerates.
      if (cut + 1 >= content.size()) continue;
      SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
      write_mutant(content.substr(0, cut));
      auto loaded = ReadManifest(&env_, mutant_path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    }
  }

  // A single-bit flip in every byte, covering every field of every record
  // (run, hist, index, header, and the end record itself).
  for (size_t i = 0; i < content.size(); ++i) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(i));
    std::string mutated = content;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    write_mutant(mutated);
    auto loaded = ReadManifest(&env_, mutant_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(ManifestTest, RestoreResumesMergePhase) {
  const std::string dir = scratch_.str() + "/resumable";
  std::vector<double> all_keys;

  // Phase 1: an "operator" generates runs, saves a manifest, and dies
  // without cleaning up (simulated crash: DisownDir() makes the destructor
  // leave the directory behind, as a real crash would).
  {
    auto spill = SpillManager::Create(&env_, dir);
    ASSERT_TRUE(spill.ok());
    auto runs = BuildRuns(spill->get(), 5, 200, 2);
    for (const RunMeta& meta : runs) {
      auto reader = spill.value()->OpenRun(meta);
      ASSERT_TRUE(reader.ok());
      Row row;
      bool eof = false;
      for (;;) {
        ASSERT_TRUE((*reader)->Next(&row, &eof).ok());
        if (eof) break;
        all_keys.push_back(row.key);
      }
    }
    ASSERT_TRUE(spill.value()->SaveManifest("state.manifest").ok());
    spill.value()->DisownDir();  // crash: the directory stays
  }

  // Phase 2: a fresh process restores the spill state and finishes the
  // merge.
  auto restored = SpillManager::OpenExisting(&env_, dir, "state.manifest");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->run_count(), 5u);

  std::vector<Row> merged;
  auto stats = MergeRuns(restored->get(), (*restored)->runs(),
                         RowComparator(), MergeOptions{}, [&](Row&& row) {
                           merged.push_back(std::move(row));
                           return Status::OK();
                         });
  ASSERT_TRUE(stats.ok());
  std::sort(all_keys.begin(), all_keys.end());
  ASSERT_EQ(merged.size(), all_keys.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].key, all_keys[i]);
  }

  // Run-id allocation continues past the restored runs.
  auto writer = (*restored)->NewRun(RowComparator());
  ASSERT_TRUE(writer.ok());
  EXPECT_GE((*writer)->run_id(), 5u);
}

TEST_F(ManifestTest, AsyncSaveManifestRoundTripsThroughIoPool) {
  const std::string dir = scratch_.str() + "/async";
  IoPipelineOptions io;
  io.background_threads = 2;
  std::vector<RunMeta> runs;
  {
    auto spill = SpillManager::Create(&env_, dir, io);
    ASSERT_TRUE(spill.ok());
    ASSERT_NE((*spill)->io_pool(), nullptr);
    runs = BuildRuns(spill->get(), 3, 100, 7);
    // Repeated saves (one per finished run is the expected cadence) — each
    // is scheduled on the pool, at most one in flight at a time.
    ASSERT_TRUE((*spill)->SaveManifest("state.manifest").ok());
    ASSERT_TRUE((*spill)->SaveManifest("state.manifest").ok());
    // Barrier: after FlushManifest the file must be durable and current.
    ASSERT_TRUE((*spill)->FlushManifest().ok());

    auto loaded = ReadManifest(&env_, dir + "/state.manifest");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ((*loaded)[i].id, runs[i].id);
      EXPECT_EQ((*loaded)[i].rows, runs[i].rows);
      EXPECT_EQ((*loaded)[i].crc32c, runs[i].crc32c);
    }
    spill.value()->DisownDir();  // keep the directory for OpenExisting
  }

  // A restored manager (itself pooled) sees exactly the saved registry.
  auto restored = SpillManager::OpenExisting(&env_, dir, "state.manifest",
                                             RowComparator(), io);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->run_count(), runs.size());
}

TEST_F(ManifestTest, AsyncSaveManifestSurfacesLatchedWriteError) {
  IoPipelineOptions io;
  io.background_threads = 1;
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/latch", io);
  ASSERT_TRUE(spill.ok());
  BuildRuns(spill->get(), 1, 50, 9);

  env_.InjectWriteFailure(1);  // the scheduled manifest write fails
  ASSERT_TRUE((*spill)->SaveManifest("state.manifest").ok());
  // The failure surfaces on the flush barrier, then clears.
  EXPECT_EQ((*spill)->FlushManifest().code(), StatusCode::kIoError);
  EXPECT_TRUE((*spill)->FlushManifest().ok());
  // And a retry after the fault goes through.
  ASSERT_TRUE((*spill)->SaveManifest("state.manifest").ok());
  EXPECT_TRUE((*spill)->FlushManifest().ok());
  auto loaded = ReadManifest(&env_, scratch_.str() + "/latch/state.manifest");
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(ManifestTest, RestoreVerifyCatchesTamperedRun) {
  const std::string dir = scratch_.str() + "/tampered";
  uint64_t tampered_id = 0;
  {
    auto spill = SpillManager::Create(&env_, dir);
    ASSERT_TRUE(spill.ok());
    auto runs = BuildRuns(spill->get(), 2, 100, 3);
    ASSERT_TRUE(spill.value()->SaveManifest("state.manifest").ok());
    tampered_id = runs[0].id;
    // Corrupt one run file before the "crash".
    std::FILE* f = std::fopen(runs[0].path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
    spill.value()->DisownDir();
  }
  // The tampered run is quarantined; the intact one is restored.
  RestoreReport report;
  auto restored = SpillManager::OpenExisting(&env_, dir, "state.manifest",
                                             RowComparator(), {}, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(report.runs_restored, 1u);
  EXPECT_EQ((*restored)->run_count(), 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].meta.id, tampered_id);
  EXPECT_EQ(report.quarantined[0].reason.code(), StatusCode::kCorruption);
}

TEST_F(ManifestTest, CheckpointRoundTripsWithCutoff) {
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 3, 50, 9);

  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = 123456;
  ckpt.run_id_bound = 3;
  ckpt.has_cutoff = true;
  ckpt.cutoff = 0.123456789012345678;  // %.17g must round-trip exactly
  const std::string path = scratch_.str() + "/ckpt.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, runs, RetryPolicy(), &ckpt).ok());

  ManifestCheckpoint loaded;
  bool has_ckpt = false;
  auto read = ReadManifest(&env_, path, RetryPolicy(), &loaded, &has_ckpt);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), runs.size());
  ASSERT_TRUE(has_ckpt);
  EXPECT_EQ(loaded.input_rows_consumed, 123456u);
  EXPECT_EQ(loaded.run_id_bound, 3u);
  ASSERT_TRUE(loaded.has_cutoff);
  EXPECT_EQ(loaded.cutoff, ckpt.cutoff);
}

TEST_F(ManifestTest, CheckpointRoundTripsWithoutCutoff) {
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 2, 50, 10);

  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = 7;
  ckpt.run_id_bound = 0;  // 0 runs covered: exclusive bound must survive
  ckpt.has_cutoff = false;
  const std::string path = scratch_.str() + "/nocutoff.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, runs, RetryPolicy(), &ckpt).ok());

  ManifestCheckpoint loaded;
  bool has_ckpt = false;
  ASSERT_TRUE(
      ReadManifest(&env_, path, RetryPolicy(), &loaded, &has_ckpt).ok());
  ASSERT_TRUE(has_ckpt);
  EXPECT_EQ(loaded.input_rows_consumed, 7u);
  EXPECT_EQ(loaded.run_id_bound, 0u);
  EXPECT_FALSE(loaded.has_cutoff);
}

TEST_F(ManifestTest, NoCheckpointStaysV2ByteStable) {
  // A checkpoint-free write must produce the v2 format byte-for-byte, so
  // manifests written by pre-checkpoint builds and by this build are
  // interchangeable when the feature is unused.
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 2, 50, 11);

  const std::string path = scratch_.str() + "/v2.manifest";
  ASSERT_TRUE(WriteManifest(&env_, path, runs).ok());
  std::ifstream in(path);
  std::string first_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
  EXPECT_EQ(first_line.find("topk-manifest v2"), 0u) << first_line;
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(rest.find("ckpt"), std::string::npos);

  bool has_ckpt = true;
  ManifestCheckpoint ignored;
  ASSERT_TRUE(
      ReadManifest(&env_, path, RetryPolicy(), &ignored, &has_ckpt).ok());
  EXPECT_FALSE(has_ckpt);
}

TEST_F(ManifestTest, CheckpointCorruptionsAreRejected) {
  auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
  ASSERT_TRUE(spill.ok());
  auto runs = BuildRuns(spill->get(), 2, 50, 12);
  ManifestCheckpoint ckpt;
  ckpt.input_rows_consumed = 99;
  ckpt.run_id_bound = 2;
  ckpt.has_cutoff = true;
  ckpt.cutoff = 0.5;
  const std::string good_path = scratch_.str() + "/good.manifest";
  ASSERT_TRUE(
      WriteManifest(&env_, good_path, runs, RetryPolicy(), &ckpt).ok());
  std::string good;
  {
    std::ifstream in(good_path);
    good.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  // Strip the end record; tampered bodies are resealed with a fresh CRC so
  // the ckpt-specific validation is what rejects them, not the checksum.
  const size_t end_pos = good.rfind("end ");
  ASSERT_NE(end_pos, std::string::npos);
  const std::string body = good.substr(0, end_pos);
  const auto reseal = [&](const std::string& tampered_body) {
    const uint32_t crc =
        Crc32c(0, tampered_body.data(), tampered_body.size());
    return tampered_body + "end " + std::to_string(runs.size()) + " " +
           std::to_string(crc) + "\n";
  };
  const auto write_tampered = [&](const std::string& content) {
    const std::string path = scratch_.str() + "/tampered.manifest";
    std::ofstream out(path, std::ios::trunc);
    out << content;
    out.close();
    return path;
  };
  const auto expect_corrupt = [&](const std::string& content,
                                  const char* what) {
    auto read = ReadManifest(&env_, write_tampered(content));
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << what;
  };

  // A ckpt record smuggled into a v2 header is not valid v2.
  std::string v2_with_ckpt = body;
  v2_with_ckpt.replace(v2_with_ckpt.find("topk-manifest v3"),
                       std::string("topk-manifest v3").size(),
                       "topk-manifest v2");
  expect_corrupt(reseal(v2_with_ckpt), "ckpt in v2");

  // Two ckpt records contradict each other.
  const size_t ckpt_pos = body.find("ckpt ");
  ASSERT_NE(ckpt_pos, std::string::npos);
  const size_t ckpt_end = body.find('\n', ckpt_pos) + 1;
  std::string duplicated =
      body.substr(0, ckpt_end) + body.substr(ckpt_pos, ckpt_end - ckpt_pos) +
      body.substr(ckpt_end);
  expect_corrupt(reseal(duplicated), "duplicate ckpt");

  // A malformed cutoff field is corruption, not a silent default.
  std::string bad_cutoff = body;
  bad_cutoff.replace(ckpt_pos, ckpt_end - ckpt_pos, "ckpt 99 2 banana\n");
  expect_corrupt(reseal(bad_cutoff), "malformed cutoff");

  // Truncated mid-ckpt (torn write of the record itself): no end record
  // survives, so this one is the checksum/footer path by design.
  expect_corrupt(good.substr(0, ckpt_pos + 6), "truncated ckpt");
}

}  // namespace
}  // namespace topk
