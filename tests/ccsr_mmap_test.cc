// Out-of-core differential crosscheck: a v2 artifact opened through
// MmapCcsr must be indistinguishable from the same index built in
// memory — identical deep validation, identical embeddings and
// deterministic ExecStats at 1 and 8 threads, with and without a
// memory cap — and structural damage (directory byte surgery,
// truncation, format confusion) must be rejected at Open() time.

#include "ccsr/ccsr_mmap.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_v2_format.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace csce {
namespace {

using testing::ReadFileBytes;
using testing::WriteFileBytes;

struct RunOutcome {
  uint64_t embeddings = 0;
  uint64_t search_nodes = 0;
  uint64_t candidate_sets_computed = 0;
  uint64_t candidate_sets_reused = 0;
  std::vector<std::vector<VertexId>> rows;  // sorted
};

RunOutcome RunMatch(const Ccsr& index, const Graph& pattern,
                    uint32_t threads) {
  CsceMatcher matcher(&index);
  MatchOptions options;
  options.num_threads = threads;
  std::vector<VertexId> flat;
  Mutex mu;
  MatchResult result;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        MutexLock lock(mu);
        flat.insert(flat.end(), mapping.begin(), mapping.end());
        return true;
      },
      &result);
  CSCE_CHECK(st.ok());
  RunOutcome out;
  out.embeddings = result.embeddings;
  out.search_nodes = result.search_nodes;
  out.candidate_sets_computed = result.candidate_sets_computed;
  out.candidate_sets_reused = result.candidate_sets_reused;
  const uint32_t width = pattern.NumVertices();
  for (size_t off = 0; off + width <= flat.size(); off += width) {
    out.rows.emplace_back(flat.begin() + static_cast<ptrdiff_t>(off),
                          flat.begin() + static_cast<ptrdiff_t>(off + width));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

class CcsrMmapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Graph(datasets::Patent(18));
    index_ = new Ccsr(Ccsr::Build(*data_));
    // Per-process artifact name: under `ctest -j` every TEST of this
    // fixture runs as its own process, and a shared path would race
    // SetUpTestSuite's write against another process's teardown.
    path_ = new std::string(::testing::TempDir() + "/ccsr_mmap_test." +
                            std::to_string(::getpid()) + ".ccsr");
    CSCE_CHECK(SaveCcsrToFileV2(*index_, *path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete index_;
    index_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static Graph* data_;
  static Ccsr* index_;
  static std::string* path_;
};

Graph* CcsrMmapTest::data_ = nullptr;
Ccsr* CcsrMmapTest::index_ = nullptr;
std::string* CcsrMmapTest::path_ = nullptr;

TEST_F(CcsrMmapTest, MappedViewPassesDeepValidation) {
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(*path_, &mapped).ok());
  EXPECT_TRUE(mapped->ccsr().mapped());
  EXPECT_EQ(mapped->ccsr().NumVertices(), index_->NumVertices());
  EXPECT_EQ(mapped->ccsr().NumEdges(), index_->NumEdges());
  EXPECT_EQ(mapped->ccsr().NumClusters(), index_->NumClusters());
  Status deep = mapped->ccsr().Validate();
  EXPECT_TRUE(deep.ok()) << deep.ToString();
}

TEST_F(CcsrMmapTest, MatchesInMemoryAtOneAndEightThreads) {
  Rng rng(31);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kSparse, rng, &pattern).ok());
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(*path_, &mapped).ok());
  for (uint32_t threads : {1u, 8u}) {
    RunOutcome want = RunMatch(*index_, pattern, threads);
    RunOutcome got = RunMatch(mapped->ccsr(), pattern, threads);
    EXPECT_EQ(got.embeddings, want.embeddings) << "threads=" << threads;
    EXPECT_EQ(got.search_nodes, want.search_nodes) << "threads=" << threads;
    EXPECT_EQ(got.rows, want.rows) << "threads=" << threads;
    if (threads == 1) {
      // Serial ExecStats are fully deterministic; parallel candidate
      // reuse depends on morsel-to-thread assignment.
      EXPECT_EQ(got.candidate_sets_computed, want.candidate_sets_computed);
      EXPECT_EQ(got.candidate_sets_reused, want.candidate_sets_reused);
    }
  }
}

TEST_F(CcsrMmapTest, MemoryCapModeAgreesAndDrainsAdviseWindow) {
  Rng rng(47);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 5, PatternDensity::kSparse, rng, &pattern).ok());
  RunOutcome want = RunMatch(*index_, pattern, 1);
  MmapCcsr::Options opts;
  opts.memory_cap_bytes = 1u << 20;  // 1 MiB: forces FIFO eviction
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(*path_, opts, &mapped).ok());
  RunOutcome got = RunMatch(mapped->ccsr(), pattern, 1);
  EXPECT_EQ(got.embeddings, want.embeddings);
  EXPECT_EQ(got.rows, want.rows);
  // The matcher's AdviseDoneGuard must have closed the query window.
  EXPECT_EQ(mapped->AdvisedWindowBytes(), 0u);
}

TEST_F(CcsrMmapTest, MaterializingLoaderAgreesWithMapping) {
  // LoadCcsrFromFile on a v2 artifact deep-copies into owned storage;
  // the result must behave exactly like the original in-memory build.
  Ccsr materialized;
  ASSERT_TRUE(LoadCcsrFromFile(*path_, &materialized).ok());
  EXPECT_FALSE(materialized.mapped());
  EXPECT_TRUE(materialized.Validate().ok());
  Rng rng(59);
  Graph pattern;
  ASSERT_TRUE(
      SamplePattern(*data_, 4, PatternDensity::kDense, rng, &pattern).ok());
  RunOutcome want = RunMatch(*index_, pattern, 1);
  RunOutcome got = RunMatch(materialized, pattern, 1);
  EXPECT_EQ(got.embeddings, want.embeddings);
  EXPECT_EQ(got.rows, want.rows);
}

TEST_F(CcsrMmapTest, MappedViewRefusesMutationUntilOwned) {
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(*path_, &mapped).ok());
  Ccsr view = mapped->Release();
  EXPECT_EQ(view.InsertEdges({{0, 1, 0}}).code(), StatusCode::kNotSupported);
  view.EnsureOwnedStorage();
  EXPECT_FALSE(view.mapped());
  const uint64_t before = view.NumEdges();
  Status st = view.InsertEdges({{0, 1, 0}});
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kInvalidArgument)
      << st.ToString();
  if (st.ok()) {
    EXPECT_GE(view.NumEdges(), before);
  }
}

TEST_F(CcsrMmapTest, DirectoryByteSurgeryTripsCrc) {
  const std::string bytes = ReadFileBytes(*path_);
  V2Header header;
  ASSERT_GE(bytes.size(), sizeof(V2Header));
  std::memcpy(&header, bytes.data(), sizeof(V2Header));
  ASSERT_GT(header.directory.length, 0u);
  const std::string surgical = ::testing::TempDir() + "/ccsr_mmap_surgery";
  // Flip one byte in the middle of the cluster directory: the entry
  // stays structurally plausible, so only the CRC can catch it.
  std::string mutated = bytes;
  const size_t target = static_cast<size_t>(header.directory.offset +
                                            header.directory.length / 2);
  mutated[target] = static_cast<char>(mutated[target] ^ 0x01);
  WriteFileBytes(surgical, mutated);
  std::unique_ptr<MmapCcsr> mapped;
  Status st = MmapCcsr::Open(surgical, &mapped);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.ToString().find("directory"), std::string::npos)
      << st.ToString();
  // The materializing loader must refuse the same artifact — a
  // corrupted artifact never loads through any path.
  Ccsr out;
  EXPECT_EQ(LoadCcsrFromFile(surgical, &out).code(), StatusCode::kCorruption);
  std::remove(surgical.c_str());
}

TEST_F(CcsrMmapTest, TruncationRejectedAtOpen) {
  const std::string bytes = ReadFileBytes(*path_);
  const std::string chopped = ::testing::TempDir() + "/ccsr_mmap_truncated";
  for (size_t keep :
       {bytes.size() - 1, bytes.size() / 2, sizeof(V2Header), size_t{4}}) {
    WriteFileBytes(chopped, bytes.substr(0, keep));
    std::unique_ptr<MmapCcsr> mapped;
    Status st = MmapCcsr::Open(chopped, &mapped);
    EXPECT_FALSE(st.ok()) << "prefix of " << keep << " bytes accepted";
  }
  std::remove(chopped.c_str());
}

TEST_F(CcsrMmapTest, FormatConfusionNamesBothVersions) {
  // A retired v1 stream artifact (magic "CCSR"), large and small,
  // handed to both loaders: rejected by name, with the rebuild hint.
  std::string v1_header(sizeof(kV1Magic), '\0');
  std::memcpy(v1_header.data(), &kV1Magic, sizeof(kV1Magic));
  const std::string v1_path = ::testing::TempDir() + "/ccsr_mmap_v1.ccsr";
  for (size_t size : {size_t{64}, size_t{3 * kV2PageBytes}}) {
    WriteFileBytes(v1_path, v1_header + std::string(size, '\0'));
    std::unique_ptr<MmapCcsr> mapped;
    Ccsr out;
    for (const Status& st : {MmapCcsr::Open(v1_path, &mapped),
                             LoadCcsrFromFile(v1_path, &out)}) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption);
      EXPECT_NE(st.ToString().find("v1"), std::string::npos) << st.ToString();
      EXPECT_NE(st.ToString().find("csce_build"), std::string::npos)
          << st.ToString();
    }
  }
  std::remove(v1_path.c_str());

  std::unique_ptr<MmapCcsr> mapped;
  // An unknown v2 version must name found vs expected.
  std::string bytes = ReadFileBytes(*path_);
  V2Header header;
  std::memcpy(&header, bytes.data(), sizeof(V2Header));
  header.version = kV2Version + 7;
  std::memcpy(bytes.data(), &header, sizeof(V2Header));
  const std::string vpath = ::testing::TempDir() + "/ccsr_mmap_badver";
  WriteFileBytes(vpath, bytes);
  Status vst = MmapCcsr::Open(vpath, &mapped);
  EXPECT_FALSE(vst.ok());
  EXPECT_NE(vst.ToString().find(std::to_string(kV2Version + 7)),
            std::string::npos)
      << vst.ToString();
  EXPECT_NE(vst.ToString().find(std::to_string(kV2Version)),
            std::string::npos)
      << vst.ToString();
  std::remove(vpath.c_str());
}

// An artifact without the persisted label-pair sections (written before
// they existed) makes Open derive the masks by walking every row index,
// so a damaged run count there must be rejected, not walked.
TEST(CcsrMmapLegacyTest, PreLpiArtifactWithDamagedRunRejectedAtOpen) {
  Graph g = testing::MakeGraph(false, {1, 1, 1, 1},
                               {Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{2, 3, 0}});
  std::string bytes = testing::CcsrV2Bytes(Ccsr::Build(g));
  V2Header h = testing::ReadV2Header(bytes);
  h.lpi_out = V2Section{};
  h.lpi_in = V2Section{};
  std::memcpy(bytes.data(), &h, sizeof(h));
  const std::string path = testing::ScratchArtifactPath("ccsr_mmap_prelpi");
  WriteFileBytes(path, bytes);
  std::unique_ptr<MmapCcsr> mapped;
  ASSERT_TRUE(MmapCcsr::Open(path, &mapped).ok());  // undamaged: derives
  mapped.reset();

  V2DirEntry e;
  std::memcpy(&e, bytes.data() + h.directory.offset, sizeof(e));
  const size_t count_at = e.out_runs_offset + offsetof(RleRun, count);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, sizeof(count));
  count += 1u << 24;
  std::memcpy(bytes.data() + count_at, &count, sizeof(count));
  WriteFileBytes(path, bytes);
  Status st = MmapCcsr::Open(path, &mapped);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csce
