// Loader-hardening corpus: every parse error in the text graph format
// and the binary CCSR artifact format must surface as a Status — never
// an abort, a crash, or a silently wrong graph. The binary side also
// runs a deterministic single-byte-flip sweep over a real v2 artifact
// and truncates it at every section boundary: whatever the damage, the
// loader either rejects it or produces an index that passes deep
// validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "ccsr/ccsr_v2_format.h"
#include "graph/graph_io.h"
#include "tests/ccsr_artifact_util.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace {

// ---------------------------------------------------------------------------
// Text format corpus

struct TextCase {
  const char* name;
  const char* text;
};

const TextCase kRejectedTexts[] = {
    {"empty", ""},
    {"comment_only", "# nothing here\n"},
    {"missing_header", "v 0 1\nv 1 1\ne 0 1\n"},
    {"record_before_header", "v 0 1\nt undirected 1 0\n"},
    {"edge_before_header", "e 0 1\nt undirected 2 1\ne 0 1\n"},
    {"duplicate_header",
     "t undirected 2 1\nt undirected 2 1\nv 0 1\nv 1 1\ne 0 1\n"},
    {"bad_direction", "t sideways 2 1\nv 0 1\nv 1 1\ne 0 1\n"},
    {"header_missing_counts", "t undirected\n"},
    {"unknown_record", "t undirected 1 0\nv 0 1\nx what\n"},
    {"bad_vertex_line", "t undirected 1 0\nv zero 1\n"},
    {"bad_edge_line", "t undirected 2 1\nv 0 1\nv 1 1\ne 0 one\n"},
    {"vertex_count_short", "t undirected 3 1\nv 0 1\nv 1 1\ne 0 1\n"},
    {"vertex_count_long", "t undirected 1 1\nv 0 1\nv 1 1\ne 0 1\n"},
    {"edge_count_short", "t undirected 2 2\nv 0 1\nv 1 1\ne 0 1\n"},
    {"edge_count_long", "t undirected 2 0\nv 0 1\nv 1 1\ne 0 1\n"},
    {"duplicate_vertex_id", "t undirected 2 1\nv 0 1\nv 0 2\ne 0 1\n"},
    {"vertex_id_out_of_range", "t undirected 2 1\nv 0 1\nv 7 1\ne 0 1\n"},
    {"vertex_id_overflow",
     "t undirected 2 1\nv 0 1\nv 99999999999 1\ne 0 1\n"},
    {"edge_endpoint_overflow",
     "t undirected 2 1\nv 0 1\nv 1 1\ne 0 99999999999\n"},
    {"edge_endpoint_out_of_range", "t undirected 2 1\nv 0 1\nv 1 1\ne 0 9\n"},
    {"self_loop", "t undirected 2 1\nv 0 1\nv 1 1\ne 1 1\n"},
    {"implausible_vertex_count", "t undirected 99999999999 0\n"},
    {"binary_junk", "t undirected 2 1\nv 0 1\nv 1 1\ne \x01\x02\x03\n"},
};

TEST(GraphIoFuzzTest, MalformedTextsRejectedWithStatus) {
  for (const TextCase& c : kRejectedTexts) {
    Graph g;
    Status st = LoadGraphFromString(c.text, &g);
    EXPECT_FALSE(st.ok()) << "case '" << c.name << "' was accepted";
    EXPECT_FALSE(st.ToString().empty()) << c.name;
  }
}

TEST(GraphIoFuzzTest, CleanTextStillLoads) {
  const char* text =
      "# a comment\n"
      "t undirected 3 2\n"
      "v 0 5\nv 1 5\nv 2 6\n"
      "e 0 1 2\ne 1 2\n";
  Graph g;
  Status st = LoadGraphFromString(text, &g);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1, 2));
  EXPECT_TRUE(g.HasEdge(1, 2, 0));  // elabel defaults to 0
}

TEST(GraphIoFuzzTest, RandomLineMutationsNeverCrash) {
  Rng rng(91);
  Graph base = testing::RandomGraph(rng, 20, 0.2, 3, 2, false);
  std::ostringstream out;
  ASSERT_TRUE(SaveGraphToStream(base, out).ok());
  const std::string text = out.str();
  // Deterministic sweep: delete each line, duplicate each line, and
  // flip a character in each line. Any outcome is fine except a crash
  // or a silently absurd graph.
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  auto try_load = [](const std::vector<std::string>& ls) {
    std::string mutated;
    for (const std::string& l : ls) {
      mutated += l;
      mutated += '\n';
    }
    Graph g;
    Status st = LoadGraphFromString(mutated, &g);
    if (st.ok()) {
      EXPECT_LE(g.NumVertices(), 64u);
    }
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(i));
    try_load(dropped);
    std::vector<std::string> doubled = lines;
    doubled.insert(doubled.begin() + static_cast<ptrdiff_t>(i), lines[i]);
    try_load(doubled);
    std::vector<std::string> flipped = lines;
    if (!flipped[i].empty()) {
      size_t pos = rng.Uniform(static_cast<uint32_t>(flipped[i].size()));
      flipped[i][pos] = static_cast<char>('0' + rng.Uniform(10));
      try_load(flipped);
    }
  }
}

// ---------------------------------------------------------------------------
// Binary CCSR artifact corpus

std::string MakeArtifact(bool directed) {
  Rng rng(directed ? 92 : 93);
  Graph g = testing::RandomGraph(rng, 24, 0.15, 3, 2, directed);
  return testing::CcsrV2Bytes(Ccsr::Build(g));
}

// Every content byte of the artifact (header, sections, directory and
// cluster arrays; not padding), flipped in its low and high bit.
TEST(CcsrIoFuzzTest, EveryByteFlipRejectedOrStillValid) {
  for (bool directed : {false, true}) {
    const std::string bytes = MakeArtifact(directed);
    for (const auto& [begin, end] : testing::V2ContentRanges(bytes)) {
      for (size_t i = begin; i < end; ++i) {
        for (unsigned char delta : {0x01, 0x80}) {
          std::string mutated = bytes;
          mutated[i] = static_cast<char>(mutated[i] ^ delta);
          Ccsr out;
          Status st = testing::LoadCcsrBytes(mutated, &out);
          if (st.ok()) {
            // Some flips are semantically harmless (an isolated vertex's
            // label, say). If the loader accepts, the deep validator
            // must agree — the loader's contract is "never load
            // garbage".
            Status deep = out.Validate();
            EXPECT_TRUE(deep.ok())
                << "byte " << i << " xor " << static_cast<int>(delta)
                << " loaded but fails validation: " << deep.ToString();
          }
        }
      }
    }
  }
}

// v2 (mmap) artifact: truncating at — and one byte either side of —
// every section boundary, every cluster-payload array boundary, and the
// final byte must be rejected at Open() time. `file_bytes` in the
// header pins the exact size, so no prefix may ever bind spans.
TEST(CcsrIoFuzzTest, EveryV2SectionBoundaryTruncationRejected) {
  for (bool directed : {false, true}) {
    Rng rng(directed ? 94 : 95);
    Graph g = testing::RandomGraph(rng, 24, 0.15, 3, 2, directed);
    Ccsr gc = Ccsr::Build(g);
    const std::string path = ::testing::TempDir() + "/io_fuzz_v2.ccsr";
    ASSERT_TRUE(SaveCcsrToFileV2(gc, path).ok());
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good());
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    V2Header header;
    ASSERT_GE(bytes.size(), sizeof(V2Header));
    std::memcpy(&header, bytes.data(), sizeof(V2Header));
    ASSERT_EQ(header.file_bytes, bytes.size());

    std::vector<size_t> boundaries = {0, 4, sizeof(V2Header), kV2PageBytes};
    auto add_section = [&boundaries](const V2Section& s) {
      boundaries.push_back(static_cast<size_t>(s.offset));
      boundaries.push_back(static_cast<size_t>(s.offset + s.length));
    };
    add_section(header.vlabels);
    add_section(header.out_degree);
    add_section(header.in_degree);
    add_section(header.vlabel_freq);
    add_section(header.directory);
    add_section(header.payload);
    for (uint64_t i = 0; i < header.num_clusters; ++i) {
      V2DirEntry e;
      std::memcpy(&e, bytes.data() + header.directory.offset +
                          i * sizeof(V2DirEntry),
                  sizeof(V2DirEntry));
      for (const V2CsrEntry& d : {e.out, e.in}) {
        const V2CsrLayout l = V2CsrLayoutOf(d);
        for (uint64_t off : {l.ids, l.offsets, l.words, l.rank, l.cols}) {
          boundaries.push_back(static_cast<size_t>(off));
        }
      }
    }
    boundaries.push_back(bytes.size() - 1);
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    const std::string chopped = ::testing::TempDir() + "/io_fuzz_v2_chop";
    for (size_t b : boundaries) {
      for (size_t len : {b > 0 ? b - 1 : 0, b, b + 1}) {
        if (len >= bytes.size()) continue;  // not a truncation
        {
          std::ofstream out(chopped, std::ios::binary | std::ios::trunc);
          out.write(bytes.data(), static_cast<std::streamsize>(len));
          ASSERT_TRUE(out.good());
        }
        std::unique_ptr<MmapCcsr> mapped;
        EXPECT_FALSE(MmapCcsr::Open(chopped, &mapped).ok())
            << "v2 prefix of " << len << " bytes accepted by mmap open";
        Ccsr out;
        EXPECT_FALSE(LoadCcsrFromFile(chopped, &out).ok())
            << "v2 prefix of " << len << " bytes accepted by the loader";
      }
    }
    std::remove(chopped.c_str());
    std::remove(path.c_str());
  }
}

TEST(CcsrIoFuzzTest, GarbageHeadersRejected) {
  const std::string junk_cases[] = {
      std::string(),
      std::string("\x00\x00\x00\x00", 4),
      std::string("CCSRCCSRCCSR"),
      std::string("CSR2CSR2CSR2"),
      std::string(64, '\xff'),
      std::string(1024, 'A'),
      std::string(kV2PageBytes, 'A'),
      std::string("CSR2") + std::string(kV2PageBytes, '\xff'),
  };
  const std::string path = testing::ScratchArtifactPath("io_fuzz_junk");
  for (const std::string& junk : junk_cases) {
    testing::WriteFileBytes(path, junk);
    std::unique_ptr<MmapCcsr> mapped;
    EXPECT_FALSE(MmapCcsr::Open(path, &mapped).ok());
    Ccsr out;
    EXPECT_FALSE(LoadCcsrFromFile(path, &out).ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csce
