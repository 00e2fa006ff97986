// Golden work counters of vertex-induced runs: CsceMatcher on a fixed
// sample of patterns must do exactly the work recorded in
// tests/data/exec_golden.txt. Each line pins one query's embeddings,
// search nodes, computed and reused candidate sets, backjump skips and
// intersected elements, so a change to how the executor computes a
// candidate set (the negation step in particular) that alters any
// set, or any failing-set explanation, shows up as a counter diff.
//
// On a mismatch the test writes the lines it computed to
// <gtest TempDir>/exec_golden.actual; after an intended change of the
// search, copy that file over tests/data/exec_golden.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "util/rng.h"

namespace csce {
namespace {

// First 100 embeddings, serial, no time limit: every counter is then a
// function of the plan and the index alone.
constexpr uint64_t kMaxEmbeddings = 100;

std::string ComputeGoldenLines() {
  struct Dataset {
    const char* name;
    Graph graph;
  };
  // Undirected with one edge label, and directed.
  std::vector<Dataset> graphs;
  graphs.push_back({"patent20", datasets::Patent(20)});
  graphs.push_back({"subcat", datasets::Subcategory()});

  std::ostringstream lines;
  uint32_t k = 0;
  for (const Dataset& d : graphs) {
    const Ccsr index = Ccsr::Build(d.graph);
    const CsceMatcher matcher(&index);
    for (uint32_t size : {8u, 16u, 32u, 64u, 65u, 128u}) {
      for (PatternDensity density :
           {PatternDensity::kDense, PatternDensity::kSparse}) {
        Rng rng(7919ull * (k + 1));
        ++k;
        Graph pattern;
        Status st = SamplePattern(d.graph, size, density, rng, &pattern);
        EXPECT_TRUE(st.ok()) << st.ToString();
        if (!st.ok()) return "";
        for (bool fs : {true, false}) {
          MatchOptions options;
          options.variant = MatchVariant::kVertexInduced;
          options.max_embeddings = kMaxEmbeddings;
          options.plan.prune.fs = fs;
          MatchResult r;
          st = matcher.Match(pattern, options, &r);
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (!st.ok()) return "";
          lines << d.name << " n=" << size << ' '
                << (density == PatternDensity::kDense ? "dense" : "sparse")
                << " fs=" << fs << " emb=" << r.embeddings
                << " nodes=" << r.search_nodes
                << " computed=" << r.candidate_sets_computed
                << " reused=" << r.candidate_sets_reused
                << " skipped=" << r.prune_extensions_skipped
                << " isect=" << r.intersect_elements << '\n';
        }
      }
    }
  }
  return lines.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(ExecGoldenTest, VertexInducedWorkCountersMatchRecordedGolden) {
  const std::string actual = ComputeGoldenLines();
  ASSERT_FALSE(actual.empty());

  const std::string golden_path =
      std::string(CSCE_TEST_DATA_DIR) + "/exec_golden.txt";
  std::ifstream in(golden_path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  const std::string actual_path = ::testing::TempDir() + "/exec_golden.actual";
  std::ofstream(actual_path, std::ios::binary) << actual;
  std::vector<std::string> want = SplitLines(golden.str());
  std::vector<std::string> got = SplitLines(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "work counters differ from " << golden_path
                << " at line " << i + 1 << " (golden " << want.size()
                << " lines, actual " << got.size() << ")\n  golden: "
                << (i < want.size() ? want[i] : "<eof>")
                << "\n  actual: " << (i < got.size() ? got[i] : "<eof>")
                << "\nactual lines written to " << actual_path;
}

}  // namespace
}  // namespace csce
