// Golden plans: Planner::MakePlan on a fixed sample of patterns must
// produce byte-identical plans to the ones recorded in
// tests/data/plan_golden.txt. Each line pins one plan: the order in
// full, the DAG edge count and SCE statistics, and a 64-bit FNV-1a
// digest of every compiled position (edge and negation constraints,
// deps, cache alias, seed, degree filters and label-pair masks).
//
// On a mismatch the test writes the lines it computed to
// <gtest TempDir>/plan_golden.actual; after an intended plan change,
// copy that file over tests/data/plan_golden.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "plan/planner.h"
#include "util/rng.h"

namespace csce {
namespace {

void AppendCluster(const ClusterId& c, std::ostringstream* s) {
  *s << c.src_label << '.' << c.dst_label << '.' << c.elabel << '.'
     << (c.directed ? 'd' : 'u');
}

// Every compiled field of every position, in a stable text form.
std::string PositionsText(const Plan& plan) {
  std::ostringstream s;
  for (const PlanPosition& p : plan.positions) {
    s << p.u << ':' << p.label << " e";
    for (const EdgeConstraint& e : p.edges) {
      s << ' ' << e.pos << '/';
      AppendCluster(e.cluster, &s);
      s << '/' << e.incoming;
    }
    s << " n";
    for (const NegConstraint& c : p.negations) {
      s << ' ' << c.pos << '/' << c.forbid_to << c.forbid_from << '/'
        << c.other_label;
    }
    s << " d";
    for (uint32_t d : p.deps) s << ' ' << d;
    s << " a" << p.cache_alias << " s" << p.seed_valid;
    if (p.seed_valid) {
      s << '/';
      AppendCluster(p.seed_cluster, &s);
      s << '/' << p.seed_use_sources;
    }
    s << " g" << p.min_out_degree << '/' << p.min_in_degree << " l"
      << std::hex << p.lpi_req_out << '/' << p.lpi_req_in << std::dec
      << ';';
  }
  return s.str();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : bytes) {
    h ^= static_cast<uint8_t>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenGraph {
  const char* name;
  Graph graph;
  Ccsr index;
};

// Option sets cycled over the sample, so the ablation paths that change
// what planning reads (no cluster tie-break, no LDSF, no NEC, no lpi)
// are pinned too.
PlanOptions OptionSet(uint32_t k) {
  PlanOptions o;
  switch (k % 4) {
    case 1:
      o.use_cluster_tiebreak = false;
      break;
    case 2:
      o.use_ldsf = false;
      break;
    case 3:
      o.use_nec = false;
      o.prune = NoPruneOptions();
      break;
    default:
      break;
  }
  return o;
}

// Appends one line per (graph, size, density, variant), continuing the
// running sample index `k` that seeds the pattern and picks the option
// set and whether the planner sees the index.
bool AppendGoldenLines(const std::vector<const GoldenGraph*>& graphs,
                       std::span<const uint32_t> sizes, uint32_t* k,
                       std::ostringstream* lines) {
  const MatchVariant kVariants[] = {MatchVariant::kEdgeInduced,
                                    MatchVariant::kVertexInduced,
                                    MatchVariant::kHomomorphic};
  for (const GoldenGraph* g : graphs) {
    for (uint32_t size : sizes) {
      for (PatternDensity density :
           {PatternDensity::kDense, PatternDensity::kSparse}) {
        for (MatchVariant variant : kVariants) {
          Rng rng(1000003ull * (*k + 1));
          Graph pattern;
          Status st = SamplePattern(g->graph, size, density, rng, &pattern);
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (!st.ok()) return false;
          const bool with_gc = *k % 3 != 2;
          Planner planner(with_gc ? &g->index : nullptr);
          Plan plan;
          st = planner.MakePlan(pattern, variant, OptionSet(*k), &plan);
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (!st.ok()) return false;
          *lines << g->name << " n=" << size << ' '
                 << (density == PatternDensity::kDense ? "dense" : "sparse")
                 << ' ' << VariantName(variant) << ' '
                 << (with_gc ? "gc" : "nogc") << " opt=" << *k % 4
                 << " order=";
          for (size_t i = 0; i < plan.order.size(); ++i) {
            *lines << (i == 0 ? "" : ",") << plan.order[i];
          }
          *lines << " dag=" << plan.dag_edges << " sce="
                 << plan.sce.pattern_vertices << '/'
                 << plan.sce.sce_vertices << '/'
                 << plan.sce.cluster_attributed << " pos=" << std::hex
                 << Fnv1a64(PositionsText(plan)) << std::dec << '\n';
          ++*k;
        }
      }
    }
  }
  return true;
}

std::string ComputeGoldenLines() {
  std::vector<GoldenGraph> graphs;
  graphs.push_back({"patent20", datasets::Patent(20), Ccsr()});
  graphs.push_back({"patent5", datasets::Patent(5), Ccsr()});
  graphs.push_back({"subcat", datasets::Subcategory(), Ccsr()});
  // 200 labels leave many label pairs without data edges, so empty
  // "(x,y)*-clusters" prune vertex-induced negations.
  graphs.push_back({"patent200", datasets::Patent(200), Ccsr()});
  for (GoldenGraph& g : graphs) g.index = Ccsr::Build(g.graph);

  std::ostringstream lines;
  uint32_t k = 0;
  const uint32_t kSizes[] = {5, 8, 12, 16, 24, 32, 48, 63, 64, 65, 128, 129,
                             200};
  if (!AppendGoldenLines({&graphs[0], &graphs[1], &graphs[2], &graphs[3]},
                         kSizes, &k, &lines)) {
    return "";
  }
  // The paper's plan-scale regime (Fig. 10), on the few- and
  // many-label Patent graphs.
  const uint32_t kPaperSizes[] = {512, 1000, 2000};
  if (!AppendGoldenLines({&graphs[0], &graphs[3]}, kPaperSizes, &k, &lines)) {
    return "";
  }
  return lines.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(PlanGoldenTest, PlansMatchRecordedGolden) {
  const std::string actual = ComputeGoldenLines();
  ASSERT_FALSE(actual.empty());

  const std::string golden_path =
      std::string(CSCE_TEST_DATA_DIR) + "/plan_golden.txt";
  std::ifstream in(golden_path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  const std::string actual_path = ::testing::TempDir() + "/plan_golden.actual";
  std::ofstream(actual_path, std::ios::binary) << actual;
  std::vector<std::string> want = SplitLines(golden.str());
  std::vector<std::string> got = SplitLines(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "plans differ from " << golden_path << " at line "
                << i + 1 << " (golden " << want.size() << " lines, actual "
                << got.size() << ")\n  golden: "
                << (i < want.size() ? want[i] : "<eof>")
                << "\n  actual: " << (i < got.size() ? got[i] : "<eof>")
                << "\nactual lines written to " << actual_path;
}

}  // namespace
}  // namespace csce
