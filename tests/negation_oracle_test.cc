// Vertex-induced negation oracle: a Placement compares the executor's
// candidate set at every extension with a naive filter computed from
// the data and pattern graphs alone — the label class (narrowed to the
// seed cluster's endpoints at a seeded position), every pattern edge to
// an earlier position as a required data arc with its edge label, and
// every missing pattern arc as a forbidden data arc of any label. The
// label-pair prefilter is off, so nothing else may shrink the set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/executor.h"
#include "gen/pattern_gen.h"
#include "plan/planner.h"
#include "tests/test_util.h"

namespace csce {
namespace {

class NegationOracle : public Placement {
 public:
  NegationOracle(const Graph& data, const Graph& pattern, const Plan& plan)
      : data_(data), pattern_(pattern), plan_(plan) {}

  std::span<const VertexId> Place(Executor& exec, uint32_t depth,
                                  std::span<const VertexId> prefix,
                                  bool* /*routed*/) override {
    std::span<const VertexId> got = exec.Candidates(depth);
    const std::vector<VertexId> want = Naive(depth, prefix);
    ++checks_;
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      ++mismatches_;
      ADD_FAILURE() << "candidates at depth " << depth << ": executor "
                    << got.size() << ", naive " << want.size();
    }
    return got;
  }

  uint64_t checks() const { return checks_; }
  uint64_t mismatches() const { return mismatches_; }
  /// Candidates the naive filter dropped for a forbidden arc alone.
  uint64_t negated() const { return negated_; }

 private:
  // Whether v is an endpoint of the seed cluster on the seed's side.
  bool IsSeedEndpoint(VertexId v, const PlanPosition& pos) const {
    const ClusterId& c = pos.seed_cluster;
    auto fits = [&](const Neighbor& n, Label near, Label far) {
      return n.elabel == c.elabel && data_.VertexLabel(v) == near &&
             data_.VertexLabel(n.v) == far;
    };
    if (c.directed && pos.seed_use_sources) {
      for (const Neighbor& n : data_.OutNeighbors(v)) {
        if (fits(n, c.src_label, c.dst_label)) return true;
      }
      return false;
    }
    if (c.directed) {
      for (const Neighbor& n : data_.InNeighbors(v)) {
        if (fits(n, c.dst_label, c.src_label)) return true;
      }
      return false;
    }
    for (const Neighbor& n : data_.OutNeighbors(v)) {
      if (fits(n, c.src_label, c.dst_label) ||
          fits(n, c.dst_label, c.src_label)) {
        return true;
      }
    }
    return false;
  }

  std::vector<VertexId> Naive(uint32_t depth,
                              std::span<const VertexId> prefix) {
    const PlanPosition& pos = plan_.positions[depth];
    const VertexId u = pos.u;
    std::vector<VertexId> out;
    for (VertexId v = 0; v < data_.NumVertices(); ++v) {
      if (data_.VertexLabel(v) != pattern_.VertexLabel(u)) continue;
      if (pos.edges.empty() && pos.seed_valid && !IsSeedEndpoint(v, pos)) {
        continue;
      }
      // The LDF degree filter, as the plan compiled it.
      if ((pos.min_out_degree > 1 || pos.min_in_degree > 1) &&
          (data_.OutDegree(v) < pos.min_out_degree ||
           data_.InDegree(v) < pos.min_in_degree)) {
        continue;
      }
      bool edges_ok = true;
      bool forbidden = false;
      for (uint32_t i = 0; i < depth && edges_ok; ++i) {
        const VertexId w = plan_.positions[i].u;
        const VertexId fw = prefix[i];
        for (const Neighbor& n : pattern_.OutNeighbors(u)) {
          if (n.v == w && !data_.HasEdge(v, fw, n.elabel)) edges_ok = false;
        }
        if (pattern_.directed()) {
          for (const Neighbor& n : pattern_.InNeighbors(u)) {
            if (n.v == w && !data_.HasEdge(fw, v, n.elabel)) edges_ok = false;
          }
        }
        if (!pattern_.HasEdge(u, w) && data_.HasEdge(v, fw)) forbidden = true;
        if (!pattern_.HasEdge(w, u) && data_.HasEdge(fw, v)) forbidden = true;
      }
      if (!edges_ok) continue;
      if (forbidden) {
        ++negated_;
        continue;
      }
      out.push_back(v);
    }
    return out;
  }

  const Graph& data_;
  const Graph& pattern_;
  const Plan& plan_;
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t negated_ = 0;
};

struct OracleTotals {
  uint64_t checks = 0;
  uint64_t negated = 0;
  uint32_t max_positions = 0;
};

// Matches `pattern` vertex-induced under the oracle, with failing-set
// backjumping on or off; the time limit only bounds the work.
void RunUnderOracle(const Graph& data, const Ccsr& gc, const Graph& pattern,
                    bool fs, OracleTotals* totals) {
  Plan plan;
  ASSERT_TRUE(Planner(&gc)
                  .MakePlan(pattern, MatchVariant::kVertexInduced,
                            PlanOptions{}, &plan)
                  .ok());
  QueryClusters qc;
  ASSERT_TRUE(
      ReadClusters(gc, pattern, MatchVariant::kVertexInduced, &qc).ok());
  NegationOracle oracle(data, pattern, plan);
  ExecOptions options;
  options.placement = &oracle;
  options.prune.lpi = false;
  options.prune.fs = fs;
  options.max_embeddings = 20;
  options.time_limit_seconds = 0.5;
  Executor exec(gc, qc, plan);
  ExecStats stats;
  ASSERT_TRUE(exec.Run(options, &stats).ok());
  EXPECT_EQ(oracle.mismatches(), 0u);
  totals->checks += oracle.checks();
  totals->negated += oracle.negated();
  totals->max_positions = std::max(
      totals->max_positions, static_cast<uint32_t>(plan.positions.size()));
}

// Patterns sampled from the data (dense: induced, so at least one
// embedding exists; sparse: a spanning tree plus extra edges).
OracleTotals RunSample(const Graph& data, std::span<const uint32_t> sizes,
                       uint64_t seed) {
  const Ccsr gc = Ccsr::Build(data);
  OracleTotals totals;
  Rng rng(seed);
  for (uint32_t size : sizes) {
    for (PatternDensity density :
         {PatternDensity::kDense, PatternDensity::kSparse}) {
      Graph pattern;
      Status st = SamplePattern(data, size, density, rng, &pattern);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) continue;
      for (bool fs : {true, false}) {
        RunUnderOracle(data, gc, pattern, fs, &totals);
      }
    }
  }
  return totals;
}

TEST(NegationOracleTest, DirectedDataWithTwoEdgeLabels) {
  // Three vertex labels: most stars mix both orientations, so half of
  // their Out/In lookups do not fit the candidate's side.
  Rng rng(11);
  const Graph data = testing::RandomGraph(rng, 60, 0.08, 3, 2, true);
  const uint32_t sizes[] = {4, 6, 9, 12};
  const OracleTotals t = RunSample(data, sizes, 101);
  EXPECT_GT(t.checks, 100u);
  EXPECT_GT(t.negated, 0u);
}

TEST(NegationOracleTest, SameLabelNonNeighbors) {
  // One vertex label: every negation has L(u) == L(w).
  for (bool directed : {false, true}) {
    Rng rng(directed ? 13 : 12);
    const Graph data = testing::RandomGraph(rng, 50, 0.1, 1, 2, directed);
    const uint32_t sizes[] = {4, 7, 10};
    const OracleTotals t = RunSample(data, sizes, directed ? 103 : 102);
    EXPECT_GT(t.checks, 100u) << "directed=" << directed;
    EXPECT_GT(t.negated, 0u) << "directed=" << directed;
  }
}

TEST(NegationOracleTest, PatternsBeyondSixtyFourPositions) {
  // Failing-set words and negation records span two or more words.
  for (bool directed : {false, true}) {
    Rng rng(directed ? 15 : 14);
    const Graph data = testing::RandomGraph(rng, 140, 0.05, 2, 2, directed);
    const uint32_t sizes[] = {66, 80};
    const OracleTotals t = RunSample(data, sizes, directed ? 105 : 104);
    EXPECT_GT(t.max_positions, 64u) << "directed=" << directed;
    EXPECT_GT(t.checks, 100u) << "directed=" << directed;
    EXPECT_GT(t.negated, 0u) << "directed=" << directed;
  }
}

}  // namespace
}  // namespace csce
