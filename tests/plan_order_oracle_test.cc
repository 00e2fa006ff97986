// The planner's GCF order, LDSF order, NEC classes and NEC cache
// aliases against naive references: the straightforward versions that
// rescan the whole pattern at every step (GCF re-ranks every unmatched
// vertex from its full neighbor list, LDSF scans every vertex for the
// best ready one, NEC copies both neighborhoods per pair, the alias
// loop tries every earlier position). Random patterns cover what the
// sampled golden patterns cannot: isolated vertices and disconnected
// components (GCF's empty frontier), directed and undirected patterns,
// with and without data statistics and the cluster tie-break, at 1 to
// 512 vertices including the 63/64/65 word boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/ccsr.h"
#include "plan/dag.h"
#include "plan/descendants.h"
#include "plan/gcf.h"
#include "plan/ldsf.h"
#include "plan/nec.h"
#include "plan/pattern_context.h"
#include "plan/planner.h"
#include "tests/test_util.h"

namespace csce {
namespace {

constexpr uint64_t kNoCluster = PatternContext::kNoCluster;

// GCF, re-ranking every unmatched vertex at every step.
std::vector<VertexId> NaiveGcf(const PatternContext& ctx,
                               const GcfOptions& options) {
  struct Rank {
    uint32_t t1 = 0;
    uint32_t t2 = 0;
    uint32_t t3 = 0;
    uint64_t w1 = kNoCluster;
    uint64_t w2 = kNoCluster;
    uint64_t w3 = kNoCluster;
    VertexId vertex = kInvalidVertex;

    bool BetterThan(const Rank& o) const {
      if (t1 != o.t1) return t1 > o.t1;
      if (t2 != o.t2) return t2 > o.t2;
      if (t3 != o.t3) return t3 > o.t3;
      if (w1 != o.w1) return w1 < o.w1;
      if (w2 != o.w2) return w2 < o.w2;
      if (w3 != o.w3) return w3 < o.w3;
      return vertex < o.vertex;
    }
  };
  const uint32_t n = ctx.NumVertices();
  std::vector<VertexId> order;
  if (n == 0) return order;
  const bool sizes = options.use_cluster_tiebreak && ctx.data() != nullptr;
  std::vector<bool> matched(n, false);
  std::vector<uint32_t> matched_nbrs(n, 0);
  auto append = [&](VertexId v) {
    order.push_back(v);
    matched[v] = true;
    for (VertexId w : ctx.Neighbors(v)) ++matched_nbrs[w];
  };
  {
    VertexId best = 0;
    uint64_t best_cluster = kNoCluster;
    uint32_t best_degree = 0;
    for (VertexId v = 0; v < n; ++v) {
      uint32_t deg = static_cast<uint32_t>(ctx.Neighbors(v).size());
      uint64_t cluster = kNoCluster;
      if (sizes) {
        for (uint64_t s : ctx.NeighborClusterSizes(v)) {
          cluster = std::min(cluster, s);
        }
      }
      bool better = deg > best_degree ||
                    (deg == best_degree && cluster < best_cluster);
      if (v == 0 || better) {
        best = v;
        best_degree = deg;
        best_cluster = cluster;
      }
    }
    append(best);
  }
  for (uint32_t step = 1; step < n; ++step) {
    Rank best;
    for (VertexId x = 0; x < n; ++x) {
      if (matched[x]) continue;
      Rank r;
      r.vertex = x;
      std::span<const VertexId> nbrs = ctx.Neighbors(x);
      std::span<const uint64_t> cluster = ctx.NeighborClusterSizes(x);
      for (size_t k = 0; k < nbrs.size(); ++k) {
        const VertexId j = nbrs[k];
        const uint64_t w = sizes ? cluster[k] : kNoCluster;
        if (matched[j]) {
          ++r.t1;
          r.w1 = std::min(r.w1, w);
        } else if (matched_nbrs[j] > 0) {
          ++r.t2;
          r.w2 = std::min(r.w2, w);
        } else {
          ++r.t3;
          r.w3 = std::min(r.w3, w);
        }
      }
      if (best.vertex == kInvalidVertex || r.BetterThan(best)) best = r;
    }
    append(best.vertex);
  }
  return order;
}

// LDSF, scanning every vertex for the best ready one at every step.
std::vector<VertexId> NaiveLdsf(const DependencyDag& dag,
                                const PatternContext& ctx, bool use_data,
                                std::span<const uint32_t> descendant_sizes) {
  const uint32_t n = dag.NumVertices();
  const bool cluster_stats = use_data && ctx.data() != nullptr;
  std::vector<bool> ordered(n, false);
  auto min_cluster_to_ordered = [&](VertexId x) {
    std::span<const VertexId> nbrs = ctx.Neighbors(x);
    std::span<const uint64_t> cluster = ctx.NeighborClusterSizes(x);
    uint64_t best = kNoCluster;
    for (size_t k = 0; k < nbrs.size(); ++k) {
      if (ordered[nbrs[k]]) best = std::min(best, cluster[k]);
    }
    return best;
  };
  std::vector<uint32_t> pending(n);
  for (VertexId v = 0; v < n; ++v) pending[v] = dag.NumParents(v);
  std::vector<VertexId> order;
  for (uint32_t step = 0; step < n; ++step) {
    VertexId best = kInvalidVertex;
    uint32_t best_parents = 0;
    uint32_t best_desc = 0;
    uint64_t best_cluster = kNoCluster;
    uint64_t best_freq = kNoCluster;
    for (VertexId v = 0; v < n; ++v) {
      if (pending[v] != 0 || ordered[v]) continue;
      const uint32_t parents = dag.NumParents(v);
      const uint32_t desc = descendant_sizes[v];
      const uint64_t cluster =
          cluster_stats ? min_cluster_to_ordered(v) : kNoCluster;
      const uint64_t freq = ctx.LabelFrequency(v, use_data);
      bool better;
      if (best == kInvalidVertex) {
        better = true;
      } else if (parents != best_parents) {
        better = parents > best_parents;
      } else if (desc != best_desc) {
        better = desc > best_desc;
      } else if (cluster != best_cluster) {
        better = cluster < best_cluster;
      } else if (freq != best_freq) {
        better = freq < best_freq;
      } else {
        better = v < best;
      }
      if (better) {
        best = v;
        best_parents = parents;
        best_desc = desc;
        best_cluster = cluster;
        best_freq = freq;
      }
    }
    order.push_back(best);
    ordered[best] = true;
    dag.ForEachChild(best, [&](VertexId c) { --pending[c]; });
  }
  return order;
}

// NEC, copying both neighborhoods for every pair against every class.
std::vector<Neighbor> NeighborhoodExcluding(std::span<const Neighbor> nbrs,
                                            VertexId u, VertexId v) {
  std::vector<Neighbor> out;
  for (const Neighbor& n : nbrs) {
    if (n.v != u && n.v != v) out.push_back(n);
  }
  return out;
}

bool NaiveEquivalent(const Graph& p, VertexId u, VertexId v) {
  if (p.VertexLabel(u) != p.VertexLabel(v)) return false;
  if (NeighborhoodExcluding(p.OutNeighbors(u), u, v) !=
      NeighborhoodExcluding(p.OutNeighbors(v), v, u)) {
    return false;
  }
  if (p.directed() && NeighborhoodExcluding(p.InNeighbors(u), u, v) !=
                          NeighborhoodExcluding(p.InNeighbors(v), v, u)) {
    return false;
  }
  auto arcs_between = [&p](VertexId a, VertexId b) {
    std::vector<Label> labels;
    for (const Neighbor& n : p.OutNeighbors(a)) {
      if (n.v == b) labels.push_back(n.elabel);
    }
    return labels;
  };
  return arcs_between(u, v) == arcs_between(v, u);
}

std::vector<uint32_t> NaiveNec(const Graph& p) {
  std::vector<uint32_t> cls(p.NumVertices(), 0);
  std::vector<VertexId> representative;
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    bool assigned = false;
    for (uint32_t c = 0; c < representative.size() && !assigned; ++c) {
      if (NaiveEquivalent(p, representative[c], v)) {
        cls[v] = c;
        assigned = true;
      }
    }
    if (!assigned) {
      cls[v] = static_cast<uint32_t>(representative.size());
      representative.push_back(v);
    }
  }
  return cls;
}

bool SameBaseCandidates(const PlanPosition& a, const PlanPosition& b) {
  if (a.label != b.label) return false;
  if (a.edges != b.edges || a.negations != b.negations) return false;
  if (a.lpi_req_out != b.lpi_req_out || a.lpi_req_in != b.lpi_req_in) {
    return false;
  }
  if (a.edges.empty()) {
    if (a.seed_valid != b.seed_valid) return false;
    if (a.seed_valid &&
        (a.seed_cluster != b.seed_cluster ||
         a.seed_use_sources != b.seed_use_sources)) {
      return false;
    }
  }
  return true;
}

// The alias loop: each position shares the cache slot of the first
// earlier position of its NEC class with identical base candidates.
std::vector<int32_t> NaiveAliases(const Plan& plan,
                                  const std::vector<uint32_t>& nec) {
  const uint32_t n = static_cast<uint32_t>(plan.positions.size());
  std::vector<int32_t> alias(n, -1);
  for (uint32_t j = 1; j < n; ++j) {
    for (uint32_t i = 0; i < j; ++i) {
      if (nec[plan.positions[i].u] != nec[plan.positions[j].u]) continue;
      if (!SameBaseCandidates(plan.positions[i], plan.positions[j])) continue;
      alias[j] = alias[i] >= 0 ? alias[i] : static_cast<int32_t>(i);
      break;
    }
  }
  return alias;
}

// A pattern of about `avg_degree` edges per vertex: below 1, most
// vertices are isolated and the rest form small components.
Graph RandomPattern(Rng& rng, uint32_t n, double avg_degree, uint32_t labels,
                    bool directed) {
  const double p = n < 2 ? 0.0 : std::min(1.0, avg_degree / (n - 1));
  return testing::RandomGraph(rng, n, p, labels, /*edge_labels=*/2, directed);
}

void ExpectPlanningMatchesNaive(const Graph& p, const Ccsr* gc) {
  for (bool tiebreak : {true, false}) {
    GcfOptions options;
    options.use_cluster_tiebreak = tiebreak;
    const PatternContext ctx(p, gc, MatchVariant::kEdgeInduced);
    ASSERT_EQ(GreatestConstraintFirstOrder(ctx, options),
              NaiveGcf(ctx, options))
        << "tie-break " << tiebreak;
  }
  const std::vector<uint32_t> nec = ComputeNecClasses(p);
  ASSERT_EQ(nec, NaiveNec(p));

  for (MatchVariant variant :
       {MatchVariant::kEdgeInduced, MatchVariant::kVertexInduced,
        MatchVariant::kHomomorphic}) {
    SCOPED_TRACE(VariantName(variant));
    const PatternContext ctx(p, gc, variant);
    const DependencyDag dag =
        DependencyDag::Build(ctx, GreatestConstraintFirstOrder(ctx, {}));
    const std::vector<uint32_t> sizes = ComputeDescendantSizes(dag);
    for (bool use_data : {true, false}) {
      ASSERT_EQ(LargestDescendantFirstOrder(dag, ctx, use_data, sizes),
                NaiveLdsf(dag, ctx, use_data, sizes))
          << "use_data " << use_data;
    }

    Plan plan;
    ASSERT_TRUE(Planner(gc).MakePlan(p, variant, PlanOptions(), &plan).ok());
    const std::vector<int32_t> alias = NaiveAliases(plan, nec);
    for (uint32_t j = 0; j < plan.positions.size(); ++j) {
      ASSERT_EQ(plan.positions[j].cache_alias, alias[j]) << "position " << j;
    }
  }
}

TEST(PlanOrderOracleTest, GcfLdsfAndNecMatchNaiveReferences) {
  const uint32_t kSizes[] = {1, 2, 5, 63, 64, 65, 128, 512};
  // Below 1: mostly isolated vertices; 2.5: a few large components;
  // 8: connected, with many rank ties among high-degree vertices.
  const double kDegrees[] = {0.6, 2.5, 8.0};
  const uint32_t kLabels = 3;
  for (bool directed : {false, true}) {
    Rng data_rng(directed ? 17 : 11);
    const Ccsr index = Ccsr::Build(testing::RandomGraph(
        data_rng, 400, 0.02, kLabels, /*edge_labels=*/2, directed));
    uint64_t k = 0;
    for (uint32_t size : kSizes) {
      for (double degree : kDegrees) {
        ++k;
        Rng rng(104729 * k + directed);
        // One label makes NEC classes large; three make them split.
        const Graph p =
            RandomPattern(rng, size, degree, k % 2 == 0 ? 1 : kLabels,
                          directed);
        for (const Ccsr* gc : {&index, static_cast<const Ccsr*>(nullptr)}) {
          SCOPED_TRACE(::testing::Message()
                       << "size " << size << " degree " << degree
                       << (directed ? " directed" : " undirected")
                       << (gc == nullptr ? " nogc" : " gc"));
          ExpectPlanningMatchesNaive(p, gc);
        }
      }
    }
  }
}

}  // namespace
}  // namespace csce
