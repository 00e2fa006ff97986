#include "plan/validate.h"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

namespace csce {
namespace {

std::string PosStr(uint32_t j, VertexId u) {
  return "position " + std::to_string(j) + " (pattern vertex " +
         std::to_string(u) + ")";
}

// Independent recompilation of the backward edge constraints of pattern
// vertex u at position j — the reference the compiled plan is checked
// against.
std::vector<EdgeConstraint> ExpectedEdgeConstraints(
    const Graph& pattern, VertexId u, uint32_t j,
    const std::vector<uint32_t>& pos_of) {
  std::vector<EdgeConstraint> expected;
  if (!pattern.directed()) {
    for (const Neighbor& n : pattern.OutNeighbors(u)) {
      uint32_t i = pos_of[n.v];
      if (i >= j) continue;
      ClusterId id = ClusterId::Undirected(pattern.VertexLabel(u),
                                           pattern.VertexLabel(n.v), n.elabel);
      expected.push_back(EdgeConstraint{i, id, /*incoming=*/false});
    }
  } else {
    for (const Neighbor& n : pattern.OutNeighbors(u)) {
      uint32_t i = pos_of[n.v];
      if (i >= j) continue;
      ClusterId id = ClusterId::Directed(pattern.VertexLabel(u),
                                         pattern.VertexLabel(n.v), n.elabel);
      expected.push_back(EdgeConstraint{i, id, /*incoming=*/true});
    }
    for (const Neighbor& n : pattern.InNeighbors(u)) {
      uint32_t i = pos_of[n.v];
      if (i >= j) continue;
      ClusterId id = ClusterId::Directed(pattern.VertexLabel(n.v),
                                         pattern.VertexLabel(u), n.elabel);
      expected.push_back(EdgeConstraint{i, id, /*incoming=*/false});
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const EdgeConstraint& a, const EdgeConstraint& b) {
              return std::tie(a.pos, a.cluster, a.incoming) <
                     std::tie(b.pos, b.cluster, b.incoming);
            });
  return expected;
}

std::vector<NegConstraint> ExpectedNegConstraints(
    const Graph& pattern, const Ccsr* gc, VertexId u, uint32_t j,
    std::span<const VertexId> order) {
  std::vector<NegConstraint> expected;
  for (uint32_t i = 0; i < j; ++i) {
    VertexId w = order[i];
    bool forbid_to;
    bool forbid_from;
    if (pattern.directed()) {
      forbid_to = !pattern.HasEdge(u, w);
      forbid_from = !pattern.HasEdge(w, u);
    } else {
      bool adjacent = pattern.HasEdge(u, w);
      forbid_to = !adjacent;
      forbid_from = !adjacent;
    }
    if (!forbid_to && !forbid_from) continue;
    Label lu = pattern.VertexLabel(u);
    Label lw = pattern.VertexLabel(w);
    // As the planner: a negation dependency is vacuous when no data
    // edge connects the two vertex labels at all.
    if (gc != nullptr && !gc->HasStarEdges(lu, lw)) continue;
    expected.push_back(NegConstraint{i, forbid_to, forbid_from, lw});
  }
  return expected;
}

// Mirrors planner.cc's CompileSeed: the smallest incident cluster.
void ExpectedSeed(const Graph& pattern, const Ccsr* gc, VertexId u,
                  bool* seed_valid, ClusterId* seed_cluster,
                  bool* seed_use_sources) {
  *seed_valid = false;
  uint64_t best_size = std::numeric_limits<uint64_t>::max();
  auto consider = [&](const ClusterId& id, bool use_sources) {
    uint64_t size = gc == nullptr ? 0 : gc->ClusterSize(id);
    if (!*seed_valid || size < best_size) {
      *seed_valid = true;
      *seed_cluster = id;
      *seed_use_sources = use_sources;
      best_size = size;
    }
  };
  if (!pattern.directed()) {
    for (const Neighbor& n : pattern.OutNeighbors(u)) {
      consider(ClusterId::Undirected(pattern.VertexLabel(u),
                                     pattern.VertexLabel(n.v), n.elabel),
               /*use_sources=*/true);
    }
    return;
  }
  for (const Neighbor& n : pattern.OutNeighbors(u)) {
    consider(ClusterId::Directed(pattern.VertexLabel(u),
                                 pattern.VertexLabel(n.v), n.elabel),
             /*use_sources=*/true);
  }
  for (const Neighbor& n : pattern.InNeighbors(u)) {
    consider(ClusterId::Directed(pattern.VertexLabel(n.v),
                                 pattern.VertexLabel(u), n.elabel),
             /*use_sources=*/false);
  }
}

// Mirrors planner.cc's SameBaseCandidates — the correctness condition
// for two positions sharing one SCE cache slot.
bool SameBaseCandidates(const PlanPosition& a, const PlanPosition& b) {
  if (a.label != b.label) return false;
  if (a.edges != b.edges || a.negations != b.negations) return false;
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

// True if exchanging u and v (fixing everything else) maps the labeled
// pattern onto itself.
bool SwapIsAutomorphism(const Graph& p, VertexId u, VertexId v) {
  if (p.VertexLabel(u) != p.VertexLabel(v)) return false;
  auto swap_image = [u, v](VertexId x) {
    if (x == u) return v;
    if (x == v) return u;
    return x;
  };
  bool ok = true;
  p.ForEachEdge([&](const Edge& e) {
    if (!ok) return;
    if (!p.HasEdge(swap_image(e.src), swap_image(e.dst), e.elabel)) {
      ok = false;
    }
  });
  return ok;
}

}  // namespace

Status ValidateDag(const DependencyDag& dag) {
  const uint32_t n = dag.NumVertices();
  size_t child_edges = 0;
  size_t parent_edges = 0;
  for (VertexId v = 0; v < n; ++v) {
    dag.ForEachChild(v, [&child_edges](VertexId) { ++child_edges; });
    // Every parent-row entry has its child-row edge; with equal totals
    // (checked below) the two rows mirror each other exactly.
    for (VertexId p : dag.Parents(v)) {
      ++parent_edges;
      if (!dag.HasEdge(p, v)) {
        return Status::Corruption(
            "dag: parent row of " + std::to_string(v) + " names " +
            std::to_string(p) + ", whose child row lacks the edge");
      }
    }
  }
  if (child_edges != parent_edges || child_edges != dag.NumEdges()) {
    return Status::Corruption(
        "dag: edge count mismatch (children " + std::to_string(child_edges) +
        ", parents " + std::to_string(parent_edges) + ", declared " +
        std::to_string(dag.NumEdges()) + ")");
  }

  // Kahn's algorithm: all vertices must drain, else there is a cycle.
  std::vector<uint32_t> indegree(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    indegree[v] = dag.NumParents(v);
  }
  std::vector<VertexId> ready;
  for (VertexId v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  uint32_t drained = 0;
  while (!ready.empty()) {
    VertexId v = ready.back();
    ready.pop_back();
    ++drained;
    dag.ForEachChild(v, [&](VertexId c) {
      if (--indegree[c] == 0) ready.push_back(c);
    });
  }
  if (drained != n) {
    return Status::Corruption("dag: cycle detected (" +
                              std::to_string(n - drained) +
                              " vertices never became ready)");
  }
  return Status::OK();
}

Status ValidateTopologicalOrder(const DependencyDag& dag,
                                std::span<const VertexId> order) {
  const uint32_t n = dag.NumVertices();
  if (order.size() != n) {
    return Status::Corruption("order has " + std::to_string(order.size()) +
                              " entries for " + std::to_string(n) +
                              " dag vertices");
  }
  std::vector<uint32_t> pos(n, n);
  for (uint32_t j = 0; j < n; ++j) {
    VertexId u = order[j];
    if (u >= n) {
      return Status::Corruption("order entry " + std::to_string(j) +
                                " out of range");
    }
    if (pos[u] != n) {
      return Status::Corruption("vertex " + std::to_string(u) +
                                " appears twice in the order");
    }
    pos[u] = j;
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId c : dag.Children(u)) {
      if (pos[u] >= pos[c]) {
        return Status::Corruption(
            "order is not topological: dependency " + std::to_string(u) +
            " -> " + std::to_string(c) + " but positions " +
            std::to_string(pos[u]) + " >= " + std::to_string(pos[c]));
      }
    }
  }
  return Status::OK();
}

Status ValidateNecClasses(const Graph& pattern,
                          std::span<const uint32_t> classes) {
  const uint32_t n = pattern.NumVertices();
  if (classes.size() != n) {
    return Status::Corruption("nec: " + std::to_string(classes.size()) +
                              " class entries for " + std::to_string(n) +
                              " pattern vertices");
  }
  // Dense ids ordered by first appearance.
  uint32_t next_new = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (classes[v] > next_new) {
      return Status::Corruption("nec: class ids not dense/ordered at vertex " +
                                std::to_string(v));
    }
    if (classes[v] == next_new) ++next_new;
  }
  // Soundness: every same-class pair must be exchangeable.
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (classes[u] != classes[v]) continue;
      if (!SwapIsAutomorphism(pattern, u, v)) {
        return Status::Corruption(
            "nec: vertices " + std::to_string(u) + " and " +
            std::to_string(v) + " share class " + std::to_string(classes[u]) +
            " but exchanging them is not an automorphism");
      }
    }
  }
  return Status::OK();
}

Status ValidatePlan(const Ccsr* data, const Graph& pattern, const Plan& plan) {
  const uint32_t n = pattern.NumVertices();
  if (plan.order.size() != n || plan.positions.size() != n) {
    return Status::Corruption(
        "plan: order/positions sized " + std::to_string(plan.order.size()) +
        "/" + std::to_string(plan.positions.size()) + " for a pattern of " +
        std::to_string(n) + " vertices");
  }
  std::vector<uint32_t> pos_of(n, n);
  for (uint32_t j = 0; j < n; ++j) {
    VertexId u = plan.order[j];
    if (u >= n) {
      return Status::Corruption("plan: order entry " + std::to_string(j) +
                                " out of range");
    }
    if (pos_of[u] != n) {
      return Status::Corruption("plan: vertex " + std::to_string(u) +
                                " appears twice in the order");
    }
    pos_of[u] = j;
  }

  for (uint32_t j = 0; j < n; ++j) {
    const PlanPosition& pos = plan.positions[j];
    const VertexId u = plan.order[j];
    if (pos.u != u) {
      return Status::Corruption("plan: " + PosStr(j, u) +
                                " compiled for vertex " +
                                std::to_string(pos.u) +
                                " (order and positions disagree)");
    }
    if (pos.label != pattern.VertexLabel(u)) {
      return Status::Corruption("plan: " + PosStr(j, u) + " has label " +
                                std::to_string(pos.label) +
                                ", pattern says " +
                                std::to_string(pattern.VertexLabel(u)));
    }

    std::vector<EdgeConstraint> expected_edges =
        ExpectedEdgeConstraints(pattern, u, j, pos_of);
    if (pos.edges != expected_edges) {
      return Status::Corruption(
          "plan: " + PosStr(j, u) + " has " +
          std::to_string(pos.edges.size()) + " edge constraints, expected " +
          std::to_string(expected_edges.size()) +
          " (recompiled from the pattern)");
    }

    std::vector<NegConstraint> expected_negs;
    if (plan.variant == MatchVariant::kVertexInduced) {
      expected_negs = ExpectedNegConstraints(pattern, data, u, j, plan.order);
    }
    if (pos.negations != expected_negs) {
      return Status::Corruption(
          "plan: " + PosStr(j, u) + " has " +
          std::to_string(pos.negations.size()) +
          " negation constraints, expected " +
          std::to_string(expected_negs.size()));
    }

    std::vector<uint32_t> expected_deps;
    for (const EdgeConstraint& e : pos.edges) expected_deps.push_back(e.pos);
    for (const NegConstraint& c : pos.negations) {
      expected_deps.push_back(c.pos);
    }
    std::sort(expected_deps.begin(), expected_deps.end());
    expected_deps.erase(
        std::unique(expected_deps.begin(), expected_deps.end()),
        expected_deps.end());
    if (pos.deps != expected_deps) {
      return Status::Corruption("plan: " + PosStr(j, u) +
                                " dependency list is not the sorted unique "
                                "union of its constraints");
    }

    if (pos.edges.empty()) {
      bool seed_valid = false;
      ClusterId seed_cluster;
      bool seed_use_sources = true;
      ExpectedSeed(pattern, data, u, &seed_valid, &seed_cluster,
                   &seed_use_sources);
      if (pos.seed_valid != seed_valid ||
          (seed_valid && (pos.seed_cluster != seed_cluster ||
                          pos.seed_use_sources != seed_use_sources))) {
        return Status::Corruption("plan: " + PosStr(j, u) +
                                  " seed cluster differs from the smallest "
                                  "incident cluster");
      }
    } else if (pos.seed_valid) {
      return Status::Corruption("plan: " + PosStr(j, u) +
                                " carries both edge constraints and a seed");
    }

    const bool expect_filter = plan.variant != MatchVariant::kHomomorphic;
    uint32_t expect_out = pattern.OutDegree(u);
    uint32_t expect_in = pattern.directed() ? pattern.InDegree(u) : 0;
    bool filter_off = pos.min_out_degree == 0 && pos.min_in_degree == 0;
    bool filter_exact =
        pos.min_out_degree == expect_out && pos.min_in_degree == expect_in;
    if (expect_filter ? (!filter_off && !filter_exact) : !filter_off) {
      return Status::Corruption("plan: " + PosStr(j, u) +
                                " degree filter (" +
                                std::to_string(pos.min_out_degree) + ", " +
                                std::to_string(pos.min_in_degree) +
                                ") does not match the pattern degrees");
    }

    if (pos.cache_alias >= 0) {
      uint32_t alias = static_cast<uint32_t>(pos.cache_alias);
      if (alias >= j) {
        return Status::Corruption("plan: " + PosStr(j, u) +
                                  " aliases a later position " +
                                  std::to_string(alias));
      }
      if (plan.positions[alias].cache_alias >= 0) {
        return Status::Corruption("plan: " + PosStr(j, u) +
                                  " aliases a non-root cache slot");
      }
      if (!SameBaseCandidates(plan.positions[alias], pos)) {
        return Status::Corruption(
            "plan: " + PosStr(j, u) + " shares a cache slot with position " +
            std::to_string(alias) +
            " but their base candidate definitions differ");
      }
    }
  }

  // The order must be a topological order of its dependency DAG (the
  // LDSF contract), and the recorded diagnostics must match.
  DependencyDag dag = DependencyDag::Build(
      PatternContext(pattern, data, plan.variant), plan.order);
  CSCE_RETURN_IF_ERROR(ValidateDag(dag));
  CSCE_RETURN_IF_ERROR(ValidateTopologicalOrder(dag, plan.order));
  if (plan.dag_edges != dag.NumEdges()) {
    return Status::Corruption("plan: records " +
                              std::to_string(plan.dag_edges) +
                              " dag edges, rebuild found " +
                              std::to_string(dag.NumEdges()));
  }
  return Status::OK();
}

}  // namespace csce
