#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "plan/planner.h"
#include "util/logging.h"

namespace csce {
namespace {

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();
// Selectivity applied per backward edge beyond the tightest one.
constexpr double kExtraEdgeSelectivity = 0.2;

struct ClusterStats {
  double size = 0;               // edges in the cluster
  double distinct_sources = 1;   // non-empty out rows
  double distinct_targets = 1;   // non-empty in rows
};

ClusterStats StatsFor(const Ccsr& gc, const ClusterId& id) {
  ClusterStats s;
  const CompressedCluster* c = gc.Find(id);
  if (c == nullptr) return s;  // empty cluster: size 0
  s.size = static_cast<double>(c->num_edges);
  s.distinct_sources = std::max<double>(1, c->out.ids.size());
  if (id.directed) {
    s.distinct_targets = std::max<double>(1, c->in.ids.size());
  } else {
    // Undirected clusters store both orientations in one CSR.
    s.distinct_targets = s.distinct_sources;
  }
  return s;
}

// Expected number of cluster-neighbors of a mapped vertex when
// extending through the pattern arc (w -> u if `incoming` is false,
// u -> w otherwise, matching EdgeConstraint semantics).
double Fanout(const Graph& pattern, const Ccsr& gc, VertexId u, VertexId w,
              Label elabel, bool arc_from_w) {
  ClusterId id;
  if (!pattern.directed()) {
    id = ClusterId::Undirected(pattern.VertexLabel(u), pattern.VertexLabel(w),
                               elabel);
    ClusterStats s = StatsFor(gc, id);
    if (s.size == 0) return 0;
    // 2 * edges arcs over distinct endpoints.
    return 2.0 * s.size / s.distinct_sources;
  }
  if (arc_from_w) {
    id = ClusterId::Directed(pattern.VertexLabel(w), pattern.VertexLabel(u),
                             elabel);
    ClusterStats s = StatsFor(gc, id);
    return s.size == 0 ? 0 : s.size / s.distinct_sources;
  }
  id = ClusterId::Directed(pattern.VertexLabel(u), pattern.VertexLabel(w),
                           elabel);
  ClusterStats s = StatsFor(gc, id);
  return s.size == 0 ? 0 : s.size / s.distinct_targets;
}

// Seed cardinality of starting at pattern vertex u: the distinct
// endpoint count of its smallest incident cluster (or the label
// frequency for isolated vertices).
double SeedCardinality(const Graph& pattern, const Ccsr& gc, VertexId u) {
  double best = kInfiniteCost;
  for (const Neighbor& n : pattern.OutNeighbors(u)) {
    if (!pattern.directed()) {
      ClusterStats s = StatsFor(
          gc, ClusterId::Undirected(pattern.VertexLabel(u),
                                    pattern.VertexLabel(n.v), n.elabel));
      best = std::min(best, s.size == 0 ? 0.0 : s.distinct_sources);
    } else {
      ClusterStats s = StatsFor(
          gc, ClusterId::Directed(pattern.VertexLabel(u),
                                  pattern.VertexLabel(n.v), n.elabel));
      best = std::min(best, s.size == 0 ? 0.0 : s.distinct_sources);
    }
  }
  if (pattern.directed()) {
    for (const Neighbor& n : pattern.InNeighbors(u)) {
      ClusterStats s = StatsFor(
          gc, ClusterId::Directed(pattern.VertexLabel(n.v),
                                  pattern.VertexLabel(u), n.elabel));
      best = std::min(best, s.size == 0 ? 0.0 : s.distinct_targets);
    }
  }
  if (best == kInfiniteCost) {
    best = gc.LabelFrequency(pattern.VertexLabel(u));  // isolated vertex
  }
  return best;
}

// Expected extensions when appending u to a prefix whose membership is
// given by `chosen`: the tightest backward fan-out discounted per
// additional backward edge. Returns -1 if u has no backward edge.
double ExtensionFactor(const Graph& pattern, const Ccsr& gc, VertexId u,
                       const std::vector<bool>& chosen) {
  double best_fan = kInfiniteCost;
  int backward_edges = 0;
  for (const Neighbor& n : pattern.OutNeighbors(u)) {
    if (!chosen[n.v]) continue;
    ++backward_edges;
    best_fan = std::min(
        best_fan,
        Fanout(pattern, gc, u, n.v, n.elabel, !pattern.directed()));
  }
  if (pattern.directed()) {
    for (const Neighbor& n : pattern.InNeighbors(u)) {
      if (!chosen[n.v]) continue;
      ++backward_edges;
      best_fan = std::min(
          best_fan, Fanout(pattern, gc, u, n.v, n.elabel, true));
    }
  }
  if (backward_edges == 0) return -1;
  return best_fan * std::pow(kExtraEdgeSelectivity, backward_edges - 1);
}

}  // namespace

double EstimateOrderCost(const Graph& pattern, const Ccsr& gc,
                         std::span<const VertexId> order) {
  CSCE_CHECK(order.size() == pattern.NumVertices());
  if (order.empty()) return 0;
  std::vector<bool> chosen(pattern.NumVertices(), false);
  double card = SeedCardinality(pattern, gc, order[0]);
  double cost = card;
  chosen[order[0]] = true;
  for (size_t j = 1; j < order.size(); ++j) {
    double factor = ExtensionFactor(pattern, gc, order[j], chosen);
    if (factor < 0) {
      // Disconnected extension: Cartesian with its seed candidates.
      factor = SeedCardinality(pattern, gc, order[j]);
    }
    card = std::max(card * factor, 0.0);
    cost += card;
    chosen[order[j]] = true;
  }
  return cost;
}

std::vector<VertexId> CostBasedOrder(const Graph& pattern, const Ccsr& gc,
                                     uint32_t beam_width) {
  const uint32_t n = pattern.NumVertices();
  CSCE_CHECK(beam_width >= 1);
  if (n == 0) return {};

  struct State {
    std::vector<VertexId> order;
    std::vector<bool> chosen;
    double card = 0;
    double cost = 0;
  };

  // Initial beam: the cheapest seed vertices.
  std::vector<State> beam;
  {
    std::vector<std::pair<double, VertexId>> seeds;
    for (VertexId u = 0; u < n; ++u) {
      seeds.emplace_back(SeedCardinality(pattern, gc, u), u);
    }
    std::sort(seeds.begin(), seeds.end());
    for (uint32_t i = 0; i < beam_width && i < seeds.size(); ++i) {
      State s;
      s.order = {seeds[i].second};
      s.chosen.assign(n, false);
      s.chosen[seeds[i].second] = true;
      s.card = seeds[i].first;
      s.cost = s.card;
      beam.push_back(std::move(s));
    }
  }

  for (uint32_t step = 1; step < n; ++step) {
    std::vector<State> next;
    for (const State& s : beam) {
      bool any_connected = false;
      for (VertexId u = 0; u < n; ++u) {
        if (s.chosen[u]) continue;
        double factor = ExtensionFactor(pattern, gc, u, s.chosen);
        if (factor < 0) continue;  // prefer connected extensions
        any_connected = true;
        State t = s;
        t.order.push_back(u);
        t.chosen[u] = true;
        t.card = s.card * factor;
        t.cost = s.cost + t.card;
        next.push_back(std::move(t));
      }
      if (!any_connected) {
        // Disconnected pattern: fall back to the cheapest seed.
        VertexId best = kInvalidVertex;
        double best_seed = kInfiniteCost;
        for (VertexId u = 0; u < n; ++u) {
          if (s.chosen[u]) continue;
          double seed = SeedCardinality(pattern, gc, u);
          if (seed < best_seed) {
            best_seed = seed;
            best = u;
          }
        }
        State t = s;
        t.order.push_back(best);
        t.chosen[best] = true;
        t.card = s.card * std::max(best_seed, 1.0);
        t.cost = s.cost + t.card;
        next.push_back(std::move(t));
      }
    }
    std::sort(next.begin(), next.end(), [](const State& a, const State& b) {
      if (a.cost != b.cost) return a.cost < b.cost;
      return a.order < b.order;  // deterministic tie-break
    });
    if (next.size() > beam_width) next.resize(beam_width);
    beam = std::move(next);
  }
  CSCE_CHECK(!beam.empty());
  return beam[0].order;
}

}  // namespace csce
