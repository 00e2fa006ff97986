#include "baselines/join.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "engine/candidates.h"
#include "plan/gcf.h"
#include "util/bitset.h"
#include "util/timer.h"

namespace csce {
namespace {

constexpr uint64_t kDeadlineCheckInterval = 16384;

// The materialized relation of one pattern edge: adjacency in both join
// directions, with sorted neighbor lists.
struct Relation {
  std::unordered_map<VertexId, std::vector<VertexId>> forward;   // src->dsts
  std::unordered_map<VertexId, std::vector<VertexId>> backward;  // dst->srcs
  std::vector<VertexId> sources;  // sorted distinct keys of `forward`
  std::vector<VertexId> targets;  // sorted distinct keys of `backward`
};

constexpr uint32_t kNoRelation = 0xFFFFFFFFu;

struct Seed {
  uint32_t relation = kNoRelation;  // kNoRelation: label scan fallback
  bool use_sources = true;
};

struct JoinConstraint {
  uint32_t pos;         // earlier position of the matched endpoint
  uint32_t relation;    // pattern edge index
  bool from_forward;    // iterate relation.forward[f(w)] vs backward
};

struct JoinState {
  const Graph& data;
  const Graph& pattern;
  const BaselineOptions& options;

  std::vector<Relation> relations;  // one per logical pattern edge
  std::vector<VertexId> order;
  std::vector<std::vector<JoinConstraint>> constraints;  // per position
  std::vector<Seed> seeds;  // per position (first/unanchored only)
  std::vector<VertexId> mapping;
  DynamicBitset used;
  BaselineResult stats;
  WallTimer timer;
  bool aborted = false;
  bool injective = true;
  uint64_t deadline_counter = 0;

  bool CheckDeadline() {
    if (options.time_limit_seconds <= 0) return true;
    if (++deadline_counter % kDeadlineCheckInterval != 0) return true;
    if (timer.Seconds() > options.time_limit_seconds) {
      stats.timed_out = true;
      aborted = true;
      return false;
    }
    return true;
  }

  std::span<const VertexId> Adjacency(const JoinConstraint& c, VertexId w) {
    const Relation& r = relations[c.relation];
    const auto& map = c.from_forward ? r.forward : r.backward;
    auto it = map.find(w);
    if (it == map.end()) return {};
    return it->second;
  }

  bool Enumerate(uint32_t depth, std::vector<std::vector<VertexId>>* scratch) {
    std::vector<VertexId>& cands = (*scratch)[depth];
    cands.clear();
    if (constraints[depth].empty()) {
      if (seeds[depth].relation == kNoRelation) {
        // Isolated pattern vertex: scan by label.
        Label l = pattern.VertexLabel(order[depth]);
        for (VertexId v = 0; v < data.NumVertices(); ++v) {
          if (data.VertexLabel(v) == l) cands.push_back(v);
        }
      } else {
        const Relation& r = relations[seeds[depth].relation];
        cands = seeds[depth].use_sources ? r.sources : r.targets;
      }
    } else {
      // Intersect the relation adjacency lists, smallest first.
      std::vector<std::span<const VertexId>> lists;
      for (const JoinConstraint& c : constraints[depth]) {
        lists.push_back(Adjacency(c, mapping[c.pos]));
        if (lists.back().empty()) return true;
      }
      std::sort(lists.begin(), lists.end(),
                [](std::span<const VertexId> a, std::span<const VertexId> b) {
                  return a.size() < b.size();
                });
      cands.assign(lists[0].begin(), lists[0].end());
      for (size_t i = 1; i < lists.size() && !cands.empty(); ++i) {
        IntersectInPlace(&cands, lists[i]);
      }
    }
    const bool last = depth + 1 == order.size();
    for (VertexId v : cands) {
      ++stats.search_nodes;
      if (!CheckDeadline()) return false;
      if (injective && used.Test(v)) continue;
      mapping[depth] = v;
      if (last) {
        ++stats.embeddings;
        if (options.max_embeddings > 0 &&
            stats.embeddings >= options.max_embeddings) {
          stats.limit_reached = true;
          return false;
        }
      } else {
        if (injective) used.Set(v);
        bool ok = Enumerate(depth + 1, scratch);
        if (injective) used.Clear(v);
        if (!ok) return false;
      }
    }
    return true;
  }
};

}  // namespace

Status JoinMatcher::Match(const Graph& pattern,
                          const BaselineOptions& options,
                          BaselineResult* result) const {
  if (options.variant == MatchVariant::kVertexInduced) {
    return Status::NotSupported(
        "join baseline supports edge-induced and homomorphic matching only");
  }
  if (pattern.NumVertices() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  if (pattern.directed() != data_->directed()) {
    return Status::InvalidArgument(
        "pattern and data graph directedness differ");
  }
  const Graph& data = *data_;
  JoinState state{data, pattern, options, {}, {}, {}, {}, {}, {}, {}, {},
                  false, true, 0};
  state.injective = options.variant != MatchVariant::kHomomorphic;

  WallTimer total;
  WallTimer stage;

  // Materialize one relation per logical pattern edge by a single scan
  // over the data edges (this cost recurs per query — CCSR pays it once
  // offline).
  std::vector<Edge> pattern_edges = pattern.Edges();
  state.relations.resize(pattern_edges.size());
  struct EdgeKey {
    Label src;
    Label dst;
    Label elabel;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      uint64_t h = k.src;
      h = h * 0x100000001B3ull ^ k.dst;
      h = h * 0x100000001B3ull ^ k.elabel;
      return std::hash<uint64_t>{}(h);
    }
  };
  std::unordered_map<EdgeKey, std::vector<uint32_t>, EdgeKeyHash> wanted;
  for (uint32_t i = 0; i < pattern_edges.size(); ++i) {
    const Edge& e = pattern_edges[i];
    wanted[EdgeKey{pattern.VertexLabel(e.src), pattern.VertexLabel(e.dst),
                   e.elabel}]
        .push_back(i);
  }
  data.ForEachEdge([&](const Edge& arc) {
    auto insert = [&](VertexId s, VertexId d, Label ls, Label ld) {
      auto it = wanted.find(EdgeKey{ls, ld, arc.elabel});
      if (it == wanted.end()) return;
      for (uint32_t rel : it->second) {
        state.relations[rel].forward[s].push_back(d);
        state.relations[rel].backward[d].push_back(s);
      }
    };
    Label ls = data.VertexLabel(arc.src);
    Label ld = data.VertexLabel(arc.dst);
    insert(arc.src, arc.dst, ls, ld);
    if (!data.directed()) insert(arc.dst, arc.src, ld, ls);
  });
  for (Relation& r : state.relations) {
    for (auto& [v, list] : r.forward) std::sort(list.begin(), list.end());
    for (auto& [v, list] : r.backward) std::sort(list.begin(), list.end());
    r.sources.reserve(r.forward.size());
    for (const auto& [v, list] : r.forward) r.sources.push_back(v);
    std::sort(r.sources.begin(), r.sources.end());
    r.targets.reserve(r.backward.size());
    for (const auto& [v, list] : r.backward) r.targets.push_back(v);
    std::sort(r.targets.begin(), r.targets.end());
  }

  // RI ordering (data-oblivious, like the originals' default).
  GcfOptions gcf;
  gcf.use_cluster_tiebreak = false;
  state.order = GreatestConstraintFirstOrder(
      PatternContext(pattern, nullptr, options.variant), gcf);

  const uint32_t n = pattern.NumVertices();
  std::vector<uint32_t> pos_of(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of[state.order[j]] = j;
  state.constraints.assign(n, {});
  state.seeds.assign(n, Seed{});
  for (uint32_t i = 0; i < pattern_edges.size(); ++i) {
    const Edge& e = pattern_edges[i];
    uint32_t ps = pos_of[e.src];
    uint32_t pd = pos_of[e.dst];
    if (ps < pd) {
      // e.src matched first: extend e.dst through forward adjacency.
      state.constraints[pd].push_back(JoinConstraint{ps, i, true});
    } else {
      state.constraints[ps].push_back(JoinConstraint{pd, i, false});
    }
    // Undirected graphs: the relation holds both orientations already.
  }
  // Seed relations for unanchored positions: any incident pattern
  // edge, taken from the side where the position's vertex sits.
  for (uint32_t i = 0; i < pattern_edges.size(); ++i) {
    uint32_t ps = pos_of[pattern_edges[i].src];
    if (state.constraints[ps].empty()) state.seeds[ps] = Seed{i, true};
    uint32_t pd = pos_of[pattern_edges[i].dst];
    if (state.constraints[pd].empty()) state.seeds[pd] = Seed{i, false};
  }
  state.stats.plan_seconds = stage.Seconds();

  stage.Restart();
  state.mapping.assign(n, kInvalidVertex);
  state.used.Resize(data.NumVertices());
  state.timer.Restart();
  std::vector<std::vector<VertexId>> scratch(n);
  state.Enumerate(0, &scratch);
  state.stats.enumerate_seconds = stage.Seconds();
  state.stats.total_seconds = total.Seconds();
  *result = state.stats;
  return Status::OK();
}

}  // namespace csce
