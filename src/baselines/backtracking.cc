#include "baselines/backtracking.h"

#include <algorithm>
#include <unordered_map>

#include "baselines/fsp.h"
#include "plan/gcf.h"
#include "util/bitset.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csce {
namespace {

constexpr uint64_t kDeadlineCheckInterval = 16384;

// One backward edge to verify when extending the partial embedding.
struct BackEdge {
  uint32_t pos;     // earlier position holding the matched neighbor
  Label elabel;
  bool outgoing;    // pattern arc u -> w (verify data arc f(u) -> f(w))
};

struct BackNegation {
  uint32_t pos;
  bool forbid_to;
  bool forbid_from;
};

struct Restriction {
  uint32_t other_pos;
  bool require_greater;
};

class BtState {
 public:
  BtState(const Graph& data, const Graph& pattern,
          const BaselineOptions& options,
          const std::vector<std::pair<VertexId, VertexId>>& restrictions)
      : data_(data), pattern_(pattern), options_(options),
        raw_restrictions_(restrictions) {}

  Status Run(BaselineResult* result);

 private:
  bool BuildCandidates();  // false: some pattern vertex has none
  bool PassesNlf(VertexId u, VertexId v) const;
  bool StructuralOk(uint32_t depth, VertexId v) const;
  bool Enumerate(uint32_t depth, FailingSet* fs);
  bool EnumerateNoFsp(uint32_t depth);
  bool CheckDeadline();
  bool Emit();

  const Graph& data_;
  const Graph& pattern_;
  const BaselineOptions& options_;
  const std::vector<std::pair<VertexId, VertexId>>& raw_restrictions_;

  bool injective_ = true;
  bool fsp_ = false;
  std::vector<VertexId> order_;
  std::vector<uint32_t> pos_of_;
  std::vector<std::vector<BackEdge>> back_edges_;      // per position
  std::vector<std::vector<BackNegation>> negations_;   // per position
  std::vector<std::vector<Restriction>> restrictions_; // per position
  std::vector<std::vector<uint32_t>> anc_;             // per position: A(pos)
  std::vector<DynamicBitset> candidate_bits_;          // per pattern vertex
  std::vector<std::vector<VertexId>> candidate_lists_; // per pattern vertex
  std::vector<VertexId> mapping_;                      // per position
  std::vector<uint32_t> owner_;                        // data vertex -> pos
  std::vector<FailingSet> fs_pool_;
  WallTimer timer_;
  BaselineResult stats_;
  bool aborted_ = false;
  uint64_t deadline_counter_ = 0;
};

bool BtState::PassesNlf(VertexId u, VertexId v) const {
  // v must have at least as many neighbors of each label as u, per
  // direction for directed graphs.
  auto check = [this](std::span<const Neighbor> pu,
                      std::span<const Neighbor> pv) {
    std::unordered_map<Label, int> need;
    for (const Neighbor& n : pu) ++need[pattern_.VertexLabel(n.v)];
    if (need.empty()) return true;
    size_t satisfied = 0;
    for (const Neighbor& n : pv) {
      auto it = need.find(data_.VertexLabel(n.v));
      if (it == need.end()) continue;
      if (--it->second == 0 && ++satisfied == need.size()) return true;
    }
    return false;
  };
  if (!check(pattern_.OutNeighbors(u), data_.OutNeighbors(v))) return false;
  if (pattern_.directed() &&
      !check(pattern_.InNeighbors(u), data_.InNeighbors(v))) {
    return false;
  }
  return true;
}

bool BtState::BuildCandidates() {
  const uint32_t n = pattern_.NumVertices();
  candidate_bits_.assign(n, DynamicBitset(data_.NumVertices()));
  candidate_lists_.assign(n, {});
  // Degree and NLF filters assume injectivity (two pattern neighbors
  // of u can collapse onto one data vertex under homomorphism), so the
  // homomorphic variant keeps only the label filter.
  const bool degree_filters =
      options_.variant != MatchVariant::kHomomorphic;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < data_.NumVertices(); ++v) {
      if (data_.VertexLabel(v) != pattern_.VertexLabel(u)) continue;
      if (degree_filters) {
        // LDF: degree filtering.
        if (data_.OutDegree(v) < pattern_.OutDegree(u)) continue;
        if (pattern_.directed() &&
            data_.InDegree(v) < pattern_.InDegree(u)) {
          continue;
        }
        if (options_.use_nlf && !PassesNlf(u, v)) continue;
      }
      candidate_bits_[u].Set(v);
      candidate_lists_[u].push_back(v);
    }
    if (candidate_lists_[u].empty()) return false;
  }
  return true;
}

bool BtState::StructuralOk(uint32_t depth, VertexId v) const {
  VertexId u = order_[depth];
  if (!candidate_bits_[u].Test(v)) return false;
  for (const BackEdge& e : back_edges_[depth]) {
    VertexId w = mapping_[e.pos];
    bool ok = e.outgoing ? data_.HasEdge(v, w, e.elabel)
                         : data_.HasEdge(w, v, e.elabel);
    if (!ok) return false;
  }
  for (const BackNegation& c : negations_[depth]) {
    VertexId w = mapping_[c.pos];
    if (c.forbid_to && data_.HasEdge(v, w)) return false;
    if (c.forbid_from && data_.HasEdge(w, v)) return false;
  }
  for (const Restriction& r : restrictions_[depth]) {
    VertexId other = mapping_[r.other_pos];
    if (r.require_greater ? (v <= other) : (v >= other)) return false;
  }
  return true;
}

bool BtState::CheckDeadline() {
  if (options_.time_limit_seconds <= 0) return true;
  if (++deadline_counter_ % kDeadlineCheckInterval != 0) return true;
  if (timer_.Seconds() > options_.time_limit_seconds) {
    stats_.timed_out = true;
    aborted_ = true;
    return false;
  }
  return true;
}

bool BtState::Emit() {
  ++stats_.embeddings;
  if (options_.max_embeddings > 0 &&
      stats_.embeddings >= options_.max_embeddings) {
    stats_.limit_reached = true;
    aborted_ = true;
    return false;
  }
  return true;
}

// Candidate iteration shared by both enumeration modes: invokes
// `body(v)` for each data vertex reachable through the pivot backward
// neighbor (or the full candidate list at unanchored positions).
template <typename Body>
void ForEachExtension(const Graph& data, const Graph& pattern,
                      const std::vector<VertexId>& order,
                      const std::vector<std::vector<BackEdge>>& back_edges,
                      const std::vector<std::vector<VertexId>>& lists,
                      const std::vector<VertexId>& mapping, uint32_t depth,
                      Body&& body) {
  const auto& edges = back_edges[depth];
  if (edges.empty()) {
    for (VertexId v : lists[order[depth]]) {
      if (!body(v)) return;
    }
    return;
  }
  // Pivot: the backward neighbor whose relevant adjacency is smallest.
  const BackEdge* pivot = &edges[0];
  size_t best = SIZE_MAX;
  for (const BackEdge& e : edges) {
    VertexId w = mapping[e.pos];
    size_t size = e.outgoing ? data.InNeighbors(w).size()
                             : data.OutNeighbors(w).size();
    if (size < best) {
      best = size;
      pivot = &e;
    }
  }
  VertexId w = mapping[pivot->pos];
  // Pattern arc u -> w: extensions are in-neighbors of f(w); arc
  // w -> u (or undirected): out-neighbors.
  std::span<const Neighbor> nbrs =
      pivot->outgoing ? data.InNeighbors(w) : data.OutNeighbors(w);
  (void)pattern;
  for (const Neighbor& n : nbrs) {
    if (n.elabel != pivot->elabel) continue;
    if (!body(n.v)) return;
  }
}

bool BtState::EnumerateNoFsp(uint32_t depth) {
  const bool last = depth + 1 == order_.size();
  bool keep_going = true;
  ForEachExtension(
      data_, pattern_, order_, back_edges_, candidate_lists_, mapping_, depth,
      [&](VertexId v) {
        ++stats_.search_nodes;
        if (!CheckDeadline()) return keep_going = false;
        if (injective_ && owner_[v] != kInvalidVertex) return true;
        if (!StructuralOk(depth, v)) return true;
        mapping_[depth] = v;
        if (last) {
          if (!Emit()) return keep_going = false;
          return true;
        }
        owner_[v] = injective_ ? depth : owner_[v];
        bool ok = EnumerateNoFsp(depth + 1);
        if (injective_) owner_[v] = kInvalidVertex;
        if (!ok) return keep_going = false;
        return true;
      });
  mapping_[depth] = kInvalidVertex;
  return keep_going;
}

bool BtState::Enumerate(uint32_t depth, FailingSet* fs) {
  const bool last = depth + 1 == order_.size();
  fs->Clear();
  bool keep_going = true;
  bool any_structural = false;
  bool pruned = false;
  ForEachExtension(
      data_, pattern_, order_, back_edges_, candidate_lists_, mapping_, depth,
      [&](VertexId v) {
        ++stats_.search_nodes;
        if (!CheckDeadline()) return keep_going = false;
        if (!StructuralOk(depth, v)) return true;
        any_structural = true;
        if (owner_[v] != kInvalidVertex) {
          // Conflict: attribute to both ancestor sets (DAF case 2).
          for (uint32_t p : anc_[depth]) fs->Add(p);
          for (uint32_t p : anc_[owner_[v]]) fs->Add(p);
          return true;
        }
        mapping_[depth] = v;
        if (last) {
          fs->MarkFull();  // an embedding: ancestors must not prune
          if (!Emit()) return keep_going = false;
          return true;
        }
        owner_[v] = depth;
        FailingSet& child = fs_pool_[depth + 1];
        bool ok = Enumerate(depth + 1, &child);
        owner_[v] = kInvalidVertex;
        if (!ok) return keep_going = false;
        if (child.AllowsPruneAt(depth)) {
          // The subtree failed independently of this position's
          // mapping: every sibling fails identically (DAF case 3).
          fs->CopyFrom(child);
          pruned = true;
          return false;
        }
        fs->UnionWith(child);
        return true;
      });
  if (!any_structural && !pruned && keep_going) {
    // Empty candidate set: attribute to this position's ancestors.
    for (uint32_t p : anc_[depth]) fs->Add(p);
  }
  mapping_[depth] = kInvalidVertex;
  return keep_going;
}

Status BtState::Run(BaselineResult* result) {
  const uint32_t n = pattern_.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty pattern");
  if (pattern_.directed() != data_.directed()) {
    return Status::InvalidArgument(
        "pattern and data graph directedness differ");
  }
  stats_ = BaselineResult{};
  injective_ = options_.variant != MatchVariant::kHomomorphic;
  // FSP exploits injective, edge-induced semantics only (paper
  // Section I: "failing set pruning ... only applies to edge-induced").
  // Symmetry restrictions are not captured by failing sets, so the two
  // never combine (GraphPi does not use FSP either).
  fsp_ = options_.use_fsp && options_.variant == MatchVariant::kEdgeInduced &&
         raw_restrictions_.empty();

  WallTimer total;
  WallTimer stage;
  GcfOptions gcf;
  gcf.use_cluster_tiebreak = false;  // RI is data-oblivious
  order_ = GreatestConstraintFirstOrder(
      PatternContext(pattern_, nullptr, options_.variant), gcf);
  pos_of_.assign(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of_[order_[j]] = j;

  back_edges_.assign(n, {});
  negations_.assign(n, {});
  restrictions_.assign(n, {});
  anc_.assign(n, {});
  for (uint32_t j = 0; j < n; ++j) {
    VertexId u = order_[j];
    for (const Neighbor& nb : pattern_.OutNeighbors(u)) {
      uint32_t i = pos_of_[nb.v];
      if (i < j) {
        back_edges_[j].push_back(BackEdge{i, nb.elabel, /*outgoing=*/true});
      }
    }
    if (pattern_.directed()) {
      for (const Neighbor& nb : pattern_.InNeighbors(u)) {
        uint32_t i = pos_of_[nb.v];
        if (i < j) {
          back_edges_[j].push_back(BackEdge{i, nb.elabel, /*outgoing=*/false});
        }
      }
    } else {
      // Undirected: OutNeighbors covers everything; "outgoing" is
      // irrelevant because HasEdge is symmetric.
      for (BackEdge& e : back_edges_[j]) e.outgoing = false;
    }
    if (options_.variant == MatchVariant::kVertexInduced) {
      for (uint32_t i = 0; i < j; ++i) {
        VertexId w = order_[i];
        bool forbid_to;
        bool forbid_from;
        if (pattern_.directed()) {
          forbid_to = !pattern_.HasEdge(u, w);
          forbid_from = !pattern_.HasEdge(w, u);
        } else {
          bool adjacent = pattern_.HasEdge(u, w);
          forbid_to = !adjacent;
          forbid_from = !adjacent;
        }
        if (forbid_to || forbid_from) {
          negations_[j].push_back(BackNegation{i, forbid_to, forbid_from});
        }
      }
    }
    // A(u) must be the TRANSITIVE ancestor closure in the rooted query
    // DAG (DAF Section 5.2): a failure at u can be caused by any vertex
    // that transitively constrained u's candidates. Using only direct
    // backward neighbors makes the pruning unsound.
    anc_[j].push_back(j);
    for (const BackEdge& e : back_edges_[j]) {
      anc_[j].insert(anc_[j].end(), anc_[e.pos].begin(), anc_[e.pos].end());
    }
    std::sort(anc_[j].begin(), anc_[j].end());
    anc_[j].erase(std::unique(anc_[j].begin(), anc_[j].end()), anc_[j].end());
  }
  for (const auto& [a, b] : raw_restrictions_) {
    uint32_t pa = pos_of_[a];
    uint32_t pb = pos_of_[b];
    if (pa < pb) {
      restrictions_[pb].push_back(Restriction{pa, /*require_greater=*/true});
    } else {
      restrictions_[pa].push_back(Restriction{pb, /*require_greater=*/false});
    }
  }

  bool feasible = BuildCandidates();
  stats_.plan_seconds = stage.Seconds();

  stage.Restart();
  if (feasible) {
    mapping_.assign(n, kInvalidVertex);
    owner_.assign(data_.NumVertices(), kInvalidVertex);
    timer_.Restart();
    if (fsp_ && injective_) {
      fs_pool_.clear();
      fs_pool_.reserve(n + 1);
      for (uint32_t i = 0; i <= n; ++i) fs_pool_.emplace_back(n);
      Enumerate(0, &fs_pool_[0]);
    } else {
      EnumerateNoFsp(0);
    }
  }
  stats_.enumerate_seconds = stage.Seconds();
  stats_.total_seconds = total.Seconds();
  *result = stats_;
  return Status::OK();
}

}  // namespace

Status BacktrackingMatcher::Match(const Graph& pattern,
                                  const BaselineOptions& options,
                                  BaselineResult* result) const {
  static const std::vector<std::pair<VertexId, VertexId>> kNoRestrictions;
  return MatchWithRestrictions(pattern, options, kNoRestrictions, result);
}

Status BacktrackingMatcher::MatchWithRestrictions(
    const Graph& pattern, const BaselineOptions& options,
    const std::vector<std::pair<VertexId, VertexId>>& restrictions,
    BaselineResult* result) const {
  BtState state(*data_, pattern, options, restrictions);
  return state.Run(result);
}

}  // namespace csce
