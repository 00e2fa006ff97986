#include "plan/planner.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/cost_model.h"
#include "plan/descendants.h"
#include "plan/gcf.h"
#include "plan/ldsf.h"
#include "plan/nec.h"
#include "plan/pattern_context.h"
#include "util/logging.h"
#include "util/timer.h"

namespace csce {
namespace {

struct PlanMetrics {
  obs::Counter plans;
  obs::Counter gcf_orders;
  obs::Counter cost_based_orders;
  obs::Counter ldsf_refinements;
  obs::Counter nec_aliases;
  obs::Histogram nec_class_size;

  static const PlanMetrics& Get() {
    static const PlanMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return PlanMetrics{r.counter("plan.plans"),
                         r.counter("plan.gcf_orders"),
                         r.counter("plan.cost_based_orders"),
                         r.counter("plan.ldsf_refinements"),
                         r.counter("plan.nec_aliases"),
                         r.histogram("plan.nec_class_size")};
    }();
    return m;
  }
};

// Fills `pos->edges` with the backward edge constraints of pattern
// vertex u at position j.
void CompileEdgeConstraints(const Graph& pattern, VertexId u, uint32_t j,
                            const std::vector<uint32_t>& pos_of,
                            PlanPosition* pos) {
  if (!pattern.directed()) {
    for (const Neighbor& n : pattern.OutNeighbors(u)) {
      uint32_t i = pos_of[n.v];
      if (i >= j) continue;
      ClusterId id = ClusterId::Undirected(pattern.VertexLabel(u),
                                           pattern.VertexLabel(n.v), n.elabel);
      pos->edges.push_back(EdgeConstraint{i, id, /*incoming=*/false});
    }
    return;
  }
  for (const Neighbor& n : pattern.OutNeighbors(u)) {
    uint32_t i = pos_of[n.v];
    if (i >= j) continue;
    // Pattern arc u -> w: candidates are incoming cluster-neighbors of
    // f(w) in the (L(u), L(w)) cluster.
    ClusterId id = ClusterId::Directed(pattern.VertexLabel(u),
                                       pattern.VertexLabel(n.v), n.elabel);
    pos->edges.push_back(EdgeConstraint{i, id, /*incoming=*/true});
  }
  for (const Neighbor& n : pattern.InNeighbors(u)) {
    uint32_t i = pos_of[n.v];
    if (i >= j) continue;
    // Pattern arc w -> u: candidates are outgoing cluster-neighbors.
    ClusterId id = ClusterId::Directed(pattern.VertexLabel(n.v),
                                       pattern.VertexLabel(u), n.elabel);
    pos->edges.push_back(EdgeConstraint{i, id, /*incoming=*/false});
  }
}

void CompileNegConstraints(const PatternContext& ctx, VertexId u, uint32_t j,
                           std::span<const VertexId> order,
                           PlanPosition* pos) {
  const Graph& pattern = ctx.pattern();
  for (uint32_t i = 0; i < j; ++i) {
    VertexId w = order[i];
    bool forbid_to = !ctx.HasArc(u, w);
    bool forbid_from = !ctx.HasArc(w, u);
    if (!forbid_to && !forbid_from) continue;
    // Vacuous without data edges between the labels (conservative
    // without data statistics).
    if (!ctx.StarNonEmpty(u, w)) continue;
    pos->negations.push_back(
        NegConstraint{i, forbid_to, forbid_from, pattern.VertexLabel(w)});
  }
}

// Chooses the seed cluster for a position with no backward edges: the
// smallest cluster among the vertex's incident pattern edges.
void CompileSeed(const Graph& pattern, const Ccsr* gc, VertexId u,
                 PlanPosition* pos) {
  uint64_t best_size = std::numeric_limits<uint64_t>::max();
  auto consider = [&](const ClusterId& id, bool use_sources) {
    uint64_t size = gc == nullptr ? 0 : gc->ClusterSize(id);
    if (!pos->seed_valid || size < best_size) {
      pos->seed_valid = true;
      pos->seed_cluster = id;
      pos->seed_use_sources = use_sources;
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

bool SameBaseCandidates(const PlanPosition& a, const PlanPosition& b) {
  if (a.label != b.label) return false;
  if (a.edges != b.edges || a.negations != b.negations) return false;
  // The lpi prefilter is applied inside the shared candidate
  // computation, so aliased positions must demand identical masks.
  if (a.lpi_req_out != b.lpi_req_out || a.lpi_req_in != b.lpi_req_in) {
    return false;
  }
  if (a.edges.empty()) {
    // Seeded positions: same seed source required.
    if (a.seed_valid != b.seed_valid) return false;
    if (a.seed_valid &&
        (a.seed_cluster != b.seed_cluster ||
         a.seed_use_sources != b.seed_use_sources)) {
      return false;
    }
  }
  return true;
}

// Label-pair filter masks (engine/prune/prune.h, pass "lpi"). Each
// backward edge constraint at a later position q demands that the
// vertex placed at position e.pos can still reach a neighbor with q's
// label in the right direction; folded into per-position bitmasks
// checked against the CCSR label-pair index. Edges toward EARLIER
// positions are already enforced by intersection.
//
// Bits the position's candidate source already guarantees are then
// cleared, so the executor skips the filter pass outright when both
// masks end up zero:
//  - a seeded position drawn from cluster (a -> b) sources has an
//    out-neighbor labelled b (targets: an in-neighbor labelled a);
//  - a position drawn from Out(f(p)) has an in-neighbor labelled like
//    p (In(f(p)): an out-neighbor).
// Undirected graphs keep one mask (Ccsr::InLabelMask == OutLabelMask),
// carried in lpi_req_out.
void CompileLabelPairMasks(bool directed, Plan* plan) {
  std::vector<PlanPosition>& positions = plan->positions;
  for (const PlanPosition& q : positions) {
    const uint64_t bit = Ccsr::LabelBit(q.label);
    for (const EdgeConstraint& e : q.edges) {
      PlanPosition& dep = positions[e.pos];
      (e.incoming ? dep.lpi_req_in : dep.lpi_req_out) |= bit;
    }
  }
  for (PlanPosition& pos : positions) {
    // `out_side`: the guaranteed neighbor is an out-neighbor.
    auto implied = [&](bool out_side, Label l) {
      (out_side || !directed ? pos.lpi_req_out : pos.lpi_req_in) &=
          ~Ccsr::LabelBit(l);
    };
    for (const EdgeConstraint& e : pos.edges) {
      implied(/*out_side=*/e.incoming, positions[e.pos].label);
    }
    if (pos.edges.empty() && pos.seed_valid) {
      const ClusterId& c = pos.seed_cluster;
      if (!directed) {
        implied(true, c.src_label == pos.label ? c.dst_label : c.src_label);
      } else if (pos.seed_use_sources) {
        implied(true, c.dst_label);
      } else {
        implied(false, c.src_label);
      }
    }
  }
}

// Compiles every position of `plan->order`: degree filters, backward
// edge and negation constraints, the seed of an unconstrained position,
// dependencies, and the prune directives.
void CompilePositions(const PatternContext& ctx, const Ccsr* gc,
                      const PlanOptions& options, Plan* plan) {
  const Graph& pattern = ctx.pattern();
  const MatchVariant variant = ctx.variant();
  const uint32_t n = pattern.NumVertices();
  std::vector<uint32_t> pos_of(n, 0);
  for (uint32_t j = 0; j < n; ++j) pos_of[plan->order[j]] = j;
  plan->positions.resize(n);
  for (uint32_t j = 0; j < n; ++j) {
    PlanPosition& pos = plan->positions[j];
    pos.u = plan->order[j];
    pos.label = pattern.VertexLabel(pos.u);
    if (variant != MatchVariant::kHomomorphic && options.use_degree_filter) {
      // LDF: injectivity forces f(u) to host distinct images of all of
      // u's pattern neighbors. Not valid under homomorphism, where
      // neighbors may collapse onto one data vertex.
      pos.min_out_degree = pattern.OutDegree(pos.u);
      pos.min_in_degree = pattern.directed() ? pattern.InDegree(pos.u) : 0;
    }
    CompileEdgeConstraints(pattern, pos.u, j, pos_of, &pos);
    if (variant == MatchVariant::kVertexInduced) {
      CompileNegConstraints(ctx, pos.u, j, plan->order, &pos);
    }
    std::sort(pos.edges.begin(), pos.edges.end(),
              [](const EdgeConstraint& a, const EdgeConstraint& b) {
                return std::tie(a.pos, a.cluster, a.incoming) <
                       std::tie(b.pos, b.cluster, b.incoming);
              });
    if (pos.edges.empty()) CompileSeed(pattern, gc, pos.u, &pos);
    for (const EdgeConstraint& e : pos.edges) pos.deps.push_back(e.pos);
    for (const NegConstraint& c : pos.negations) pos.deps.push_back(c.pos);
    std::sort(pos.deps.begin(), pos.deps.end());
    pos.deps.erase(std::unique(pos.deps.begin(), pos.deps.end()),
                   pos.deps.end());
  }

  // Proactive pruning directives (engine/prune/prune.h), compiled into
  // the plan so the executor, the morsel workers, and (over the wire)
  // the shard workers all act on one consistent directive set.
  plan->prune = options.prune;
  if (options.prune.lpi) CompileLabelPairMasks(pattern.directed(), plan);
}

// NEC cache sharing: positions with identical base-candidate
// definitions share one cache slot. ComputeNecClasses narrows the
// search; compiled-constraint equality is the correctness test. That
// equality is an equivalence, so a position matches at most one
// unaliased earlier position of its class (the first match a scan of
// all earlier positions would find): each class keeps a chain of its
// unaliased positions only.
void ShareNecCaches(const Graph& pattern, const PlanMetrics& metrics,
                    Plan* plan) {
  const uint32_t n = pattern.NumVertices();
  const std::vector<uint32_t> nec = ComputeNecClasses(pattern);
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> last_root(n, kNone);  // per class
  std::vector<uint32_t> prev_root(n, kNone);  // per position
  std::vector<uint32_t> class_count(n, 0);
  uint64_t aliases = 0;
  for (uint32_t j = 0; j < n; ++j) {
    PlanPosition& pos = plan->positions[j];
    const uint32_t c = nec[pos.u];
    ++class_count[c];
    for (uint32_t i = last_root[c]; i != kNone; i = prev_root[i]) {
      if (SameBaseCandidates(plan->positions[i], pos)) {
        pos.cache_alias = static_cast<int32_t>(i);
        ++aliases;
        break;
      }
    }
    if (pos.cache_alias < 0) {
      prev_root[j] = last_root[c];
      last_root[c] = j;
    }
  }
  metrics.nec_aliases.Add(aliases);
  // NEC class-size distribution over the pattern's vertices, merged
  // into the registry once.
  obs::LocalHistogram class_sizes;
  for (uint32_t count : class_count) {
    if (count > 0) class_sizes.RecordCount(count);
  }
  metrics.nec_class_size.Merge(class_sizes);
}

}  // namespace

Status Planner::MakePlan(const Graph& pattern, MatchVariant variant,
                         const PlanOptions& options, Plan* out) const {
  if (pattern.NumVertices() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  if (data_ != nullptr && pattern.directed() != data_->directed()) {
    return Status::InvalidArgument(
        "pattern and data graph directedness differ");
  }
  WallTimer timer;
  obs::Span span("plan.make");
  const PlanMetrics& metrics = PlanMetrics::Get();
  metrics.plans.Increment();
  Plan plan;
  plan.variant = variant;
  plan.use_sce = options.use_sce;

  // Every data and adjacency question planning asks, answered once.
  const PatternContext ctx(pattern, data_, variant);

  // Step 1: initial order (GCF, paper Section VI), or the systematic
  // cost-based order when requested.
  std::vector<VertexId> initial;
  const bool cost_based = options.use_cost_based && data_ != nullptr;
  if (cost_based) {
    metrics.cost_based_orders.Increment();
    initial = CostBasedOrder(pattern, *data_, options.cost_beam_width);
  } else if (options.use_gcf) {
    obs::Span gcf_span("plan.gcf");
    metrics.gcf_orders.Increment();
    GcfOptions gcf;
    gcf.use_cluster_tiebreak = options.use_cluster_tiebreak;
    initial = GreatestConstraintFirstOrder(ctx, gcf);
  } else {
    initial.resize(pattern.NumVertices());
    std::iota(initial.begin(), initial.end(), 0);
  }

  // Step 2: dependency DAG (Algorithm 2).
  auto build_dag = [&ctx](std::span<const VertexId> order) {
    obs::Span dag_span("plan.dag");
    return DependencyDag::Build(ctx, order);
  };
  DependencyDag dag = build_dag(initial);

  // Step 3: LDSF fine-tuning (Algorithms 3 and 4). Cost-based orders
  // are kept verbatim: reordering would invalidate their cost estimate.
  if (options.use_ldsf && !cost_based) {
    {
      obs::Span ldsf_span("plan.ldsf");
      metrics.ldsf_refinements.Increment();
      std::vector<uint32_t> descendant_sizes = ComputeDescendantSizes(dag);
      plan.order = LargestDescendantFirstOrder(
          dag, ctx, options.use_cluster_tiebreak, descendant_sizes);
    }
    // The final order may imply a (slightly) different DAG for
    // vertex-induced matching, where negation dependencies are
    // position-sensitive; rebuild for faithful statistics.
    dag = build_dag(plan.order);
  } else {
    plan.order = std::move(initial);
  }

  {
    obs::Span compile_span("plan.compile");
    plan.dag_edges = dag.NumEdges();
    plan.sce = ComputeSceStats(pattern, plan.order, variant, dag);
    CompilePositions(ctx, data_, options, &plan);
  }
  if (options.use_nec) {
    obs::Span nec_span("plan.nec");
    ShareNecCaches(pattern, metrics, &plan);
  }

  plan.plan_seconds = timer.Seconds();
  *out = std::move(plan);
  return Status::OK();
}

}  // namespace csce
