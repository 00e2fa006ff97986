#ifndef CSCE_PLAN_PLANNER_H_
#define CSCE_PLAN_PLANNER_H_

#include <cstdint>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/prune/prune.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "plan/dag.h"
#include "util/status.h"

namespace csce {

/// One backward edge constraint of a plan position: the candidates of
/// this position must be cluster-neighbors of the mapping at `pos`.
struct EdgeConstraint {
  uint32_t pos;       // earlier position holding the matched neighbor w
  ClusterId cluster;  // cluster of the pattern edge between w and u
  /// true: the pattern arc is u -> w, so candidates come from the
  /// cluster's incoming side of f(w); false: w -> u (or undirected),
  /// candidates come from the outgoing side of f(w).
  bool incoming;

  friend bool operator==(const EdgeConstraint&,
                         const EdgeConstraint&) = default;
};

/// One negation constraint (vertex-induced only): candidates of this
/// position must have no data arc to/from the mapping at `pos` in the
/// flagged directions.
struct NegConstraint {
  uint32_t pos;
  bool forbid_to;    // forbid data arc f(u) -> f(w)
  bool forbid_from;  // forbid data arc f(w) -> f(u)
  Label other_label;  // L(w), for "(x,y)*-cluster" lookup

  friend bool operator==(const NegConstraint&, const NegConstraint&) = default;
};

/// Everything the executor needs at one position of the matching order.
struct PlanPosition {
  VertexId u = kInvalidVertex;  // pattern vertex at this position
  Label label = kNoLabel;       // its vertex label
  std::vector<EdgeConstraint> edges;
  std::vector<NegConstraint> negations;
  /// Positions this candidate set depends on (sorted, unique): the
  /// union of edge and negation positions. The SCE cache at this
  /// position stays valid while the mappings at these positions are
  /// unchanged (Definition 1).
  std::vector<uint32_t> deps;
  /// If >= 0, this position's base candidates equal those of the given
  /// earlier position (NEC sharing); both use one cache slot.
  int32_t cache_alias = -1;
  /// Position 0 (or any position with no edge constraints) seeds its
  /// candidates from this cluster. Invalid when `edges` is non-empty.
  ClusterId seed_cluster;
  bool seed_valid = false;
  bool seed_use_sources = true;  // Sources() vs Targets() of the cluster
  /// LDF degree filter: injective variants require f(u) to have at
  /// least the pattern vertex's degrees (0 disables the check).
  uint32_t min_out_degree = 0;
  uint32_t min_in_degree = 0;

  // --- Proactive pruning directives (engine/prune/prune.h) ----------
  /// lpi: neighbor-label bitmasks every candidate at this position must
  /// cover — one bit per pattern neighbor matched at a LATER position,
  /// folded the same way as Ccsr::LabelBit, minus the bits the
  /// position's candidate source already guarantees. Zero masks skip
  /// the filter. Compiled unless PlanOptions::prune is the `none`
  /// ablation.
  uint64_t lpi_req_out = 0;
  uint64_t lpi_req_in = 0;
  /// aux: maintain an incremental adjacency projection for this
  /// position while its dependency vertices are placed (empty partial
  /// projections cut the subtree early). Chosen by the cost model;
  /// emitted only when PlanOptions::prune.aux is set.
  bool aux_enabled = false;
};

/// A compiled matching plan: the optimized order Phi* plus per-position
/// constraints, dependencies and cache aliases, and the paper-facing
/// DAG statistics.
struct Plan {
  MatchVariant variant = MatchVariant::kEdgeInduced;
  std::vector<VertexId> order;          // Phi*
  std::vector<PlanPosition> positions;  // one per order entry
  bool use_sce = true;                  // executor honors candidate reuse
  /// Which proactive pruning passes the per-position directives were
  /// compiled for; the matcher forwards this into ExecOptions so the
  /// executor only acts on directives the user asked for.
  PruneOptions prune;

  // Diagnostics (Fig. 12 / Fig. 13 / tests).
  SceStats sce;
  size_t dag_edges = 0;
  double plan_seconds = 0.0;
};

struct PlanOptions {
  /// Use GCF for the initial order; false keeps pattern-vertex-id order
  /// restricted to connectivity (ablation baseline).
  bool use_gcf = true;
  /// Graphflow-style systematic ordering: beam search over orders with
  /// a cluster-statistics cardinality model (plan/cost_model.h). When
  /// set, the cost-based order is used verbatim (GCF and LDSF are
  /// bypassed); SCE/NEC still apply.
  bool use_cost_based = false;
  uint32_t cost_beam_width = 4;
  /// CCSR cluster-size tie-breaking inside GCF and LDSF ("RI+Cluster").
  bool use_cluster_tiebreak = true;
  /// LDSF reordering over the dependency DAG; false keeps the GCF order.
  bool use_ldsf = true;
  /// SCE candidate-cache reuse during execution.
  bool use_sce = true;
  /// NEC cache sharing between equivalent pattern vertices.
  bool use_nec = true;
  /// LDF candidate degree filtering (injective variants only).
  bool use_degree_filter = true;
  /// Proactive pruning passes to compile directives for (--prune=...).
  PruneOptions prune;
};

/// Generates plans for patterns against one CCSR-indexed data graph.
class Planner {
 public:
  explicit Planner(const Ccsr* data) : data_(data) {}

  /// Runs the full optimization pipeline: GCF -> BuildDAG -> descendant
  /// sizes -> LDSF -> compile (constraints, deps, NEC aliases).
  Status MakePlan(const Graph& pattern, MatchVariant variant,
                  const PlanOptions& options, Plan* out) const;

 private:
  const Ccsr* data_;
};

}  // namespace csce

#endif  // CSCE_PLAN_PLANNER_H_
