#ifndef CSCE_PLAN_GCF_H_
#define CSCE_PLAN_GCF_H_

#include <vector>

#include "graph/graph.h"
#include "plan/pattern_context.h"

namespace csce {

struct GcfOptions {
  /// Break RI's frequent ties using CCSR cluster sizes (paper Section
  /// VI, Eq. 2). With false (or without data statistics) this is plain
  /// RI, which ignores the data graph entirely.
  bool use_cluster_tiebreak = true;
};

/// Greatest-Constraint-First matching order (RI's three rules, paper
/// Eq. 1) with CCSR-based tie-breaking (Eq. 2) from the context's
/// per-pair cluster sizes. Without data in the context, ties fall
/// through to the lowest vertex id (deterministically), exactly like
/// data-oblivious RI. Each unmatched vertex's rank is kept up to date
/// as vertices are matched (only the new vertex's neighbors and their
/// neighbors change), and the next vertex comes from a heap ordered by
/// rank, so a step costs O(deg) heap updates instead of a rescan of the
/// pattern.
std::vector<VertexId> GreatestConstraintFirstOrder(const PatternContext& ctx,
                                                   const GcfOptions& options);

}  // namespace csce

#endif  // CSCE_PLAN_GCF_H_
