#ifndef CSCE_PLAN_LDSF_H_
#define CSCE_PLAN_LDSF_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "plan/dag.h"
#include "plan/pattern_context.h"

namespace csce {

/// Algorithm 4 (GeneratePlan): Largest-Descendant-Size-First topological
/// order of the dependency DAG. Among ready vertices it prefers, in
/// order: most DAG parents; largest descendant size; smallest cluster
/// among edges to already-ordered pattern neighbors; lowest data-graph
/// label frequency; lowest vertex id (determinism). Unlike Kahn's
/// algorithm, which picks an arbitrary topological order, this one
/// maximizes candidate reuse.
/// Ready vertices wait in a heap. Every pattern edge is a DAG edge, so
/// a vertex's cluster tie-break is final once it is ready, and its key
/// is computed once.
///
/// With `use_data` false (or no data in the context) the cluster
/// tie-break is skipped and label frequencies come from the pattern.
std::vector<VertexId> LargestDescendantFirstOrder(
    const DependencyDag& dag, const PatternContext& ctx, bool use_data,
    std::span<const uint32_t> descendant_sizes);

}  // namespace csce

#endif  // CSCE_PLAN_LDSF_H_
