#ifndef CSCE_PLAN_VALIDATE_H_
#define CSCE_PLAN_VALIDATE_H_

#include <cstdint>
#include <span>

#include "ccsr/ccsr.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "plan/dag.h"
#include "plan/planner.h"
#include "util/status.h"

namespace csce {

/// Structural validation of a dependency DAG: children/parents rows
/// mirror each other exactly, the edge count matches, and the graph is
/// acyclic.
Status ValidateDag(const DependencyDag& dag);

/// Checks that `order` is a permutation of the DAG's vertices and a
/// topological order of it: every dependency edge points from an
/// earlier to a later position. This is the contract LDSF must satisfy
/// (Algorithm 4 refines a topological order, it never breaks one).
Status ValidateTopologicalOrder(const DependencyDag& dag,
                                std::span<const VertexId> order);

/// Checks that same-class vertex pairs are true neighborhood
/// equivalences: swapping the two vertices is an automorphism of the
/// labeled pattern (the ground truth that makes NEC candidate-cache
/// sharing sound). Also enforces the contract of ComputeNecClasses:
/// dense class ids ordered by the class's smallest vertex. Soundness
/// only — a finer-than-necessary partition passes.
Status ValidateNecClasses(const Graph& pattern,
                          std::span<const uint32_t> classes);

/// Deep validation of a compiled plan against its pattern and data
/// index: the order is a permutation; per-position labels, edge
/// constraints (recompiled from the pattern and compared), negation
/// constraints (vertex-induced only, star-pruned against `data`),
/// dependency lists, degree filters, seed clusters, and NEC cache
/// aliases are all consistent; and the order is a topological order of
/// the dependency DAG rebuilt for it. `data` must be the index the
/// plan was made for (it prunes vacuous negation dependencies).
Status ValidatePlan(const Ccsr* data, const Graph& pattern, const Plan& plan);

}  // namespace csce

#endif  // CSCE_PLAN_VALIDATE_H_
