#ifndef CSCE_PLAN_COST_MODEL_H_
#define CSCE_PLAN_COST_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ccsr/ccsr.h"
#include "graph/graph.h"

namespace csce {

/// A Graphflow-style systematic optimizer (paper Section II,
/// "Optimization"): instead of heuristic rules it searches over
/// matching orders with a cardinality model derived from CCSR cluster
/// statistics. Exposed as an alternative ordering strategy so the
/// heuristic-vs-systematic trade-off the paper discusses can be
/// measured directly (bench_fig13).
///
/// The cardinality model estimates, for each order prefix, the number
/// of partial embeddings: the seed position contributes the distinct
/// endpoint count of its smallest cluster; each extension multiplies by
/// the average cluster fan-out of its tightest backward edge and
/// applies a fixed selectivity per additional backward edge.

/// Estimated total intermediate cardinality of executing `order`
/// (sum over prefixes). Lower is better.
double EstimateOrderCost(const Graph& pattern, const Ccsr& gc,
                         std::span<const VertexId> order);

/// Beam search over connected matching orders minimizing
/// EstimateOrderCost. `beam_width` trades optimization time for plan
/// quality (Graphflow enumerates exhaustively, which the paper notes
/// does not scale past small patterns; the beam keeps this polynomial).
std::vector<VertexId> CostBasedOrder(const Graph& pattern, const Ccsr& gc,
                                     uint32_t beam_width = 4);

}  // namespace csce

#endif  // CSCE_PLAN_COST_MODEL_H_
