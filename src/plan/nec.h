#ifndef CSCE_PLAN_NEC_H_
#define CSCE_PLAN_NEC_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace csce {

/// Neighborhood Equivalence Classes (TurboISO): pattern vertices u, u'
/// are equivalent iff they share a vertex label and identical
/// neighborhoods — excluding each other — with matching edge labels and
/// directions. Equivalent vertices always have identical base candidate
/// sets, enabling candidate-cache sharing in the executor.
///
/// Each vertex is compared in place with the earlier class
/// representatives of its own label; the first equivalent one names its
/// class. Returns vertex -> class id; class ids are dense, starting at
/// 0, and ordered by the class's smallest vertex.
std::vector<uint32_t> ComputeNecClasses(const Graph& pattern);

}  // namespace csce

#endif  // CSCE_PLAN_NEC_H_
