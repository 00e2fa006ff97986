#ifndef CSCE_PLAN_DESCENDANTS_H_
#define CSCE_PLAN_DESCENDANTS_H_

#include <cstdint>
#include <vector>

#include "plan/dag.h"

namespace csce {

/// Algorithm 3 (ComputeDescendant): for every DAG vertex, the number of
/// distinct direct and indirect descendants. Vertices can share
/// descendants, so these are the popcounts of the DAG's closure rows
/// (descendant *sets*, unioned once in DependencyDag::Build) rather
/// than sums of child counts.
std::vector<uint32_t> ComputeDescendantSizes(const DependencyDag& dag);

}  // namespace csce

#endif  // CSCE_PLAN_DESCENDANTS_H_
