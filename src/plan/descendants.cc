#include "plan/descendants.h"

namespace csce {

std::vector<uint32_t> ComputeDescendantSizes(const DependencyDag& dag) {
  std::vector<uint32_t> sizes(dag.NumVertices());
  for (VertexId v = 0; v < dag.NumVertices(); ++v) {
    sizes[v] = dag.NumDescendants(v);
  }
  return sizes;
}

}  // namespace csce
