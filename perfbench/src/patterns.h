#ifndef CSCE_PERFBENCH_PATTERNS_H_
#define CSCE_PERFBENCH_PATTERNS_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace perfbench {

enum class Density { kDense, kSparse };

/// Query patterns are sampled here rather than through the library's
/// gen/pattern_gen, so the benchmark inputs depend only on the seed and
/// the data graph, never on the code under test.
///
/// Samples a connected pattern of `size` vertices by a random
/// neighbor-growth walk from a random start vertex (the RapidMatch/VEQ
/// convention). Dense keeps the induced subgraph, so the sampled image
/// is an embedding under every variant; sparse keeps a spanning tree
/// plus random extra edges up to |V| edges, so the image is an
/// edge-induced and homomorphic embedding. Walks that saturate before
/// reaching `size` restart from a new start vertex.
csce::Graph SamplePattern(const csce::Graph& g, uint32_t size,
                          Density density, csce::Rng& rng);

}  // namespace perfbench

#endif  // CSCE_PERFBENCH_PATTERNS_H_
