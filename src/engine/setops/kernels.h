#ifndef CSCE_ENGINE_SETOPS_KERNELS_H_
#define CSCE_ENGINE_SETOPS_KERNELS_H_

#include <cstddef>

#include "graph/graph.h"

// Internal: raw kernel entry points behind setops.h's dispatched API.
// The AVX2 kernels live in their own translation unit compiled with
// -mavx2 (see src/CMakeLists.txt); only that unit contains wide
// instructions, so the library stays runnable on CPUs without
// them as long as dispatch never selects an unsupported kernel.

namespace csce {
namespace setops {
namespace internal {

// Size ratio beyond which every kernel hands lopsided inputs to the
// galloping scalar path (doubling binary search is memory-bound; SIMD
// block compares only pay off on comparable sizes). One constant so all
// kernels switch strategies on identical inputs.
inline constexpr size_t kGallopRatio = 32;

// Portable reference kernels — the differential-testing oracle.
size_t IntersectScalar(const VertexId* a, size_t na, const VertexId* b,
                       size_t nb, VertexId* out);
size_t DifferenceScalar(const VertexId* a, size_t na, const VertexId* b,
                        size_t nb, VertexId* out);

#if defined(__x86_64__) || defined(__i386__)
#define CSCE_SETOPS_X86 1
size_t IntersectAvx2(const VertexId* a, size_t na, const VertexId* b,
                     size_t nb, VertexId* out);
size_t DifferenceAvx2(const VertexId* a, size_t na, const VertexId* b,
                      size_t nb, VertexId* out);
#endif

}  // namespace internal
}  // namespace setops
}  // namespace csce

#endif  // CSCE_ENGINE_SETOPS_KERNELS_H_
