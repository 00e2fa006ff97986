#ifndef CSCE_ENGINE_SETOPS_SETOPS_H_
#define CSCE_ENGINE_SETOPS_SETOPS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "engine/setops/vertex_scratch.h"
#include "graph/graph.h"
#include "util/thread_annotations.h"

namespace csce {
namespace setops {

/// Vectorized ordered-set kernels for the enumeration hot path.
///
/// All inputs are sorted unique VertexId lists (CCSR cluster rows);
/// outputs likewise. The kernels write into raw caller storage and
/// return the result length — no clears, no reallocation, no reads of
/// prior output contents — so the executor can ping-pong preallocated
/// scratch buffers with zero heap traffic.
///
/// Dispatch: AVX2 is selected once, at first use, when the CPU supports
/// it; otherwise the portable scalar reference — the differential-
/// testing oracle — which `CSCE_FORCE_SCALAR=1` pins.
///
/// SIMD output padding: the vector kernels store whole SIMD lanes and
/// then advance by the matched count, so the output buffer must leave
/// kOutPad elements of slack beyond the maximal result:
///   Intersect:  capacity >= min(|a|, |b|) + kOutPad
///   Difference: capacity >= |a| + kOutPad
/// The scalar kernel never touches the pad, so the contract is uniform.
inline constexpr size_t kOutPad = 8;

enum class Kernel : uint8_t { kScalar = 0, kAvx2 = 1 };

/// Stable lowercase name ("scalar", "avx2") for logs/benches.
const char* KernelName(Kernel kernel);

/// Compiled in and supported by this CPU?
bool KernelSupported(Kernel kernel);

/// The kernel the dispatched entry points currently use.
Kernel ActiveKernel();

/// The dispatch policy by itself: environment override, else widest
/// supported. Exposed so tests can exercise CSCE_FORCE_SCALAR handling
/// without respawning the process.
Kernel ChooseKernelFromEnv();

/// Test-only: redirects the dispatched entry points to `kernel`
/// (silently clamped to the widest supported kernel). Not thread-safe
/// against concurrently running queries.
void SetKernelForTesting(Kernel kernel);

/// out = a ∩ b. `out` must not alias either input; see kOutPad for the
/// required capacity. Returns the result length.
CSCE_HOT_PATH size_t Intersect(std::span<const VertexId> a,
                               std::span<const VertexId> b, VertexId* out);

/// out = a \ b. Unlike Intersect, in-place use (out == a.data()) is
/// allowed — every kernel's writes trail its reads — and no write ever
/// lands past a.size() elements, so an in-place caller needs no pad.
/// A non-aliasing `out` still follows the kOutPad capacity contract.
CSCE_HOT_PATH size_t Difference(std::span<const VertexId> a,
                                std::span<const VertexId> b, VertexId* out);

/// out = ∩ lists, for one or more sorted unique lists. Reorders `lists`
/// smallest-first — an insertion sort: the count is a pattern vertex's
/// back-degree (almost always <= 8), where it beats std::sort's
/// dispatch overhead and allocates nothing — then chains Intersect,
/// ping-ponging between `tmp` and `out` so the last round lands in
/// `out`; an empty intermediate ends the chain early. Both buffers need
/// capacity for the smallest list plus kOutPad. Returns the summed
/// input lengths of the intersections performed.
CSCE_HOT_PATH size_t IntersectAll(std::span<std::span<const VertexId>> lists,
                                  VertexScratch* out, VertexScratch* tmp);

/// Fixed-kernel entry points (differential tests, microbenches).
/// `kernel` must be supported (KernelSupported).
size_t IntersectWith(Kernel kernel, std::span<const VertexId> a,
                     std::span<const VertexId> b, VertexId* out);
size_t DifferenceWith(Kernel kernel, std::span<const VertexId> a,
                      std::span<const VertexId> b, VertexId* out);

}  // namespace setops
}  // namespace csce

#endif  // CSCE_ENGINE_SETOPS_SETOPS_H_
