#ifndef CSCE_ENGINE_SETOPS_SETOPS_H_
#define CSCE_ENGINE_SETOPS_SETOPS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/bitset.h"
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

/// Fixed-kernel entry points (differential tests, microbenches).
/// `kernel` must be supported (KernelSupported).
size_t IntersectWith(Kernel kernel, std::span<const VertexId> a,
                     std::span<const VertexId> b, VertexId* out);
size_t DifferenceWith(Kernel kernel, std::span<const VertexId> a,
                      std::span<const VertexId> b, VertexId* out);

/// Dense path for negation subtraction: acc = acc \ (∪ lists), in
/// place. Marks every removal vertex in `marks` (sized >= the vertex
/// universe), filters `acc` in one pass, then clears exactly the bits
/// it set — cost O(|acc| + 2·Σ|list|) independent of the list count,
/// versus Σ(|acc| + |list|) for repeated merge subtraction. Returns the
/// new accumulator length. `marks` must be all-zero on entry and is
/// all-zero again on return.
CSCE_HOT_PATH size_t DifferenceManyBitmap(
    VertexId* acc, size_t acc_size,
    std::span<const std::span<const VertexId>> lists, DynamicBitset* marks);

/// Cost-model switch for the dense path: true when marking all removal
/// lists once beats scanning the accumulator per list. Break-even is
/// (lists - 1)·|acc| > Σ|list| with a floor that keeps tiny
/// accumulators on the merge path (see DESIGN.md).
CSCE_HOT_PATH inline bool UseBitmapDifference(size_t acc_size,
                                              size_t num_lists,
                                              size_t total_removals) {
  return num_lists >= 2 && acc_size >= 64 &&
         (num_lists - 1) * acc_size > total_removals;
}

}  // namespace setops
}  // namespace csce

#endif  // CSCE_ENGINE_SETOPS_SETOPS_H_
