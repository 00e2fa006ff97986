#include "engine/setops/setops.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "engine/setops/kernels.h"
#include "util/logging.h"

namespace csce {
namespace setops {
namespace internal {
namespace {

// Galloping membership scan: locate each element of the small list in
// the large one with an exponentially advancing lower_bound. `keep_hit`
// selects intersection (emit matches) vs difference (emit misses, which
// requires small == a).
template <bool keep_hit>
size_t GallopScan(const VertexId* small_list, size_t ns,
                  const VertexId* large_list, size_t nl, VertexId* out) {
  const VertexId* lo = large_list;
  const VertexId* end = large_list + nl;
  size_t k = 0;
  for (size_t i = 0; i < ns; ++i) {
    VertexId x = small_list[i];
    size_t step = 1;
    const VertexId* probe = lo;
    while (probe + step < end && *(probe + step) < x) {
      probe += step;
      step <<= 1;
    }
    const VertexId* hi = std::min(probe + step + 1, end);
    lo = std::lower_bound(probe, hi, x);
    bool hit = lo != end && *lo == x;
    if constexpr (keep_hit) {
      if (hit) out[k++] = x;
      if (lo == end) break;
    } else {
      if (!hit) out[k++] = x;
      if (lo == end) {
        // Large list exhausted: everything left in `small` survives.
        for (size_t j = i + 1; j < ns; ++j) out[k++] = small_list[j];
        break;
      }
    }
  }
  return k;
}

}  // namespace

size_t IntersectScalar(const VertexId* a, size_t na, const VertexId* b,
                       size_t nb, VertexId* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (nb / na >= kGallopRatio) {
    return GallopScan</*keep_hit=*/true>(a, na, b, nb, out);
  }
  const VertexId* ea = a + na;
  const VertexId* eb = b + nb;
  size_t k = 0;
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      out[k++] = *a;
      ++a;
      ++b;
    }
  }
  return k;
}

size_t DifferenceScalar(const VertexId* a, size_t na, const VertexId* b,
                        size_t nb, VertexId* out) {
  if (na == 0) return 0;
  if (nb == 0) {
    if (out != a) std::memcpy(out, a, na * sizeof(VertexId));
    return na;
  }
  if (nb / na >= kGallopRatio) {
    return GallopScan</*keep_hit=*/false>(a, na, b, nb, out);
  }
  const VertexId* ea = a + na;
  const VertexId* eb = b + nb;
  size_t k = 0;
  while (a != ea) {
    while (b != eb && *b < *a) ++b;
    if (b != eb && *b == *a) {
      ++a;
      continue;  // drop
    }
    out[k++] = *a++;
  }
  return k;
}

}  // namespace internal

namespace {

using KernelFn = size_t (*)(const VertexId*, size_t, const VertexId*, size_t,
                            VertexId*);

struct Dispatch {
  Kernel kernel;
  KernelFn intersect;
  KernelFn difference;
};

Dispatch MakeDispatch(Kernel kernel) {
  switch (kernel) {
#ifdef CSCE_SETOPS_X86
    case Kernel::kAvx2:
      if (KernelSupported(Kernel::kAvx2)) {
        return {Kernel::kAvx2, internal::IntersectAvx2,
                internal::DifferenceAvx2};
      }
      [[fallthrough]];
#else
    case Kernel::kAvx2:
#endif
    case Kernel::kScalar:
    default:
      return {Kernel::kScalar, internal::IntersectScalar,
              internal::DifferenceScalar};
  }
}

std::atomic<const Dispatch*> g_dispatch{nullptr};

const Dispatch& ActiveDispatch() {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d == nullptr) {
    static const Dispatch chosen = MakeDispatch(ChooseKernelFromEnv());
    g_dispatch.store(&chosen, std::memory_order_release);
    d = &chosen;
  }
  return *d;
}

}  // namespace

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelSupported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
#ifdef CSCE_SETOPS_X86
    case Kernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Kernel::kAvx2:
      return false;
#endif
  }
  return false;
}

Kernel ChooseKernelFromEnv() {
  // getenv is mt-unsafe only against concurrent setenv; the dispatch
  // runs once from a static initializer before any worker thread
  // exists, and nothing in the process ever calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* force = std::getenv("CSCE_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Kernel::kScalar;
  }
  return KernelSupported(Kernel::kAvx2) ? Kernel::kAvx2 : Kernel::kScalar;
}

Kernel ActiveKernel() { return ActiveDispatch().kernel; }

void SetKernelForTesting(Kernel kernel) {
  // Old tables are kept alive: a racing reader may still hold one, and
  // a test process only flips kernels a bounded number of times.
  static std::vector<std::unique_ptr<Dispatch>> tables;
  tables.push_back(std::make_unique<Dispatch>(MakeDispatch(kernel)));
  g_dispatch.store(tables.back().get(), std::memory_order_release);
}

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 VertexId* out) {
  return ActiveDispatch().intersect(a.data(), a.size(), b.data(), b.size(),
                                    out);
}

size_t Difference(std::span<const VertexId> a, std::span<const VertexId> b,
                  VertexId* out) {
  return ActiveDispatch().difference(a.data(), a.size(), b.data(), b.size(),
                                     out);
}

size_t IntersectAll(std::span<std::span<const VertexId>> lists,
                    VertexScratch* out, VertexScratch* tmp) {
  CSCE_DCHECK(!lists.empty());
  for (size_t i = 1; i < lists.size(); ++i) {
    std::span<const VertexId> key = lists[i];
    size_t j = i;
    for (; j > 0 && lists[j - 1].size() > key.size(); --j) {
      lists[j] = lists[j - 1];
    }
    lists[j] = key;
  }
  if (lists.size() == 1) {
    out->Assign(lists[0]);
    return 0;
  }
  // Every intermediate is bounded by the smallest list.
  out->EnsureCapacity(lists[0].size() + kOutPad);
  tmp->EnsureCapacity(lists[0].size() + kOutPad);
  const size_t rounds = lists.size() - 1;
  VertexScratch* bufs[2] = {tmp, out};
  size_t cur = rounds % 2;  // odd round count: start (and end) at out
  VertexScratch* dst = bufs[cur];
  size_t elements = lists[0].size() + lists[1].size();
  dst->set_size(Intersect(lists[0], lists[1], dst->data()));
  for (size_t i = 2; i < lists.size() && !dst->empty(); ++i) {
    VertexScratch* src = dst;
    cur ^= 1;
    dst = bufs[cur];
    elements += src->size() + lists[i].size();
    dst->set_size(Intersect(src->span(), lists[i], dst->data()));
  }
  // An early exit (empty intermediate) can strand the result in `tmp`;
  // it is empty either way.
  if (dst != out) {
    CSCE_DCHECK(dst->empty());
    out->clear();
  }
  return elements;
}

size_t IntersectWith(Kernel kernel, std::span<const VertexId> a,
                     std::span<const VertexId> b, VertexId* out) {
  CSCE_CHECK(KernelSupported(kernel))
      << "setops kernel not supported: " << KernelName(kernel);
  return MakeDispatch(kernel).intersect(a.data(), a.size(), b.data(),
                                        b.size(), out);
}

size_t DifferenceWith(Kernel kernel, std::span<const VertexId> a,
                      std::span<const VertexId> b, VertexId* out) {
  CSCE_CHECK(KernelSupported(kernel))
      << "setops kernel not supported: " << KernelName(kernel);
  return MakeDispatch(kernel).difference(a.data(), a.size(), b.data(),
                                         b.size(), out);
}

}  // namespace setops
}  // namespace csce
