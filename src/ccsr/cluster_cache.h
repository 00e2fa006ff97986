#ifndef CSCE_CCSR_CLUSTER_CACHE_H_
#define CSCE_CCSR_CLUSTER_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "ccsr/ccsr.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csce {

/// Cross-query cache of cluster lookups, kept for the hit/miss counts
/// QueryRuntime reports, which the benchmark's `ccsr.cache_hit_ratio`
/// record reads. It saves no work: a read resolves its clusters against
/// the Ccsr, and ReadClustersCached only counts each one with a Get.
///
/// Thread-safety: Get/CachedViews/CachedBytes/hits/misses/Clear are
/// safe to call concurrently (one mutex guards the map), so many
/// in-flight queries of a QueryRuntime session may share one cache.
/// The records handed out are immutable, hence safe to read from any
/// number of threads and to keep across a concurrent Clear(). They are
/// the Ccsr's, so the underlying Ccsr must not be mutated
/// (InsertEdges/RemoveEdges) while queries are in flight or pointers
/// into it are held — the index itself is not synchronized, only this
/// cache is. After a mutation, Clear() the cache and drop every old
/// pointer.
class ClusterCache {
 public:
  /// `gc` must outlive the cache and every QueryClusters served by it.
  explicit ClusterCache(const Ccsr* gc) : gc_(gc) {}

  /// The Ccsr's record of `id` (a miss on first use, a hit after);
  /// nullptr when the cluster is empty/absent, which counts as neither.
  const CompressedCluster* Get(const ClusterId& id) CSCE_EXCLUDES(mu_);

  size_t CachedViews() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return views_.size();
  }
  /// Bytes of the cached entries (the records are the Ccsr's).
  size_t CachedBytes() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return views_.size() * sizeof(const CompressedCluster*);
  }
  uint64_t hits() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }

  /// Drops all cached entries (e.g. after Ccsr::InsertEdges /
  /// RemoveEdges invalidated the underlying clusters). Pointers held by
  /// live QueryClusters stay valid while the Ccsr lives unmodified.
  void Clear() CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    views_.clear();
  }

  const Ccsr& ccsr() const { return *gc_; }

 private:
  /// Const after construction; the Ccsr's own immutability-during-
  /// queries contract is documented above.
  const Ccsr* gc_ CSCE_NOT_GUARDED;
  mutable Mutex mu_;
  std::unordered_map<ClusterId, const CompressedCluster*, ClusterIdHash>
      views_ CSCE_GUARDED_BY(mu_);
  uint64_t hits_ CSCE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CSCE_GUARDED_BY(mu_) = 0;
};

/// ReadClusters over the cache's Ccsr, counting each registered
/// cluster as a hit or a miss of the cache. The returned QueryClusters
/// stays valid even if the cache is cleared afterwards, while the Ccsr
/// lives unmodified. `out` must be empty, as for ReadClusters.
Status ReadClustersCached(ClusterCache& cache, const Graph& pattern,
                          MatchVariant variant, QueryClusters* out);

}  // namespace csce

#endif  // CSCE_CCSR_CLUSTER_CACHE_H_
