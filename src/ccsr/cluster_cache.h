#ifndef CSCE_CCSR_CLUSTER_CACHE_H_
#define CSCE_CCSR_CLUSTER_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ccsr/ccsr.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csce {

/// Cross-query cache of cluster views. A view is O(1) spans over the
/// Ccsr's arrays, so the cache saves no decompression any more — only
/// the hash lookup into the Ccsr's cluster index; it stays as the
/// session-level store QueryRuntime reports hit/miss counts for.
///
/// Thread-safety: Get/CachedViews/CachedBytes/hits/misses/Clear are
/// safe to call concurrently (one mutex guards the view map), so many
/// in-flight queries of a QueryRuntime session may share one cache.
/// The ClusterViews handed out are immutable and individually
/// shared_ptr-owned, hence safe to read from any number of threads and
/// to keep across a concurrent Clear(). They borrow the Ccsr's arrays,
/// so the underlying Ccsr must not be mutated (InsertEdges/RemoveEdges)
/// while queries are in flight or views of it are held — the index
/// itself is not synchronized, only this cache is. After a mutation,
/// Clear() the cache and drop every old view.
class ClusterCache {
 public:
  /// `gc` must outlive the cache and every QueryClusters served by it.
  explicit ClusterCache(const Ccsr* gc) : gc_(gc) {}

  /// The view of `id`, made on first use; nullptr when the cluster is
  /// empty/absent.
  std::shared_ptr<const ClusterView> Get(const ClusterId& id)
      CSCE_EXCLUDES(mu_);

  size_t CachedViews() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return views_.size();
  }
  /// Bytes of the cached view objects (a view owns no arrays).
  size_t CachedBytes() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return views_.size() * sizeof(ClusterView);
  }
  uint64_t hits() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  uint64_t misses() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }

  /// Drops all cached views (e.g. after Ccsr::InsertEdges /
  /// RemoveEdges invalidated the underlying clusters). Views still
  /// co-owned by live QueryClusters stay valid while the Ccsr lives
  /// unmodified.
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
  std::unordered_map<ClusterId, std::shared_ptr<const ClusterView>,
                     ClusterIdHash>
      views_ CSCE_GUARDED_BY(mu_);
  uint64_t hits_ CSCE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ CSCE_GUARDED_BY(mu_) = 0;
};

/// Algorithm 1 backed by the shared cache: like ReadClusters but views
/// made by earlier queries are reused. The returned QueryClusters holds
/// copies of its views, so it stays valid even if the cache is cleared
/// afterwards, while the Ccsr lives unmodified. `out` must be empty, as
/// for ReadClusters.
Status ReadClustersCached(ClusterCache& cache, const Graph& pattern,
                          MatchVariant variant, QueryClusters* out);

}  // namespace csce

#endif  // CSCE_CCSR_CLUSTER_CACHE_H_
