#ifndef CSCE_CCSR_CLUSTER_CACHE_H_
#define CSCE_CCSR_CLUSTER_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ccsr/ccsr.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csce {

/// Cross-query cache of decompressed cluster views. The paper's
/// Finding 5 charges every query the decompression of its clusters;
/// its conclusion lists reducing that overhead as future work. A
/// session serving many queries against one CCSR can instead share
/// views: the first query pays the decompression, later queries
/// touching the same clusters reuse them.
///
/// Thread-safety: Get/CachedViews/CachedBytes/hits/misses/Clear are
/// safe to call concurrently (one mutex guards the view map), so many
/// in-flight queries of a QueryRuntime session may share one cache.
/// The ClusterViews handed out are immutable and individually
/// shared_ptr-owned, hence safe to read from any number of threads and
/// to keep across a concurrent Clear(). They borrow the Ccsr's column
/// arrays, so the underlying Ccsr must not be mutated
/// (InsertEdges/RemoveEdges) while queries are in flight or views of it
/// are held — the index itself is not synchronized, only this cache
/// is. After a mutation, Clear() the cache and drop every old view.
class ClusterCache {
 public:
  /// `gc` must outlive the cache and every QueryClusters served by it.
  explicit ClusterCache(const Ccsr* gc) : gc_(gc) {}

  /// The decompressed view of `id`, decompressing on first use;
  /// nullptr when the cluster is empty/absent.
  std::shared_ptr<const ClusterView> Get(const ClusterId& id)
      CSCE_EXCLUDES(mu_);

  size_t CachedViews() const CSCE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return views_.size();
  }
  size_t CachedBytes() const CSCE_EXCLUDES(mu_);
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
/// already decompressed by earlier queries are reused. The returned
/// QueryClusters co-owns its views, so it stays valid even if the cache
/// is cleared afterwards, while the Ccsr lives unmodified. `out` must be
/// empty, as for ReadClusters.
Status ReadClustersCached(ClusterCache& cache, const Graph& pattern,
                          MatchVariant variant, QueryClusters* out);

/// Decompresses one cluster into a view that borrows its columns: the
/// row lookup costs O(#runs), the columns are not copied.
std::shared_ptr<const ClusterView> DecompressCluster(
    const CompressedCluster& cluster);

}  // namespace csce

#endif  // CSCE_CCSR_CLUSTER_CACHE_H_
