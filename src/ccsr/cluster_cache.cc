#include "ccsr/cluster_cache.h"

namespace csce {

// Defined in ccsr.cc (shares the cluster-selection logic with
// ReadClusters).
Status ReadClustersImpl(const Ccsr& gc, const Graph& pattern,
                        MatchVariant variant, ClusterCache* cache,
                        QueryClusters* out);

const CompressedCluster* ClusterCache::Get(const ClusterId& id) {
  {
    MutexLock lock(mu_);
    auto it = views_.find(id);
    if (it != views_.end()) {
      ++hits_;
      return it->second;
    }
  }
  const CompressedCluster* c = gc_->Find(id);
  if (c == nullptr) return nullptr;
  // Two threads racing on the same cluster both look it up and both
  // count a miss; they insert the same pointer.
  MutexLock lock(mu_);
  views_.emplace(id, c);
  ++misses_;
  return c;
}

Status ReadClustersCached(ClusterCache& cache, const Graph& pattern,
                          MatchVariant variant, QueryClusters* out) {
  return ReadClustersImpl(cache.ccsr(), pattern, variant, &cache, out);
}

}  // namespace csce
