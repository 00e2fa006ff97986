#include "ccsr/cluster_cache.h"

namespace csce {

// Defined in ccsr.cc (shares the cluster-selection logic with
// ReadClusters).
Status ReadClustersImpl(const Ccsr& gc, const Graph& pattern,
                        MatchVariant variant, ClusterCache* cache,
                        QueryClusters* out);

std::shared_ptr<const ClusterView> ClusterCache::Get(const ClusterId& id) {
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
  // Two threads racing on the same cluster both make a view; the first
  // insert wins and the loser's copy is dropped (both are correct).
  auto view = std::make_shared<const ClusterView>(*c);
  MutexLock lock(mu_);
  auto [it, inserted] = views_.emplace(id, view);
  ++misses_;
  return it->second;
}

Status ReadClustersCached(ClusterCache& cache, const Graph& pattern,
                          MatchVariant variant, QueryClusters* out) {
  return ReadClustersImpl(cache.ccsr(), pattern, variant, &cache, out);
}

}  // namespace csce
