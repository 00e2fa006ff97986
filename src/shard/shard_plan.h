#ifndef CSCE_SHARD_SHARD_PLAN_H_
#define CSCE_SHARD_SHARD_PLAN_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace csce {
namespace shard {

/// How Build assigns data vertices to shards.
enum class PartitionStrategy : uint8_t {
  /// Deterministic hash of the vertex id: perfectly balanced, oblivious
  /// to structure (the baseline every distributed-matching paper uses).
  kHash = 0,
  /// Greedy streaming assignment (Linear Deterministic Greedy): place
  /// each vertex, highest degree first, on the shard holding most of
  /// its already-placed neighbors plus a same-label affinity bonus,
  /// discounted by shard fill. Co-locates cluster rows so fewer partial
  /// mappings cross shard boundaries.
  kLabelAware = 1,
};

const char* StrategyName(PartitionStrategy s);
bool ParseStrategy(const std::string& name, PartitionStrategy* out);

struct ShardPlanOptions {
  uint32_t num_shards = 1;
  PartitionStrategy strategy = PartitionStrategy::kHash;
};

/// The partitioning contract of the sharded engine: every vertex has
/// exactly one owning shard, and shard s materializes every edge with
/// at least one endpoint owned by s (1-hop replication). Owned vertices
/// therefore see complete adjacency rows and exact local degrees inside
/// their shard CCSR — the property the shard-mode executor's
/// ship-then-verify routing relies on. Non-owned endpoints dragged in
/// by boundary edges are the shard's replicas.
///
/// Vertex ids are global in every shard (the vertex set is never
/// renumbered), so partial mappings travel between shards verbatim.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// Deterministic: identical inputs produce identical plans.
  static ShardPlan Build(const Graph& g, const ShardPlanOptions& options);

  uint32_t num_shards() const { return num_shards_; }
  PartitionStrategy strategy() const { return strategy_; }
  uint32_t NumVertices() const { return static_cast<uint32_t>(owner_.size()); }

  uint32_t Owner(VertexId v) const { return owner_[v]; }
  /// Per-vertex owning shard, indexed by vertex id (what workers feed
  /// into their routers).
  const std::vector<uint32_t>& owners() const { return owner_; }

  /// Vertices replicated into shard s: present in its subgraph through
  /// a boundary edge but owned elsewhere. Sorted ascending.
  const std::vector<std::vector<VertexId>>& replicas() const {
    return replicas_;
  }
  /// Edges whose endpoints are owned by two different shards (each is
  /// stored in both owners' subgraphs).
  uint64_t boundary_edges() const { return boundary_edges_; }
  /// Vertices owned by shard s.
  uint64_t OwnedCount(uint32_t s) const { return owned_counts_[s]; }

  /// Shard s's subgraph: all vertices (global ids, original labels) and
  /// exactly the edges incident to a vertex owned by s. `g` must be the
  /// graph the plan was built from.
  Status ExtractShard(const Graph& g, uint32_t s, Graph* out) const;

  /// Sidecar persistence ("CSPL" binary, next to the CCSR artifacts).
  Status Save(std::ostream& out) const;
  Status SaveToFile(const std::string& path) const;
  static Status Load(std::istream& in, ShardPlan* out);
  static Status LoadFromFile(const std::string& path, ShardPlan* out);

  /// Conventional artifact names next to a CCSR at `base`:
  /// "<base>.shardplan" and "<base>.shard<k>".
  static std::string PlanPath(const std::string& base);
  static std::string ShardCcsrPath(const std::string& base, uint32_t s);

  friend bool operator==(const ShardPlan&, const ShardPlan&) = default;

 private:
  void FinishTables(const Graph& g);

  uint32_t num_shards_ = 0;
  PartitionStrategy strategy_ = PartitionStrategy::kHash;
  std::vector<uint32_t> owner_;
  std::vector<std::vector<VertexId>> replicas_;
  std::vector<uint64_t> owned_counts_;
  uint64_t boundary_edges_ = 0;
};

}  // namespace shard
}  // namespace csce

#endif  // CSCE_SHARD_SHARD_PLAN_H_
