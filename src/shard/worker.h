#ifndef CSCE_SHARD_WORKER_H_
#define CSCE_SHARD_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_mmap.h"
#include "ccsr/cluster_cache.h"
#include "engine/executor.h"
#include "graph/graph.h"
#include "plan/planner.h"
#include "shard/shard_plan.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace csce {
namespace shard {

/// A shard-local execution server: owns one shard's CCSR plus the
/// ownership table and serves the coordinator protocol over a
/// Transport. One worker per shard, in a thread (loopback transport)
/// or a forked process (fd transport).
///
/// Enumeration drives the Executor piecewise (Prepare, then DrainRoots
/// or Resume per round, then Finish): per LOAD thread count, each
/// worker thread gets a private Router — an Executor plus the Placement
/// that routes its extensions, buffering outgoing ShardTasks; a round
/// (kRoot or kExtend) drains its input through the thread pool and
/// replies with everything the routers emitted. The executors run the
/// plan's prune passes like every other mode. SCE candidate caches live
/// inside the per-thread executors, so reuse never crosses a shard
/// boundary.
class ShardWorker {
 public:
  ShardWorker();
  ~ShardWorker();

  /// Serves until kShutdown (returns OK) or transport failure (returns
  /// the transport error — the coordinator vanishing is not a crash).
  /// Handler-level failures are reported to the peer as kError frames
  /// and the loop keeps serving.
  Status Serve(Transport& transport);

 private:
  Status HandleLoad(const wire::LoadRequest& req);
  Status HandlePlan(const wire::PlanRequest& req);
  Status RunRound(const wire::TaskBatch* in, wire::TaskBatch* out);
  Status HandleFinish(wire::ResultMsg* out);
  wire::StatsResult CollectStats() const;

  bool loaded_ = false;
  uint32_t shard_id_ = 0;
  uint32_t num_shards_ = 1;
  uint32_t num_threads_ = 1;
  Ccsr ccsr_;
  // Set when the LOAD asked for an out-of-core shard: the mapping that
  // backs ccsr_'s borrowed arrays (and serves as its pager). Must stay
  // alive as long as ccsr_ does.
  std::unique_ptr<MmapCcsr> mmap_;
  // Cluster views shared by the queries of one LOAD (the shard index is
  // immutable between LOADs); cleared before a LOAD replaces ccsr_.
  ClusterCache cache_{&ccsr_};
  std::vector<uint32_t> owner_;
  std::unique_ptr<ThreadPool> pool_;

  // Per-query state, rebuilt by each kPlan. Mutex-free by design: the
  // serve loop is single-threaded between rounds, a round's worker
  // threads claim work via the two atomics below and otherwise touch
  // only their own router, and pool_->Wait() is the barrier that
  // publishes their writes back to the serve loop (guarded-by-complete
  // has nothing to check here — see DESIGN.md).
  bool query_active_ = false;
  Graph pattern_;
  Plan plan_;
  QueryClusters qc_;
  std::vector<VertexId> owned_roots_;
  ExecStats probe_stats_;  // the root probe's counters, folded at kFinish
  size_t root_morsel_ = 1;
  std::atomic<size_t> root_next_{0};
  std::atomic<size_t> task_next_{0};
  class Router;  // per thread: an Executor and its shard Placement
  std::vector<std::unique_ptr<Router>> routers_;
};

}  // namespace shard
}  // namespace csce

#endif  // CSCE_SHARD_WORKER_H_
