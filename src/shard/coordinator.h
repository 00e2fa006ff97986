#ifndef CSCE_SHARD_COORDINATOR_H_
#define CSCE_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccsr/ccsr.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "shard/fault.h"
#include "shard/shard_plan.h"
#include "shard/supervision.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "util/status.h"

namespace csce {
namespace shard {

/// Options for one distributed query (the sharded subset of
/// MatchOptions: embedding limits and cooperative cancellation are not
/// routed across shards yet — csce_serve warns and ignores them).
struct CoordinatorOptions {
  MatchVariant variant = MatchVariant::kEdgeInduced;
  PlanOptions plan;
  double time_limit_seconds = 0.0;
  /// Ship every embedding back to the coordinator (required by
  /// self_check; otherwise only counts cross the wire).
  bool collect_embeddings = false;
  /// Ground-truth mode: ValidatePlan on the compiled plan, verify_sce in
  /// every worker, and every shipped embedding re-verified against the
  /// FULL data graph. (Workers cannot verify embeddings themselves — an
  /// embedding may close an edge between two vertices neither of which
  /// the worker owns, and its shard CCSR lacks that arc by design.)
  bool self_check = false;
};

/// Merged outcome of one distributed query.
struct ShardResult {
  uint64_t embeddings = 0;
  bool timed_out = false;
  bool cancelled = false;
  bool limit_reached = false;

  uint64_t search_nodes = 0;
  uint64_t candidate_sets_computed = 0;
  uint64_t candidate_sets_reused = 0;
  uint64_t morsels_claimed = 0;
  /// Summed over workers, root probes included (see ExecStats).
  uint64_t prune_candidates_removed = 0;
  uint64_t prune_extensions_skipped = 0;

  double plan_seconds = 0.0;       // coordinator-side compile
  double enumerate_seconds = 0.0;  // wall time of the round loop
  double worker_busy_seconds = 0.0;  // sum of per-executor busy time

  /// Round-loop shape: EXTEND rounds driven and cross-shard tasks routed
  /// (both 0 when every embedding stayed shard-local).
  uint32_t rounds = 0;
  uint64_t tasks_routed = 0;

  /// Supervision activity during this query: worker restarts performed
  /// and request frames re-sent to a replacement. Both 0 on a healthy
  /// run; the fault-injection tests assert they fire.
  uint64_t worker_restarts = 0;
  uint64_t frames_retried = 0;

  uint64_t embeddings_verified = 0;  // self_check only

  /// Collected embeddings when CoordinatorOptions::collect_embeddings:
  /// `embeddings * embedding_width` vertex ids, indexed by pattern
  /// vertex per row. Shard-interleaved order, not sorted.
  uint32_t embedding_width = 0;
  std::vector<VertexId> embedding_data;

  /// Per-shard finish messages, for scaling diagnostics.
  std::vector<wire::ResultMsg> per_shard;
};

/// Produces a fresh, connected transport to a brand-new worker for
/// `shard` — the deployment-specific half of recovery. In-process
/// clusters spawn a new ShardWorker thread; csce_serve re-forks. A
/// coordinator without a factory supervises (timeouts, structured
/// errors) but cannot restart anyone.
using WorkerFactory =
    std::function<Status(uint32_t shard, std::unique_ptr<Transport>* out)>;

/// Drives N shard workers through the wire protocol: LOAD once, then
/// per query PLAN -> ROOT -> EXTEND rounds (BSP: all emissions of round
/// k are routed before round k+1 starts) -> FINISH merge.
///
/// The coordinator keeps the FULL data graph's CCSR: plans are compiled
/// once against global statistics and shipped to every worker, and the
/// self-check verifies shipped embeddings against the complete graph.
/// Workers may be threads (loopback transports, see InProcessCluster)
/// or forked processes (fd transports, see csce_serve --workers).
///
/// Fault tolerance (see DESIGN.md "Fault tolerance"): every request
/// frame whose reply has been consumed is journaled per worker. When a
/// worker dies, hangs past a deadline, or answers garbage, the
/// coordinator backs off, asks the WorkerFactory for a replacement,
/// replays the journal into it (replies discarded — their emissions
/// were already routed), then re-sends the in-flight frame and uses its
/// reply. The dead incarnation's partial counts never reached the merge
/// (only kFinish replies are merged, one per worker), so recovered runs
/// stay byte-identical to single-node: exactly-once by deterministic
/// replay.
class ShardCoordinator {
 public:
  /// `full` is the complete (unsharded) CCSR; must outlive the
  /// coordinator.
  explicit ShardCoordinator(const Ccsr* full);

  /// Worker `i` of the eventual cluster; attach all workers before
  /// Load*. Transport must be connected to a serving ShardWorker.
  void AttachWorker(std::unique_ptr<Transport> transport);
  uint32_t num_shards() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Supervision knobs; call before Load* (the backoff state machines
  /// are built from these at load time).
  void set_supervision(const SupervisionOptions& opts) { sup_ = opts; }
  const SupervisionOptions& supervision() const { return sup_; }
  /// Enables worker restarts. Without a factory a failed worker is
  /// terminal for the query (and counts into shard.workers_lost).
  void set_worker_factory(WorkerFactory factory) {
    factory_ = std::move(factory);
  }

  /// LOADs every worker from on-disk artifacts produced by
  /// `csce_build --shards=N` (base path + ".shardplan" / ".shard<k>").
  /// Performs the versioned kHello handshake with every worker first.
  /// With `use_mmap`, workers map their (v2) shard artifact instead of
  /// streaming it into memory; `memory_cap_bytes` bounds each worker's
  /// paging-advice window (0 = prefetch without eviction).
  Status LoadFromFiles(const std::string& base_path,
                       uint32_t threads_per_worker, bool use_mmap = false,
                       uint64_t memory_cap_bytes = 0);
  /// LOADs every worker with its shard's data graph
  /// (ShardPlan::ExtractShard; one per worker, consumed) + the ownership
  /// table, shipped inline; each worker builds its CCSR from the graph
  /// (in-process clusters; no filesystem round trip).
  Status LoadInline(const std::vector<uint32_t>& owner,
                    std::vector<Graph> shard_graphs,
                    uint32_t threads_per_worker);

  /// Synchronous kPing/kPong health probe of every worker, recovering
  /// any that fail. Run automatically at the start of every Execute
  /// when supervision is enabled.
  Status PingWorkers();

  /// Lifetime totals across load and every query (ShardResult carries
  /// the per-query deltas; load/handshake-time recoveries only show up
  /// here). Read from the coordinator's driving thread.
  uint64_t restarts_total() const { return restarts_total_; }
  uint64_t retries_total() const { return retries_total_; }

  /// Runs one query to completion across all workers.
  Status Execute(const Graph& pattern, const CoordinatorOptions& options,
                 ShardResult* out);

  /// Fetches each worker's csce.metrics.v1 document (kStats). In
  /// multi-process clusters these are distinct registries to merge; in
  /// in-process clusters all workers share this process's registry.
  Status CollectMetrics(std::vector<std::string>* docs);

  /// Sends kShutdown everywhere and closes the transports. Idempotent;
  /// best-effort (a dead worker is not an error here).
  void Shutdown();

 private:
  /// Per-reply payload validation hook: decode the expected payload so
  /// a byzantine reply (e.g. a truncated task batch) is classified as a
  /// worker failure inside the recovery loop, not a hard Corruption at
  /// the call site.
  using PayloadCheck = std::function<Status(size_t index, wire::Frame* reply)>;

  /// Sends `requests[i]` to worker `targets[i]` (all writes first, then
  /// all reads — the fd transports would deadlock otherwise once a
  /// pipe buffer fills), expecting `want` replies. kError replies
  /// surface as the carried Status; transport failures and garbage
  /// replies go through recovery. `journal`: append each request to its
  /// worker's replay journal once its reply has been consumed.
  Status RoundTrip(const std::vector<uint32_t>& targets,
                   const std::vector<wire::Frame>& requests,
                   wire::MsgType want, std::vector<wire::Frame>* replies,
                   bool journal = false,
                   const PayloadCheck& check = nullptr);

  /// Receives worker `s`'s reply to `request`, recovering (restart +
  /// replay + re-send) until it has a valid reply or the restart budget
  /// is spent. Handler-level kError replies return immediately — the
  /// worker is alive and deterministic, a restart would just repeat the
  /// error.
  Status AwaitReply(uint32_t s, const wire::Frame& request,
                    wire::MsgType want,
                    const std::function<Status(wire::Frame*)>& check,
                    wire::Frame* reply);

  /// Sends `frame` to worker `s`, restarting it until the send lands.
  Status SendWithRecovery(uint32_t s, const wire::Frame& frame);

  /// Backoff -> factory -> handshake -> journal replay; loops until a
  /// replacement serves or the budget is exhausted (kGiveUp). `cause`
  /// is the failure that triggered recovery, kept for the error text.
  Status RestartWorker(uint32_t s, const Status& cause);

  /// The body of LoadFromFiles/LoadInline: resets backoff and the
  /// journals, handshakes every worker, then makes the journaled kLoad
  /// round trip with one request per shard; `fill` sets each request's
  /// source fields (ids and thread count are set here).
  Status LoadShards(
      uint32_t threads_per_worker,
      const std::function<void(uint32_t s, wire::LoadRequest* req)>& fill);

  /// kHello/kHelloAck exchange with version check.
  Status Handshake(uint32_t s);
  Status HandshakeAll();

  /// Re-sends worker `s`'s journal into a fresh replacement, discarding
  /// replies (their emissions were routed before the failure).
  Status ReplayJournal(uint32_t s);

  void AppendJournal(uint32_t s, const wire::Frame& frame);

  double Now() const;
  void SleepFor(double seconds) const;

  // Mutex-free by design: the coordinator is driven by one thread (the
  // strictly sequential RoundTrip is what prevents fd-transport
  // deadlock), so none of this state is ever shared. Recovery happens
  // inline on the same thread.
  const Ccsr* full_;
  std::vector<std::unique_ptr<Transport>> workers_;
  bool loaded_ = false;

  SupervisionOptions sup_;
  WorkerFactory factory_;
  std::vector<BackoffState> backoff_;
  /// Replay journals: the kLoad prefix survives across queries; the
  /// query part (kPlan + kRoot/kExtend frames) resets at each Execute.
  std::vector<std::vector<wire::Frame>> load_journal_;
  std::vector<std::vector<wire::Frame>> query_journal_;

  /// Supervision activity, also mirrored into ShardResult per query.
  uint64_t restarts_total_ = 0;
  uint64_t retries_total_ = 0;

  obs::Counter restarts_metric_;
  obs::Counter retries_metric_;
  obs::Counter heartbeat_timeouts_metric_;
  obs::Counter workers_lost_metric_;
  obs::Counter handshake_failures_metric_;
  obs::Histogram round_seconds_metric_;
};

class ShardWorker;  // worker.h is a coordinator.cc-only dependency

/// How InProcessCluster wires its worker threads to the coordinator.
enum class ClusterTransport : uint8_t {
  /// Environment-driven: CSCE_SHARD_TRANSPORT=tcp selects kTcp, any
  /// other value (or unset) kLoopback. The CI shard-tcp leg runs the
  /// whole suite over TCP this way without touching test code.
  kAuto,
  kLoopback,
  /// AF_UNIX socketpair through the FdTransport syscall path — the
  /// same wiring csce_serve uses for forked workers, minus the fork.
  /// The bench baseline TCP overhead is measured against.
  kUnix,
  kTcp,
};

/// Optional knobs for InProcessCluster::Create.
struct InProcessClusterOptions {
  SupervisionOptions supervision;
  /// Faults applied to the worker side of every transport (shared
  /// across worker incarnations so one-shot faults never re-fire after
  /// a restart). Null: no faults.
  std::shared_ptr<FaultInjector> faults;
  ClusterTransport transport = ClusterTransport::kAuto;
  /// Non-empty: workers LOAD from on-disk artifacts at this base path
  /// (`csce_build --shards=N` layout) instead of the inline shard
  /// graphs extracted from `g`; Create still builds the ShardPlan from `g`, so the
  /// artifacts must have been produced with the same partitioning.
  std::string load_base_path;
  /// With `load_base_path`: workers mmap their (v2) shard artifact.
  bool use_mmap = false;
  /// With `use_mmap`: per-worker paging-advice budget in bytes.
  uint64_t memory_cap_bytes = 0;
};

/// A self-contained sharded engine inside one process: partitions the
/// graph, ships each shard's graph to its worker (which builds the
/// shard CCSR), runs one ShardWorker thread per shard
/// over loopback (or TCP-loopback) transports and wires a supervised
/// coordinator to them. The cross-check tests and csce_serve --shards
/// (without --workers) run on this. Its WorkerFactory spawns
/// replacement worker threads, so every recovery path is exercisable
/// in-process.
class InProcessCluster {
 public:
  /// `g` is the original data graph, `full` its complete CCSR (both
  /// must outlive the cluster). Builds the ShardPlan, extracts every
  /// shard graph, spawns the worker threads and LOADs them.
  static Status Create(const Graph& g, const Ccsr* full, uint32_t num_shards,
                       PartitionStrategy strategy,
                       uint32_t threads_per_worker,
                       std::unique_ptr<InProcessCluster>* out);
  static Status Create(const Graph& g, const Ccsr* full, uint32_t num_shards,
                       PartitionStrategy strategy,
                       uint32_t threads_per_worker,
                       const InProcessClusterOptions& opts,
                       std::unique_ptr<InProcessCluster>* out);

  ~InProcessCluster();

  InProcessCluster(const InProcessCluster&) = delete;
  InProcessCluster& operator=(const InProcessCluster&) = delete;

  ShardCoordinator& coordinator() { return *coordinator_; }
  const ShardPlan& shard_plan() const { return shard_plan_; }

  /// Constructor passkey: only Create() can instantiate (make_unique
  /// needs a public constructor).
  struct Passkey {
   private:
    friend class InProcessCluster;
    Passkey() = default;
  };
  explicit InProcessCluster(Passkey);

 private:
  /// Spawns a fresh ShardWorker thread for `shard` and returns the
  /// coordinator-side transport; both the initial population and the
  /// coordinator's WorkerFactory go through here. Old incarnations'
  /// threads stay in worker_threads_ until destruction (they exit as
  /// soon as their transport dies).
  Status SpawnWorker(uint32_t shard, std::unique_ptr<Transport>* out);

  ClusterTransport transport_ = ClusterTransport::kLoopback;
  std::shared_ptr<FaultInjector> faults_;
  ShardPlan shard_plan_;
  std::unique_ptr<ShardCoordinator> coordinator_;
  std::vector<std::unique_ptr<ShardWorker>> worker_impls_;
  std::vector<std::thread> worker_threads_;
};

}  // namespace shard
}  // namespace csce

#endif  // CSCE_SHARD_COORDINATOR_H_
