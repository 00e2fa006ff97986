#include "shard/worker.h"

#include <algorithm>
#include <utility>

#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "engine/matcher.h"
#include "engine/setops/setops.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/parallel_executor.h"

namespace csce {
namespace shard {

/// One worker thread's share of the current query: an Executor and the
/// Placement that routes its extensions. Every extension enumerates
/// only the candidates this shard owns; the rest leave as ShardTasks
/// buffered for the next round. Correctness rests on the shard CCSR
/// holding every edge incident to an owned vertex (the 1-hop
/// replication ShardPlan::ExtractShard guarantees): an owned vertex's
/// rows, degrees and label masks are exact, so the local candidate set
/// — prune passes included — is exact on owned vertices. Heap-allocated
/// because the executor keeps pointers to `options` and the router.
class ShardWorker::Router final : public Placement {
 public:
  Router(const ShardWorker& worker, const QueryClusters& qc)
      : exec(worker.ccsr_, qc, worker.plan_), w_(worker) {
    const uint32_t n = static_cast<uint32_t>(w_.plan_.positions.size());
    owned_.resize(n);
    // The ship set intersects only the owned parents' rows, so its
    // bound is the largest single row, not CandidateBound's minimum.
    size_t ship_bound = 0;
    for (uint32_t j = 0; j < n; ++j) {
      for (const Executor::ResolvedEdge& e : exec.ResolvedEdges(j)) {
        if (e.cluster == nullptr) continue;
        ship_bound = std::max(ship_bound, e.incoming
                                              ? e.cluster->MaxInRowLength()
                                              : e.cluster->MaxOutRowLength());
      }
      lists_.reserve(exec.ResolvedEdges(j).size());  // only ever grows
      owned_[j].Reserve(exec.CandidateBound(j) + setops::kOutPad);
    }
    ship_.Reserve(ship_bound + setops::kOutPad);
    ship_tmp_.Reserve(ship_bound + setops::kOutPad);
    buckets_.resize(w_.num_shards_);
  }

  /// Runs one routed task. Tasks arrive over the wire, so malformed
  /// ones (wrong shard, wrong kind for the position, unsorted or
  /// non-owned candidates, a forward to a shard owning no parent)
  /// return InvalidArgument without crashing.
  CSCE_HOT_PATH Status RunTask(const ShardTask& task) {
    const uint32_t depth = task.depth;
    if (depth == 0 || depth >= w_.plan_.positions.size() ||
        task.mapping.size() != depth) {
      return Status::InvalidArgument("malformed shard task");
    }
    if (task.target_shard != w_.shard_id_) {
      return Status::InvalidArgument("shard task routed to wrong shard");
    }
    const bool edgeless = exec.ResolvedEdges(depth).empty();
    if (task.kind == ShardTask::Kind::kLocalOnly ? !edgeless : edgeless) {
      return Status::InvalidArgument("shard task kind inconsistent with plan");
    }
    VertexId prev = kInvalidVertex;
    for (VertexId c : task.candidates) {
      // Sorted unique (prev starts as the max sentinel; a first element
      // equal to it would be out of range anyway) and owned here.
      if (!Owned(c) || (prev != kInvalidVertex && c <= prev)) {
        return Status::InvalidArgument("bad shard task candidate list");
      }
      prev = c;
    }
    if (task.kind == ShardTask::Kind::kForward &&
        !OwnsParent(depth, task.mapping)) {
      // Re-forwarding would bounce the task between shards forever.
      return Status::InvalidArgument("forward task target owns no parent");
    }
    resuming_ = &task;
    Status st = exec.Resume(task.mapping);
    resuming_ = nullptr;
    return st;
  }

  /// Moves the tasks emitted since the last call to the end of `out`.
  void TakeEmitted(std::vector<ShardTask>* out) {
    for (ShardTask& task : emitted_) out->push_back(std::move(task));
    emitted_.clear();
  }

  CSCE_HOT_PATH std::span<const VertexId> Place(
      Executor& exec, uint32_t depth, std::span<const VertexId> prefix,
      bool* routed) override {
    if (resuming_ != nullptr) {
      // The resumed task's own extension, already split by its sender;
      // a forward is split here like an extension reached locally.
      const ShardTask& task = *resuming_;
      resuming_ = nullptr;
      if (task.kind == ShardTask::Kind::kLocalOnly) {
        return OwnedOf(depth, exec.Candidates(depth));
      }
      if (task.kind == ShardTask::Kind::kVerify) {
        std::span<const VertexId> local = exec.Candidates(depth);
        setops::VertexScratch& own = owned_[depth];
        own.EnsureCapacity(std::min(local.size(), task.candidates.size()) +
                           setops::kOutPad);
        own.set_size(setops::Intersect(local, task.candidates, own.data()));
        return own.span();
      }
    }
    // Outside morsel mode every shard covers its own roots.
    if (depth == 0) return OwnedOf(0, exec.Candidates(0));
    if (exec.ResolvedEdges(depth).empty()) {
      // The candidate set is mapping-independent (seed or label scan),
      // so every shard holds it whole. The shard that reached this
      // prefix broadcasts it once; kLocalOnly receivers enumerate their
      // owned slice without re-broadcasting.
      for (uint32_t t = 0; t < w_.num_shards_; ++t) {
        if (t == w_.shard_id_) continue;
        EmitTask(ShardTask::Kind::kLocalOnly, t, prefix, {});
      }
      *routed = w_.num_shards_ > 1;
      return OwnedOf(depth, exec.Candidates(depth));
    }
    if (!OwnsParent(depth, prefix)) {
      // Every parent row here may be incomplete, so hand the whole
      // extension to the owner of the first parent — exclusively, so
      // every candidate is handled exactly once.
      const uint32_t first_parent = exec.ResolvedEdges(depth)[0].pos;
      EmitTask(ShardTask::Kind::kForward, w_.owner_[prefix[first_parent]],
               prefix, {});
      *routed = true;
      return {};
    }
    *routed = ShipRemote(depth, prefix);
    return OwnedOf(depth, exec.Candidates(depth));
  }

  ExecOptions options;
  Executor exec;
  std::vector<VertexId> embeddings;  // flat rows, when emitting

 private:
  CSCE_HOT_PATH bool Owned(VertexId v) const {
    return v < w_.owner_.size() && w_.owner_[v] == w_.shard_id_;
  }

  CSCE_HOT_PATH bool OwnsParent(uint32_t depth,
                                std::span<const VertexId> prefix) const {
    for (const Executor::ResolvedEdge& e : exec.ResolvedEdges(depth)) {
      if (Owned(prefix[e.pos])) return true;
    }
    return false;
  }

  /// The owned part of `base`, copied out of the (possibly NEC-shared)
  /// cache slot: the list must survive the recursion below `depth`.
  CSCE_HOT_PATH std::span<const VertexId> OwnedOf(
      uint32_t depth, std::span<const VertexId> base) {
    setops::VertexScratch& own = owned_[depth];
    own.EnsureCapacity(base.size());
    own.clear();
    for (VertexId v : base) {
      if (w_.owner_[v] == w_.shard_id_) own.push_back(v);
    }
    return own.span();
  }

  /// Ships the non-owned part of a superset of the true candidate set:
  /// the intersection of the owned parents' rows, which 1-hop
  /// replication makes complete. Each owner then intersects its part
  /// with its own exact candidate set (kVerify), which removes the false
  /// positives. Returns whether any task left.
  CSCE_HOT_PATH bool ShipRemote(uint32_t depth,
                                std::span<const VertexId> prefix) {
    lists_.clear();
    for (const Executor::ResolvedEdge& e : exec.ResolvedEdges(depth)) {
      VertexId w = prefix[e.pos];
      if (!Owned(w)) continue;
      // An owned parent without a cluster or row: the edge exists
      // nowhere.
      if (e.cluster == nullptr) return false;
      std::span<const VertexId> row =
          e.incoming ? e.cluster->In(w) : e.cluster->Out(w);
      if (row.empty()) return false;
      lists_.push_back(row);
    }
    setops::IntersectAll(lists_, &ship_, &ship_tmp_);
    return RouteByOwner(prefix, ship_.span());
  }

  /// Buckets `ship` by owner and emits one kVerify task per non-empty
  /// bucket. Allocates by design: per-shard buckets can outgrow any
  /// up-front bound, so routing is exempt from zero-allocation.
  CSCE_ALLOC_OK bool RouteByOwner(std::span<const VertexId> prefix,
                                  std::span<const VertexId> ship) {
    for (VertexId c : ship) {
      const uint32_t t = w_.owner_[c];
      if (t != w_.shard_id_) buckets_[t].push_back(c);
    }
    bool routed = false;
    for (uint32_t t = 0; t < w_.num_shards_; ++t) {
      if (buckets_[t].empty()) continue;
      EmitTask(ShardTask::Kind::kVerify, t, prefix, std::move(buckets_[t]));
      buckets_[t].clear();  // moved-from: reset to a known state
      routed = true;
    }
    return routed;
  }

  /// Allocates by design (the emitted task owns its mapping copy).
  CSCE_ALLOC_OK void EmitTask(ShardTask::Kind kind, uint32_t target,
                              std::span<const VertexId> prefix,
                              std::vector<VertexId> candidates) {
    emitted_.push_back(ShardTask{kind, target,
                                 static_cast<uint32_t>(prefix.size()),
                                 {prefix.begin(), prefix.end()},
                                 std::move(candidates)});
  }

  const ShardWorker& w_;
  std::vector<setops::VertexScratch> owned_;      // per depth
  std::vector<std::span<const VertexId>> lists_;  // gather buffer
  setops::VertexScratch ship_;                    // ship set and its
  setops::VertexScratch ship_tmp_;                // ping-pong partner
  std::vector<std::vector<VertexId>> buckets_;    // per target shard
  std::vector<ShardTask> emitted_;
  /// The task RunTask is resuming, until its first Place consumes it:
  /// the task's kind decides how that extension is split.
  const ShardTask* resuming_ = nullptr;
};

ShardWorker::ShardWorker() = default;
ShardWorker::~ShardWorker() = default;


Status ShardWorker::Serve(Transport& transport) {
  for (;;) {
    wire::Frame req;
    CSCE_RETURN_IF_ERROR(transport.Recv(&req));

    wire::Frame reply;
    Status hs = Status::OK();
    bool shutdown = false;
    switch (static_cast<wire::MsgType>(req.type)) {
      case wire::MsgType::kLoad: {
        wire::LoadRequest msg;
        hs = wire::DecodeLoadRequest(req.payload, &msg);
        if (hs.ok()) hs = HandleLoad(msg);
        reply.type = static_cast<uint32_t>(wire::MsgType::kOk);
        break;
      }
      case wire::MsgType::kPlan: {
        wire::PlanRequest msg;
        hs = wire::DecodePlanRequest(req.payload, &msg);
        if (hs.ok()) hs = HandlePlan(msg);
        reply.type = static_cast<uint32_t>(wire::MsgType::kOk);
        break;
      }
      case wire::MsgType::kRoot: {
        wire::TaskBatch out;
        hs = RunRound(nullptr, &out);
        reply.type = static_cast<uint32_t>(wire::MsgType::kTaskBatch);
        if (hs.ok()) reply.payload = wire::EncodeTaskBatch(out);
        break;
      }
      case wire::MsgType::kExtend: {
        wire::TaskBatch in;
        hs = wire::DecodeTaskBatch(req.payload, &in);
        wire::TaskBatch out;
        if (hs.ok()) hs = RunRound(&in, &out);
        reply.type = static_cast<uint32_t>(wire::MsgType::kTaskBatch);
        if (hs.ok()) reply.payload = wire::EncodeTaskBatch(out);
        break;
      }
      case wire::MsgType::kFinish: {
        wire::ResultMsg res;
        hs = HandleFinish(&res);
        reply.type = static_cast<uint32_t>(wire::MsgType::kResult);
        if (hs.ok()) reply.payload = wire::EncodeResultMsg(res);
        break;
      }
      case wire::MsgType::kStats: {
        reply.type = static_cast<uint32_t>(wire::MsgType::kStatsResult);
        reply.payload = wire::EncodeStatsResult(CollectStats());
        break;
      }
      case wire::MsgType::kHello: {
        wire::HelloMsg msg;
        hs = wire::DecodeHello(req.payload, &msg);
        if (hs.ok() && msg.protocol_version != wire::kProtocolVersion) {
          hs = Status::InvalidArgument(
              "shard worker: protocol version mismatch: peer speaks v" +
              std::to_string(msg.protocol_version) + ", this build v" +
              std::to_string(wire::kProtocolVersion));
        }
        // Always answer with our own version; the coordinator decides.
        wire::HelloMsg ack;
        ack.peer_role = "worker";
        reply.type = static_cast<uint32_t>(wire::MsgType::kHelloAck);
        if (hs.ok()) reply.payload = wire::EncodeHello(ack);
        break;
      }
      case wire::MsgType::kPing: {
        reply.type = static_cast<uint32_t>(wire::MsgType::kPong);
        break;
      }
      case wire::MsgType::kShutdown: {
        reply.type = static_cast<uint32_t>(wire::MsgType::kOk);
        shutdown = true;
        break;
      }
      default:
        hs = Status::InvalidArgument("shard worker: unknown frame type " +
                                     std::to_string(req.type));
        break;
    }
    if (!hs.ok()) {
      // Handler failures are protocol payload, not connection failures:
      // report and keep serving so the coordinator can decide.
      reply.type = static_cast<uint32_t>(wire::MsgType::kError);
      reply.payload = wire::EncodeError(hs);
    }
    CSCE_RETURN_IF_ERROR(transport.Send(reply));
    if (shutdown) return Status::OK();
  }
}

Status ShardWorker::HandleLoad(const wire::LoadRequest& req) {
  if (req.num_shards == 0) {
    return Status::InvalidArgument("shard worker: num_shards must be >= 1");
  }
  if (req.shard_id >= req.num_shards) {
    return Status::InvalidArgument("shard worker: shard_id out of range");
  }
  shard_id_ = req.shard_id;
  num_shards_ = req.num_shards;
  num_threads_ = std::max<uint32_t>(1, req.num_threads);
  // A failed re-load must not leave the worker serving half-replaced
  // state.
  loaded_ = false;
  query_active_ = false;
  // The previous query's executors point into ccsr_'s records: drop
  // them before the index goes.
  routers_.clear();

  if (req.inline_payload) {
    ccsr_ = Ccsr::Build(req.shard_graph);
    owner_ = req.owner;
  } else {
    if (req.use_mmap) {
      // Out-of-core shard: serve from the mapping instead of copying the
      // v2 artifact into memory. Open() runs the structural checks (size pinning, directory CRC,
      // per-cluster bounds) only — a deep Validate() would stream the
      // whole payload through the page cache and defeat the O(1) open;
      // the build/crosscheck path covers semantic validation.
      MmapCcsr::Options mopts;
      mopts.memory_cap_bytes = req.memory_cap_bytes;
      std::unique_ptr<MmapCcsr> mapped;
      CSCE_RETURN_IF_ERROR(MmapCcsr::Open(req.ccsr_path, mopts, &mapped));
      ccsr_ = mapped->Release();  // co-owns the mapping
    } else {
      CSCE_RETURN_IF_ERROR(LoadCcsrFromFile(req.ccsr_path, &ccsr_));
    }
    ShardPlan plan;
    CSCE_RETURN_IF_ERROR(ShardPlan::LoadFromFile(req.plan_path, &plan));
    if (plan.num_shards() != num_shards_) {
      return Status::InvalidArgument(
          "shard worker: shard plan was built for " +
          std::to_string(plan.num_shards()) + " shards, coordinator expects " +
          std::to_string(num_shards_));
    }
    owner_ = plan.owners();
  }
  if (owner_.size() != ccsr_.NumVertices()) {
    return Status::InvalidArgument(
        "shard worker: owner table size " + std::to_string(owner_.size()) +
        " != ccsr vertices " + std::to_string(ccsr_.NumVertices()));
  }
  for (uint32_t o : owner_) {
    if (o >= num_shards_) {
      return Status::Corruption("shard worker: owner entry out of range");
    }
  }
  pool_ = std::make_unique<ThreadPool>(num_threads_);
  query_active_ = false;
  loaded_ = true;
  return Status::OK();
}

Status ShardWorker::HandlePlan(const wire::PlanRequest& req) {
  if (!loaded_) {
    return Status::InvalidArgument("shard worker: kPlan before kLoad");
  }
  query_active_ = false;
  routers_.clear();
  pattern_ = req.pattern;
  plan_ = req.plan;
  // Out-of-core shard: hand the pager the plan's cluster access order
  // before the reads below start faulting pages in (no-op in-memory).
  if (ccsr_.mapped()) {
    ccsr_.AdviseQueryClusters(PlanClusterSchedule(ccsr_, plan_));
  }
  // Each executor resolves the plan's clusters from this read.
  QueryClusters qc;
  CSCE_RETURN_IF_ERROR(ReadClusters(ccsr_, pattern_, req.variant, &qc));

  // Owned root candidates: the probe computes the full root set against
  // the shard CCSR with the plan's passes. Labels are global and owned
  // vertices have exact local rows, degrees and label masks, so the
  // owned slice this worker's morsel loop drains is exact.
  {
    Executor probe(ccsr_, qc, plan_);
    ExecOptions probe_options;
    probe_options.prune = plan_.prune;
    std::vector<VertexId> roots;
    CSCE_RETURN_IF_ERROR(
        probe.ComputeRootCandidates(probe_options, &roots, &probe_stats_));
    owned_roots_.clear();
    for (VertexId v : roots) {
      if (owner_[v] == shard_id_) owned_roots_.push_back(v);
    }
  }
  root_morsel_ = AutoMorselSize(owned_roots_.size(), num_threads_);
  root_next_.store(0, std::memory_order_relaxed);
  task_next_.store(0, std::memory_order_relaxed);

  for (uint32_t t = 0; t < num_threads_; ++t) {
    routers_.push_back(std::make_unique<Router>(*this, qc));
    Router& router = *routers_.back();
    ExecOptions& opt = router.options;
    opt.verify_sce = req.verify_sce;
    opt.time_limit_seconds = req.time_limit_seconds;
    opt.placement = &router;
    opt.prune = plan_.prune;
    opt.root_claim = [this]() -> std::span<const VertexId> {
      size_t begin = root_next_.fetch_add(root_morsel_);
      if (begin >= owned_roots_.size()) return {};
      size_t end = std::min(begin + root_morsel_, owned_roots_.size());
      return std::span<const VertexId>(owned_roots_.data() + begin,
                                       end - begin);
    };
    if (req.emit_embeddings) {
      std::vector<VertexId>* rows = &router.embeddings;
      opt.callback = [rows](std::span<const VertexId> mapping) {
        rows->insert(rows->end(), mapping.begin(), mapping.end());
        return true;
      };
    }
    CSCE_RETURN_IF_ERROR(router.exec.Prepare(opt));
  }
  query_active_ = true;
  return Status::OK();
}

Status ShardWorker::RunRound(const wire::TaskBatch* in, wire::TaskBatch* out) {
  if (!query_active_) {
    return Status::InvalidArgument("shard worker: round before kPlan");
  }
  std::vector<Status> results(num_threads_, Status::OK());
  if (in == nullptr) {
    // Root round: every thread drains owned-root morsels.
    for (uint32_t t = 0; t < num_threads_; ++t) {
      Router* router = routers_[t].get();
      Status* result = &results[t];
      pool_->Submit([router, result] { *result = router->exec.DrainRoots(); });
    }
  } else {
    task_next_.store(0, std::memory_order_relaxed);
    const std::vector<ShardTask>& tasks = in->tasks;
    for (uint32_t t = 0; t < num_threads_; ++t) {
      Router* router = routers_[t].get();
      Status* result = &results[t];
      pool_->Submit([this, router, result, &tasks] {
        for (;;) {
          size_t i = task_next_.fetch_add(1, std::memory_order_relaxed);
          if (i >= tasks.size()) return;
          Status s = router->RunTask(tasks[i]);
          if (!s.ok()) {
            *result = std::move(s);
            return;
          }
        }
      });
    }
  }
  pool_->Wait();
  for (Status& s : results) {
    if (!s.ok()) return std::move(s);
  }
  out->tasks.clear();
  for (const std::unique_ptr<Router>& router : routers_) {
    router->TakeEmitted(&out->tasks);
  }
  return Status::OK();
}

Status ShardWorker::HandleFinish(wire::ResultMsg* out) {
  if (!query_active_) {
    return Status::InvalidArgument("shard worker: kFinish before kPlan");
  }
  *out = wire::ResultMsg{};
  // The probe's root computation is work the executors never repeat,
  // folded in like ParallelExecutor folds its probe.
  out->candidate_sets_computed = probe_stats_.candidate_sets_computed;
  out->prune_candidates_removed = probe_stats_.prune_candidates_removed;
  for (const std::unique_ptr<Router>& router : routers_) {
    ExecStats st;
    router->exec.Finish(&st);
    out->embeddings += st.embeddings;
    out->search_nodes += st.search_nodes;
    out->candidate_sets_computed += st.candidate_sets_computed;
    out->candidate_sets_reused += st.candidate_sets_reused;
    out->morsels_claimed += st.morsels_claimed;
    out->prune_candidates_removed += st.prune_candidates_removed;
    out->prune_extensions_skipped += st.prune_extensions_skipped;
    out->timed_out |= st.timed_out;
    out->cancelled |= st.cancelled;
    out->limit_reached |= st.limit_reached;
    out->seconds += st.seconds;
  }
  if (routers_[0]->options.callback) {
    out->embedding_width = pattern_.NumVertices();
    for (const std::unique_ptr<Router>& router : routers_) {
      out->embedding_data.insert(out->embedding_data.end(),
                                 router->embeddings.begin(),
                                 router->embeddings.end());
    }
    if (out->embedding_width > 0 &&
        out->embedding_data.size() !=
            out->embeddings * out->embedding_width) {
      return Status::Corruption(
          "shard worker: embedding buffer does not match embedding count");
    }
  }
  query_active_ = false;
  routers_.clear();
  // End of query: close the paging-advice window (drops the advised
  // clusters when this worker runs under a memory cap; no-op otherwise).
  ccsr_.AdviseQueryDone();
  return Status::OK();
}

wire::StatsResult ShardWorker::CollectStats() const {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("schema", "csce.metrics.v1");
  doc.Set("metrics", obs::MetricRegistry::Global().Snapshot().ToJson(true));
  wire::StatsResult res;
  res.metrics_json = doc.Dump(1);
  return res;
}

}  // namespace shard
}  // namespace csce
