#include "shard/worker.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ccsr/ccsr_io.h"
#include "engine/matcher.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace csce {
namespace shard {
namespace {

/// Same policy as the parallel runtime's AutoMorselSize: ~8 morsels per
/// thread, clamped so tiny root sets stay serial-cheap and huge ones
/// don't contend on the claim counter.
size_t RootMorselSize(size_t roots, uint32_t threads) {
  size_t m = roots / (static_cast<size_t>(threads) * 8);
  return std::clamp<size_t>(m, 1, 4096);
}

}  // namespace

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
  // state (worse under mmap: ccsr_ could borrow a dropped mapping).
  loaded_ = false;
  query_active_ = false;

  if (req.inline_payload) {
    mmap_.reset();  // drop any previous out-of-core mapping
    std::istringstream in(req.ccsr_blob);
    CSCE_RETURN_IF_ERROR(LoadCcsrFromStream(in, &ccsr_));
    owner_ = req.owner;
  } else {
    if (req.use_mmap) {
      // Out-of-core shard: map the v2 artifact instead of streaming it.
      // Open() runs the structural checks (size pinning, directory CRC,
      // per-cluster bounds) only — a deep Validate() would stream the
      // whole payload through the page cache and defeat the O(1) open;
      // the build/crosscheck path covers semantic validation.
      MmapCcsr::Options mopts;
      mopts.memory_cap_bytes = req.memory_cap_bytes;
      mmap_.reset();
      CSCE_RETURN_IF_ERROR(MmapCcsr::Open(req.ccsr_path, mopts, &mmap_));
      ccsr_ = mmap_->Release();
    } else {
      mmap_.reset();
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
  executors_.clear();
  pattern_ = req.pattern;
  plan_ = req.plan;
  // Out-of-core shard: hand the pager the plan's cluster access order
  // before the reads below start faulting pages in (no-op in-memory).
  if (ccsr_.mapped()) {
    ccsr_.AdviseQueryClusters(PlanClusterSchedule(ccsr_, plan_));
  }
  CSCE_RETURN_IF_ERROR(ReadClusters(ccsr_, pattern_, req.variant, &qc_));

  // Owned root candidates: the probe computes the full root set against
  // the shard CCSR (labels are global; owned vertices have exact local
  // degrees, so the LDF filter never drops an owned root) and the owned
  // slice is what this worker's morsel loop drains.
  {
    Executor probe(ccsr_, qc_, plan_);
    // Deliberately no prune passes, not even the default label-pair
    // filter. The probe runs against the shard-local CCSR, whose label
    // masks and rows are partial (1-hop replication), so any proactive
    // pruning here could drop owned roots that complete on other shards.
    ExecOptions probe_options;
    probe_options.prune = NoPruneOptions();
    std::vector<VertexId> roots;
    CSCE_RETURN_IF_ERROR(probe.ComputeRootCandidates(probe_options, &roots));
    owned_roots_.clear();
    for (VertexId v : roots) {
      if (owner_[v] == shard_id_) owned_roots_.push_back(v);
    }
  }
  root_morsel_ = RootMorselSize(owned_roots_.size(), num_threads_);
  root_next_.store(0, std::memory_order_relaxed);
  task_next_.store(0, std::memory_order_relaxed);

  // Per-thread executors over stable options/spec storage (the executor
  // keeps pointers into both for the whole query).
  specs_.assign(num_threads_, ShardSpec{});
  exec_options_.assign(num_threads_, ExecOptions{});
  emit_buf_.assign(num_threads_, {});
  embedding_buf_.assign(num_threads_, {});
  for (uint32_t t = 0; t < num_threads_; ++t) {
    ShardSpec& spec = specs_[t];
    spec.shard_id = shard_id_;
    spec.num_shards = num_shards_;
    spec.owner = std::span<const uint32_t>(owner_);
    std::vector<ShardTask>* ebuf = &emit_buf_[t];
    spec.emit = [ebuf](ShardTask&& task) { ebuf->push_back(std::move(task)); };

    ExecOptions& opt = exec_options_[t];
    opt.verify_sce = req.verify_sce;
    opt.time_limit_seconds = req.time_limit_seconds;
    opt.shard = &spec;
    // The plan may carry prune directives (the coordinator forwards
    // the user's pass set over the wire), but the executor force-
    // disables every pass in shard mode — see ExecOptions::prune.
    // Forwarding them anyway keeps the wire round-trip visible in
    // task-mode stats if that guard ever changes.
    opt.prune = plan_.prune;
    opt.root_claim = [this]() -> std::span<const VertexId> {
      size_t begin = root_next_.fetch_add(root_morsel_);
      if (begin >= owned_roots_.size()) return {};
      size_t end = std::min(begin + root_morsel_, owned_roots_.size());
      return std::span<const VertexId>(owned_roots_.data() + begin,
                                       end - begin);
    };
    if (req.emit_embeddings) {
      std::vector<VertexId>* mbuf = &embedding_buf_[t];
      opt.callback = [mbuf](std::span<const VertexId> mapping) {
        mbuf->insert(mbuf->end(), mapping.begin(), mapping.end());
        return true;
      };
    }
  }
  executors_.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; ++t) {
    executors_.push_back(std::make_unique<Executor>(ccsr_, qc_, plan_));
    CSCE_RETURN_IF_ERROR(executors_[t]->PrepareForTasks(exec_options_[t]));
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
      Executor* exec = executors_[t].get();
      Status* result = &results[t];
      pool_->Submit([exec, result] { *result = exec->RunRootMorsels(); });
    }
  } else {
    task_next_.store(0, std::memory_order_relaxed);
    const std::vector<ShardTask>& tasks = in->tasks;
    for (uint32_t t = 0; t < num_threads_; ++t) {
      Executor* exec = executors_[t].get();
      Status* result = &results[t];
      pool_->Submit([this, exec, result, &tasks] {
        for (;;) {
          size_t i = task_next_.fetch_add(1, std::memory_order_relaxed);
          if (i >= tasks.size()) return;
          Status s = exec->RunTask(tasks[i]);
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
  for (std::vector<ShardTask>& buf : emit_buf_) {
    for (ShardTask& task : buf) out->tasks.push_back(std::move(task));
    buf.clear();
  }
  return Status::OK();
}

Status ShardWorker::HandleFinish(wire::ResultMsg* out) {
  if (!query_active_) {
    return Status::InvalidArgument("shard worker: kFinish before kPlan");
  }
  *out = wire::ResultMsg{};
  bool emitting = false;
  for (uint32_t t = 0; t < num_threads_; ++t) {
    ExecStats st;
    executors_[t]->FinishTasks(&st);
    out->embeddings += st.embeddings;
    out->search_nodes += st.search_nodes;
    out->candidate_sets_computed += st.candidate_sets_computed;
    out->candidate_sets_reused += st.candidate_sets_reused;
    out->morsels_claimed += st.morsels_claimed;
    out->timed_out |= st.timed_out;
    out->cancelled |= st.cancelled;
    out->limit_reached |= st.limit_reached;
    out->seconds += st.seconds;
    emitting |= !embedding_buf_[t].empty();
  }
  if (emitting || exec_options_[0].callback) {
    out->embedding_width = pattern_.NumVertices();
    for (std::vector<VertexId>& buf : embedding_buf_) {
      out->embedding_data.insert(out->embedding_data.end(), buf.begin(),
                                 buf.end());
      buf.clear();
    }
    if (out->embedding_width > 0 &&
        out->embedding_data.size() !=
            out->embeddings * out->embedding_width) {
      return Status::Corruption(
          "shard worker: embedding buffer does not match embedding count");
    }
  }
  query_active_ = false;
  executors_.clear();
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
