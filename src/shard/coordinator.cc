#include "shard/coordinator.h"

#include <sys/socket.h>

#include <cstdlib>
#include <string_view>
#include <utility>

#include "engine/embedding_verifier.h"
#include "obs/trace.h"
#include "plan/validate.h"
#include "shard/worker.h"
#include "util/timer.h"

namespace csce {
namespace shard {
namespace {

constexpr uint32_t kTypeOf(wire::MsgType t) { return static_cast<uint32_t>(t); }

}  // namespace

ShardCoordinator::ShardCoordinator(const Ccsr* full) : full_(full) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  restarts_metric_ = reg.counter("shard.worker_restarts");
  retries_metric_ = reg.counter("shard.frames_retried");
  heartbeat_timeouts_metric_ = reg.counter("shard.heartbeat_timeouts");
  workers_lost_metric_ = reg.counter("shard.workers_lost");
  handshake_failures_metric_ = reg.counter("shard.handshake_failures");
  round_seconds_metric_ = reg.histogram("shard.round_seconds");
}

void ShardCoordinator::AttachWorker(std::unique_ptr<Transport> transport) {
  workers_.push_back(std::move(transport));
}

double ShardCoordinator::Now() const {
  return sup_.clock_fn ? sup_.clock_fn() : MonotonicSeconds();
}

void ShardCoordinator::SleepFor(double seconds) const {
  if (sup_.sleep_fn) {
    sup_.sleep_fn(seconds);
  } else {
    SleepSeconds(seconds);
  }
}

void ShardCoordinator::AppendJournal(uint32_t s, const wire::Frame& frame) {
  if (frame.type == kTypeOf(wire::MsgType::kLoad)) {
    load_journal_[s].push_back(frame);
  } else if (frame.type == kTypeOf(wire::MsgType::kPlan) ||
             frame.type == kTypeOf(wire::MsgType::kRoot) ||
             frame.type == kTypeOf(wire::MsgType::kExtend)) {
    query_journal_[s].push_back(frame);
  }
  // Everything else (ping, finish, stats, shutdown) is either
  // reply-less state or consumed exactly when answered; replaying it
  // would double work without reconstructing any state.
}

Status ShardCoordinator::Handshake(uint32_t s) {
  wire::HelloMsg hello;
  hello.peer_role = "coordinator";
  wire::Frame req{kTypeOf(wire::MsgType::kHello), wire::EncodeHello(hello)};
  CSCE_RETURN_IF_ERROR(workers_[s]->Send(req));
  if (sup_.enabled && sup_.heartbeat_timeout_seconds > 0.0) {
    workers_[s]->set_read_deadline(sup_.heartbeat_timeout_seconds);
  }
  wire::Frame reply;
  CSCE_RETURN_IF_ERROR(workers_[s]->Recv(&reply));
  TransportError err;
  err.fault = TransportFault::kHandshake;
  err.frame_type = reply.type;
  err.shard = s;
  if (reply.type != kTypeOf(wire::MsgType::kHelloAck)) {
    handshake_failures_metric_.Increment();
    err.context = "expected kHelloAck";
    return err.ToStatus();
  }
  wire::HelloMsg ack;
  Status st = wire::DecodeHello(reply.payload, &ack);
  if (!st.ok() || ack.protocol_version != wire::kProtocolVersion) {
    handshake_failures_metric_.Increment();
    err.context =
        st.ok() ? "peer protocol version " +
                      std::to_string(ack.protocol_version) + ", expected " +
                      std::to_string(wire::kProtocolVersion)
                : st.message();
    return err.ToStatus();
  }
  return Status::OK();
}

Status ShardCoordinator::HandshakeAll() {
  for (uint32_t s = 0; s < num_shards(); ++s) {
    Status st = Handshake(s);
    if (!st.ok()) {
      CSCE_RETURN_IF_ERROR(RestartWorker(s, st));
    }
  }
  return Status::OK();
}

Status ShardCoordinator::ReplayJournal(uint32_t s) {
  obs::Span span("shard.replay_journal");
  auto replay = [&](const std::vector<wire::Frame>& frames) -> Status {
    for (const wire::Frame& f : frames) {
      CSCE_RETURN_IF_ERROR(workers_[s]->Send(f));
      if (sup_.enabled && sup_.round_timeout_seconds > 0.0) {
        workers_[s]->set_read_deadline(sup_.round_timeout_seconds);
      }
      wire::Frame reply;
      CSCE_RETURN_IF_ERROR(workers_[s]->Recv(&reply));
      if (reply.type == kTypeOf(wire::MsgType::kError)) {
        // A frame the worker previously handled fine now errors: the
        // replacement is not deterministic w.r.t. the original, which
        // recovery cannot paper over.
        wire::ErrorMsg msg;
        CSCE_RETURN_IF_ERROR(wire::DecodeError(reply.payload, &msg));
        return wire::ErrorToStatus(msg);
      }
      // The reply's emissions were already routed before the failure;
      // consuming them again would double-count. Discard.
    }
    return Status::OK();
  };
  CSCE_RETURN_IF_ERROR(replay(load_journal_[s]));
  return replay(query_journal_[s]);
}

Status ShardCoordinator::RestartWorker(uint32_t s, const Status& cause) {
  if (!sup_.enabled || factory_ == nullptr) {
    workers_lost_metric_.Increment();
    return Status::IOError(
        "shard worker " + std::to_string(s) + " lost and cannot be restarted (" +
        std::string(sup_.enabled ? "no worker factory" : "supervision disabled") +
        "): " + cause.message());
  }
  obs::Span span("shard.restart_worker");
  for (;;) {
    double delay = 0.0;
    if (backoff_[s].OnFailure(Now(), &delay) ==
        BackoffState::Decision::kGiveUp) {
      workers_lost_metric_.Increment();
      return Status::IOError("shard worker " + std::to_string(s) +
                             " exhausted its restart budget: " +
                             cause.message());
    }
    SleepFor(delay);
    if (workers_[s] != nullptr) workers_[s]->Close();
    std::unique_ptr<Transport> fresh;
    if (!factory_(s, &fresh).ok()) continue;
    workers_[s] = std::move(fresh);
    ++restarts_total_;
    restarts_metric_.Increment();
    if (!Handshake(s).ok()) continue;
    if (!ReplayJournal(s).ok()) continue;
    return Status::OK();
  }
}

Status ShardCoordinator::SendWithRecovery(uint32_t s,
                                          const wire::Frame& frame) {
  for (;;) {
    Status st = workers_[s]->Send(frame);
    if (st.ok()) return st;
    CSCE_RETURN_IF_ERROR(RestartWorker(s, st));
  }
}

Status ShardCoordinator::AwaitReply(
    uint32_t s, const wire::Frame& request, wire::MsgType want,
    const std::function<Status(wire::Frame*)>& check, wire::Frame* reply) {
  const bool heartbeat = want == wire::MsgType::kPong;
  for (;;) {
    if (sup_.enabled) {
      workers_[s]->set_read_deadline(heartbeat
                                         ? sup_.heartbeat_timeout_seconds
                                         : sup_.round_timeout_seconds);
    }
    Status st = workers_[s]->Recv(reply);
    if (st.ok()) {
      if (reply->type == kTypeOf(wire::MsgType::kError)) {
        wire::ErrorMsg msg;
        Status dst = wire::DecodeError(reply->payload, &msg);
        if (dst.ok()) {
          // Handler-level failure: the worker is alive and answered
          // deterministically; a restart would only repeat it.
          return wire::ErrorToStatus(msg);
        }
        st = dst;
      } else if (reply->type != kTypeOf(want)) {
        st = Status::Corruption(
            "shard coordinator: unexpected reply type " +
            std::to_string(reply->type) + " from shard " + std::to_string(s));
      } else if (check != nullptr) {
        // A reply of the right type but with a garbage payload (e.g. a
        // truncated frame) counts as a worker failure, not a hard stop.
        st = check(reply);
      }
      if (st.ok()) {
        backoff_[s].OnSuccess(Now());
        return Status::OK();
      }
    }
    if (heartbeat &&
        workers_[s]->last_error().fault == TransportFault::kTimeout) {
      heartbeat_timeouts_metric_.Increment();
    }
    CSCE_RETURN_IF_ERROR(RestartWorker(s, st));
    CSCE_RETURN_IF_ERROR(SendWithRecovery(s, request));
    ++retries_total_;
    retries_metric_.Increment();
  }
}

Status ShardCoordinator::RoundTrip(const std::vector<uint32_t>& targets,
                                   const std::vector<wire::Frame>& requests,
                                   wire::MsgType want,
                                   std::vector<wire::Frame>* replies,
                                   bool journal, const PayloadCheck& check) {
  // All writes before any read: with fd transports the worker may block
  // writing a large reply while we block writing the next request.
  for (size_t i = 0; i < targets.size(); ++i) {
    CSCE_RETURN_IF_ERROR(SendWithRecovery(targets[i], requests[i]));
  }
  replies->assign(targets.size(), wire::Frame{});
  for (size_t i = 0; i < targets.size(); ++i) {
    std::function<Status(wire::Frame*)> bound;
    if (check != nullptr) {
      bound = [&check, i](wire::Frame* r) { return check(i, r); };
    }
    CSCE_RETURN_IF_ERROR(
        AwaitReply(targets[i], requests[i], want, bound, &(*replies)[i]));
    if (journal) AppendJournal(targets[i], requests[i]);
  }
  return Status::OK();
}

Status ShardCoordinator::PingWorkers() {
  if (workers_.empty()) return Status::OK();
  wire::Frame ping{kTypeOf(wire::MsgType::kPing), {}};
  for (uint32_t s = 0; s < num_shards(); ++s) {
    CSCE_RETURN_IF_ERROR(SendWithRecovery(s, ping));
  }
  for (uint32_t s = 0; s < num_shards(); ++s) {
    wire::Frame pong;
    CSCE_RETURN_IF_ERROR(
        AwaitReply(s, ping, wire::MsgType::kPong, nullptr, &pong));
  }
  return Status::OK();
}

Status ShardCoordinator::LoadShards(
    uint32_t threads_per_worker,
    const std::function<void(uint32_t s, wire::LoadRequest* req)>& fill) {
  if (workers_.empty()) {
    return Status::InvalidArgument("shard coordinator: no workers attached");
  }
  backoff_.clear();
  for (size_t i = 0; i < workers_.size(); ++i) backoff_.emplace_back(sup_);
  load_journal_.assign(workers_.size(), {});
  query_journal_.assign(workers_.size(), {});
  CSCE_RETURN_IF_ERROR(HandshakeAll());
  std::vector<uint32_t> targets;
  std::vector<wire::Frame> requests;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    wire::LoadRequest req;
    req.shard_id = s;
    req.num_shards = num_shards();
    req.num_threads = threads_per_worker;
    fill(s, &req);
    targets.push_back(s);
    requests.push_back(
        wire::Frame{kTypeOf(wire::MsgType::kLoad),
                    wire::EncodeLoadRequest(req)});
  }
  std::vector<wire::Frame> replies;
  CSCE_RETURN_IF_ERROR(RoundTrip(targets, requests, wire::MsgType::kOk,
                                 &replies, /*journal=*/true));
  loaded_ = true;
  return Status::OK();
}

Status ShardCoordinator::LoadFromFiles(const std::string& base_path,
                                       uint32_t threads_per_worker,
                                       bool use_mmap,
                                       uint64_t memory_cap_bytes) {
  return LoadShards(threads_per_worker,
                    [&](uint32_t s, wire::LoadRequest* req) {
                      req->ccsr_path = ShardPlan::ShardCcsrPath(base_path, s);
                      req->plan_path = ShardPlan::PlanPath(base_path);
                      req->use_mmap = use_mmap;
                      req->memory_cap_bytes = memory_cap_bytes;
                    });
}

Status ShardCoordinator::LoadInline(const std::vector<uint32_t>& owner,
                                    std::vector<Graph> shard_graphs,
                                    uint32_t threads_per_worker) {
  if (shard_graphs.size() != workers_.size()) {
    return Status::InvalidArgument(
        "shard coordinator: need one shard graph per worker");
  }
  return LoadShards(threads_per_worker,
                    [&](uint32_t s, wire::LoadRequest* req) {
                      req->inline_payload = true;
                      req->shard_graph = std::move(shard_graphs[s]);
                      req->owner = owner;
                    });
}

Status ShardCoordinator::Execute(const Graph& pattern,
                                 const CoordinatorOptions& options,
                                 ShardResult* out) {
  *out = ShardResult{};
  if (!loaded_) {
    return Status::InvalidArgument("shard coordinator: Execute before Load");
  }
  const uint64_t restarts_before = restarts_total_;
  const uint64_t retries_before = retries_total_;
  // The previous query completed (its kFinish replies were consumed),
  // so its round frames can never need replay again.
  for (std::vector<wire::Frame>& j : query_journal_) j.clear();

  if (sup_.enabled) {
    CSCE_RETURN_IF_ERROR(PingWorkers());
  }

  // Compile once, against the FULL graph's statistics — every worker
  // must run the identical plan or cross-shard mappings are garbage.
  Plan plan;
  CSCE_RETURN_IF_ERROR(
      Planner(full_).MakePlan(pattern, options.variant, options.plan, &plan));
  out->plan_seconds = plan.plan_seconds;
  if (options.self_check) {
    CSCE_RETURN_IF_ERROR(ValidatePlan(full_, pattern, plan));
  }

  WallTimer wall;
  wire::PlanRequest preq;
  preq.pattern = pattern;
  preq.plan = plan;
  preq.variant = options.variant;
  preq.verify_sce = options.self_check;
  preq.emit_embeddings = options.collect_embeddings || options.self_check;
  preq.time_limit_seconds = options.time_limit_seconds;
  wire::Frame plan_frame{kTypeOf(wire::MsgType::kPlan),
                         wire::EncodePlanRequest(preq)};

  std::vector<uint32_t> all(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) all[s] = s;
  std::vector<wire::Frame> plan_frames(num_shards(), plan_frame);
  std::vector<wire::Frame> replies;
  CSCE_RETURN_IF_ERROR(RoundTrip(all, plan_frames, wire::MsgType::kOk,
                                 &replies, /*journal=*/true));

  // Root round, then BSP extend rounds until no shard emits anything.
  // Replies are decoded inside the round trip (PayloadCheck) so a
  // garbage batch from a failing worker re-enters recovery instead of
  // aborting the query.
  std::vector<wire::TaskBatch> emitted;
  auto batch_check = [&emitted](size_t i, wire::Frame* r) {
    return wire::DecodeTaskBatch(r->payload, &emitted[i]);
  };

  wire::Frame root_frame{kTypeOf(wire::MsgType::kRoot), {}};
  std::vector<wire::Frame> root_frames(num_shards(), root_frame);
  emitted.assign(num_shards(), wire::TaskBatch{});
  {
    WallTimer round_timer;
    CSCE_RETURN_IF_ERROR(RoundTrip(all, root_frames, wire::MsgType::kTaskBatch,
                                   &replies, /*journal=*/true, batch_check));
    round_seconds_metric_.Record(round_timer.Seconds());
  }

  std::vector<wire::TaskBatch> buckets(num_shards());
  auto route = [&]() -> Status {
    for (wire::TaskBatch& batch : emitted) {
      for (ShardTask& task : batch.tasks) {
        if (task.target_shard >= num_shards()) {
          return Status::Corruption(
              "shard coordinator: task routed to nonexistent shard");
        }
        ++out->tasks_routed;
        buckets[task.target_shard].tasks.push_back(std::move(task));
      }
      batch.tasks.clear();
    }
    return Status::OK();
  };
  CSCE_RETURN_IF_ERROR(route());

  // Every extend round strictly deepens some partial mapping or ends a
  // forwarding chain, so the round count is bounded by a small multiple
  // of the plan depth; exceeding the cap means routing is cycling.
  const uint32_t max_rounds =
      8 + 4 * static_cast<uint32_t>(plan.positions.size());
  for (;;) {
    std::vector<uint32_t> targets;
    std::vector<wire::Frame> requests;
    for (uint32_t s = 0; s < num_shards(); ++s) {
      if (buckets[s].tasks.empty()) continue;
      targets.push_back(s);
      requests.push_back(
          wire::Frame{kTypeOf(wire::MsgType::kExtend),
                      wire::EncodeTaskBatch(buckets[s])});
      buckets[s].tasks.clear();
    }
    if (targets.empty()) break;
    if (++out->rounds > max_rounds) {
      return Status::Corruption(
          "shard coordinator: extend rounds exceeded bound (routing cycle)");
    }
    emitted.assign(targets.size(), wire::TaskBatch{});
    WallTimer round_timer;
    CSCE_RETURN_IF_ERROR(RoundTrip(targets, requests,
                                   wire::MsgType::kTaskBatch, &replies,
                                   /*journal=*/true, batch_check));
    round_seconds_metric_.Record(round_timer.Seconds());
    CSCE_RETURN_IF_ERROR(route());
  }

  // Finish: merge every worker's totals. Exactly one kResult per worker
  // is consumed, so a restarted worker contributes only its replayed
  // (complete) incarnation — never the dead one's partial counts.
  out->per_shard.assign(num_shards(), wire::ResultMsg{});
  auto result_check = [out](size_t i, wire::Frame* r) {
    return wire::DecodeResultMsg(r->payload, &out->per_shard[i]);
  };
  wire::Frame finish_frame{kTypeOf(wire::MsgType::kFinish), {}};
  std::vector<wire::Frame> finish_frames(num_shards(), finish_frame);
  CSCE_RETURN_IF_ERROR(RoundTrip(all, finish_frames, wire::MsgType::kResult,
                                 &replies, /*journal=*/false, result_check));
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const wire::ResultMsg& res = out->per_shard[s];
    out->embeddings += res.embeddings;
    out->search_nodes += res.search_nodes;
    out->candidate_sets_computed += res.candidate_sets_computed;
    out->candidate_sets_reused += res.candidate_sets_reused;
    out->morsels_claimed += res.morsels_claimed;
    out->prune_candidates_removed += res.prune_candidates_removed;
    out->prune_extensions_skipped += res.prune_extensions_skipped;
    out->timed_out |= res.timed_out;
    out->cancelled |= res.cancelled;
    out->limit_reached |= res.limit_reached;
    out->worker_busy_seconds += res.seconds;
  }
  out->enumerate_seconds = wall.Seconds();
  out->worker_restarts = restarts_total_ - restarts_before;
  out->frames_retried = retries_total_ - retries_before;

  if (preq.emit_embeddings) {
    out->embedding_width = pattern.NumVertices();
    for (const wire::ResultMsg& res : out->per_shard) {
      if (res.embeddings > 0 && res.embedding_width != out->embedding_width) {
        return Status::Corruption(
            "shard coordinator: worker embedding width mismatch");
      }
      out->embedding_data.insert(out->embedding_data.end(),
                                 res.embedding_data.begin(),
                                 res.embedding_data.end());
    }
    if (out->embedding_width > 0 &&
        out->embedding_data.size() !=
            out->embeddings * out->embedding_width) {
      return Status::Corruption(
          "shard coordinator: embedding rows do not match merged count");
    }
  }

  if (options.self_check) {
    // Verify against the FULL graph: cross-shard embeddings contain
    // arcs no single shard CCSR holds.
    EmbeddingVerifier verifier(*full_, pattern, options.variant);
    const size_t width = out->embedding_width;
    for (size_t off = 0; off + width <= out->embedding_data.size();
         off += width) {
      CSCE_RETURN_IF_ERROR(verifier.Verify(
          std::span<const VertexId>(out->embedding_data.data() + off, width)));
    }
    out->embeddings_verified = verifier.verified();
    if (out->embeddings_verified != out->embeddings) {
      return Status::Corruption(
          "shard coordinator: self-check verified " +
          std::to_string(out->embeddings_verified) + " of " +
          std::to_string(out->embeddings) + " embeddings");
    }
  }
  return Status::OK();
}

Status ShardCoordinator::CollectMetrics(std::vector<std::string>* docs) {
  docs->clear();
  if (workers_.empty()) return Status::OK();
  std::vector<uint32_t> all(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) all[s] = s;
  std::vector<wire::Frame> requests(
      num_shards(), wire::Frame{kTypeOf(wire::MsgType::kStats), {}});
  std::vector<wire::StatsResult> stats(num_shards());
  auto stats_check = [&stats](size_t i, wire::Frame* r) {
    return wire::DecodeStatsResult(r->payload, &stats[i]);
  };
  std::vector<wire::Frame> replies;
  CSCE_RETURN_IF_ERROR(RoundTrip(all, requests, wire::MsgType::kStatsResult,
                                 &replies, /*journal=*/false, stats_check));
  for (wire::StatsResult& res : stats) {
    docs->push_back(std::move(res.metrics_json));
  }
  return Status::OK();
}

void ShardCoordinator::Shutdown() {
  wire::Frame bye{kTypeOf(wire::MsgType::kShutdown), {}};
  for (std::unique_ptr<Transport>& t : workers_) {
    if (t == nullptr) continue;
    if (t->Send(bye).ok()) {
      wire::Frame reply;
      (void)t->Recv(&reply);  // best-effort drain of the kOk
    }
    t->Close();
  }
  loaded_ = false;
}

InProcessCluster::InProcessCluster(Passkey) {}

Status InProcessCluster::Create(const Graph& g, const Ccsr* full,
                                uint32_t num_shards,
                                PartitionStrategy strategy,
                                uint32_t threads_per_worker,
                                std::unique_ptr<InProcessCluster>* out) {
  return Create(g, full, num_shards, strategy, threads_per_worker,
                InProcessClusterOptions{}, out);
}

Status InProcessCluster::Create(const Graph& g, const Ccsr* full,
                                uint32_t num_shards,
                                PartitionStrategy strategy,
                                uint32_t threads_per_worker,
                                const InProcessClusterOptions& opts,
                                std::unique_ptr<InProcessCluster>* out) {
  if (num_shards == 0) {
    return Status::InvalidArgument("in-process cluster: need >= 1 shard");
  }
  auto cluster = std::make_unique<InProcessCluster>(Passkey{});
  cluster->faults_ = opts.faults;
  switch (opts.transport) {
    case ClusterTransport::kLoopback:
    case ClusterTransport::kUnix:
    case ClusterTransport::kTcp:
      cluster->transport_ = opts.transport;
      break;
    case ClusterTransport::kAuto: {
      const char* env = std::getenv("CSCE_SHARD_TRANSPORT");
      const std::string_view value = env != nullptr ? env : "";
      cluster->transport_ = value == "tcp"    ? ClusterTransport::kTcp
                            : value == "unix" ? ClusterTransport::kUnix
                                              : ClusterTransport::kLoopback;
      break;
    }
  }
  ShardPlanOptions popts;
  popts.num_shards = num_shards;
  popts.strategy = strategy;
  cluster->shard_plan_ = ShardPlan::Build(g, popts);

  std::vector<Graph> shard_graphs;
  if (opts.load_base_path.empty()) {
    shard_graphs.resize(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      CSCE_RETURN_IF_ERROR(
          cluster->shard_plan_.ExtractShard(g, s, &shard_graphs[s]));
    }
  }

  cluster->coordinator_ = std::make_unique<ShardCoordinator>(full);
  cluster->coordinator_->set_supervision(opts.supervision);
  InProcessCluster* raw = cluster.get();
  cluster->coordinator_->set_worker_factory(
      [raw](uint32_t shard, std::unique_ptr<Transport>* t) {
        return raw->SpawnWorker(shard, t);
      });
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::unique_ptr<Transport> near;
    CSCE_RETURN_IF_ERROR(cluster->SpawnWorker(s, &near));
    cluster->coordinator_->AttachWorker(std::move(near));
  }
  if (opts.load_base_path.empty()) {
    CSCE_RETURN_IF_ERROR(cluster->coordinator_->LoadInline(
        cluster->shard_plan_.owners(), std::move(shard_graphs),
        threads_per_worker));
  } else {
    CSCE_RETURN_IF_ERROR(cluster->coordinator_->LoadFromFiles(
        opts.load_base_path, threads_per_worker, opts.use_mmap,
        opts.memory_cap_bytes));
  }
  *out = std::move(cluster);
  return Status::OK();
}

Status InProcessCluster::SpawnWorker(uint32_t shard,
                                     std::unique_ptr<Transport>* out) {
  worker_impls_.push_back(std::make_unique<ShardWorker>());
  ShardWorker* worker = worker_impls_.back().get();
  std::shared_ptr<FaultInjector> faults = faults_;
  if (transport_ == ClusterTransport::kTcp) {
    // TCP loopback: the worker thread connects to an ephemeral-port
    // listener; the accepted end goes to the coordinator. Same code
    // path a real multi-node deployment uses, minus the network.
    std::unique_ptr<TcpListener> listener;
    CSCE_RETURN_IF_ERROR(TcpListener::Listen("127.0.0.1", 0, &listener));
    const uint16_t port = listener->port();
    worker_threads_.emplace_back([worker, port, faults, shard] {
      std::unique_ptr<Transport> t;
      if (!ConnectTcp("127.0.0.1", port, TransportDeadlines{}, &t).ok()) {
        return;
      }
      t = MakeFaultTransport(std::move(t), faults, shard);
      // Transport failure just ends the worker; the coordinator end
      // observes it as IOError on its next call.
      (void)worker->Serve(*t);
    });
    return listener->Accept(30.0, TransportDeadlines{}, out);
  }
  if (transport_ == ClusterTransport::kUnix) {
    // AF_UNIX socketpair through FdTransport — the forked-worker wiring
    // without the fork. Bench baseline for the TCP overhead column.
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::IOError("socketpair failed");
    }
    std::unique_ptr<Transport> far = MakeFdTransport(fds[1]);
    far = MakeFaultTransport(std::move(far), faults, shard);
    worker_threads_.emplace_back([worker, t = std::move(far)]() mutable {
      (void)worker->Serve(*t);
    });
    *out = MakeFdTransport(fds[0]);
    return Status::OK();
  }
  std::unique_ptr<Transport> near;
  std::unique_ptr<Transport> far;
  MakeLoopbackPair(&near, &far);
  far = MakeFaultTransport(std::move(far), faults, shard);
  worker_threads_.emplace_back([worker, t = std::move(far)]() mutable {
    (void)worker->Serve(*t);
  });
  *out = std::move(near);
  return Status::OK();
}

InProcessCluster::~InProcessCluster() {
  if (coordinator_ != nullptr) coordinator_->Shutdown();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace shard
}  // namespace csce
