// Deterministic fault-injection coverage for the shard layer's
// supervision/recovery machinery: every FaultKind, over every worker
// deployment (in-process loopback threads, forked processes over Unix
// socketpairs, TCP loopback), must end with merged counts and embedding
// rows byte-identical to the single-node run and with the restart/retry
// accounting showing the recovery actually happened. The backoff state
// machine is unit-tested against a fake clock so nothing here sleeps
// real backoff time, and TransportError assertions key off structured
// causes (fault kind, errno, frame type), never message text.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "shard/coordinator.h"
#include "shard/fault.h"
#include "shard/shard_plan.h"
#include "shard/supervision.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace shard {
namespace {

// ------------------------------------------------ backoff (fake clock)

SupervisionOptions BackoffKnobs() {
  SupervisionOptions opts;
  opts.backoff_initial_seconds = 0.1;
  opts.backoff_max_seconds = 0.4;
  opts.backoff_reset_seconds = 10.0;
  opts.max_restarts = 3;
  return opts;
}

TEST(BackoffStateTest, DelayDoublesPerConsecutiveFailureUpToCap) {
  BackoffState backoff(BackoffKnobs());
  double delay = -1.0;
  EXPECT_EQ(backoff.OnFailure(100.0, &delay), BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.1);
  EXPECT_EQ(backoff.OnFailure(100.5, &delay), BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.2);
  EXPECT_EQ(backoff.OnFailure(101.0, &delay), BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.4);  // 0.1 * 2^2, capped at max from here on
  EXPECT_EQ(backoff.consecutive_failures(), 3u);
  EXPECT_EQ(backoff.total_restarts(), 3u);
}

TEST(BackoffStateTest, GivesUpOnceTheBurstExhaustsTheBudget) {
  BackoffState backoff(BackoffKnobs());
  double delay = -1.0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(backoff.OnFailure(100.0 + i, &delay),
              BackoffState::Decision::kRestart);
  }
  EXPECT_EQ(backoff.OnFailure(104.0, &delay),
            BackoffState::Decision::kGiveUp);
  EXPECT_DOUBLE_EQ(delay, 0.0);
}

TEST(BackoffStateTest, ZeroBudgetMeansNeverRestart) {
  SupervisionOptions opts = BackoffKnobs();
  opts.max_restarts = 0;
  BackoffState backoff(opts);
  double delay = -1.0;
  EXPECT_EQ(backoff.OnFailure(1.0, &delay), BackoffState::Decision::kGiveUp);
}

TEST(BackoffStateTest, QuietPeriodStartsAFreshBurst) {
  BackoffState backoff(BackoffKnobs());
  double delay = -1.0;
  ASSERT_EQ(backoff.OnFailure(100.0, &delay),
            BackoffState::Decision::kRestart);
  ASSERT_EQ(backoff.OnFailure(100.1, &delay),
            BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.2);
  // 10+ fake seconds of health: the next failure is a fresh burst at
  // the initial delay, but lifetime totals keep accumulating.
  ASSERT_EQ(backoff.OnFailure(120.0, &delay),
            BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.1);
  EXPECT_EQ(backoff.consecutive_failures(), 1u);
  EXPECT_EQ(backoff.total_restarts(), 3u);
}

TEST(BackoffStateTest, SuccessEndsTheBurstWithoutErasingHistory) {
  BackoffState backoff(BackoffKnobs());
  double delay = -1.0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(backoff.OnFailure(100.0 + i, &delay),
              BackoffState::Decision::kRestart);
  }
  backoff.OnSuccess(103.0);
  EXPECT_EQ(backoff.consecutive_failures(), 0u);
  EXPECT_EQ(backoff.total_restarts(), 3u);
  // The budget is available again after the success.
  EXPECT_EQ(backoff.OnFailure(103.5, &delay),
            BackoffState::Decision::kRestart);
  EXPECT_DOUBLE_EQ(delay, 0.1);
}

// ------------------------------------------------------ fault-plan DSL

TEST(FaultPlanTest, ParsesEveryKindAndCountsFirings) {
  std::shared_ptr<FaultInjector> injector;
  ASSERT_TRUE(FaultInjector::Parse(
                  "kill@1:3, truncate@0:2, delay@2:500, drop-ping@1:2, "
                  "bad-hello@0:1",
                  &injector)
                  .ok());
  ASSERT_EQ(injector->specs().size(), 5u);
  EXPECT_EQ(injector->specs()[0].kind, FaultKind::kKillAfterFrames);
  EXPECT_EQ(injector->specs()[0].shard, 1u);
  EXPECT_EQ(injector->specs()[0].arg, 3u);
  EXPECT_EQ(injector->specs()[2].kind, FaultKind::kDelayResponse);
  EXPECT_EQ(injector->specs()[2].arg, 500u);
  EXPECT_EQ(injector->fired_total(), 0u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::shared_ptr<FaultInjector> injector;
  EXPECT_FALSE(FaultInjector::Parse("explode@0:1", &injector).ok());
  EXPECT_FALSE(FaultInjector::Parse("kill@0", &injector).ok());
  EXPECT_FALSE(FaultInjector::Parse("kill@x:1", &injector).ok());
  EXPECT_FALSE(FaultInjector::Parse("kill@0:y", &injector).ok());
  EXPECT_FALSE(FaultInjector::Parse("kill0:1", &injector).ok());
}

// ------------------------------------------- transport error structure

TEST(TransportErrorTest, ClosedPeerYieldsStructuredCause) {
  std::unique_ptr<Transport> near, far;
  MakeLoopbackPair(&near, &far);
  far->Close();
  wire::Frame frame{static_cast<uint32_t>(wire::MsgType::kPing), {}};
  EXPECT_FALSE(near->Send(frame).ok());
  const TransportError& err = near->last_error();
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.fault, TransportFault::kClosed);
  EXPECT_EQ(err.frame_type, static_cast<uint32_t>(wire::MsgType::kPing));
}

TEST(TransportErrorTest, ReadDeadlineYieldsTimeoutCause) {
  std::unique_ptr<Transport> near, far;
  MakeLoopbackPair(&near, &far);
  near->set_read_deadline(0.02);
  wire::Frame frame;
  EXPECT_FALSE(near->Recv(&frame).ok());
  EXPECT_EQ(near->last_error().fault, TransportFault::kTimeout);
}

TEST(TransportErrorTest, RefusedTcpConnectCarriesErrno) {
  std::unique_ptr<TcpListener> listener;
  ASSERT_TRUE(TcpListener::Listen("127.0.0.1", 0, &listener).ok());
  const uint16_t dead_port = listener->port();
  listener->Close();  // nothing listens on dead_port any more

  TransportDeadlines deadlines;
  deadlines.connect_seconds = 2.0;
  std::unique_ptr<Transport> transport;
  Status st = ConnectTcp("127.0.0.1", dead_port, deadlines, &transport);
  EXPECT_FALSE(st.ok());
}

TEST(TransportErrorTest, FaultNamesAreStableForLogs) {
  EXPECT_STREQ(TransportFaultName(TransportFault::kClosed), "closed");
  EXPECT_STREQ(TransportFaultName(TransportFault::kTimeout), "timeout");
  EXPECT_STREQ(TransportFaultName(TransportFault::kCorruption), "corruption");
  EXPECT_STREQ(TransportFaultName(TransportFault::kHandshake), "handshake");
  TransportError err;
  err.fault = TransportFault::kCorruption;
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kCorruption);
  err.fault = TransportFault::kTimeout;
  EXPECT_EQ(err.ToStatus().code(), StatusCode::kIOError);
}

// ----------------------------------------------- recovery cross-checks

struct Baseline {
  uint64_t embeddings = 0;
  std::vector<std::vector<VertexId>> rows;  // sorted
};

std::vector<std::vector<VertexId>> SortedRows(
    const std::vector<VertexId>& flat, uint32_t width) {
  std::vector<std::vector<VertexId>> rows;
  if (width == 0) return rows;
  for (size_t off = 0; off + width <= flat.size(); off += width) {
    rows.emplace_back(flat.begin() + off, flat.begin() + off + width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Baseline SingleNode(const Ccsr& index, const Graph& pattern) {
  CsceMatcher matcher(&index);
  MatchOptions options;
  std::vector<VertexId> flat;
  MatchResult result;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        flat.insert(flat.end(), mapping.begin(), mapping.end());
        return true;
      },
      &result);
  CSCE_CHECK(st.ok());
  Baseline b;
  b.embeddings = result.embeddings;
  b.rows = SortedRows(flat, pattern.NumVertices());
  return b;
}

/// One fault scenario: the plan entry, and whether it fires during
/// load/handshake (recovery visible only in the coordinator's lifetime
/// totals) or mid-query (visible in the ShardResult deltas too).
/// Frame ordinals per worker: kHelloAck=1, kLoadAck=2, then per query
/// kPong=3, plan-ack=4, root batch=5, extend batches=6... — so :5
/// lands on a query-round reply and delay/bad-hello hit the handshake.
struct FaultCase {
  const char* plan;
  bool fires_at_load;
};

const FaultCase kFaultCases[] = {
    {"kill@0:5", false},     {"truncate@0:5", false},
    {"delay@0:600", true},   {"drop-ping@0:1", false},
    {"bad-hello@0:1", true},
};

/// Supervision tuned so injected faults resolve in milliseconds: the
/// heartbeat deadline catches the delayed worker fast and backoff waits
/// are token-sized.
SupervisionOptions FastSupervision() {
  SupervisionOptions sup;
  sup.round_timeout_seconds = 5.0;
  sup.heartbeat_timeout_seconds = 0.25;
  sup.backoff_initial_seconds = 0.001;
  sup.backoff_max_seconds = 0.01;
  return sup;
}

class ShardFaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Graph(datasets::Patent(18));
    index_ = new Ccsr(Ccsr::Build(*data_));
    Rng rng(71);
    pattern_ = new Graph();
    CSCE_CHECK(
        SamplePattern(*data_, 4, PatternDensity::kDense, rng, pattern_).ok());
    baseline_ = new Baseline(SingleNode(*index_, *pattern_));
    CSCE_CHECK(baseline_->embeddings > 0);
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete pattern_;
    delete index_;
    delete data_;
    baseline_ = nullptr;
    pattern_ = nullptr;
    index_ = nullptr;
    data_ = nullptr;
  }

  /// Runs the query on a faulted in-process cluster (loopback or TCP)
  /// and asserts exactly-once recovery: identical rows, fault actually
  /// fired, restart accounting nonzero.
  static void ExpectRecovery(const FaultCase& fc, ClusterTransport transport) {
    SCOPED_TRACE(std::string("plan=") + fc.plan);
    std::shared_ptr<FaultInjector> injector;
    ASSERT_TRUE(FaultInjector::Parse(fc.plan, &injector).ok());
    InProcessClusterOptions opts;
    opts.supervision = FastSupervision();
    opts.faults = injector;
    opts.transport = transport;
    std::unique_ptr<InProcessCluster> cluster;
    ASSERT_TRUE(InProcessCluster::Create(*data_, index_, /*num_shards=*/2,
                                         PartitionStrategy::kHash,
                                         /*threads_per_worker=*/1, opts,
                                         &cluster)
                    .ok());
    CoordinatorOptions options;
    options.collect_embeddings = true;
    options.self_check = true;
    ShardResult result;
    Status st = cluster->coordinator().Execute(*pattern_, options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.embeddings, baseline_->embeddings);
    EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
              baseline_->rows);
    EXPECT_GE(injector->fired_total(), 1u);
    if (fc.fires_at_load) {
      EXPECT_GE(cluster->coordinator().restarts_total(), 1u);
    } else {
      EXPECT_GE(result.worker_restarts, 1u);
      EXPECT_GE(result.frames_retried, 1u);
      EXPECT_EQ(cluster->coordinator().retries_total(),
                result.frames_retried);
    }
  }

  static Graph* data_;
  static Ccsr* index_;
  static Graph* pattern_;
  static Baseline* baseline_;
};

Graph* ShardFaultInjectionTest::data_ = nullptr;
Ccsr* ShardFaultInjectionTest::index_ = nullptr;
Graph* ShardFaultInjectionTest::pattern_ = nullptr;
Baseline* ShardFaultInjectionTest::baseline_ = nullptr;

TEST_F(ShardFaultInjectionTest, InProcessLoopbackRecoversFromEveryFault) {
  for (const FaultCase& fc : kFaultCases) {
    ExpectRecovery(fc, ClusterTransport::kLoopback);
  }
}

TEST_F(ShardFaultInjectionTest, TcpLoopbackRecoversFromEveryFault) {
  for (const FaultCase& fc : kFaultCases) {
    ExpectRecovery(fc, ClusterTransport::kTcp);
  }
}

TEST_F(ShardFaultInjectionTest, SupervisionDisabledFailsFastOnKill) {
  std::shared_ptr<FaultInjector> injector;
  ASSERT_TRUE(FaultInjector::Parse("kill@0:5", &injector).ok());
  InProcessClusterOptions opts;
  opts.supervision = FastSupervision();
  opts.supervision.enabled = false;
  opts.faults = injector;
  std::unique_ptr<InProcessCluster> cluster;
  ASSERT_TRUE(InProcessCluster::Create(*data_, index_, 2,
                                       PartitionStrategy::kHash, 1, opts,
                                       &cluster)
                  .ok());
  CoordinatorOptions options;
  ShardResult result;
  Status st = cluster->coordinator().Execute(*pattern_, options, &result);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(result.worker_restarts, 0u);
}

TEST_F(ShardFaultInjectionTest, RestartBudgetExhaustionFailsTheQuery) {
  // Kill the worker's very first frame and every replacement's too:
  // one kill spec per allowed incarnation, so each restart dies again
  // until the budget is gone.
  std::shared_ptr<FaultInjector> injector;
  ASSERT_TRUE(FaultInjector::Parse(
                  "kill@0:0, kill@0:0, kill@0:0, kill@0:0, kill@0:0",
                  &injector)
                  .ok());
  InProcessClusterOptions opts;
  opts.supervision = FastSupervision();
  opts.supervision.max_restarts = 2;
  opts.faults = injector;
  std::unique_ptr<InProcessCluster> cluster;
  Status create = InProcessCluster::Create(*data_, index_, 2,
                                           PartitionStrategy::kHash, 1, opts,
                                           &cluster);
  // The budget dies during load (the kill fires on the handshake), so
  // either creation fails or the first query does; both are "gave up".
  if (create.ok()) {
    CoordinatorOptions options;
    ShardResult result;
    EXPECT_FALSE(
        cluster->coordinator().Execute(*pattern_, options, &result).ok());
  } else {
    SUCCEED();
  }
}

// Forked workers: real child processes over Unix socketpairs, with the
// fault plan parsed child-side (a fork cannot share the injector) and a
// WorkerFactory that re-forks fault-free replacements, exactly like
// csce_serve's forked mode.
class ForkedFaultCluster {
 public:
  ~ForkedFaultCluster() { Finish(); }

  void Start(const Graph& data, const Ccsr* index, uint32_t shards,
             const std::string& fault_plan) {
    ShardPlanOptions popts;
    popts.num_shards = shards;
    popts.strategy = PartitionStrategy::kHash;
    plan_ = ShardPlan::Build(data, popts);
    std::vector<Graph> shard_graphs(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      ASSERT_TRUE(plan_.ExtractShard(data, s, &shard_graphs[s]).ok());
    }
    current_.assign(shards, -1);
    parent_fds_.assign(shards, -1);
    coordinator_ = std::make_unique<ShardCoordinator>(index);
    coordinator_->set_supervision(FastSupervision());
    coordinator_->set_worker_factory(
        [this](uint32_t s, std::unique_ptr<Transport>* out) {
          return SpawnChild(s, /*fault_plan=*/"", out);
        });
    for (uint32_t s = 0; s < shards; ++s) {
      std::unique_ptr<Transport> t;
      ASSERT_TRUE(SpawnChild(s, fault_plan, &t).ok());
      coordinator_->AttachWorker(std::move(t));
    }
    ASSERT_TRUE(
        coordinator_->LoadInline(plan_.owners(), std::move(shard_graphs), 1)
            .ok());
  }

  ShardCoordinator& coordinator() { return *coordinator_; }

  void Finish() {
    if (coordinator_ == nullptr) return;
    coordinator_->Shutdown();
    coordinator_.reset();
    // Current pids exited via kShutdown or EOF; superseded ones died to
    // their own injected fault. Reap both, judge only the former.
    for (pid_t pid : current_) {
      if (pid < 0) continue;
      int status = 0;
      EXPECT_EQ(waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "live worker exit status " << status;
    }
    for (pid_t pid : superseded_) {
      int status = 0;
      EXPECT_EQ(waitpid(pid, &status, 0), pid);
    }
    current_.clear();
    superseded_.clear();
  }

 private:
  Status SpawnChild(uint32_t s, const std::string& fault_plan,
                    std::unique_ptr<Transport>* out) {
    parent_fds_[s] = -1;
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::IOError("socketpair failed");
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      for (int fd : parent_fds_) {
        if (fd >= 0) close(fd);
      }
      std::shared_ptr<FaultInjector> faults;
      if (!fault_plan.empty() &&
          !FaultInjector::Parse(fault_plan, &faults).ok()) {
        _exit(4);
      }
      std::unique_ptr<Transport> transport = MakeFdTransport(fds[1]);
      transport = MakeFaultTransport(std::move(transport), faults, s);
      ShardWorker worker;
      (void)worker.Serve(*transport);
      // A worker whose own fault killed the link simulates a crash;
      // everything else is normal teardown.
      if (faults != nullptr &&
          (faults->fired(FaultKind::kKillAfterFrames) > 0 ||
           faults->fired(FaultKind::kTruncateFrame) > 0)) {
        _exit(3);
      }
      _exit(0);
    }
    close(fds[1]);
    if (current_[s] >= 0) superseded_.push_back(current_[s]);
    current_[s] = pid;
    parent_fds_[s] = fds[0];
    *out = MakeFdTransport(fds[0]);
    return Status::OK();
  }

  ShardPlan plan_;
  std::vector<pid_t> current_;
  std::vector<pid_t> superseded_;
  std::vector<int> parent_fds_;
  std::unique_ptr<ShardCoordinator> coordinator_;
};

TEST_F(ShardFaultInjectionTest, ForkedWorkersRecoverFromEveryFault) {
  for (const FaultCase& fc : kFaultCases) {
    SCOPED_TRACE(std::string("plan=") + fc.plan);
    ForkedFaultCluster cluster;
    cluster.Start(*data_, index_, /*shards=*/2, fc.plan);
    if (::testing::Test::HasFatalFailure()) return;
    CoordinatorOptions options;
    options.collect_embeddings = true;
    options.self_check = true;
    ShardResult result;
    Status st = cluster.coordinator().Execute(*pattern_, options, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(result.embeddings, baseline_->embeddings);
    EXPECT_EQ(SortedRows(result.embedding_data, result.embedding_width),
              baseline_->rows);
    if (fc.fires_at_load) {
      EXPECT_GE(cluster.coordinator().restarts_total(), 1u);
    } else {
      EXPECT_GE(result.worker_restarts, 1u);
      EXPECT_GE(result.frames_retried, 1u);
    }
    cluster.Finish();
  }
}

}  // namespace
}  // namespace shard
}  // namespace csce
