// csce_serve: the multi-query session front-end — execute a batch of
// pattern queries concurrently against one shared index, with admission
// control, deadlines, and a JSON summary of the session.
//
//   csce_serve --ccsr=data.ccsr --queries=workload.txt --threads=8
//              --inflight=4 --threads-per-query=2 --deadline=5
//   csce_gen ... && csce_serve --graph=data.txt --queries=- < workload.txt
//
// Workload format, one query per line ('#' starts a comment):
//   <pattern-file> [variant] [max-embeddings] [deadline-seconds]
// e.g.
//   q_0.txt edge
//   q_1.txt hom 100000 2.5
//
// A line consisting of the single word STATS is a directive, not a
// query: the queries before it run as one batch, then the session's
// cumulative runtime metrics are printed as a "STATS {...}" JSON line
// before the next batch starts (a poor man's monitoring endpoint for
// scripted sessions).
//
// Out-of-core mode: --mmap maps v2 --ccsr artifacts instead of
// streaming them into memory; in sharded modes the flag travels in the
// kLoad request, so every worker (in-process thread, forked child, or
// remote --connect node) maps its own shard artifact the same way.
// --memory-cap=N bounds each mapping's paging-advice window to N bytes.
//
// Proactive pruning: the label-pair filter (lpi) and failing-set
// backjumping (fs) are on by default; --prune=none turns every pass
// off (--prune=none,lpi keeps only the filter), for every query of the
// session, including sharded sessions — where the coordinator forwards
// the pass set with the plan and the shard workers run it.
//
// --repeat=N serves the whole workload N times (load generation; with
// view sharing the repeats hit the session's cluster cache).
// --metrics-json=FILE additionally dumps the process metric registry
// as csce.metrics.v1 JSON on exit — including exits forced by SIGINT/
// SIGTERM, so interrupted sessions still leave their observability
// artifact behind.
//
// Sharded execution (see DESIGN.md "Sharded execution"):
//   --shards=N       partition the data graph across N shard workers
//                    and run every query through the distributed
//                    coordinator. With --graph the partition is built
//                    in memory; with --ccsr the artifacts written by
//                    `csce_build --shards=N` (<ccsr>.shardplan,
//                    <ccsr>.shard<k>) are loaded instead.
//   --workers=N      run the N shard workers as forked child processes
//                    over Unix-domain socketpairs (requires --ccsr
//                    artifacts and N == --shards). Without it the
//                    workers are in-process threads.
//   --threads-per-query=T   threads inside each shard worker.
//   --shard-strategy=hash|label   partition strategy for --graph mode.
//   --self-check     distributed ground-truth mode: plan validation,
//                    SCE verification in every worker, and every
//                    embedding re-verified against the full graph.
// Sharded sessions ignore per-query max-embeddings limits (results
// would depend on cross-shard arrival order) and print the same
// per-query lines plus shard routing detail.
//
// Multi-node deployment (see DESIGN.md "Fault tolerance"):
//   --listen=H:P     coordinator side: accept --shards worker
//                    connections on a TCP socket instead of spawning
//                    local workers (requires --ccsr artifacts on a
//                    filesystem the workers can read).
//   --connect=H:P    worker side: connect to a listening coordinator
//                    and serve one shard; no other flags required.
// Supervision (on by default in every sharded mode):
//   --no-supervision       fail the query on the first worker failure
//   --max-restarts=N       per-worker restart budget (default 3)
//   --round-timeout=S      per-round reply deadline, seconds (default 30)
//   --heartbeat-timeout=S  kPing probe deadline, seconds (default 5)
// Deterministic fault injection for recovery testing:
//   --fault-plan=SPEC      comma-separated kind@shard:arg entries
//                          (kill@0:3, truncate@1:2, delay@0:500,
//                          drop-ping@0:1, bad-hello@0:1); faults fire in
//                          the workers' transports at exact frame
//                          counts, so runs are reproducible.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "runtime/query_runtime.h"
#include "shard/coordinator.h"
#include "shard/fault.h"
#include "shard/shard_plan.h"
#include "shard/supervision.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "util/flags.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace {

/// Session-wide prune pass set (--prune), stamped onto
/// every parsed QueryJob. Set in main before the workload is read.
csce::PruneOptions g_prune;

/// One STATS-delimited slice of the workload: the jobs run as a batch,
/// then a stats line is printed when `stats_after` (i.e. the segment
/// was closed by a STATS directive rather than end-of-file).
struct WorkloadSegment {
  std::vector<csce::QueryJob> jobs;
  bool stats_after = false;
};

bool ParseWorkloadLine(std::string line, size_t lineno,
                       std::vector<WorkloadSegment>* segments) {
  if (size_t hash = line.find('#'); hash != std::string::npos) {
    line.erase(hash);
  }
  std::istringstream fields(line);
  std::string path, variant;
  if (!(fields >> path)) return true;  // blank/comment line
  if (path == "STATS") {
    segments->back().stats_after = true;
    segments->emplace_back();
    return true;
  }
  csce::QueryJob job;
  job.tag = path;
  job.options.plan.prune = g_prune;
  if (fields >> variant &&
      !csce::ParseVariantName(variant, &job.options.variant)) {
    std::fprintf(stderr, "queries line %zu: unknown variant '%s'\n", lineno,
                 variant.c_str());
    return false;
  }
  double max_embeddings = 0, deadline = 0;
  if (fields >> max_embeddings) {
    job.options.max_embeddings = static_cast<uint64_t>(max_embeddings);
  }
  if (fields >> deadline) job.options.time_limit_seconds = deadline;
  if (csce::Status st = csce::LoadGraphFromFile(path, &job.pattern); !st.ok()) {
    std::fprintf(stderr, "queries line %zu: %s\n", lineno,
                 st.ToString().c_str());
    return false;
  }
  segments->back().jobs.push_back(std::move(job));
  return true;
}

bool ParseWorkload(std::istream& in, std::vector<WorkloadSegment>* segments) {
  segments->emplace_back();
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    if (!ParseWorkloadLine(std::move(line), ++lineno, segments)) return false;
  }
  return true;
}

// --- SIGINT/SIGTERM graceful shutdown ---------------------------------
//
// The exit signals are blocked in every thread (mask set before any
// thread or worker exists and inherited by all of them); one detached
// watcher sigwait()s. No asynchronous signal handler is ever installed
// (csce_lint's signal-discipline check bans signal()/sigaction()
// registration), so there is no async-signal-safety minefield: the
// watcher is a normal thread and may take locks.
//
// Division of labour: the watcher only *requests* shutdown — it records
// the signal, cooperatively cancels the running batch and SIGTERMs
// forked workers so blocked transport reads unwind. The metrics flush,
// child reaping and exit all happen on the main thread, which checks
// ExitRequested() between queries/batches; flushing from the watcher
// would race the main thread mid-write and could emit a torn artifact.
// A second signal skips the graceful path and _exit()s immediately (the
// conventional double-ctrl-C force quit).

std::atomic<int> g_exit_signal{0};
std::vector<pid_t> g_worker_pids;  // populated before the watcher starts

// Self-pipe the watcher writes into after recording a signal, so the
// main thread can poll() it alongside blocking fds (a fifo-fed stdin
// never delivers EOF, and with the exit signals masked a blocked read
// is not interrupted).
int g_wake_pipe[2] = {-1, -1};

csce::Mutex g_runtime_mu;
csce::QueryRuntime* g_runtime CSCE_GUARDED_BY(g_runtime_mu) = nullptr;

/// The signal that requested shutdown, or 0.
int ExitRequested() {
  return g_exit_signal.load(std::memory_order_acquire);
}

void SetSignalRuntime(csce::QueryRuntime* rt) {
  csce::MutexLock lock(g_runtime_mu);
  g_runtime = rt;
}

void CancelSignalRuntime() {
  csce::MutexLock lock(g_runtime_mu);
  if (g_runtime != nullptr) g_runtime->CancelAll();
}

/// Publishes `rt` as the watcher's cancellation target for the scope;
/// clears it before the runtime can be destroyed.
struct SignalRuntimeScope {
  explicit SignalRuntimeScope(csce::QueryRuntime* rt) { SetSignalRuntime(rt); }
  ~SignalRuntimeScope() { SetSignalRuntime(nullptr); }
};

sigset_t ExitSignalSet() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  return set;
}

void BlockExitSignals() {
  sigset_t set = ExitSignalSet();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void StartSignalWatcher() {
  if (pipe(g_wake_pipe) != 0) {
    g_wake_pipe[0] = g_wake_pipe[1] = -1;
  } else {
    for (int fd : g_wake_pipe) fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  std::thread([] {
    sigset_t set = ExitSignalSet();
    int sig = 0;
    if (sigwait(&set, &sig) != 0) return;
    g_exit_signal.store(sig, std::memory_order_release);
    if (g_wake_pipe[1] >= 0) {
      ssize_t n = write(g_wake_pipe[1], "x", 1);
      (void)n;
    }
    CancelSignalRuntime();
    for (pid_t pid : g_worker_pids) kill(pid, SIGTERM);
    if (sigwait(&set, &sig) == 0) _exit(128 + sig);
  }).detach();
}

/// Reads the workload from stdin without blocking past a shutdown
/// request: poll() watches fd 0 and the watcher's wake pipe together,
/// and the stream is abandoned once a signal has been recorded. Returns
/// false on parse or I/O errors.
bool ParseWorkloadFromStdin(std::vector<WorkloadSegment>* segments) {
  segments->emplace_back();
  std::string buffer;
  size_t lineno = 0;
  char chunk[4096];
  while (ExitRequested() == 0) {
    struct pollfd fds[2];
    fds[0] = {STDIN_FILENO, POLLIN, 0};
    nfds_t nfds = 1;
    if (g_wake_pipe[0] >= 0) {
      fds[1] = {g_wake_pipe[0], POLLIN, 0};
      nfds = 2;
    }
    if (poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "poll on stdin failed\n");
      return false;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    ssize_t n = read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "read on stdin failed\n");
      return false;
    }
    if (n == 0) break;  // EOF
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (!ParseWorkloadLine(buffer.substr(start, nl - start), ++lineno,
                             segments)) {
        return false;
      }
    }
    buffer.erase(0, start);
  }
  if (ExitRequested() == 0 && !buffer.empty()) {
    return ParseWorkloadLine(std::move(buffer), ++lineno, segments);
  }
  return true;
}

// --- Sharded session --------------------------------------------------

/// In-process shard workers: one serve thread per shard over loopback
/// transports. Joined on destruction (the coordinator's Shutdown ends
/// every serve loop first). SpawnOne doubles as the coordinator's
/// WorkerFactory, so a worker thread killed by fault injection is
/// replaced by a fresh one; old threads stay in `threads` until the
/// set is destroyed (they exit as soon as their transport dies).
struct LocalWorkerSet {
  std::shared_ptr<csce::shard::FaultInjector> faults;
  std::vector<std::unique_ptr<csce::shard::ShardWorker>> impls;
  std::vector<std::thread> threads;

  ~LocalWorkerSet() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }

  csce::Status SpawnOne(uint32_t shard,
                        std::unique_ptr<csce::shard::Transport>* out) {
    std::unique_ptr<csce::shard::Transport> near, far;
    csce::shard::MakeLoopbackPair(&near, &far);
    far = csce::shard::MakeFaultTransport(std::move(far), faults, shard);
    impls.push_back(std::make_unique<csce::shard::ShardWorker>());
    csce::shard::ShardWorker* worker = impls.back().get();
    threads.emplace_back([worker, t = std::move(far)]() mutable {
      (void)worker->Serve(*t);
    });
    *out = std::move(near);
    return csce::Status::OK();
  }

  void Spawn(csce::shard::ShardCoordinator* coordinator, uint32_t count) {
    for (uint32_t s = 0; s < count; ++s) {
      std::unique_ptr<csce::shard::Transport> near;
      (void)SpawnOne(s, &near);
      coordinator->AttachWorker(std::move(near));
    }
  }
};

/// Forked worker child: unblock the exit signals again (the child
/// should die on SIGTERM from the parent's watcher), serve the shard
/// over the inherited socket, and _exit without running parent-state
/// destructors. A non-empty fault plan is parsed child-side (the
/// injector cannot be shared across the fork) and its kill/truncate
/// entries turn into a nonzero exit so the parent's reaper sees the
/// simulated crash.
[[noreturn]] void RunForkedWorker(int fd, uint32_t shard,
                                  const std::string& fault_plan) {
  sigset_t set = ExitSignalSet();
  pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
  std::shared_ptr<csce::shard::FaultInjector> faults;
  if (!fault_plan.empty()) {
    if (csce::Status st = csce::shard::FaultInjector::Parse(fault_plan, &faults);
        !st.ok()) {
      std::fprintf(stderr, "shard worker: %s\n", st.ToString().c_str());
      _exit(3);
    }
  }
  std::unique_ptr<csce::shard::Transport> transport =
      csce::shard::MakeFdTransport(fd);
  transport =
      csce::shard::MakeFaultTransport(std::move(transport), faults, shard);
  csce::shard::ShardWorker worker;
  csce::Status st = worker.Serve(*transport);
  if (faults != nullptr &&
      (faults->fired(csce::shard::FaultKind::kKillAfterFrames) > 0 ||
       faults->fired(csce::shard::FaultKind::kTruncateFrame) > 0)) {
    _exit(3);  // simulated crash: die abnormally like a real one would
  }
  // A vanished coordinator (IOError) is the normal teardown when the
  // parent dies early; only protocol-level trouble is noisy.
  if (!st.ok() && st.code() != csce::StatusCode::kIOError) {
    std::fprintf(stderr, "shard worker: %s\n", st.ToString().c_str());
    _exit(3);
  }
  _exit(0);
}

/// Forked-mode bookkeeping for supervision: which child currently
/// serves each shard, which pids were replaced by a restart (their
/// abnormal deaths are expected), and the live parent-end fds a
/// restart's fork must close in the child so stale descriptors cannot
/// keep a dead worker's socket half-open.
struct ForkedWorkerSet {
  std::vector<pid_t> current;
  std::vector<pid_t> superseded;
  std::vector<int> parent_fds;
};

/// Reaps one child and reports abnormal exits. Returns true if the pid
/// was actually reaped (always true for blocking calls that succeed).
/// `expected_dead` suppresses the error accounting for pids whose
/// demise is part of the plan (superseded by a restart, or torn down
/// by a shutdown signal).
bool ReapWorker(pid_t pid, int wait_flags, bool expected_dead,
                int* abnormal_exits) {
  int status = 0;
  if (waitpid(pid, &status, wait_flags) != pid) return false;
  if (expected_dead) return true;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
  ++*abnormal_exits;
  if (WIFSIGNALED(status)) {
    std::fprintf(stderr, "error: shard worker pid %d killed by signal %d\n",
                 static_cast<int>(pid), WTERMSIG(status));
  } else {
    std::fprintf(stderr, "error: shard worker pid %d exited with status %d\n",
                 static_cast<int>(pid),
                 WIFEXITED(status) ? WEXITSTATUS(status) : status);
  }
  return true;
}

/// Worker side of a multi-node deployment: connect to the listening
/// coordinator and serve frames until shutdown. Runs before the signal
/// mask is installed, so SIGTERM kills it with default disposition.
int RunTcpWorker(const std::string& spec, csce::FlagParser& flags) {
  using namespace csce;
  std::string host;
  uint16_t port = 0;
  if (!shard::ParseHostPort(spec, &host, &port) || port == 0) {
    std::fprintf(stderr, "--connect needs HOST:PORT\n");
    return 2;
  }
  std::shared_ptr<shard::FaultInjector> faults;
  std::string fault_plan = flags.GetString("fault-plan", "");
  uint32_t fault_shard = static_cast<uint32_t>(flags.GetInt("fault-shard", 0));
  if (!fault_plan.empty()) {
    if (Status st = shard::FaultInjector::Parse(fault_plan, &faults);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  shard::TransportDeadlines deadlines;
  deadlines.connect_seconds = flags.GetDouble("connect-timeout", 10.0);
  std::unique_ptr<shard::Transport> transport;
  if (Status st = shard::ConnectTcp(host, port, deadlines, &transport);
      !st.ok()) {
    std::fprintf(stderr, "connect %s: %s\n", spec.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  transport =
      shard::MakeFaultTransport(std::move(transport), faults, fault_shard);
  shard::ShardWorker worker;
  Status st = worker.Serve(*transport);
  if (!st.ok() && st.code() != StatusCode::kIOError) {
    std::fprintf(stderr, "shard worker: %s\n", st.ToString().c_str());
    return 3;
  }
  return 0;
}

struct ShardedSessionTotals {
  uint64_t queries = 0;
  uint64_t failures = 0;
  uint64_t embeddings = 0;
  uint64_t rounds = 0;
  uint64_t tasks_routed = 0;
  uint64_t embeddings_verified = 0;
  uint64_t worker_restarts = 0;
  uint64_t frames_retried = 0;
  double enumerate_seconds = 0.0;
  double worker_busy_seconds = 0.0;

  csce::obs::JsonValue ToJson() const {
    csce::obs::JsonValue doc = csce::obs::JsonValue::Object();
    doc.Set("queries", queries);
    doc.Set("failures", failures);
    doc.Set("embeddings", embeddings);
    doc.Set("rounds", rounds);
    doc.Set("tasks_routed", tasks_routed);
    doc.Set("embeddings_verified", embeddings_verified);
    doc.Set("worker_restarts", worker_restarts);
    doc.Set("frames_retried", frames_retried);
    doc.Set("enumerate_seconds", enumerate_seconds);
    doc.Set("worker_busy_seconds", worker_busy_seconds);
    return doc;
  }
};

int RunShardedSession(csce::shard::ShardCoordinator& coordinator,
                      const std::vector<WorkloadSegment>& workload,
                      int64_t repeat, bool quiet, bool self_check) {
  using namespace csce;
  ShardedSessionTotals totals;
  bool warned_limit = false;
  for (int64_t r = 0; r < repeat && !ExitRequested(); ++r) {
    for (const WorkloadSegment& segment : workload) {
      if (ExitRequested()) break;
      for (const QueryJob& job : segment.jobs) {
        if (ExitRequested()) break;
        if (job.options.max_embeddings != 0 && !warned_limit) {
          std::fprintf(stderr,
                       "warning: sharded sessions ignore per-query "
                       "max-embeddings limits\n");
          warned_limit = true;
        }
        shard::CoordinatorOptions options;
        options.variant = job.options.variant;
        options.plan = job.options.plan;
        options.time_limit_seconds = job.options.time_limit_seconds;
        options.self_check = self_check;
        shard::ShardResult result;
        WallTimer timer;
        Status st = coordinator.Execute(job.pattern, options, &result);
        double total_seconds = timer.Seconds();
        ++totals.queries;
        if (!st.ok()) {
          ++totals.failures;
          std::fprintf(stderr, "error: sharded query %s failed: %s\n",
                       job.tag.c_str(), st.ToString().c_str());
        }
        totals.embeddings += result.embeddings;
        totals.rounds += result.rounds;
        totals.tasks_routed += result.tasks_routed;
        totals.embeddings_verified += result.embeddings_verified;
        totals.worker_restarts += result.worker_restarts;
        totals.frames_retried += result.frames_retried;
        totals.enumerate_seconds += result.enumerate_seconds;
        totals.worker_busy_seconds += result.worker_busy_seconds;
        if (quiet) continue;
        std::printf(
            "query=%s variant=%s status=%s embeddings=%llu wait=0.000ms "
            "total=%.3fms shards=%u rounds=%u tasks_routed=%llu%s%s\n",
            job.tag.c_str(), VariantName(job.options.variant),
            st.ok() ? "ok" : st.ToString().c_str(),
            static_cast<unsigned long long>(result.embeddings),
            total_seconds * 1e3, coordinator.num_shards(), result.rounds,
            static_cast<unsigned long long>(result.tasks_routed),
            result.timed_out ? " timed_out" : "",
            self_check ? " self_checked" : "");
        if (!st.ok()) {
          // One failed distributed query does not invalidate the
          // session; the coordinator left the workers drained.
          std::fflush(stdout);
        }
      }
      if (segment.stats_after) {
        std::printf("STATS %s\n", totals.ToJson().Dump(0).c_str());
        std::fflush(stdout);
      }
    }
  }
  std::printf("%s\n", totals.ToJson().Dump(0).c_str());
  return totals.failures == 0 ? 0 : 1;
}

/// End-of-session metrics artifact for the sharded modes. In-process
/// workers share this process's registry, so the normal dump is already
/// complete; forked workers each carry their own registry, which the
/// coordinator collects over the wire and merges with the parent's
/// (planning, io) document.
int WriteShardedMetrics(csce::shard::ShardCoordinator& coordinator,
                        const std::string& path, bool multi_process) {
  using namespace csce;
  if (!multi_process) {
    if (Status st = obs::WriteMetricsFile(obs::MetricRegistry::Global(), path);
        !st.ok()) {
      std::fprintf(stderr, "metrics: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  std::vector<std::string> docs;
  if (Status st = coordinator.CollectMetrics(&docs); !st.ok()) {
    // A lost worker must not cost the session its observability
    // artifact: degrade to the parent's own registry (which holds the
    // workers_lost / worker_restarts accounting) instead of writing
    // nothing.
    std::fprintf(stderr, "metrics collect: %s\n", st.ToString().c_str());
    docs.clear();
  }
  obs::JsonValue parent = obs::JsonValue::Object();
  parent.Set("schema", "csce.metrics.v1");
  parent.Set("metrics", obs::MetricRegistry::Global().Snapshot().ToJson(true));
  docs.push_back(parent.Dump(0));
  obs::JsonValue merged;
  if (Status st = obs::MergeMetricsDocuments(docs, &merged); !st.ok()) {
    std::fprintf(stderr, "metrics merge: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = obs::WriteMetricsDocument(merged, path); !st.ok()) {
    std::fprintf(stderr, "metrics: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csce;
  FlagParser flags;
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  // Worker side of a multi-node deployment: no workload or graph of
  // its own, everything arrives over the wire.
  if (std::string connect_spec = flags.GetString("connect", "");
      !connect_spec.empty()) {
    return RunTcpWorker(connect_spec, flags);
  }
  std::string ccsr_path = flags.GetString("ccsr", "");
  std::string graph_path = flags.GetString("graph", "");
  std::string queries_path = flags.GetString("queries", "");
  if (queries_path.empty() || (ccsr_path.empty() == graph_path.empty())) {
    std::fprintf(stderr,
                 "usage: csce_serve (--ccsr=x.ccsr | --graph=x.txt) "
                 "--queries=(workload.txt | -) [--threads=n] [--inflight=n] "
                 "[--mmap] [--memory-cap=bytes] "
                 "[--threads-per-query=n] [--deadline=s] [--repeat=n] "
                 "[--prune=none|none,lpi|none,fs (the default is "
                 "lpi,fs)] "
                 "[--no-share-views] [--quiet] [--metrics-json=f.json] "
                 "[--shards=n [--workers=n] [--shard-strategy=hash|label] "
                 "[--self-check] [--listen=h:p] [--fault-plan=spec] "
                 "[--no-supervision] [--max-restarts=n] [--round-timeout=s] "
                 "[--heartbeat-timeout=s]]\n"
                 "       csce_serve --connect=h:p   (multi-node shard "
                 "worker)\n");
    return 2;
  }
  // An absent flag is "", which parses to the default passes.
  if (Status st = ParsePruneList(flags.GetString("prune", ""), &g_prune);
      !st.ok()) {
    std::fprintf(stderr, "--prune: %s\n", st.ToString().c_str());
    return 2;
  }
  int64_t shards = flags.GetInt("shards", 0);
  int64_t forked_workers = flags.GetInt("workers", 0);
  std::string strategy_name = flags.GetString("shard-strategy", "hash");
  bool self_check = flags.GetBool("self-check");
  std::string metrics_path = flags.GetString("metrics-json", "");
  int64_t repeat = flags.GetInt("repeat", 1);
  bool quiet = flags.GetBool("quiet");
  const bool use_mmap = flags.GetBool("mmap");
  const uint64_t memory_cap =
      static_cast<uint64_t>(flags.GetInt("memory-cap", 0));
  uint32_t threads_per_query =
      static_cast<uint32_t>(flags.GetInt("threads-per-query", 1));
  std::string listen_spec = flags.GetString("listen", "");
  std::string fault_plan = flags.GetString("fault-plan", "");
  shard::SupervisionOptions supervision;
  supervision.enabled = !flags.GetBool("no-supervision");
  supervision.max_restarts =
      static_cast<uint32_t>(flags.GetInt("max-restarts", 3));
  supervision.round_timeout_seconds = flags.GetDouble("round-timeout", 30.0);
  supervision.heartbeat_timeout_seconds =
      flags.GetDouble("heartbeat-timeout", 5.0);
  std::shared_ptr<shard::FaultInjector> injector;
  if (!fault_plan.empty()) {
    if (Status st = shard::FaultInjector::Parse(fault_plan, &injector);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }

  if (shards < 0 || shards > 1024) {
    std::fprintf(stderr, "--shards must be in [0, 1024]\n");
    return 2;
  }
  if (!listen_spec.empty()) {
    if (shards <= 0 || ccsr_path.empty() || forked_workers != 0) {
      std::fprintf(stderr,
                   "--listen needs --shards=N and --ccsr artifacts (remote "
                   "workers load shards from the shared filesystem) and is "
                   "exclusive with --workers\n");
      return 2;
    }
  }
  if (forked_workers != 0) {
    if (shards == 0 || forked_workers != shards) {
      std::fprintf(stderr, "--workers requires --shards=N with workers==N\n");
      return 2;
    }
    if (ccsr_path.empty()) {
      std::fprintf(stderr,
                   "--workers needs --ccsr artifacts from "
                   "`csce_build --shards=N` (forked workers load shards "
                   "from disk)\n");
      return 2;
    }
  }
  shard::PartitionStrategy strategy;
  if (!shard::ParseStrategy(strategy_name, &strategy)) {
    std::fprintf(stderr, "unknown --shard-strategy=%s (hash|label)\n",
                 strategy_name.c_str());
    return 2;
  }

  // Exit signals are blocked before any worker (thread or fork) exists
  // so every child inherits the mask.
  BlockExitSignals();

  // Fork shard workers before the full CCSR is loaded: each child only
  // ever maps its own shard artifact.
  std::vector<pid_t> child_pids;
  std::vector<int> child_fds;
  if (forked_workers > 0) {
    for (int64_t s = 0; s < forked_workers; ++s) {
      int fds[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        std::fprintf(stderr, "socketpair failed\n");
        return 1;
      }
      pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "fork failed\n");
        return 1;
      }
      if (pid == 0) {
        close(fds[0]);
        for (int fd : child_fds) close(fd);  // other workers' parent ends
        RunForkedWorker(fds[1], static_cast<uint32_t>(s), fault_plan);
      }
      close(fds[1]);
      child_pids.push_back(pid);
      child_fds.push_back(fds[0]);
    }
    g_worker_pids = child_pids;
  }
  StartSignalWatcher();

  Ccsr index;
  Graph source_graph;  // kept alive only for --graph sharded partitioning
  bool have_graph = false;
  if (!ccsr_path.empty()) {
    if (use_mmap) {
      MmapCcsr::Options mopts;
      mopts.memory_cap_bytes = memory_cap;
      std::unique_ptr<MmapCcsr> mapped;
      if (Status st = MmapCcsr::Open(ccsr_path, mopts, &mapped); !st.ok()) {
        std::fprintf(stderr, "mmap ccsr: %s\n", st.ToString().c_str());
        return 1;
      }
      index = mapped->Release();  // co-owns the mapping
    } else if (Status st = LoadCcsrFromFile(ccsr_path, &index); !st.ok()) {
      std::fprintf(stderr, "load ccsr: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    if (Status st = LoadGraphFromFile(graph_path, &source_graph); !st.ok()) {
      std::fprintf(stderr, "load graph: %s\n", st.ToString().c_str());
      return 1;
    }
    index = Ccsr::Build(source_graph);
    have_graph = true;
  }

  std::vector<WorkloadSegment> workload;
  if (queries_path == "-") {
    if (!ParseWorkloadFromStdin(&workload)) return 2;
  } else {
    std::ifstream in(queries_path);
    if (!in) {
      std::fprintf(stderr, "cannot open --queries=%s\n", queries_path.c_str());
      return 1;
    }
    if (!ParseWorkload(in, &workload)) return 2;
  }

  if (shards > 0) {
    for (const std::string& unused : flags.UnusedFlags()) {
      std::fprintf(stderr, "warning: unknown flag --%s\n", unused.c_str());
    }
    int rc;
    std::unique_ptr<shard::InProcessCluster> cluster;
    std::unique_ptr<shard::ShardCoordinator> coordinator;
    std::unique_ptr<shard::TcpListener> listener;
    LocalWorkerSet local_workers;
    local_workers.faults = injector;
    ForkedWorkerSet forked;
    if (forked_workers > 0) {
      forked.current = child_pids;
      forked.parent_fds = child_fds;
      coordinator = std::make_unique<shard::ShardCoordinator>(&index);
      coordinator->set_supervision(supervision);
      for (int fd : child_fds) {
        coordinator->AttachWorker(shard::MakeFdTransport(fd));
      }
      // Restarts re-fork: the replacement child serves the same shard
      // over a fresh socketpair and runs fault-free (the plan already
      // fired in the incarnation it killed). Replacements are not added
      // to g_worker_pids — the watcher iterates that vector without a
      // lock — they exit on their own once the parent's socket closes.
      coordinator->set_worker_factory(
          [&forked](uint32_t s, std::unique_ptr<shard::Transport>* out) {
            forked.parent_fds[s] = -1;  // the coordinator closed the old fd
            int fds[2];
            if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
              return Status::IOError("socketpair for worker restart failed");
            }
            pid_t pid = fork();
            if (pid < 0) {
              close(fds[0]);
              close(fds[1]);
              return Status::IOError("fork for worker restart failed");
            }
            if (pid == 0) {
              close(fds[0]);
              for (int fd : forked.parent_fds) {
                if (fd >= 0) close(fd);  // other workers' parent ends
              }
              RunForkedWorker(fds[1], s, "");
            }
            close(fds[1]);
            forked.parent_fds[s] = fds[0];
            forked.superseded.push_back(forked.current[s]);
            forked.current[s] = pid;
            *out = shard::MakeFdTransport(fds[0]);
            return Status::OK();
          });
      if (Status st = coordinator->LoadFromFiles(ccsr_path, threads_per_query,
                                                 use_mmap, memory_cap);
          !st.ok()) {
        std::fprintf(stderr, "shard load: %s\n", st.ToString().c_str());
        return 1;
      }
    } else if (!listen_spec.empty()) {
      std::string host;
      uint16_t port = 0;
      if (!shard::ParseHostPort(listen_spec, &host, &port)) {
        std::fprintf(stderr, "--listen needs HOST:PORT\n");
        return 2;
      }
      if (Status st = shard::TcpListener::Listen(host, port, &listener);
          !st.ok()) {
        std::fprintf(stderr, "listen %s: %s\n", listen_spec.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "csce_serve: listening on %s:%u, waiting for %lld shard "
                   "workers\n",
                   host.c_str(), listener->port(),
                   static_cast<long long>(shards));
      // No WorkerFactory: a remote worker cannot be re-forked from
      // here, so losing one fails the query (after the workers_lost
      // metric fires); supervision still provides heartbeats, round
      // deadlines and structured transport errors.
      coordinator = std::make_unique<shard::ShardCoordinator>(&index);
      coordinator->set_supervision(supervision);
      for (int64_t s = 0; s < shards; ++s) {
        std::unique_ptr<shard::Transport> t;
        if (Status st = listener->Accept(300.0, {}, &t); !st.ok()) {
          std::fprintf(stderr, "accept worker %lld: %s\n",
                       static_cast<long long>(s), st.ToString().c_str());
          return 1;
        }
        coordinator->AttachWorker(std::move(t));
      }
      if (Status st = coordinator->LoadFromFiles(ccsr_path, threads_per_query,
                                                 use_mmap, memory_cap);
          !st.ok()) {
        std::fprintf(stderr, "shard load: %s\n", st.ToString().c_str());
        return 1;
      }
    } else if (have_graph) {
      shard::InProcessClusterOptions cluster_options;
      cluster_options.supervision = supervision;
      cluster_options.faults = injector;
      if (Status st = shard::InProcessCluster::Create(
              source_graph, &index, static_cast<uint32_t>(shards), strategy,
              threads_per_query, cluster_options, &cluster);
          !st.ok()) {
        std::fprintf(stderr, "shard cluster: %s\n", st.ToString().c_str());
        return 1;
      }
    } else {
      // --ccsr + in-process workers: serve threads load the on-disk
      // shard artifacts themselves.
      coordinator = std::make_unique<shard::ShardCoordinator>(&index);
      coordinator->set_supervision(supervision);
      coordinator->set_worker_factory(
          [&local_workers](uint32_t s,
                           std::unique_ptr<shard::Transport>* out) {
            return local_workers.SpawnOne(s, out);
          });
      local_workers.Spawn(coordinator.get(), static_cast<uint32_t>(shards));
      if (Status st = coordinator->LoadFromFiles(ccsr_path, threads_per_query,
                                                 use_mmap, memory_cap);
          !st.ok()) {
        std::fprintf(stderr, "shard load: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    shard::ShardCoordinator& coord =
        cluster != nullptr ? cluster->coordinator() : *coordinator;
    rc = RunShardedSession(coord, workload, repeat, quiet, self_check);
    // Catch workers that died without the coordinator noticing (e.g. a
    // crash after the last result was merged) before the metrics
    // artifact is written, so workers_lost lands in it. Pids superseded
    // by a successful restart are expected to be dead and don't count.
    std::vector<char> reaped(forked.current.size(), 0);
    if (!forked.current.empty() && ExitRequested() == 0) {
      int lost = 0;
      for (size_t i = 0; i < forked.current.size(); ++i) {
        reaped[i] =
            ReapWorker(forked.current[i], WNOHANG, false, &lost) ? 1 : 0;
      }
      if (lost > 0) {
        obs::MetricRegistry::Global()
            .counter("shard.workers_lost")
            .Add(static_cast<uint64_t>(lost));
        if (rc == 0) rc = 1;
      }
    }
    if (!metrics_path.empty()) {
      int mrc = WriteShardedMetrics(coord, metrics_path, forked_workers > 0);
      if (rc == 0) rc = mrc;
    }
    coord.Shutdown();
    cluster.reset();  // joins in-process worker threads
    // Final reap: Shutdown closed every transport, so remaining
    // children see EOF and exit. They must exit cleanly unless the
    // session was interrupted (the watcher SIGTERMs them); superseded
    // pids died by design.
    {
      bool interrupted = ExitRequested() != 0;
      int lost = 0;
      for (size_t i = 0; i < forked.current.size(); ++i) {
        if (!reaped[i]) {
          (void)ReapWorker(forked.current[i], 0, interrupted, &lost);
        }
      }
      for (pid_t pid : forked.superseded) {
        (void)ReapWorker(pid, 0, true, &lost);
      }
      if (lost > 0 && rc == 0) rc = 1;
    }
    if (int sig = ExitRequested()) return 128 + sig;
    return rc;
  }

  RuntimeOptions runtime_options;
  runtime_options.worker_threads =
      static_cast<uint32_t>(flags.GetInt("threads", 0));
  runtime_options.max_inflight =
      static_cast<uint32_t>(flags.GetInt("inflight", 0));
  runtime_options.threads_per_query = threads_per_query;
  runtime_options.default_deadline_seconds = flags.GetDouble("deadline", 0);
  runtime_options.share_cluster_views = !flags.GetBool("no-share-views");
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unused.c_str());
  }

  QueryRuntime runtime(&index, runtime_options);
  SignalRuntimeScope signal_scope(&runtime);
  int failures = 0;
  for (int64_t r = 0; r < repeat && !ExitRequested(); ++r) {
    for (const WorkloadSegment& segment : workload) {
      if (ExitRequested()) break;
      std::vector<QueryOutcome> outcomes;
      if (!segment.jobs.empty()) {
        std::vector<QueryJob> jobs = segment.jobs;
        if (self_check) {
          for (QueryJob& job : jobs) job.options.self_check = true;
        }
        if (Status st = runtime.RunBatch(jobs, &outcomes); !st.ok()) {
          std::fprintf(stderr, "run batch: %s\n", st.ToString().c_str());
          return 1;
        }
      }
      for (size_t i = 0; i < outcomes.size(); ++i) {
        const QueryOutcome& o = outcomes[i];
        if (!o.status.ok()) ++failures;
        if (quiet) continue;
        std::printf(
            "query=%s variant=%s status=%s embeddings=%llu wait=%.3fms "
            "total=%.3fms%s%s%s%s\n",
            o.tag.c_str(), VariantName(segment.jobs[i].options.variant),
            o.status.ok() ? "ok" : o.status.ToString().c_str(),
            static_cast<unsigned long long>(o.result.embeddings),
            o.queue_wait_seconds * 1e3, o.total_seconds * 1e3,
            o.result.timed_out ? " timed_out" : "",
            o.result.limit_reached ? " limit_reached" : "",
            o.result.cancelled ? " cancelled" : "",
            o.executed ? "" : " not_executed");
      }
      if (segment.stats_after) {
        std::printf("STATS %s\n",
                    runtime.metrics().ToJson().Dump(0).c_str());
        std::fflush(stdout);
      }
    }
  }

  // Session summary: the runtime's cumulative metrics plus the session
  // configuration, as a single JSON line (scripts parse this).
  const RuntimeMetrics m = runtime.metrics();
  obs::JsonValue summary = m.ToJson();
  summary.Set("cache_hits", m.cluster_cache_hits);
  summary.Set("cache_misses", m.cluster_cache_misses);
  summary.Set("worker_threads", runtime.options().worker_threads);
  summary.Set("max_inflight", runtime.options().max_inflight);
  summary.Set("threads_per_query", runtime.options().threads_per_query);
  std::printf("%s\n", summary.Dump(0).c_str());

  if (!metrics_path.empty()) {
    if (Status st = obs::WriteMetricsFile(obs::MetricRegistry::Global(),
                                          metrics_path);
        !st.ok()) {
      std::fprintf(stderr, "metrics: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  // An interrupted session still flushed its metrics artifact above;
  // report the signal exit code so callers can tell the two apart.
  if (int sig = ExitRequested()) return 128 + sig;
  return failures == 0 ? 0 : 1;
}
