#ifndef CSCE_RUNTIME_QUERY_RUNTIME_H_
#define CSCE_RUNTIME_QUERY_RUNTIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ccsr/ccsr.h"
#include "ccsr/cluster_cache.h"
#include "engine/matcher.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stop_token.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csce {

/// Session-level configuration of a QueryRuntime.
struct RuntimeOptions {
  /// Pool threads executing queries (0 = hardware concurrency).
  uint32_t worker_threads = 0;
  /// Admission control: queries executing at once (0 = worker_threads).
  /// Admitted queries hold a slot until completion; the rest wait in
  /// the queue, accruing queue_wait_seconds against their deadline.
  uint32_t max_inflight = 0;
  /// Default intra-query morsel parallelism for jobs that leave
  /// MatchOptions::num_threads at 1 (1 = serial per query; inter-query
  /// parallelism only).
  uint32_t threads_per_query = 1;
  /// Default per-query deadline in seconds, measured from submission
  /// (queueing counts against it). A job's own time_limit_seconds, if
  /// set, takes precedence. 0 = none.
  double default_deadline_seconds = 0.0;
  /// Count the session's cluster reads in one ClusterCache (hits and
  /// misses in the metrics; the reads themselves are the same).
  bool share_cluster_views = true;
};

/// One unit of work for the session: a pattern plus its match options.
struct QueryJob {
  Graph pattern;
  MatchOptions options;
  std::string tag;  // echoed in the outcome, for reporting
};

/// Per-query outcome. `result` is meaningful only when status.ok() and
/// `executed`; a query whose deadline expired while queued, or that was
/// cancelled before admission, is reported without being run.
struct QueryOutcome {
  std::string tag;
  Status status = Status::OK();
  MatchResult result;
  bool executed = false;
  double queue_wait_seconds = 0.0;  // submission -> admission
  double total_seconds = 0.0;       // submission -> completion
};

/// Aggregate counters across everything the runtime has executed.
struct RuntimeMetrics {
  uint64_t submitted = 0;
  uint64_t completed = 0;         // executed with status OK
  uint64_t failed = 0;            // non-OK status
  uint64_t timed_out = 0;         // includes deadline-expired-in-queue
  /// Queries whose deadline expired while still waiting for an
  /// admission slot — reported timed_out without ever executing.
  uint64_t deadline_queue_expired = 0;
  uint64_t limit_reached = 0;
  uint64_t cancelled = 0;
  uint64_t embeddings = 0;
  double queue_wait_seconds = 0.0;
  double exec_seconds = 0.0;       // admission -> completion
  double read_seconds = 0.0;       // per-stage sums over executed queries
  double plan_seconds = 0.0;
  double enumerate_seconds = 0.0;
  double wall_seconds = 0.0;       // sum of RunBatch wall times
  uint64_t cluster_cache_hits = 0;
  uint64_t cluster_cache_misses = 0;

  /// All fields as a flat JSON object, keys matching the field names
  /// (csce_serve's STATS reply and summary are built from this).
  obs::JsonValue ToJson() const;
};

/// Multi-query session service over one shared Ccsr: a worker pool
/// executes batches of jobs concurrently against a shared (thread-safe)
/// ClusterCache, with admission control, per-query deadlines, and
/// cooperative session-wide cancellation.
///
/// Thread-safety: RunBatch is serialized per runtime (one batch at a
/// time; concurrent callers queue on an internal mutex). CancelAll and
/// metrics() may be called from any thread at any point, in particular
/// while a batch is running.
class QueryRuntime {
 public:
  /// `data` must outlive the runtime and must not be mutated while
  /// queries are in flight (see ClusterCache's thread-safety note).
  QueryRuntime(const Ccsr* data, const RuntimeOptions& options);

  /// Executes every job, respecting admission limits and deadlines.
  /// `outcomes` is resized to jobs.size(), index-aligned with `jobs`.
  /// Returns OK even when individual jobs fail (see their statuses);
  /// per-job failures never abort the batch.
  Status RunBatch(const std::vector<QueryJob>& jobs,
                  std::vector<QueryOutcome>* outcomes)
      CSCE_EXCLUDES(batch_mu_, admit_mu_, metrics_mu_);

  /// Requests cooperative cancellation of all queued and in-flight
  /// queries. Queued jobs are dropped (executed=false); running ones
  /// unwind at their next poll with result.cancelled set. The flag is
  /// sticky: reset it with ResetCancellation() before the next batch.
  void CancelAll() CSCE_EXCLUDES(admit_mu_);
  void ResetCancellation();
  bool cancel_requested() const { return session_stop_.StopRequested(); }

  RuntimeMetrics metrics() const CSCE_EXCLUDES(metrics_mu_);
  ClusterCache& cluster_cache() { return cache_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  void RunOne(const QueryJob& job, double submit_seconds,
              const WallTimer& batch_timer, QueryOutcome* outcome)
      CSCE_EXCLUDES(admit_mu_, metrics_mu_);
  void Admit(double* queue_wait, double submit_seconds,
             const WallTimer& batch_timer, bool* cancelled_in_queue)
      CSCE_EXCLUDES(admit_mu_);
  void Release() CSCE_EXCLUDES(admit_mu_);
  void Account(const QueryOutcome& outcome) CSCE_EXCLUDES(metrics_mu_);

  /// Const after construction; the Ccsr's no-mutation-while-in-flight
  /// contract is documented on the constructor.
  const Ccsr* data_ CSCE_NOT_GUARDED;
  RuntimeOptions options_ CSCE_NOT_GUARDED;  // const after construction
  ClusterCache cache_ CSCE_NOT_GUARDED;      // internally synchronized
  ThreadPool pool_ CSCE_NOT_GUARDED;         // internally synchronized
  /// All-atomic. CancelAll sets it under admit_mu_ only so the write
  /// pairs with admit_cv_ wakeups (a waiter cannot miss the request).
  StopToken session_stop_ CSCE_NOT_GUARDED;

  /// Lock order (DESIGN.md): batch_mu_ -> admit_mu_ -> metrics_mu_.
  /// Never acquired together in practice, but nested acquisition must
  /// follow this order.
  Mutex batch_mu_;  // serializes RunBatch; guards no members

  Mutex admit_mu_;
  CondVar admit_cv_;
  uint32_t inflight_ CSCE_GUARDED_BY(admit_mu_) = 0;

  mutable Mutex metrics_mu_;
  RuntimeMetrics metrics_ CSCE_GUARDED_BY(metrics_mu_);
};

}  // namespace csce

#endif  // CSCE_RUNTIME_QUERY_RUNTIME_H_
