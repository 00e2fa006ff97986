#include "runtime/query_runtime.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace csce {
namespace {

struct ServiceMetrics {
  obs::Counter admissions;
  obs::Counter deadline_queue_expired;
  obs::Counter batches;
  obs::Histogram queue_wait_seconds;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return ServiceMetrics{r.counter("runtime.admissions"),
                            r.counter("runtime.deadline_queue_expired"),
                            r.counter("runtime.batches"),
                            r.histogram("runtime.queue_wait_seconds")};
    }();
    return m;
  }
};

RuntimeOptions Normalize(RuntimeOptions options) {
  if (options.worker_threads == 0) {
    options.worker_threads = ThreadPool::DefaultThreads();
  }
  if (options.max_inflight == 0) {
    options.max_inflight = options.worker_threads;
  }
  if (options.threads_per_query == 0) options.threads_per_query = 1;
  return options;
}

}  // namespace

QueryRuntime::QueryRuntime(const Ccsr* data, const RuntimeOptions& options)
    : data_(data),
      options_(Normalize(options)),
      cache_(data),
      pool_(options_.worker_threads) {}

Status QueryRuntime::RunBatch(const std::vector<QueryJob>& jobs,
                              std::vector<QueryOutcome>* outcomes) {
  MutexLock batch_lock(batch_mu_);
  obs::Span span("runtime.batch");
  ServiceMetrics::Get().batches.Increment();
  outcomes->assign(jobs.size(), QueryOutcome{});
  WallTimer batch_timer;
  {
    MutexLock lock(metrics_mu_);
    metrics_.submitted += jobs.size();
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const QueryJob* job = &jobs[i];
    QueryOutcome* outcome = &(*outcomes)[i];
    const double submit_seconds = batch_timer.Seconds();
    pool_.Submit([this, job, submit_seconds, &batch_timer, outcome] {
      RunOne(*job, submit_seconds, batch_timer, outcome);
    });
  }
  pool_.Wait();
  {
    MutexLock lock(metrics_mu_);
    metrics_.wall_seconds += batch_timer.Seconds();
    metrics_.cluster_cache_hits = cache_.hits();
    metrics_.cluster_cache_misses = cache_.misses();
  }
  return Status::OK();
}

void QueryRuntime::RunOne(const QueryJob& job, double submit_seconds,
                          const WallTimer& batch_timer,
                          QueryOutcome* outcome) {
  outcome->tag = job.tag;
  bool cancelled_in_queue = false;
  Admit(&outcome->queue_wait_seconds, submit_seconds, batch_timer,
        &cancelled_in_queue);
  if (cancelled_in_queue) {
    outcome->result.cancelled = true;
    outcome->total_seconds = batch_timer.Seconds() - submit_seconds;
    Account(*outcome);
    return;
  }

  // The deadline runs from submission, so time burned in the admission
  // queue shrinks (or exhausts) the enumeration budget.
  const double deadline = job.options.time_limit_seconds > 0
                              ? job.options.time_limit_seconds
                              : options_.default_deadline_seconds;
  if (deadline > 0 && outcome->queue_wait_seconds >= deadline) {
    outcome->result.timed_out = true;
    outcome->total_seconds = batch_timer.Seconds() - submit_seconds;
    ServiceMetrics::Get().deadline_queue_expired.Increment();
    {
      MutexLock lock(metrics_mu_);
      ++metrics_.deadline_queue_expired;
    }
    Release();
    Account(*outcome);
    return;
  }

  MatchOptions options = job.options;
  if (deadline > 0) {
    options.time_limit_seconds = deadline - outcome->queue_wait_seconds;
  }
  if (options.num_threads == 1) {
    options.num_threads = options_.threads_per_query;
  }
  options.stop = &session_stop_;

  CsceMatcher matcher(data_,
                      options_.share_cluster_views ? &cache_ : nullptr);
  outcome->executed = true;
  outcome->status = matcher.Match(job.pattern, options, &outcome->result);
  outcome->total_seconds = batch_timer.Seconds() - submit_seconds;
  Release();
  Account(*outcome);
}

void QueryRuntime::Admit(double* queue_wait, double submit_seconds,
                         const WallTimer& batch_timer,
                         bool* cancelled_in_queue) {
  MutexLock lock(admit_mu_);
  while (inflight_ >= options_.max_inflight && !session_stop_.StopRequested()) {
    admit_cv_.Wait(admit_mu_);
  }
  *queue_wait = batch_timer.Seconds() - submit_seconds;
  if (session_stop_.StopRequested()) {
    *cancelled_in_queue = true;
    return;
  }
  ++inflight_;
  const ServiceMetrics& m = ServiceMetrics::Get();
  m.admissions.Increment();
  m.queue_wait_seconds.Record(*queue_wait);
}

void QueryRuntime::Release() {
  {
    MutexLock lock(admit_mu_);
    --inflight_;
  }
  admit_cv_.NotifyOne();
}

void QueryRuntime::CancelAll() {
  {
    MutexLock lock(admit_mu_);
    session_stop_.RequestStop();
  }
  admit_cv_.NotifyAll();
}

void QueryRuntime::ResetCancellation() { session_stop_.Reset(); }

void QueryRuntime::Account(const QueryOutcome& outcome) {
  MutexLock lock(metrics_mu_);
  metrics_.queue_wait_seconds += outcome.queue_wait_seconds;
  metrics_.exec_seconds +=
      outcome.total_seconds - outcome.queue_wait_seconds;
  if (!outcome.status.ok()) {
    ++metrics_.failed;
    return;
  }
  if (outcome.result.cancelled) ++metrics_.cancelled;
  if (outcome.result.timed_out) ++metrics_.timed_out;
  if (outcome.result.limit_reached) ++metrics_.limit_reached;
  if (outcome.executed) {
    ++metrics_.completed;
    metrics_.embeddings += outcome.result.embeddings;
    metrics_.read_seconds += outcome.result.read_seconds;
    metrics_.plan_seconds += outcome.result.plan_seconds;
    metrics_.enumerate_seconds += outcome.result.enumerate_seconds;
  }
}

RuntimeMetrics QueryRuntime::metrics() const {
  MutexLock lock(metrics_mu_);
  return metrics_;
}

obs::JsonValue RuntimeMetrics::ToJson() const {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("queries", submitted);
  doc.Set("completed", completed);
  doc.Set("failed", failed);
  doc.Set("timed_out", timed_out);
  doc.Set("deadline_queue_expired", deadline_queue_expired);
  doc.Set("limit_reached", limit_reached);
  doc.Set("cancelled", cancelled);
  doc.Set("embeddings", embeddings);
  doc.Set("queue_wait_seconds", queue_wait_seconds);
  doc.Set("exec_seconds", exec_seconds);
  doc.Set("read_seconds", read_seconds);
  doc.Set("plan_seconds", plan_seconds);
  doc.Set("enumerate_seconds", enumerate_seconds);
  doc.Set("wall_seconds", wall_seconds);
  doc.Set("cluster_cache_hits", cluster_cache_hits);
  doc.Set("cluster_cache_misses", cluster_cache_misses);
  return doc;
}

}  // namespace csce
