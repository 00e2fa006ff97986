#include "runtime/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace csce {
namespace {

struct RuntimeMetricsReg {
  obs::Counter parallel_runs;
  // Same named counter the executor flushes into (registration is
  // idempotent): the probe's root candidate computation is real work
  // merged stats count, so the metric must count it too.
  obs::Counter sce_recomputes;
  // Likewise the probe's root candidate-set sample (the workers flush
  // their own samples when their Run ends).
  obs::Histogram candidate_set_size;
  // The probe's LPI share: with pruning on, the root set is filtered
  // exactly once, by the probe — workers enumerate pre-filtered
  // morsels. Flushing it here keeps the process counters equal to a
  // single-threaded run's.
  obs::Counter prune_candidates_removed;
  obs::Histogram prune_shrink_ratio;
  obs::Histogram worker_idle_seconds;

  static const RuntimeMetricsReg& Get() {
    static const RuntimeMetricsReg m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return RuntimeMetricsReg{r.counter("runtime.parallel_runs"),
                               r.counter("engine.sce_recomputes"),
                               r.histogram("engine.candidate_set_size"),
                               r.counter("prune.candidates_removed"),
                               r.histogram("prune.shrink_ratio_pct"),
                               r.histogram("runtime.worker_idle_seconds")};
    }();
    return m;
  }
};

}  // namespace

size_t AutoMorselSize(size_t roots, uint32_t threads) {
  size_t m = roots / (static_cast<size_t>(threads) * 8);
  return std::clamp<size_t>(m, 1, 4096);
}

ParallelExecutor::ParallelExecutor(const Ccsr& gc, const QueryClusters& qc,
                                   const Plan& plan)
    : gc_(gc), qc_(qc), plan_(plan) {}

Status ParallelExecutor::Run(const ExecOptions& options,
                             const ParallelOptions& popts, ExecStats* stats) {
  uint32_t threads =
      popts.num_threads == 0 ? ThreadPool::DefaultThreads() : popts.num_threads;

  // Root candidate computation doubles as option validation (Prepare).
  Executor probe(gc_, qc_, plan_);
  std::vector<VertexId> roots;
  ExecStats probe_stats;
  CSCE_RETURN_IF_ERROR(
      probe.ComputeRootCandidates(options, &roots, &probe_stats));

  const size_t morsel =
      popts.morsel_size > 0 ? popts.morsel_size
                            : AutoMorselSize(roots.size(), threads);
  // Serial fallback: one worker, or too few morsels to win anything.
  if (threads <= 1 || roots.size() <= morsel) {
    return probe.Run(options, stats);
  }
  threads = static_cast<uint32_t>(
      std::min<size_t>(threads, (roots.size() + morsel - 1) / morsel));

  WallTimer wall;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> delivered{0};  // callback admission under a limit
  StopToken broadcast;  // limit hit / callback stop / external cancel
  broadcast.SetParent(options.stop);
  const uint64_t limit = options.max_embeddings;

  ExecOptions worker_options = options;
  worker_options.stop = &broadcast;
  worker_options.root_claim = [&next, &roots,
                               morsel]() -> std::span<const VertexId> {
    size_t begin = next.fetch_add(morsel, std::memory_order_relaxed);
    if (begin >= roots.size()) return {};
    return std::span<const VertexId>(roots).subspan(
        begin, std::min(morsel, roots.size() - begin));
  };
  if (options.callback) {
    // Concurrent delivery; under a limit, admit at most `limit`
    // embeddings to the user callback across all workers.
    worker_options.callback = [&delivered, &broadcast, limit,
                               user = options.callback](
                                  std::span<const VertexId> mapping) {
      if (limit > 0 &&
          delivered.fetch_add(1, std::memory_order_relaxed) >= limit) {
        return false;
      }
      if (!user(mapping)) {
        broadcast.RequestStop();
        return false;
      }
      return true;
    };
  }

  std::vector<ExecStats> worker_stats(threads);
  std::vector<Status> worker_status(threads, Status::OK());
  {
    ThreadPool pool(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      pool.Submit([this, t, &worker_options, &worker_stats, &worker_status,
                   &broadcast] {
        obs::Span span("runtime.worker");
        Executor ex(gc_, qc_, plan_);
        worker_status[t] = ex.Run(worker_options, &worker_stats[t]);
        // A worker that hit the embedding cap or its deadline has
        // decided the run's outcome; stop the others promptly.
        if (worker_stats[t].limit_reached || worker_stats[t].timed_out) {
          broadcast.RequestStop();
        }
      });
    }
    pool.Wait();
  }

  ExecStats merged;
  // The probe's root candidate computation is real work the serial
  // path would also count — including its LPI filtering of the root
  // set, which the workers (enumerating pre-filtered morsels) never
  // repeat at depth 0.
  merged.candidate_sets_computed = probe_stats.candidate_sets_computed;
  merged.candidate_set_size.Merge(probe_stats.candidate_set_size);
  merged.intersect_elements = probe_stats.intersect_elements;
  merged.prune_candidates_removed = probe_stats.prune_candidates_removed;
  merged.prune_shrink_ratio.Merge(probe_stats.prune_shrink_ratio);
  double busy_seconds = 0.0;
  for (uint32_t t = 0; t < threads; ++t) {
    CSCE_RETURN_IF_ERROR(worker_status[t]);
    merged.embeddings += worker_stats[t].embeddings;
    merged.search_nodes += worker_stats[t].search_nodes;
    merged.candidate_sets_computed += worker_stats[t].candidate_sets_computed;
    merged.candidate_sets_reused += worker_stats[t].candidate_sets_reused;
    merged.morsels_claimed += worker_stats[t].morsels_claimed;
    merged.candidate_set_size.Merge(worker_stats[t].candidate_set_size);
    merged.intersect_elements += worker_stats[t].intersect_elements;
    merged.prune_candidates_removed +=
        worker_stats[t].prune_candidates_removed;
    merged.prune_extensions_skipped +=
        worker_stats[t].prune_extensions_skipped;
    merged.prune_shrink_ratio.Merge(worker_stats[t].prune_shrink_ratio);
    merged.timed_out |= worker_stats[t].timed_out;
    busy_seconds += worker_stats[t].seconds;
  }
  if (limit > 0 && merged.embeddings >= limit) {
    merged.embeddings = limit;
    merged.limit_reached = true;
  }
  // Broadcast stops triggered internally (limit, callback false) are
  // not cancellations; only the caller's token is.
  merged.cancelled = options.stop != nullptr && options.stop->StopRequested();
  merged.seconds = wall.Seconds();
  // Load-imbalance indicator: total worker wall time not spent inside
  // Executor::Run (pool spin-up, claim contention, straggler waits).
  merged.worker_idle_seconds =
      std::max(0.0, static_cast<double>(threads) * merged.seconds -
                        busy_seconds);
  *stats = merged;

  const RuntimeMetricsReg& m = RuntimeMetricsReg::Get();
  m.parallel_runs.Increment();
  m.sce_recomputes.Increment();  // the probe's share of merged stats
  m.candidate_set_size.Record(static_cast<double>(roots.size()));
  m.prune_candidates_removed.Add(probe_stats.prune_candidates_removed);
  m.prune_shrink_ratio.Merge(probe_stats.prune_shrink_ratio);
  m.worker_idle_seconds.Record(merged.worker_idle_seconds);
  return Status::OK();
}

}  // namespace csce
