#include "engine/matcher.h"

#include <memory>
#include <set>
#include <vector>

#include "engine/embedding_verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/validate.h"
#include "runtime/parallel_executor.h"
#include "util/bitset.h"
#include "util/memory.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace csce {
namespace {

struct MatchMetrics {
  obs::Counter queries;
  obs::Histogram read_seconds;
  obs::Histogram plan_seconds;
  obs::Histogram enumerate_seconds;

  static const MatchMetrics& Get() {
    static const MatchMetrics m = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return MatchMetrics{r.counter("match.queries"),
                          r.histogram("match.read_seconds"),
                          r.histogram("match.plan_seconds"),
                          r.histogram("match.enumerate_seconds")};
    }();
    return m;
  }
};

// Ends the query's paging-advice window on every exit path (under a
// memory cap this drops the advised clusters behind the frontier).
struct AdviseDoneGuard {
  const Ccsr& data;
  ~AdviseDoneGuard() { data.AdviseQueryDone(); }
};

Status MatchImpl(const Ccsr& data, ClusterCache* cache, const Graph& pattern,
                 const MatchOptions& options,
                 const EmbeddingCallback* callback, MatchResult* result) {
  *result = MatchResult{};
  obs::Span match_span("match.query");
  WallTimer total;

  // Stage 2 (orange in Fig. 2) runs first: plan optimization touches
  // only the cluster directory and statistics — never payload bytes —
  // so for an mmap'd index the finished plan doubles as the prefetch
  // schedule for stage 1's reads.
  WallTimer stage;
  Planner planner(&data);
  Plan plan;
  {
    obs::Span span("match.plan");
    CSCE_RETURN_IF_ERROR(
        planner.MakePlan(pattern, options.variant, options.plan, &plan));
  }
  result->plan_seconds = stage.Seconds();
  result->sce = plan.sce;

  AdviseDoneGuard advise_guard{data};
  if (data.mapped()) {
    data.AdviseQueryClusters(PlanClusterSchedule(data, plan));
  }

  // Stage 1 (blue): read the useful clusters G_C^*.
  stage.Restart();
  QueryClusters qc;
  {
    obs::Span span("match.read");
    if (cache != nullptr) {
      CSCE_RETURN_IF_ERROR(
          ReadClustersCached(*cache, pattern, options.variant, &qc));
    } else {
      CSCE_RETURN_IF_ERROR(ReadClusters(data, pattern, options.variant, &qc));
    }
  }
  result->read_seconds = stage.Seconds();
  result->clusters_read = qc.NumViews();
  result->decompressed_bytes = qc.DecompressedBytes();

  // Stage 3 (green): pipelined WCOJ execution, morsel-parallel when
  // the options ask for more than one thread.
  stage.Restart();
  ExecOptions exec;
  exec.max_embeddings = options.max_embeddings;
  exec.time_limit_seconds = options.time_limit_seconds;
  exec.restrictions = options.restrictions;
  exec.stop = options.stop;
  // The executor only acts on directives the plan compiled, so the
  // plan's pass set (== options.plan.prune) is authoritative.
  exec.prune = plan.prune;
  if (callback != nullptr) exec.callback = *callback;

  // Self-check: validate the plan, arm the SCE oracle, and re-verify
  // every emitted embedding from first principles. The verifying
  // wrapper must be thread-safe — the parallel runtime invokes the
  // callback concurrently from its workers.
  std::unique_ptr<EmbeddingVerifier> verifier;
  Mutex self_check_mu;
  Status self_check_error;
  if (options.self_check) {
    CSCE_RETURN_IF_ERROR(ValidatePlan(&data, pattern, plan));
    exec.verify_sce = true;
    verifier = std::make_unique<EmbeddingVerifier>(data, pattern,
                                                   options.variant);
    exec.callback = [&, user = exec.callback](
                        std::span<const VertexId> mapping) -> bool {
      Status st = verifier->Verify(mapping);
      if (!st.ok()) {
        MutexLock lock(self_check_mu);
        if (self_check_error.ok()) self_check_error = std::move(st);
        return false;
      }
      return user ? user(mapping) : true;
    };
  }
  ExecStats stats;
  {
    obs::Span span("match.enumerate");
    if (options.num_threads != 1) {
      ParallelExecutor executor(data, qc, plan);
      ParallelOptions popts;
      popts.num_threads = options.num_threads;
      popts.morsel_size = options.morsel_size;
      CSCE_RETURN_IF_ERROR(executor.Run(exec, popts, &stats));
    } else {
      Executor executor(data, qc, plan);
      CSCE_RETURN_IF_ERROR(executor.Run(exec, &stats));
    }
  }
  result->enumerate_seconds = stage.Seconds();

  if (options.self_check) {
    if (!self_check_error.ok()) return self_check_error;
    result->embeddings_verified = verifier->verified();
  }

  result->embeddings = stats.embeddings;
  result->timed_out = stats.timed_out;
  result->limit_reached = stats.limit_reached;
  result->cancelled = stats.cancelled;
  result->search_nodes = stats.search_nodes;
  result->candidate_sets_computed = stats.candidate_sets_computed;
  result->candidate_sets_reused = stats.candidate_sets_reused;
  result->morsels_claimed = stats.morsels_claimed;
  result->worker_idle_seconds = stats.worker_idle_seconds;
  result->intersect_elements = stats.intersect_elements;
  result->prune_candidates_removed = stats.prune_candidates_removed;
  result->prune_extensions_skipped = stats.prune_extensions_skipped;
  result->total_seconds = total.Seconds();
  result->peak_rss_bytes = PeakRssBytes();

  const MatchMetrics& m = MatchMetrics::Get();
  m.queries.Increment();
  m.read_seconds.Record(result->read_seconds);
  m.plan_seconds.Record(result->plan_seconds);
  m.enumerate_seconds.Record(result->enumerate_seconds);
  return Status::OK();
}

}  // namespace

std::vector<ClusterId> PlanClusterSchedule(const Ccsr& data,
                                           const Plan& plan) {
  std::vector<ClusterId> ids;
  // First occurrences: a bit per cluster slot of the index, and a set
  // of the ids of empty clusters (constraints without data edges).
  DynamicBitset seen(data.NumClusters());
  std::set<ClusterId> absent;
  auto add_slot = [&](size_t slot) {
    if (!seen.Test(slot)) ids.push_back(data.clusters()[slot].id);
    seen.Set(slot);
  };
  auto add = [&](const ClusterId& id) {
    const CompressedCluster* c = data.Find(id);
    if (c != nullptr) add_slot(c - data.clusters().data());
    if (c == nullptr && absent.insert(id).second) ids.push_back(id);
  };
  // A label pair's star clusters are walked at its first negation only
  // (later walks would add nothing): a bit per ordered pair of label
  // ranks. A valid plan's L(w) is the label of position w; a negation
  // whose other_label says otherwise (a decoded wire plan is not
  // validated) is walked every time.
  std::vector<uint32_t> rank;  // set up at the first negation
  size_t num_labels = 0;
  DynamicBitset walked;
  for (uint32_t j = 0; j < plan.positions.size(); ++j) {
    const PlanPosition& p = plan.positions[j];
    if (p.seed_valid) add(p.seed_cluster);
    for (const EdgeConstraint& e : p.edges) add(e.cluster);
    for (const NegConstraint& n : p.negations) {
      if (rank.empty()) {
        num_labels = PositionLabelRanks(plan, &rank);
        walked.Resize(num_labels * num_labels);
      }
      if (plan.positions[n.pos].label == n.other_label) {
        const size_t pair = rank[j] * num_labels + rank[n.pos];
        if (walked.Test(pair)) continue;
        walked.Set(pair);
      }
      for (size_t slot : data.StarClusters(p.label, n.other_label)) {
        add_slot(slot);
      }
    }
  }
  return ids;
}

Status CsceMatcher::Match(const Graph& pattern, const MatchOptions& options,
                          MatchResult* result) const {
  return MatchImpl(*data_, cache_, pattern, options, nullptr, result);
}

Status CsceMatcher::MatchWithCallback(const Graph& pattern,
                                      const MatchOptions& options,
                                      const EmbeddingCallback& callback,
                                      MatchResult* result) const {
  return MatchImpl(*data_, cache_, pattern, options, &callback, result);
}

Status CsceMatcher::ExplainPlan(const Graph& pattern,
                                const MatchOptions& options,
                                Plan* plan) const {
  Planner planner(data_);
  return planner.MakePlan(pattern, options.variant, options.plan, plan);
}

}  // namespace csce
