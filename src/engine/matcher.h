#ifndef CSCE_ENGINE_MATCHER_H_
#define CSCE_ENGINE_MATCHER_H_

#include <cstdint>

#include "ccsr/ccsr.h"
#include "ccsr/cluster_cache.h"
#include "engine/executor.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "plan/planner.h"
#include "util/status.h"

namespace csce {

/// End-to-end options for one CSCE matching task.
struct MatchOptions {
  MatchVariant variant = MatchVariant::kEdgeInduced;
  PlanOptions plan;
  /// Stop after this many embeddings (0 = find all).
  uint64_t max_embeddings = 0;
  /// Abort enumeration after this many seconds (0 = no limit).
  double time_limit_seconds = 0.0;
  /// Symmetry-breaking restrictions (benchmark ablations only).
  std::vector<std::pair<VertexId, VertexId>> restrictions;
  /// Enumeration workers: > 1 shards the root position's candidates
  /// into morsels executed by a private worker pool (see
  /// runtime/parallel_executor.h for semantics and determinism notes);
  /// 0 uses all hardware threads, 1 is the plain serial executor.
  uint32_t num_threads = 1;
  /// Root candidates per morsel when num_threads > 1 (0 = auto).
  uint32_t morsel_size = 0;
  /// Cooperative cancellation token (nullptr = none); a stopped token
  /// aborts enumeration with MatchResult::cancelled set. Must outlive
  /// the call.
  const StopToken* stop = nullptr;
  /// Debug self-check mode. Three layers of paranoia, all ground-truth:
  /// the compiled plan is re-validated against the pattern
  /// (plan/validate.h), every SCE cache reuse is CHECK-compared against
  /// a fresh recomputation before being trusted, and every emitted
  /// embedding is re-verified against the CCSR's own cluster rows
  /// (labels, arcs, injectivity, induced-ness — engine/
  /// embedding_verifier.h). A bad embedding fails the match with
  /// Corruption; a bad cache reuse aborts the process. Disables the
  /// count-only fast path, so expect an order of magnitude of overhead.
  bool self_check = false;
};

/// End-to-end result with the paper's per-stage time breakdown.
struct MatchResult {
  uint64_t embeddings = 0;
  bool timed_out = false;
  bool limit_reached = false;
  bool cancelled = false;

  double read_seconds = 0.0;       // Algorithm 1: cluster selection
  double plan_seconds = 0.0;       // GCF + BuildDAG + LDSF + compile
  double enumerate_seconds = 0.0;  // execution
  double total_seconds = 0.0;

  // Executor counters.
  uint64_t search_nodes = 0;
  uint64_t candidate_sets_computed = 0;
  uint64_t candidate_sets_reused = 0;
  /// Morsel-parallel runs only (num_threads != 1): total non-empty
  /// morsels claimed across workers, and total worker wall time spent
  /// outside Executor::Run (load-imbalance indicator). Both 0 serially.
  uint64_t morsels_claimed = 0;
  double worker_idle_seconds = 0.0;
  /// Proactive-pruning counters (see ExecStats for semantics and
  /// thread-count-invariance notes); the prune_* ones are 0 under
  /// `--prune=none`.
  uint64_t intersect_elements = 0;
  uint64_t prune_candidates_removed = 0;
  uint64_t prune_extensions_skipped = 0;

  // Plan/read diagnostics.
  SceStats sce;
  size_t clusters_read = 0;
  size_t decompressed_bytes = 0;
  uint64_t peak_rss_bytes = 0;

  /// Embeddings re-verified by the self-check (options.self_check only;
  /// equals `embeddings` when the run completed without corruption).
  uint64_t embeddings_verified = 0;
};

/// The clusters `plan` will touch, in matching order, deduplicated on
/// first occurrence (by cluster slot, in linear time; each label
/// pair's stars walked once): seed clusters,
/// edge-constraint clusters, and the star clusters behind each negation
/// constraint; ids of empty clusters too. For an mmap'd index
/// this is the prefetch schedule handed to the pager
/// (Ccsr::AdviseQueryClusters) before any cluster bytes are read; the
/// matcher does this itself, shard workers call it around their own
/// ReadClusters.
std::vector<ClusterId> PlanClusterSchedule(const Ccsr& data, const Plan& plan);

/// The public facade: matches patterns against a CCSR-indexed data
/// graph for any of the three SM variants.
///
///   Ccsr gc = Ccsr::Build(data_graph);   // offline, once per graph
///   CsceMatcher matcher(&gc);
///   MatchOptions options;
///   options.variant = MatchVariant::kEdgeInduced;
///   MatchResult result;
///   Status st = matcher.Match(pattern, options, &result);
class CsceMatcher {
 public:
  /// `data` must outlive the matcher. With a non-null `cache`, queries
  /// count their cluster reads in it (ccsr/cluster_cache.h); the cache
  /// must be built over the same `data` and must outlive the matcher.
  explicit CsceMatcher(const Ccsr* data, ClusterCache* cache = nullptr)
      : data_(data), cache_(cache) {}

  /// Counts all embeddings (subject to the options' limits).
  Status Match(const Graph& pattern, const MatchOptions& options,
               MatchResult* result) const;

  /// Invokes `callback` per embedding; mapping is indexed by pattern
  /// vertex. Returning false from the callback stops the enumeration.
  Status MatchWithCallback(const Graph& pattern, const MatchOptions& options,
                           const EmbeddingCallback& callback,
                           MatchResult* result) const;

  /// The plan CSCE would use, for inspection/benchmarks.
  Status ExplainPlan(const Graph& pattern, const MatchOptions& options,
                     Plan* plan) const;

  const Ccsr* data() const { return data_; }

 private:
  const Ccsr* data_;
  ClusterCache* cache_;
};

}  // namespace csce

#endif  // CSCE_ENGINE_MATCHER_H_
