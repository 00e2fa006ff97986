#ifndef CSCE_ENGINE_EXECUTOR_H_
#define CSCE_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "ccsr/ccsr.h"
#include "engine/prune/prune.h"
#include "engine/sce_cache.h"
#include "engine/setops/vertex_scratch.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "util/bitset.h"
#include "util/status.h"
#include "util/stop_token.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace csce {

/// Called once per embedding with the mapping indexed by pattern vertex
/// (mapping[u] is the matched data vertex). Return false to stop the
/// enumeration early.
using EmbeddingCallback = std::function<bool(std::span<const VertexId>)>;

/// Yields the next batch of root-position candidates, or an empty span
/// when none remain. Used by the morsel-parallel runtime: each worker's
/// executor drains morsels from a shared claim counter instead of
/// enumerating the whole root candidate set (see runtime/).
using RootClaimFn = std::function<std::span<const VertexId>()>;

class Executor;

/// The rank of each position's label among the plan's distinct labels
/// (rank[j] < the returned count): the executor's negation table and
/// PlanClusterSchedule key label pairs by it. O(n log n).
uint32_t PositionLabelRanks(const Plan& plan, std::vector<uint32_t>* rank);

/// Decides where each extension's candidates are enumerated. Without a
/// placement (ExecOptions::placement == nullptr) every candidate is
/// enumerated locally; the shard layer implements one that keeps the
/// candidates its shard owns and routes the rest to their owners (see
/// shard/worker.cc and DESIGN.md "Sharded execution").
class Placement {
 public:
  virtual ~Placement() = default;

  /// Extends `prefix` (the mapping by plan position) to position
  /// `depth == prefix.size()`. Returns the candidates to enumerate
  /// locally — a sorted subset of exec.Candidates(depth), asked for
  /// only when needed, that stays valid while the subtree runs — and
  /// sets `*routed` when any of the work was sent elsewhere. A routed
  /// subtree counts as non-failing for failing-set backjumping, like
  /// one that emitted an embedding: its outcome is decided elsewhere,
  /// so no sibling may be skipped on its account.
  virtual std::span<const VertexId> Place(Executor& exec, uint32_t depth,
                                          std::span<const VertexId> prefix,
                                          bool* routed) = 0;
};

struct ExecOptions {
  /// Stop after this many embeddings (0 = find all).
  uint64_t max_embeddings = 0;
  /// Abort after this many seconds (0 = no limit). The run is flagged
  /// `timed_out` and the partial count is reported.
  double time_limit_seconds = 0.0;
  /// Invoked per embedding when set; otherwise the engine only counts.
  EmbeddingCallback callback;
  /// Symmetry-breaking restrictions f(first) < f(second) over pattern
  /// vertices. Empty for CSCE proper (see paper Finding 2); used by the
  /// GraphPi-like configuration in benchmarks.
  std::vector<std::pair<VertexId, VertexId>> restrictions;
  /// Cooperative cancellation: polled at the same cadence as the time
  /// limit; a stopped token aborts the run with `cancelled` set. Must
  /// outlive the run. nullptr disables the check.
  const StopToken* stop = nullptr;
  /// When set, the root position enumerates the claimed morsels instead
  /// of its own candidate set. The spans must contain (a subset of) the
  /// candidates ComputeRootCandidates() would produce, must stay alive
  /// for the whole run, and are consumed in claim order. Plans with a
  /// single position still honor the count-only fast path per morsel.
  RootClaimFn root_claim;
  /// SCE oracle (debug, enabled by MatchOptions::self_check): before
  /// trusting a fresh cache hit, recompute the candidate set from
  /// scratch and CSCE_CHECK it equals the cached one — the cache is
  /// never trusted blindly. Turns every reuse into a recomputation, so
  /// it costs exactly the speedup SCE buys; the oracle recomputations
  /// are not counted in candidate_sets_computed.
  bool verify_sce = false;
  /// Where extensions are enumerated (nullptr: every candidate
  /// locally). Must outlive the run.
  Placement* placement = nullptr;
  /// Proactive pruning passes to act on (engine/prune/prune.h; the
  /// label-pair filter and failing-set backjumping are on by default);
  /// the matcher and the shard workers forward Plan::prune.
  PruneOptions prune;
  /// Test-only fault injection: after this position first stores its
  /// SCE cache entry, the cached candidate vector is corrupted (its
  /// last candidate is dropped). Later reuses then return wrong
  /// candidates — which verify_sce must catch with a CHECK failure,
  /// and which silently skews results without it (that contrast is the
  /// test). UINT32_MAX (the default) disables.
  uint32_t poison_sce_position = 0xFFFFFFFFu;
};

struct ExecStats {
  uint64_t embeddings = 0;
  bool timed_out = false;
  bool limit_reached = false;
  /// The run was aborted by `ExecOptions::stop`.
  bool cancelled = false;
  uint64_t search_nodes = 0;
  uint64_t candidate_sets_computed = 0;
  uint64_t candidate_sets_reused = 0;
  /// Non-empty root morsels this executor claimed via
  /// `ExecOptions::root_claim` (0 outside morsel mode). The parallel
  /// runtime's merged stats sum to exactly ceil(roots / morsel_size)
  /// on an uninterrupted run — a deterministic-counter test anchor.
  uint64_t morsels_claimed = 0;
  /// Per-run size distribution of the computed candidate sets,
  /// accumulated locally (plain array bumps) and flushed into the
  /// global "engine.candidate_set_size" histogram once at the end of
  /// Run — the hot path never touches the metric registry.
  obs::LocalHistogram candidate_set_size;
  /// Summed input lengths of every set intersection the candidate
  /// computation performs. Thread-count-VARIANT
  /// (the compute/reuse split of SCE differs across workers); reported
  /// by bench_prune as the pruning work-reduction measure.
  uint64_t intersect_elements = 0;
  /// Candidates removed by the LPI label-pair prefilter. Reusing a
  /// cached candidate set re-adds the entry's removal count, so the
  /// total depends only on how often each set is consumed — it is
  /// thread-count-invariant (asserted in metrics_test.cc).
  uint64_t prune_candidates_removed = 0;
  /// Siblings a failing-set backjump skipped without descending. Skips
  /// are deterministic per prefix and never fire at the root, so the
  /// total is thread-count-invariant on uninterrupted runs.
  uint64_t prune_extensions_skipped = 0;
  /// LPI shrink ratio in percent of the base candidate set, recorded
  /// on compute AND reuse so the sample count equals computes+reuses —
  /// thread-count-invariant like prune_candidates_removed. Under
  /// verify_sce the oracle recomputation records an extra sample per
  /// reuse (matching candidate_set_size's existing behavior).
  obs::LocalHistogram prune_shrink_ratio;
  double seconds = 0.0;
  /// Filled by ParallelExecutor only: total worker wall time not spent
  /// inside Executor::Run, i.e. threads * wall - sum(worker seconds).
  double worker_idle_seconds = 0.0;
};

/// The pipelined worst-case-optimal-join executor: grows partial
/// embeddings one pattern vertex at a time along the plan order,
/// computing each position's candidates by intersecting cluster
/// neighbor lists and reusing them via SCE caches.
///
/// The constructor resolves every cluster the plan names (edge
/// constraints, negation stars, seed clusters) once; nothing looks a
/// cluster up by ClusterId afterwards.
///
/// Allocation discipline: Prepare() reserves every scratch buffer once,
/// to each position's CandidateBound — the per-slot cache storage, a
/// per-depth ping-pong partner for chained intersections, and the
/// failing-set word arrays.
/// After Prepare() the enumeration performs no heap allocation; the
/// VertexScratch hot-growth counter is the test hook proving it.
class Executor {
 public:
  /// `gc` provides vertex labels, `qc` the query's clusters, and
  /// `plan` the compiled matching order; `gc` and `plan` must outlive
  /// the executor.
  Executor(const Ccsr& gc, const QueryClusters& qc, const Plan& plan);

  /// A plan edge constraint with its cluster resolved.
  struct ResolvedEdge {
    uint32_t pos;
    const CompressedCluster* cluster;  // nullptr: empty, no match possible
    bool incoming;
  };
  std::span<const ResolvedEdge> ResolvedEdges(uint32_t depth) const {
    return edges_[depth];
  }
  /// Worst-case size of `depth`'s candidate set, to pre-size scratch.
  size_t CandidateBound(uint32_t depth) const { return cand_bound_[depth]; }

  /// Runs the enumeration: Prepare + DrainRoots + Finish. Reentrant:
  /// each call resets all state, and `*stats` is zeroed at entry so a
  /// failed run never leaves a reused executor's previous counters in
  /// the caller's struct.
  Status Run(const ExecOptions& options, ExecStats* stats);

  /// The root position's full candidate set (seed/label scan plus the
  /// LDF degree filter), exactly what Run would enumerate at depth 0.
  /// The morsel-parallel runtime computes this once, then shards it
  /// across workers via ExecOptions::root_claim. When `stats` is
  /// non-null the probe's counters are exported into it: with pruning
  /// on, the root set is LPI-filtered exactly once (workers enumerate
  /// pre-filtered morsels and never recompute depth 0), so the caller
  /// must fold these counters into its merged totals to keep them
  /// equal to a single-threaded run.
  Status ComputeRootCandidates(const ExecOptions& options,
                               std::vector<VertexId>* out,
                               ExecStats* stats = nullptr);

  /// The pieces of Run, for callers that feed one query's work in over
  /// time (shard workers): Prepare once, then any number of DrainRoots/
  /// Resume calls accumulating into one stats total, then Finish.
  ///
  /// Resets all per-run state and counters for `options`, which must
  /// outlive the run, and sizes every scratch buffer.
  Status Prepare(const ExecOptions& options);
  /// Enumerates the root position: the morsels `root_claim` yields, in
  /// claim order, else the root's whole candidate set.
  CSCE_HOT_PATH Status DrainRoots();
  /// Resumes the search below a mapped prefix (plan positions
  /// [0, prefix.size()), 0 < size < positions) and extends it to the
  /// next position through the placement. The prefix is not trusted —
  /// routed work arrives over the wire — so out-of-range, label-
  /// mismatched or (injective variants) repeated vertices return
  /// InvalidArgument. After an aborted run (limit/timeout/cancel)
  /// further calls are cheap no-ops.
  CSCE_HOT_PATH Status Resume(std::span<const VertexId> prefix);
  /// Copies out the accumulated stats, flushes them into the process
  /// metric registry (once per query) and zeroes them.
  void Finish(ExecStats* stats);
  /// The candidate set of `depth` under the current prefix, computed or
  /// SCE-reused (for a Placement, during Place).
  CSCE_HOT_PATH std::span<const VertexId> Candidates(uint32_t depth);

 private:
  /// One subtraction of the vertex-induced negation step: candidates
  /// in star->Out(f(w)) (use_out) or star->In(f(w)) get removed, where
  /// f(w) is the mapping at `pos`.
  struct Removal {
    const CompressedCluster* star;
    uint32_t pos;
    uint8_t label_shift;  // Ccsr::LabelBit(L(w)) == 1 << label_shift
    bool use_out;
  };
  struct Restriction {
    uint32_t other_pos;
    bool require_greater;  // candidate must compare > (else <) f(other)
  };
  CSCE_HOT_PATH bool Enumerate(
      uint32_t depth);  // false: abort (timeout/limit/callback)
  CSCE_HOT_PATH bool EnumerateOver(uint32_t depth,
                                   std::span<const VertexId> candidates);
  /// Fills removals_ and neg_begin_ from the plan's negations.
  void BuildNegationTable(const QueryClusters& qc);
  Status SeedPrefix(std::span<const VertexId> prefix);
  void ClearPrefix(std::span<const VertexId> prefix);
  /// Computes `depth`'s candidate set into `out`. With `neg_record`
  /// set, also writes there the negation positions whose list removed
  /// at least one candidate (fs_words_ words).
  CSCE_HOT_PATH void ComputeCandidates(uint32_t depth,
                                       setops::VertexScratch* out,
                                       uint64_t* neg_record);
  /// The restriction `v` violates at `depth`, or nullptr.
  CSCE_HOT_PATH const Restriction* FailedRestriction(uint32_t depth,
                                                     VertexId v) const;
  /// Failing-set words (prune pass "fs", see fs_ below): position j's
  /// base set, a cache slot's negation record, and the failing set
  /// EnumerateOver(depth) leaves for its caller.
  const uint64_t* Base(uint32_t j) const { return &base_[j * fs_words_]; }
  uint64_t* NegRecord(uint32_t slot) { return &neg_record_[slot * fs_words_]; }
  uint64_t* FailingSet(uint32_t depth) { return &fs_[depth * fs_words_]; }
  CSCE_HOT_PATH void FsUnion(uint32_t depth, const uint64_t* set);
  CSCE_HOT_PATH void FsAdd(uint32_t depth, uint32_t pos);
  /// Builds every position's base set (see Prepare).
  void BuildBaseSets();
  CSCE_HOT_PATH bool Emit();
  CSCE_HOT_PATH bool CheckDeadline();

  const Ccsr& gc_;
  const Plan& plan_;

  // Resolved once, in the constructor; per position.
  std::vector<std::vector<ResolvedEdge>> edges_;
  // Every position's negation removals, in plan order: position j's
  // are removals_[neg_begin_[j], neg_begin_[j + 1]), grouped by `pos`
  // in the order of its NegConstraints.
  std::vector<Removal> removals_;
  std::vector<size_t> neg_begin_;
  std::vector<std::span<const VertexId>> seeds_;  // seed cluster endpoints
  std::vector<uint32_t> cache_slot_;
  std::vector<size_t> cand_bound_;  // see CandidateBound

  // Per-run state.
  const ExecOptions* options_ = nullptr;
  ExecStats stats_;
  WallTimer timer_;
  bool aborted_ = false;
  bool injective_ = true;
  std::vector<std::vector<Restriction>> restrictions_;  // per position
  std::vector<CandidateCache> caches_;
  std::vector<setops::VertexScratch> temp_;  // per-depth ping-pong partner
  std::vector<std::span<const VertexId>> lists_;  // gather buffer
  setops::VertexScratch sce_oracle_scratch_;  // verify_sce recompute buffer
  /// Extensions the placement reported as routed elsewhere. Monotonic;
  /// a subtree during which it (or the embedding count) moved is
  /// non-failing for failing-set backjumping.
  uint64_t routed_ = 0;

  // Proactive pruning (engine/prune/): the per-run pass set
  // (ExecOptions::prune) plus its state.
  PruneOptions prune_;
  /// Failing sets with direct explanations (prune pass "fs", conflict-
  /// directed backjumping; DESIGN.md "fs"): flat arrays of fs_words_ =
  /// ceil(n / 64) words per position, sized in Prepare. base_ holds j
  /// and its edge-constraint positions (for an NEC-aliased position,
  /// both its own and its slot owner's deps). neg_record_ holds, per
  /// cache slot, the negation positions whose list removed a candidate
  /// when the slot's set was computed, so an SCE reuse reports the
  /// computed set's explanation. fs_ holds, per depth, the failing set
  /// of the prefix EnumerateOver(depth) extended.
  uint32_t fs_words_ = 0;
  std::vector<uint64_t> base_;
  std::vector<uint64_t> neg_record_;
  std::vector<uint64_t> fs_;
  /// LPI bookkeeping of the most recent ComputeCandidates call, copied
  /// into the SCE cache entry so reuses can re-add the contribution
  /// (thread-count invariance; see ExecStats::prune_candidates_removed).
  uint64_t last_lpi_removed_ = 0;
  int32_t last_lpi_shrink_pct_ = -1;  // -1: the LPI filter did not run

  std::vector<VertexId> mapping_by_pos_;
  std::vector<VertexId> mapping_by_vertex_;
  DynamicBitset used_;
  uint64_t deadline_check_counter_ = 0;
};

}  // namespace csce

#endif  // CSCE_ENGINE_EXECUTOR_H_
