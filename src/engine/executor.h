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

/// One unit of resumable cross-shard work: a partial mapping (plan
/// positions [0, depth)) that must continue on another shard. Emitted
/// by a shard-mode executor when the next position's candidates leave
/// the shard; consumed by Executor::RunTask on the target (see src/
/// shard/ and the DESIGN.md "Sharded execution" section).
struct ShardTask {
  enum class Kind : uint8_t {
    /// No locally owned parent mapping: the target (owner of the first
    /// parent) computes the candidates, enumerates its owned ones and
    /// re-ships the rest. Exclusive — the sender enumerates nothing at
    /// this depth, so every candidate is handled exactly once.
    kForward = 0,
    /// `candidates` supplied, all owned by the target: the target
    /// intersects them with its local candidate set (which is complete
    /// for owned vertices) and enumerates the survivors.
    kVerify = 1,
    /// Edge-less (seed/label-scan) position broadcast: the target
    /// enumerates its owned slice of the mapping-independent candidate
    /// set and never re-broadcasts at this depth.
    kLocalOnly = 2,
  };
  Kind kind = Kind::kForward;
  uint32_t target_shard = 0;
  uint32_t depth = 0;                  // position to extend next
  std::vector<VertexId> mapping;       // by position, size == depth
  std::vector<VertexId> candidates;    // kVerify only: sorted, owned
};

/// Receives tasks the executor emits for other shards. Called on the
/// enumeration path; implementations should only buffer.
using ShardEmitFn = std::function<void(ShardTask&&)>;

/// Shard-mode configuration: this executor enumerates only candidates
/// its shard owns and emits ShardTasks for the rest. `owner` maps every
/// data vertex to its owning shard and must outlive the run.
struct ShardSpec {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  std::span<const uint32_t> owner;
  ShardEmitFn emit;
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
  /// Shard-mode execution (nullptr = single-node). The executor then
  /// enumerates only candidates owned by `shard->shard_id` and routes
  /// the rest through `shard->emit`; correctness relies on the shard
  /// CCSR holding every edge incident to an owned vertex (the 1-hop
  /// replication ShardPlan::ExtractShard guarantees).
  const ShardSpec* shard = nullptr;
  /// Proactive pruning passes to act on (engine/prune/prune.h; the
  /// label-pair filter and failing-set backjumping are on by default);
  /// the matcher forwards Plan::prune. All passes are force-disabled in
  /// shard mode: a shard CCSR holds only the edges incident to owned
  /// vertices (1-hop replication), so shard-local label masks and rows
  /// are partial and pruning on them could drop real embeddings.
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
  /// computation and the aux projections perform. Thread-count-VARIANT
  /// (the compute/reuse split of SCE differs across workers); reported
  /// by bench_prune as the pruning work-reduction measure.
  uint64_t intersect_elements = 0;
  /// Candidates removed by the LPI label-pair prefilter. Reusing a
  /// cached candidate set re-adds the entry's removal count, so the
  /// total depends only on how often each set is consumed — it is
  /// thread-count-invariant (asserted in metrics_test.cc).
  uint64_t prune_candidates_removed = 0;
  /// Extensions discarded without descending: aux empty-cuts plus the
  /// siblings a failing-set backjump skipped. Both are deterministic
  /// per prefix and backjumps never fire at the root, so the total is
  /// thread-count-invariant on uninterrupted runs.
  uint64_t prune_extensions_skipped = 0;
  /// Candidate sets served from a completed aux projection instead of
  /// a fresh intersection chain. Thread-count-VARIANT (compute/reuse
  /// split, like intersect_elements).
  uint64_t prune_aux_hits = 0;
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
/// Allocation discipline: Prepare() computes a worst-case candidate
/// bound per position (the shortest incident cluster row, the seed
/// endpoint count, or the label frequency) and reserves every scratch
/// buffer once — the per-slot cache storage, a per-depth ping-pong
/// partner for chained intersections, the negation mark bitmap, and
/// the failing-set word arrays.
/// After Prepare() the enumeration performs no heap allocation; the
/// VertexScratch hot-growth counter is the test hook proving it.
class Executor {
 public:
  /// `gc` provides vertex labels, `qc` the decompressed clusters, and
  /// `plan` the compiled matching order. All must outlive the executor.
  Executor(const Ccsr& gc, const QueryClusters& qc, const Plan& plan);

  /// Runs the enumeration. Reentrant: each call resets all state, and
  /// `*stats` is zeroed at entry so a failed run never leaves a reused
  /// executor's previous counters in the caller's struct.
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

  /// Task-mode lifecycle (shard workers): prepare once per query, then
  /// accumulate any number of RunRootMorsels/RunTask calls into one
  /// stats total collected by FinishTasks. Unlike Run, the per-call
  /// entry points never flush engine metrics or zero the accumulated
  /// counters, so a round-based driver can interleave them freely.
  Status PrepareForTasks(const ExecOptions& options);
  /// Drains `options.root_claim` morsels exactly like Run's morsel
  /// loop (shard workers claim from their owned-root list).
  CSCE_HOT_PATH Status RunRootMorsels();
  /// Resumes enumeration from the task's partial mapping. Malformed
  /// tasks (out-of-range vertices, wrong kind for the position, unsorted
  /// or non-owned candidates) return InvalidArgument without crashing —
  /// tasks arrive over the wire. After an aborted run (limit/timeout/
  /// cancel) further tasks are drained as cheap no-ops.
  CSCE_HOT_PATH Status RunTask(const ShardTask& task);
  /// Copies out the accumulated task-mode stats and flushes them into
  /// the process metric registry (once per query, mirroring Run).
  void FinishTasks(ExecStats* stats);

 private:
  struct ResolvedEdge {
    uint32_t pos;
    const ClusterView* view;  // nullptr: empty cluster, no match possible
    bool incoming;
  };
  struct ResolvedNegation {
    uint32_t pos;
    // Views whose Out(f(w)) (use_out=true) or In(f(w)) lists are
    // forbidden candidates and get subtracted.
    std::vector<std::pair<const ClusterView*, bool>> removals;
  };
  struct Restriction {
    uint32_t other_pos;
    bool require_greater;  // candidate must compare > (else <) f(other)
  };

  Status Prepare(const ExecOptions& options);
  /// Worst-case result size of ComputeCandidates at `depth`, used to
  /// pre-size scratch. Seeded: endpoint count; label scan: label
  /// frequency; edges: shortest incident cluster row.
  size_t CandidateBound(uint32_t depth) const;
  CSCE_HOT_PATH bool Enumerate(
      uint32_t depth);  // false: abort (timeout/limit/callback)
  CSCE_HOT_PATH bool EnumerateOver(uint32_t depth,
                                   std::span<const VertexId> candidates);
  /// Shard-mode extension at `depth`: enumerate owned candidates, ship
  /// the rest (see ShardTask for the three routing cases).
  CSCE_HOT_PATH bool EnumerateSharded(uint32_t depth);
  /// Enumerates Candidates(depth) filtered to locally owned vertices.
  CSCE_HOT_PATH bool EnumerateOwned(uint32_t depth);
  /// Intersects the rows of locally owned parents (complete by 1-hop
  /// replication), buckets the non-owned result by owner and emits one
  /// kVerify task per non-empty bucket.
  /// Allocates by design (per-shard routing buckets can outgrow any
  /// Prepare-time bound): cross-shard routing is outside the single-
  /// node zero-allocation contract, so it is exempted rather than hot.
  CSCE_ALLOC_OK void ShipRemoteCandidates(uint32_t depth);
  /// Allocates by design (the emitted task owns its mapping copy).
  CSCE_ALLOC_OK void EmitTask(ShardTask::Kind kind, uint32_t target,
                              uint32_t depth,
                              std::vector<VertexId> candidates);
  Status SeedPrefix(std::span<const VertexId> prefix);
  void ClearPrefix(std::span<const VertexId> prefix);
  CSCE_HOT_PATH std::span<const VertexId> Candidates(uint32_t depth);
  CSCE_HOT_PATH void ComputeCandidates(uint32_t depth,
                                       setops::VertexScratch* out);
  struct AuxStep;
  /// Runs the aux projection steps triggered by the mapping just
  /// placed at `depth` (prune pass "aux"). Returns the step whose
  /// partial projection became empty, or nullptr: some not-yet-matched
  /// position's candidate set is already known to be empty, so the
  /// subtree under this placement cannot produce an embedding and is
  /// cut.
  CSCE_HOT_PATH const AuxStep* RunAuxSteps(uint32_t depth);
  /// The restriction `v` violates at `depth`, or nullptr.
  CSCE_HOT_PATH const Restriction* FailedRestriction(uint32_t depth,
                                                     VertexId v) const;
  /// Failing-set words (prune pass "fs"): anc(j) of position j, and the
  /// failing set EnumerateOver(depth) leaves for its caller.
  const uint64_t* Anc(uint32_t j) const { return &anc_[j * fs_words_]; }
  uint64_t* FailingSet(uint32_t depth) { return &fs_[depth * fs_words_]; }
  CSCE_HOT_PATH void FsUnion(uint32_t depth, const uint64_t* set);
  /// Builds anc(j) for every position (see Prepare).
  void BuildAncestorSets();
  CSCE_HOT_PATH bool Emit();
  CSCE_HOT_PATH bool CheckDeadline();

  const Ccsr& gc_;
  const QueryClusters& qc_;
  const Plan& plan_;

  // Per-run state.
  const ExecOptions* options_ = nullptr;
  ExecStats stats_;
  WallTimer timer_;
  bool aborted_ = false;
  bool injective_ = true;
  std::vector<std::vector<ResolvedEdge>> edges_;        // per position
  std::vector<std::vector<ResolvedNegation>> negs_;     // per position
  std::vector<std::vector<Restriction>> restrictions_;  // per position
  std::vector<uint32_t> cache_slot_;                    // per position
  std::vector<CandidateCache> caches_;
  std::vector<size_t> cand_bound_;           // per position, see above
  std::vector<setops::VertexScratch> temp_;  // per-depth ping-pong partner
  std::vector<std::span<const VertexId>> lists_;      // gather buffer
  std::vector<std::span<const VertexId>> neg_lists_;  // gather buffer
  DynamicBitset neg_marks_;  // bitmap-difference scratch, all-zero at rest
  // Shard mode only (options_->shard != nullptr).
  bool sharded_ = false;
  std::vector<setops::VertexScratch> owned_scratch_;  // per depth
  setops::VertexScratch ship_a_;  // ping-pong pair for the ship-set
  setops::VertexScratch ship_b_;  // intersection of owned-parent rows
  std::vector<std::vector<VertexId>> ship_buckets_;  // per target shard
  setops::VertexScratch sce_oracle_scratch_;  // verify_sce recompute buffer

  // Proactive pruning (engine/prune/): the effective per-run pass set
  // (ExecOptions::prune, forced off in shard mode) plus its state.
  PruneOptions prune_;
  /// One aux projection step per backward edge of an aux-enabled
  /// position, bucketed by the dependency depth whose placement
  /// triggers it. Steps of one target form a chain in dependency
  /// order: step 0 seeds the target's span from the dependency's row
  /// (zero copy), step s >= 1 intersects step s-1's output with the
  /// next row into its own buffer. One buffer per step — not a
  /// ping-pong pair — because the spans of steps 0..s stay live while
  /// the recursion between two dependency depths explores siblings.
  struct AuxStep {
    uint32_t target;  // plan position whose projection this refines
    uint32_t step;    // chain index (0 seeds the span)
    const ClusterView* view;  // nullptr: empty cluster, always cuts
    bool incoming;
    int32_t buf;  // aux_bufs_ index; -1 for step 0
    /// Offset into aux_cut_sets_ of the failing set a cut at this
    /// step reports (fs pass only).
    size_t cut_set;
  };
  std::vector<std::vector<AuxStep>> aux_steps_;      // per dep depth
  std::vector<std::span<const VertexId>> aux_span_;  // per target position
  std::vector<std::span<const VertexId>> aux_seed_;  // per target: step 0 row
  std::vector<uint32_t> aux_steps_done_;             // per target position
  std::vector<uint32_t> aux_steps_total_;  // per target (0 = not aux)
  std::vector<setops::VertexScratch> aux_bufs_;
  /// Union of anc(p) over each aux step's absorbed edge positions,
  /// fs_words_ per step (built only when both aux and fs are on).
  std::vector<uint64_t> aux_cut_sets_;
  /// Failing sets, DAF-style (prune pass "fs"): flat arrays of
  /// fs_words_ = ceil(n / 64) words per position, sized in Prepare.
  /// anc_ holds anc(j): j, its dependency positions, the NEC slot
  /// owner's dependencies and its restriction partners, closed
  /// transitively — every position whose mapping can change j's
  /// candidate set. fs_ holds, per depth, the failing set of the
  /// prefix EnumerateOver(depth) extended.
  uint32_t fs_words_ = 0;
  std::vector<uint64_t> anc_;
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
