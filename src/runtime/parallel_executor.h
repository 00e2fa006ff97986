#ifndef CSCE_RUNTIME_PARALLEL_EXECUTOR_H_
#define CSCE_RUNTIME_PARALLEL_EXECUTOR_H_

#include <cstddef>
#include <cstdint>

#include "ccsr/ccsr.h"
#include "engine/executor.h"
#include "plan/planner.h"
#include "util/status.h"

namespace csce {

/// Knobs for intra-query morsel parallelism.
struct ParallelOptions {
  /// Worker count. 0 = hardware concurrency; 1 falls back to the plain
  /// serial Executor (identical behavior, no threads spawned).
  uint32_t num_threads = 0;
  /// Root candidates per claimed morsel. 0 = auto: small enough that
  /// every worker gets several claims (load balance against skewed
  /// subtree sizes), large enough to amortize the claim and keep
  /// SCE-cache locality within a worker.
  uint32_t morsel_size = 0;
};

/// Auto morsel sizing, shared by every morsel-parallel runner: ~8 claims
/// per thread so stragglers with heavy subtrees get rebalanced, floored
/// at 1 (tiny root sets) and capped at 4096 so a single claim never
/// monopolizes a skewed workload.
size_t AutoMorselSize(size_t roots, uint32_t threads);

/// Morsel-driven parallel enumeration: splits the *root* position's
/// candidate set into morsels claimed from a shared atomic counter, and
/// runs one independent serial Executor per worker — each with private
/// SCE caches, mapping stacks, and stats — over the morsels it claims.
/// Splitting only the first matching-order position means plan
/// semantics, candidate computation, and SCE reuse *within* a worker
/// are untouched; workers never share mutable state, so no candidate
/// set is ever computed under a lock.
///
/// Determinism: without limits the merged embedding count equals the
/// serial count exactly (the root candidate set is partitioned).  With
/// `max_embeddings = k`, every worker is capped at k, so the merged
/// count is min(total, k) and `limit_reached` ⇔ total ≥ k — the same
/// observable result on every run regardless of scheduling (the first
/// worker to hit its cap broadcasts a stop to cut the tail short).
///
/// The embedding callback, if any, is invoked concurrently from worker
/// threads and must be thread-safe; with a limit, at most k callbacks
/// are delivered (which k embeddings is scheduling-dependent).
class ParallelExecutor {
 public:
  /// Same lifetime contract as Executor: all referents must outlive
  /// the ParallelExecutor.
  ParallelExecutor(const Ccsr& gc, const QueryClusters& qc, const Plan& plan);

  /// Runs the enumeration across `popts.num_threads` workers and merges
  /// the per-worker ExecStats (counter sums; flag ORs as documented
  /// above; `seconds` is the wall time of the whole parallel run).
  Status Run(const ExecOptions& options, const ParallelOptions& popts,
             ExecStats* stats);

 private:
  // Mutex-free by design: workers share only the atomic morsel counter
  // and a StopToken (both local to Run); everything else is per-worker
  // state joined at the pool barrier, so there is nothing for the
  // thread-safety analysis to guard here.
  const Ccsr& gc_;
  const QueryClusters& qc_;
  const Plan& plan_;
};

}  // namespace csce

#endif  // CSCE_RUNTIME_PARALLEL_EXECUTOR_H_
