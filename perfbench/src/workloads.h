#ifndef CSCE_PERFBENCH_WORKLOADS_H_
#define CSCE_PERFBENCH_WORKLOADS_H_

// The four benchmark workloads. Each one generates its inputs from the
// seed, sets up the index the way its users would, and runs rounds of
// queries through the library's public API. main.cc owns the timing
// policy, the output checks and the metrics.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace perfbench {

/// One execution of one query. Fields a workload's API does not expose
/// stay 0.
struct Exec {
  bool ok = true;
  std::string error;
  double latency_s = 0;
  uint64_t embeddings = 0;
  bool timed_out = false;
  // Work counters; deterministic for a run that completed.
  uint64_t search_nodes = 0;
  uint64_t sets_computed = 0;
  uint64_t sets_reused = 0;
  uint64_t intersect_elements = 0;
  uint64_t rounds = 0;
  uint64_t tasks_routed = 0;
  // Layer split, as the public result structs (or the benchmark's own
  // spans, in traced rounds) report it.
  double plan_s = 0;
  double read_s = 0;
  double enumerate_s = 0;
  uint64_t clusters_read = 0;
  uint64_t decompressed_bytes = 0;
  uint64_t prune_removed = 0;
  /// Served through QueryRuntime: queue wait is submission -> admission.
  bool via_runtime = false;
  double queue_wait_s = 0;
  /// Executed by the shard coordinator: BSP round-loop wall time and
  /// the summed busy time of the workers.
  bool via_shards = false;
  double round_loop_s = 0;
  double busy_s = 0;
  uint64_t frames_retried = 0;
  uint64_t worker_restarts = 0;
};

struct GenerateOptions {
  uint64_t seed = 1;
  /// Few queries: the determinism check runs every workload twice.
  bool small = false;
  /// Directory for the generated index artifact.
  std::string workdir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the data graph, its CCSR and the v2 artifact, and samples
  /// the queries from the seed. Not part of set-up time.
  virtual csce::Status Generate(const GenerateOptions& options) = 0;
  /// One set-up, from the artifact to the first query being ready.
  /// `*load_s` receives the time of the index load call alone.
  virtual csce::Status SetUp(Tracer* tracer, double* load_s) = 0;
  /// Releases what SetUp made, so the next set-up starts from the same
  /// memory state.
  virtual void TearDown() = 0;
  /// Untimed pass before measuring.
  virtual void WarmUp() = 0;
  /// Runs each of `ids` once, in order. A non-null tracer selects the
  /// traced path, which records spans around every call into a layer.
  virtual void RunRound(const std::vector<uint32_t>& ids, Tracer* tracer,
                        std::vector<Exec>* out) = 0;
  /// The embedding count of query `id` from a path independent of the
  /// timed one.
  virtual csce::Status Reference(uint32_t id, uint64_t* count) = 0;

  virtual size_t NumQueries() const = 0;
  /// Queries whose first timed latency is at most this are repeated in
  /// later rounds; slower ones run once.
  virtual double RepeatBudgetS() const { return 0.02; }
  /// The per-query time limit (or deadline); 0 without one.
  virtual double TimeLimitS() const { return 0; }
  /// True if every thread of the process runs on the round's one CPU,
  /// the library's own threads included, instead of the calling thread
  /// alone.
  virtual bool PinAllThreads() const { return false; }
  /// Ccsr::Build time of the input generation.
  double build_s() const { return build_s_; }
  /// Cluster-cache hit ratio of the traced rounds; 0 without a cache.
  virtual double CacheHitRatio() const { return 0; }
  /// Completed queries per second of batch wall time in the traced or
  /// untraced rounds; 0 unless served through QueryRuntime.
  virtual double QueriesPerS(bool /*traced*/) const { return 0; }

 protected:
  double build_s_ = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // CSCE_PERFBENCH_WORKLOADS_H_
