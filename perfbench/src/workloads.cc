#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "engine/executor.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "graph/variant.h"
#include "patterns.h"
#include "plan/planner.h"
#include "runtime/query_runtime.h"
#include "shard/coordinator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using csce::Ccsr;
using csce::CsceMatcher;
using csce::Graph;
using csce::MatchOptions;
using csce::MatchResult;
using csce::MatchVariant;
using csce::Status;

constexpr MatchVariant kEdge = MatchVariant::kEdgeInduced;
constexpr MatchVariant kVertex = MatchVariant::kVertexInduced;
constexpr MatchVariant kHom = MatchVariant::kHomomorphic;

struct Query {
  Graph pattern;
  MatchVariant variant = kEdge;
  uint64_t max_embeddings = 0;  // 0: count all
  double time_limit_s = 0;      // 0: none
};

/// One stratum of a query mix: `count` patterns of one size, density
/// and variant (`small_count` in the determinism check).
struct Cell {
  uint32_t size;
  Density density;
  MatchVariant variant;
  uint32_t count;
  uint32_t small_count;
};

std::vector<Cell> Grid(const std::vector<uint32_t>& sizes,
                       const std::vector<Density>& densities,
                       const std::vector<MatchVariant>& variants,
                       uint32_t count, uint32_t small_count) {
  std::vector<Cell> cells;
  for (uint32_t size : sizes) {
    for (Density d : densities) {
      for (MatchVariant v : variants) {
        cells.push_back({size, d, v, count, small_count});
      }
    }
  }
  return cells;
}

/// Samples every cell from its own stream of the seed, then shuffles
/// the queries so that drift of the host during a round spreads over
/// all cells alike.
std::vector<Query> SampleQueries(const Graph& g, const std::vector<Cell>& cells,
                                 uint64_t seed, uint64_t salt, bool small,
                                 uint64_t max_embeddings,
                                 double time_limit_s) {
  csce::Rng streams(seed ^ (salt * 0x9E3779B97F4A7C15ull));
  std::vector<Query> queries;
  for (const Cell& cell : cells) {
    csce::Rng rng(streams.Next());
    const uint32_t n = small ? cell.small_count : cell.count;
    for (uint32_t i = 0; i < n; ++i) {
      queries.push_back({SamplePattern(g, cell.size, cell.density, rng),
                         cell.variant, max_embeddings, time_limit_s});
    }
  }
  csce::Rng order(streams.Next());
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[order.Uniform(i)]);
  }
  return queries;
}

Exec FromMatchResult(const Status& st, const MatchResult& r) {
  Exec e;
  e.ok = st.ok();
  if (!st.ok()) e.error = st.ToString();
  e.embeddings = r.embeddings;
  e.timed_out = r.timed_out;
  e.search_nodes = r.search_nodes;
  e.sets_computed = r.candidate_sets_computed;
  e.sets_reused = r.candidate_sets_reused;
  e.intersect_elements = r.intersect_elements;
  e.plan_s = r.plan_seconds;
  e.read_s = r.read_seconds;
  e.enumerate_s = r.enumerate_seconds;
  e.clusters_read = r.clusters_read;
  e.decompressed_bytes = r.decompressed_bytes;
  e.prune_removed = r.prune_candidates_removed;
  return e;
}

/// Shared input generation: every workload runs on the Patent analogue
/// (40k vertices, 176k edges), indexed once and written as a v2
/// artifact that set-up loads back.
class IndexedWorkload : public Workload {
 public:
  ~IndexedWorkload() override {
    if (!artifact_.empty()) std::remove(artifact_.c_str());
  }

  Status Reference(uint32_t id, uint64_t* count) final {
    auto it = reference_.find(id);
    if (it == reference_.end()) {
      MatchResult r;
      Status st = MatchReference(queries_[id], &r);
      if (!st.ok()) return st;
      it = reference_.emplace(id, r.embeddings).first;
    }
    *count = it->second;
    return Status::OK();
  }

  size_t NumQueries() const override { return queries_.size(); }

 protected:
  /// Matches `q` on the workload's reference path.
  virtual Status MatchReference(const Query& q, MatchResult* r) = 0;

  Status BuildIndex(const GenerateOptions& options, const char* name,
                    uint32_t labels = 20) {
    graph_ = csce::datasets::Patent(labels);
    const int64_t t0 = NowNs();
    Ccsr index = Ccsr::Build(graph_);
    build_s_ = SecondsSince(t0);
    artifact_ = options.workdir + "/" + name + "-" +
                std::to_string(static_cast<long>(getpid())) + ".ccsr";
    return csce::SaveCcsrToFileV2(index, artifact_);
  }

  /// Loads the artifact into owned memory (the in-memory v2 path).
  Status LoadIndex(Tracer* tracer, double* load_s,
                   std::unique_ptr<Ccsr>* out) {
    auto index = std::make_unique<Ccsr>();
    ScopedSpan span(tracer, "ccsr.load", 0);
    const int64_t t0 = NowNs();
    Status st = csce::LoadCcsrFromFile(artifact_, index.get());
    *load_s = SecondsSince(t0);
    *out = std::move(index);
    return st;
  }

  Graph graph_;
  std::string artifact_;
  std::vector<Query> queries_;

 private:
  /// Reference counts, filled on first use.
  std::map<uint32_t, uint64_t> reference_;
};

// ---------------------------------------------------------------------
// large-pattern and count-all: a serial closed loop over CsceMatcher.

struct SerialConfig {
  const char* name;
  uint64_t salt;
  std::vector<Cell> cells;
  uint64_t max_embeddings;
  double time_limit_s;
  /// Warm-up limit: long enough to warm every code path, short enough
  /// that the queries that time out do not burn the run's time twice.
  double warmup_limit_s;
  /// Reference path: true = the morsel-parallel executor with two
  /// threads (count-all: the self-check would verify billions of
  /// embeddings); false = MatchOptions::self_check.
  bool parallel_reference;
};

class SerialMatchWorkload : public IndexedWorkload {
 public:
  explicit SerialMatchWorkload(SerialConfig config)
      : config_(std::move(config)) {}

  Status Generate(const GenerateOptions& options) override {
    Status st = BuildIndex(options, config_.name);
    if (!st.ok()) return st;
    queries_ = SampleQueries(graph_, config_.cells, options.seed,
                             config_.salt, options.small,
                             config_.max_embeddings, config_.time_limit_s);
    graph_ = Graph();  // queries only need the index
    return Status::OK();
  }

  Status SetUp(Tracer* tracer, double* load_s) override {
    return LoadIndex(tracer, load_s, &data_);
  }

  void TearDown() override { data_.reset(); }

  void WarmUp() override {
    for (uint32_t id = 0; id < queries_.size(); ++id) {
      if (config_.parallel_reference) {
        uint64_t count = 0;
        (void)Reference(id, &count);  // checked again after the timed rounds
      } else {
        MatchOptions options = Options(queries_[id]);
        options.time_limit_seconds = config_.warmup_limit_s;
        MatchResult r;
        (void)CsceMatcher(data_.get()).Match(queries_[id].pattern, options, &r);
      }
    }
  }

  void RunRound(const std::vector<uint32_t>& ids, Tracer* tracer,
                std::vector<Exec>* out) override {
    out->clear();
    for (uint32_t id : ids) {
      out->push_back(tracer ? RunTraced(id, tracer) : RunPlain(id));
    }
  }

  double TimeLimitS() const override { return config_.time_limit_s; }

 private:
  Status MatchReference(const Query& q, MatchResult* r) override {
    MatchOptions options = Options(q);
    options.time_limit_seconds = 0;
    if (config_.parallel_reference) {
      options.num_threads = 2;
    } else {
      options.self_check = true;
    }
    return CsceMatcher(data_.get()).Match(q.pattern, options, r);
  }

  static MatchOptions Options(const Query& q) {
    MatchOptions options;
    options.variant = q.variant;
    options.max_embeddings = q.max_embeddings;
    options.time_limit_seconds = q.time_limit_s;
    return options;
  }

  Exec RunPlain(uint32_t id) {
    const Query& q = queries_[id];
    MatchResult r;
    const int64_t t0 = NowNs();
    Status st = CsceMatcher(data_.get()).Match(q.pattern, Options(q), &r);
    const double latency = SecondsSince(t0);
    Exec e = FromMatchResult(st, r);
    e.latency_s = latency;
    return e;
  }

  // The sequence CsceMatcher::Match runs, one public call per layer,
  // each inside a span: plan, Algorithm 1 cluster read, enumeration.
  // The in-memory index needs no paging advice.
  Exec RunTraced(uint32_t id, Tracer* tracer) {
    const Query& q = queries_[id];
    const Ccsr& data = *data_;
    Exec e;
    const int64_t t0 = NowNs();
    ScopedSpan query_span(tracer, "query", id);
    csce::Plan plan;
    Status st;
    {
      ScopedSpan span(tracer, "plan.make_plan", id);
      const int64_t t = NowNs();
      st = csce::Planner(&data).MakePlan(q.pattern, q.variant,
                                         csce::PlanOptions(), &plan);
      e.plan_s = SecondsSince(t);
    }
    csce::QueryClusters qc;
    if (st.ok()) {
      ScopedSpan span(tracer, "ccsr.read_clusters", id);
      const int64_t t = NowNs();
      st = csce::ReadClusters(data, q.pattern, q.variant, &qc);
      e.read_s = SecondsSince(t);
    }
    csce::ExecStats stats;
    if (st.ok()) {
      ScopedSpan span(tracer, "engine.run", id);
      const int64_t t = NowNs();
      csce::ExecOptions options;
      options.max_embeddings = q.max_embeddings;
      options.time_limit_seconds = q.time_limit_s;
      options.prune = plan.prune;
      csce::Executor executor(data, qc, plan);
      st = executor.Run(options, &stats);
      e.enumerate_s = SecondsSince(t);
    }
    e.latency_s = SecondsSince(t0);
    e.ok = st.ok();
    if (!st.ok()) e.error = st.ToString();
    e.embeddings = stats.embeddings;
    e.timed_out = stats.timed_out;
    e.search_nodes = stats.search_nodes;
    e.sets_computed = stats.candidate_sets_computed;
    e.sets_reused = stats.candidate_sets_reused;
    e.intersect_elements = stats.intersect_elements;
    e.prune_removed = stats.prune_candidates_removed;
    e.clusters_read = qc.NumViews();
    e.decompressed_bytes = qc.DecompressedBytes();
    return e;
  }

  SerialConfig config_;
  std::unique_ptr<Ccsr> data_;
};

// ---------------------------------------------------------------------
// serve-mix: QueryRuntime batches over an mmap'd index, the way
// csce_serve runs a workload file.

class ServeMixWorkload : public IndexedWorkload {
 public:
  static constexpr uint64_t kMaxEmbeddings = 1000;
  static constexpr double kDeadlineS = 1.0;
  static constexpr size_t kBatch = 240;

  Status Generate(const GenerateOptions& options) override {
    Status st = BuildIndex(options, "serve-mix");
    if (!st.ok()) return st;
    queries_ = SampleQueries(
        graph_,
        Grid({6, 7, 8}, {Density::kDense, Density::kSparse},
             {kEdge, kVertex, kHom}, 134, 5),
        options.seed, 3, options.small, kMaxEmbeddings, kDeadlineS);
    graph_ = Graph();
    return Status::OK();
  }

  Status SetUp(Tracer* tracer, double* load_s) override {
    {
      ScopedSpan span(tracer, "ccsr.mmap_open", 0);
      const int64_t t0 = NowNs();
      Status st = csce::MmapCcsr::Open(artifact_, &mmap_);
      *load_s = SecondsSince(t0);
      if (!st.ok()) return st;
    }
    ScopedSpan span(tracer, "runtime.create", 0);
    csce::RuntimeOptions options;
    options.worker_threads = 2;
    options.max_inflight = 2;
    options.threads_per_query = 1;
    options.share_cluster_views = true;
    runtime_ = std::make_unique<csce::QueryRuntime>(&mmap_->ccsr(), options);
    return Status::OK();
  }

  void TearDown() override {
    runtime_.reset();
    mmap_.reset();
  }

  void WarmUp() override {
    std::vector<uint32_t> all(queries_.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    std::vector<Exec> ignored;
    RunRound(all, nullptr, &ignored);
  }

  void RunRound(const std::vector<uint32_t>& ids, Tracer* tracer,
                std::vector<Exec>* out) override {
    out->clear();
    csce::ClusterCache& cache = runtime_->cluster_cache();
    const uint64_t hits = cache.hits();
    const uint64_t misses = cache.misses();
    std::vector<csce::QueryJob> jobs;
    std::vector<csce::QueryOutcome> outcomes;
    for (size_t begin = 0; begin < ids.size(); begin += kBatch) {
      const size_t end = std::min(ids.size(), begin + kBatch);
      jobs.clear();
      for (size_t i = begin; i < end; ++i) {
        const Query& q = queries_[ids[i]];
        csce::QueryJob job;
        job.pattern = q.pattern;
        job.options.variant = q.variant;
        job.options.max_embeddings = q.max_embeddings;
        job.options.time_limit_seconds = q.time_limit_s;
        jobs.push_back(std::move(job));
      }
      Status st;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "runtime.run_batch",
                        static_cast<uint32_t>(begin));
        st = runtime_->RunBatch(jobs, &outcomes);
      }
      const double wall = SecondsSince(t0);
      uint64_t completed = 0;
      for (size_t i = 0; i < jobs.size(); ++i) {
        Exec e;
        if (!st.ok() || i >= outcomes.size()) {
          e.ok = false;
          e.error = st.ToString();
          e.via_runtime = true;
          out->push_back(e);
          continue;
        }
        const csce::QueryOutcome& o = outcomes[i];
        e = FromMatchResult(o.status, o.result);
        e.ok = o.status.ok() && (o.executed || o.result.timed_out);
        if (!o.executed && e.error.empty()) e.error = "not executed";
        e.via_runtime = true;
        e.queue_wait_s = o.queue_wait_seconds;
        e.latency_s = o.total_seconds - o.queue_wait_seconds;
        if (e.ok && !e.timed_out) ++completed;
        out->push_back(std::move(e));
      }
      Throughput& t = throughput_[tracer != nullptr];
      t.completed += completed;
      t.wall_s += wall;
    }
    if (tracer != nullptr) {
      traced_hits_ += cache.hits() - hits;
      traced_misses_ += cache.misses() - misses;
    }
  }

  // Every query is cheap: all of them repeat until the time is up.
  double RepeatBudgetS() const override { return kDeadlineS; }
  double TimeLimitS() const override { return kDeadlineS; }
  double CacheHitRatio() const override {
    const uint64_t total = traced_hits_ + traced_misses_;
    return total ? static_cast<double>(traced_hits_) / total : 0;
  }
  double QueriesPerS(bool traced) const override {
    const Throughput& t = throughput_[traced];
    return t.wall_s > 0 ? t.completed / t.wall_s : 0;
  }

 private:
  Status MatchReference(const Query& q, MatchResult* r) override {
    MatchOptions options;
    options.variant = q.variant;
    options.max_embeddings = q.max_embeddings;
    options.self_check = true;
    return CsceMatcher(&mmap_->ccsr()).Match(q.pattern, options, r);
  }

  struct Throughput {
    uint64_t completed = 0;
    double wall_s = 0;
  };
  std::unique_ptr<csce::MmapCcsr> mmap_;
  std::unique_ptr<csce::QueryRuntime> runtime_;
  Throughput throughput_[2];
  uint64_t traced_hits_ = 0;
  uint64_t traced_misses_ = 0;
};

// ---------------------------------------------------------------------
// shard-2: a two-shard in-process cluster over loopback transports.

class ShardTwoWorkload : public IndexedWorkload {
 public:
  /// Sharded execution routes every partial mapping that leaves a
  /// shard, so it runs ~8x slower than single-node and buffers a heavy
  /// query's tasks in memory. On the 20-label graph a few hundred
  /// patterns take over 30 s and 1 GB; with 40 labels a sample large
  /// enough to be steady fits in the run.
  static constexpr uint32_t kLabels = 40;

  Status Generate(const GenerateOptions& options) override {
    Status st = BuildIndex(options, "shard-2", kLabels);
    if (!st.ok()) return st;
    queries_ = SampleQueries(graph_,
                             {{5, Density::kSparse, kEdge, 1280, 24}},
                             options.seed, 4, options.small, 0, 0);
    return Status::OK();  // the cluster partitions graph_ at set-up
  }

  Status SetUp(Tracer* tracer, double* load_s) override {
    Status st = LoadIndex(tracer, load_s, &full_);
    if (!st.ok()) return st;
    ScopedSpan span(tracer, "shard.create_cluster", 0);
    csce::shard::InProcessClusterOptions options;
    options.transport = csce::shard::ClusterTransport::kLoopback;
    return csce::shard::InProcessCluster::Create(
        graph_, full_.get(), 2, csce::shard::PartitionStrategy::kHash,
        /*threads_per_worker=*/1, options, &cluster_);
  }

  void TearDown() override {
    cluster_.reset();  // joins the workers, then the index they borrow
    full_.reset();
  }

  // A query hands frames between the coordinator and both workers
  // several times per BSP round. Across CPUs each hand-off wakes an idle
  // vCPU, whose latency on a shared host moved round times 2x for the
  // same queries; on one CPU the latency is the work of the sharded path
  // plus same-CPU context switches.
  bool PinAllThreads() const override { return true; }

  // References first (single node, cheap), then a sharded pass over
  // the first eighth of the queries to warm the workers.
  void WarmUp() override {
    uint64_t count = 0;
    for (uint32_t id = 0; id < queries_.size(); ++id) {
      (void)Reference(id, &count);  // checked again after the timed rounds
    }
    std::vector<uint32_t> some;
    for (uint32_t id = 0; id < (queries_.size() + 7) / 8; ++id) {
      some.push_back(id);
    }
    std::vector<Exec> ignored;
    RunRound(some, nullptr, &ignored);
  }

  void RunRound(const std::vector<uint32_t>& ids, Tracer* tracer,
                std::vector<Exec>* out) override {
    out->clear();
    for (uint32_t id : ids) {
      out->push_back(Execute(id, tracer));
    }
  }

 private:
  Status MatchReference(const Query& q, MatchResult* r) override {
    MatchOptions options;
    options.variant = q.variant;
    return CsceMatcher(full_.get()).Match(q.pattern, options, r);
  }

  Exec Execute(uint32_t id, Tracer* tracer) {
    const Query& q = queries_[id];
    csce::shard::CoordinatorOptions options;
    options.variant = q.variant;
    csce::shard::ShardResult r;
    Status st;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "shard.execute", id);
      st = cluster_->coordinator().Execute(q.pattern, options, &r);
    }
    Exec e;
    e.latency_s = SecondsSince(t0);
    e.ok = st.ok();
    if (!st.ok()) e.error = st.ToString();
    e.embeddings = r.embeddings;
    e.timed_out = r.timed_out;
    e.search_nodes = r.search_nodes;
    e.sets_computed = r.candidate_sets_computed;
    e.sets_reused = r.candidate_sets_reused;
    e.rounds = r.rounds;
    e.tasks_routed = r.tasks_routed;
    e.plan_s = r.plan_seconds;
    e.via_shards = true;
    e.round_loop_s = r.enumerate_seconds;
    e.busy_s = r.worker_busy_seconds;
    e.frames_retried = r.frames_retried;
    e.worker_restarts = r.worker_restarts;
    return e;
  }

  std::unique_ptr<Ccsr> full_;
  std::unique_ptr<csce::shard::InProcessCluster> cluster_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "large-pattern") {
    return std::make_unique<SerialMatchWorkload>(SerialConfig{
        "large-pattern", 1,
        Grid({16, 24, 32, 48, 64}, {Density::kDense, Density::kSparse},
             {kEdge, kVertex}, 40, 2),
        /*max_embeddings=*/100, /*time_limit_s=*/0.025,
        /*warmup_limit_s=*/0.005, /*parallel_reference=*/false});
  }
  if (name == "count-all") {
    return std::make_unique<SerialMatchWorkload>(SerialConfig{
        "count-all", 2,
        {{5, Density::kSparse, kEdge, 400, 14},
         {5, Density::kSparse, kHom, 400, 13},
         {6, Density::kSparse, kHom, 400, 13}},
        /*max_embeddings=*/0, /*time_limit_s=*/0, /*warmup_limit_s=*/0,
        /*parallel_reference=*/true});
  }
  if (name == "serve-mix") return std::make_unique<ServeMixWorkload>();
  if (name == "shard-2") return std::make_unique<ShardTwoWorkload>();
  return nullptr;
}

}  // namespace perfbench
