// csce_build: the offline stage — read a text graph, cluster it into
// CCSR, and persist the binary artifact.
//
//   csce_build --graph=data.txt --out=data.ccsr [--verbose]
//
// The artifact is CCSR v2, the page-aligned, directly mmap-able format
// (csce_match/csce_serve --mmap, or LoadCcsrFromFile into memory).
//
// With --shards=N it additionally partitions the graph (ShardPlan) and
// writes the sharded-execution artifacts next to the main one:
// <out>.shardplan plus one <out>.shard<k> CCSR per shard, each holding
// the vertices shard k owns with their 1-hop edge replication — the
// inputs of csce_serve --shards=N --workers=N.

#include <cstdio>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "shard/shard_plan.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace csce;
  FlagParser flags;
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::string graph_path = flags.GetString("graph", "");
  std::string out_path = flags.GetString("out", "");
  bool verbose = flags.GetBool("verbose");
  int64_t shards = flags.GetInt("shards", 0);
  std::string strategy_name = flags.GetString("shard-strategy", "hash");
  if (graph_path.empty() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: csce_build --graph=data.txt --out=data.ccsr "
                 "[--shards=N --shard-strategy=hash|label]\n");
    return 2;
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unused.c_str());
  }
  shard::PartitionStrategy strategy;
  if (!shard::ParseStrategy(strategy_name, &strategy)) {
    std::fprintf(stderr, "unknown --shard-strategy=%s (hash|label)\n",
                 strategy_name.c_str());
    return 2;
  }
  if (shards < 0 || shards > 4096) {
    std::fprintf(stderr, "--shards must be in [0, 4096]\n");
    return 2;
  }

  Graph g;
  WallTimer timer;
  if (Status st = LoadGraphFromFile(graph_path, &g); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }
  double load_seconds = timer.Seconds();

  timer.Restart();
  Ccsr ccsr = Ccsr::Build(g);
  double build_seconds = timer.Seconds();

  timer.Restart();
  if (Status st = SaveCcsrToFileV2(ccsr, out_path); !st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return 1;
  }
  double save_seconds = timer.Seconds();

  if (shards > 0) {
    timer.Restart();
    shard::ShardPlanOptions popts;
    popts.num_shards = static_cast<uint32_t>(shards);
    popts.strategy = strategy;
    shard::ShardPlan plan = shard::ShardPlan::Build(g, popts);
    if (Status st = plan.SaveToFile(shard::ShardPlan::PlanPath(out_path));
        !st.ok()) {
      std::fprintf(stderr, "shard plan save: %s\n", st.ToString().c_str());
      return 1;
    }
    uint64_t replicated = 0;
    for (uint32_t s = 0; s < plan.num_shards(); ++s) {
      Graph shard_graph;
      if (Status st = plan.ExtractShard(g, s, &shard_graph); !st.ok()) {
        std::fprintf(stderr, "shard %u extract: %s\n", s,
                     st.ToString().c_str());
        return 1;
      }
      Ccsr shard_ccsr = Ccsr::Build(shard_graph);
      std::string path = shard::ShardPlan::ShardCcsrPath(out_path, s);
      if (Status st = SaveCcsrToFileV2(shard_ccsr, path); !st.ok()) {
        std::fprintf(stderr, "shard %u save: %s\n", s, st.ToString().c_str());
        return 1;
      }
      replicated += plan.replicas()[s].size();
      if (verbose) {
        std::printf("shard %u: owned=%llu replicas=%zu edges=%llu -> %s\n", s,
                    static_cast<unsigned long long>(plan.OwnedCount(s)),
                    plan.replicas()[s].size(),
                    static_cast<unsigned long long>(shard_ccsr.NumEdges()),
                    path.c_str());
      }
    }
    std::printf("shards=%u strategy=%s boundary_edges=%llu replicas=%llu "
                "partition=%.3fs\n",
                plan.num_shards(), shard::StrategyName(strategy),
                static_cast<unsigned long long>(plan.boundary_edges()),
                static_cast<unsigned long long>(replicated), timer.Seconds());
  }

  if (verbose) {
    std::printf("%s\n%s\n", StatsHeader().c_str(),
                FormatStatsRow(graph_path, ComputeStats(g)).c_str());
  }
  std::printf("clusters=%zu compressed_bytes=%zu load=%.3fs build=%.3fs "
              "save=%.3fs\n",
              ccsr.NumClusters(), ccsr.CompressedSizeBytes(), load_seconds,
              build_seconds, save_seconds);
  return 0;
}
