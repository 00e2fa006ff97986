// Fig. 11: CCSR overhead — cluster reading time and memory when the
// label count of the data graph grows (20 / 200 / 2000 labels, one
// trajectory each) and the pattern size varies, plus the index's size
// at rest: row-index bytes (ids, offsets, rank bitmaps) and columns.

#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "ccsr/ccsr.h"
#include "ccsr/cluster_cache.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "util/timer.h"

int main() {
  using namespace csce;
  std::printf("Fig. 11 analogue: CCSR read overhead vs labels and pattern "
              "size (Patent-like graph, edge-induced; rows/cols = bytes "
              "at rest, MB = 10^6 bytes)\n\n");
  std::printf("%-8s %-10s %12s %12s %12s %12s %10s\n", "labels", "size",
              "clusters", "read(ms)", "built(s)", "rows(MB)", "cols(MB)");

  bench::BenchJson json("fig11_ccsr_overhead");
  std::vector<uint32_t> label_counts = {20u, 200u, 2000u};
  std::vector<uint32_t> sizes = {3u, 4u, 8u, 32u, 128u, 512u, 2000u};
  if (bench::QuickMode()) {
    label_counts = {20u, 200u};
    sizes = {4u, 8u, 32u};
  }
  for (uint32_t labels : label_counts) {
    Graph patent = datasets::Patent(labels);
    WallTimer build_timer;
    Ccsr gc = Ccsr::Build(patent);
    double build_seconds = build_timer.Seconds();
    uint64_t row_bytes = 0;
    uint64_t col_bytes = 0;
    for (const CompressedCluster& c : gc.clusters()) {
      row_bytes += c.out.RowIndexBytes() + c.in.RowIndexBytes();
      col_bytes += (c.out.cols.size() + c.in.cols.size()) * sizeof(VertexId);
    }
    const double row_mb = static_cast<double>(row_bytes) / 1e6;
    const double col_mb = static_cast<double>(col_bytes) / 1e6;
    for (uint32_t size : sizes) {
      Rng rng(labels * 1000 + size);
      Graph pattern;
      Status st =
          SamplePattern(patent, size, PatternDensity::kDense, rng, &pattern);
      if (!st.ok()) continue;
      WallTimer timer;
      QueryClusters qc;
      Status read =
          ReadClusters(gc, pattern, MatchVariant::kEdgeInduced, &qc);
      CSCE_CHECK(read.ok());
      double read_ms = timer.Millis();
      std::printf("%-8u %-10u %12zu %12.3f %12.2f %12.2f %10.2f\n", labels,
                  size, qc.NumViews(), read_ms, build_seconds, row_mb,
                  col_mb);
      obs::JsonValue row = obs::JsonValue::Object();
      row.Set("labels", labels);
      row.Set("pattern_size", size);
      row.Set("clusters", static_cast<uint64_t>(qc.NumViews()));
      row.Set("read_ms", read_ms);
      row.Set("build_seconds", build_seconds);
      row.Set("row_index_mb", row_mb);
      row.Set("cols_mb", col_mb);
      json.AddRow(std::move(row));
    }
  }
  std::printf("\nExpected shape (Finding 11): overhead grows with the label "
              "count and pattern size but stays acceptable.\n");

  // Extension (the paper's future-work item): a session-level cluster
  // cache. Views are O(1) spans, so it now saves only the lookups.
  std::printf("\nCluster-cache extension: cold vs warm read time, "
              "Patent-like graph with 200 labels\n");
  {
    Graph patent = datasets::Patent(200);
    Ccsr gc = Ccsr::Build(patent);
    ClusterCache cache(&gc);
    std::printf("%-8s %14s %14s %10s\n", "size", "cold(ms)", "warm(ms)",
                "speedup");
    for (uint32_t size : {8u, 32u, 128u, 512u}) {
      Rng rng(424200 + size);
      Graph pattern;
      if (!SamplePattern(patent, size, PatternDensity::kDense, rng, &pattern)
               .ok()) {
        continue;
      }
      WallTimer cold_timer;
      QueryClusters cold;
      CSCE_CHECK(ReadClustersCached(cache, pattern,
                                    MatchVariant::kEdgeInduced, &cold)
                     .ok());
      double cold_ms = cold_timer.Millis();
      WallTimer warm_timer;
      QueryClusters warm;
      CSCE_CHECK(ReadClustersCached(cache, pattern,
                                    MatchVariant::kEdgeInduced, &warm)
                     .ok());
      double warm_ms = warm_timer.Millis();
      std::printf("%-8u %14.3f %14.3f %9.1fx\n", size, cold_ms, warm_ms,
                  warm_ms > 0 ? cold_ms / warm_ms : 0.0);
    }
    std::printf("cache: %zu views, %.2f MB, %llu hits / %llu misses\n",
                cache.CachedViews(),
                static_cast<double>(cache.CachedBytes()) / 1e6,
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()));
  }
  return 0;
}
