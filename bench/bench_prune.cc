// Ablation for the proactive pruning layer: the `none` ablation (no
// pass, not even the default ones), lpi and fs alone, and the default
// (lpi,fs), reporting the work-defining counters the passes exist to shrink —
// search_nodes and intersected elements — plus wall time and the
// embedding count.
//
// Two panels:
//  - hetero-dup: a synthetic Table-IV-style heterogeneous graph made
//    of disjoint hub gadgets with duplicate-adjacency decoy vertices
//    whose deeper closure fails. The label-pair filter provably bites
//    here, and the run cross-checks that every configuration returns the exact
//    same sorted embedding set as `none` at 1 and 8 threads.
//  - Patent: sampled dense patterns on the paper's labeled citation
//    graph, showing the passes on organic skew.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "engine/prune/prune.h"
#include "gen/datasets.h"
#include "tests/test_util.h"

namespace csce {
namespace {

struct Config {
  const char* name;  // a --prune spelling
  PruneOptions prune;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  for (const char* spec :
       {"none", "none,lpi", "none,fs", "lpi,fs"}) {
    Config c{spec, {}};
    CSCE_CHECK(ParsePruneList(spec, &c.prune).ok());
    configs.push_back(c);
  }
  return configs;
}

constexpr Label kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

// One hub gadget per copy. The pattern (below) is rooted at B, the
// planner orders it (B, C, D, E), and per copy the gadget holds one
// embedding (b_good, c_good, d_good, e_good) plus six E-deficient
// B-decoys whose subtrees are nonempty but doomed: each decoy sees two
// interchangeable C children (c0, c1), pays a padded D intersection to
// reach dy, and only then dies on the empty E closure. So:
//  - lpi removes the decoys at the B root (no E-labeled neighbor),
//  - fs cannot skip c1 after c0's subtree fails: the empty E closure
//    depends on C's mapping, so c1 must be tried,
// and lpi shaves both search nodes and intersected elements.
// The junk pairs tune cluster sizes: B-E pairs keep (B,D) the seed
// cluster (its sources include the decoys via dy), and C-E pairs keep
// (C,E) large so the planner orders D before E; a0 only pads decoy
// degree past the root's mindeg filter.
Graph HeteroDupGraph(uint32_t copies) {
  std::vector<Label> vlabels;
  std::vector<Edge> edges;
  for (uint32_t k = 0; k < copies; ++k) {
    const VertexId base = static_cast<VertexId>(vlabels.size());
    // a0, b_good, c_good, d_good, e_good, c0, c1, dy
    vlabels.insert(vlabels.end(), {kA, kB, kC, kD, kE, kC, kC, kD});
    const VertexId a0 = base, bg = base + 1, cg = base + 2, dg = base + 3,
                   eg = base + 4, c0 = base + 5, c1 = base + 6,
                   dy = base + 7;
    edges.push_back({a0, bg, 0});
    edges.push_back({bg, cg, 0});
    edges.push_back({bg, dg, 0});
    edges.push_back({bg, eg, 0});
    edges.push_back({cg, dg, 0});
    edges.push_back({cg, eg, 0});
    edges.push_back({c0, dy, 0});
    edges.push_back({c1, dy, 0});
    for (uint32_t i = 0; i < 8; ++i) {
      const VertexId dx = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kD);
      edges.push_back({c0, dx, 0});
      edges.push_back({c1, dx, 0});
    }
    for (uint32_t i = 0; i < 6; ++i) {
      const VertexId b = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kB);
      edges.push_back({a0, b, 0});
      edges.push_back({b, c0, 0});
      edges.push_back({b, c1, 0});
      edges.push_back({b, dy, 0});
    }
    for (uint32_t i = 0; i < 10; ++i) {
      const VertexId b = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kB);
      vlabels.push_back(kE);
      edges.push_back({b, b + 1, 0});
    }
    for (uint32_t i = 0; i < 25; ++i) {
      const VertexId c = static_cast<VertexId>(vlabels.size());
      vlabels.push_back(kC);
      vlabels.push_back(kE);
      edges.push_back({c, c + 1, 0});
    }
  }
  return testing::MakeGraph(false, vlabels, edges);
}

Graph HeteroDupPattern() {
  return testing::MakeGraph(
      false, {kB, kC, kD, kE},
      {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {1, 2, 0}, {1, 3, 0}});
}

struct Totals {
  uint64_t search_nodes = 0;
  uint64_t intersect_elements = 0;
  uint64_t embeddings = 0;
  double seconds = 0.0;
};

Totals RunConfig(const CsceMatcher& matcher,
                 const std::vector<Graph>& patterns,
                 const PruneOptions& prune, uint32_t threads,
                 std::vector<std::vector<VertexId>>* rows_out) {
  Totals t;
  for (const Graph& pattern : patterns) {
    MatchOptions options;
    options.variant = MatchVariant::kEdgeInduced;
    options.time_limit_seconds = bench::TimeLimit();
    options.num_threads = threads;
    options.plan.prune = prune;
    MatchResult r;
    if (rows_out != nullptr) {
      std::vector<VertexId> flat;
      std::mutex mu;
      Status st = matcher.MatchWithCallback(
          pattern, options,
          [&](std::span<const VertexId> mapping) {
            std::lock_guard<std::mutex> lock(mu);
            flat.insert(flat.end(), mapping.begin(), mapping.end());
            return true;
          },
          &r);
      CSCE_CHECK(st.ok());
      const uint32_t width = pattern.NumVertices();
      for (size_t off = 0; off + width <= flat.size(); off += width) {
        rows_out->emplace_back(flat.begin() + off, flat.begin() + off + width);
      }
    } else {
      Status st = matcher.Match(pattern, options, &r);
      CSCE_CHECK(st.ok());
    }
    t.search_nodes += r.search_nodes;
    t.intersect_elements += r.intersect_elements;
    t.embeddings += r.embeddings;
    t.seconds += r.timed_out ? bench::TimeLimit() : r.total_seconds;
  }
  if (rows_out != nullptr) std::sort(rows_out->begin(), rows_out->end());
  return t;
}

void RunPanel(const char* name, const Ccsr& index,
              const std::vector<Graph>& patterns, bool crosscheck_rows,
              bench::BenchJson* json) {
  CsceMatcher matcher(&index);
  std::printf("%-12s %12s %14s %18s %10s %12s\n", name, "cfg", "search_nodes",
              "intersect_elems", "mean_s", "embeddings");

  std::vector<std::vector<VertexId>> want_rows;
  Totals none = RunConfig(matcher, patterns, NoPruneOptions(), 1,
                          crosscheck_rows ? &want_rows : nullptr);
  for (const Config& config : Configs()) {
    std::vector<std::vector<VertexId>> rows;
    Totals t = RunConfig(matcher, patterns, config.prune, 1,
                         crosscheck_rows ? &rows : nullptr);
    bool identical = t.embeddings == none.embeddings;
    if (crosscheck_rows) {
      identical = identical && rows == want_rows;
      // The point of the exercise: pruning may change the work, never
      // the answer — at one thread or eight.
      std::vector<std::vector<VertexId>> rows8;
      Totals t8 = RunConfig(matcher, patterns, config.prune, 8, &rows8);
      identical = identical && t8.embeddings == none.embeddings &&
                  rows8 == want_rows;
      CSCE_CHECK(identical);
    }
    std::printf("%-12s %12s %14llu %18llu %10.4f %12llu%s\n", "",
                config.name,
                static_cast<unsigned long long>(t.search_nodes),
                static_cast<unsigned long long>(t.intersect_elements),
                t.seconds / patterns.size(),
                static_cast<unsigned long long>(t.embeddings),
                identical ? "" : "  MISMATCH");
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("panel", name);
    row.Set("config", config.name);
    row.Set("search_nodes", t.search_nodes);
    row.Set("intersect_elements", t.intersect_elements);
    row.Set("mean_seconds", t.seconds / patterns.size());
    row.Set("embeddings", t.embeddings);
    row.Set("identical_to_none", identical);
    json->AddRow(std::move(row));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace csce

int main() {
  using namespace csce;
  std::printf("Proactive pruning ablation (limit %.1fs per case)\n\n",
              bench::TimeLimit());
  bench::BenchJson json("prune");
  json.Config("time_limit_seconds", bench::TimeLimit());

  {
    const uint32_t copies = bench::QuickMode() ? 64 : 512;
    json.Config("hetero_dup_copies", copies);
    Ccsr index = Ccsr::Build(HeteroDupGraph(copies));
    std::vector<Graph> patterns = {HeteroDupPattern()};
    RunPanel("hetero-dup", index, patterns, /*crosscheck_rows=*/true, &json);
  }

  {
    Graph patent = datasets::Patent(18);
    Ccsr index = Ccsr::Build(patent);
    std::vector<Graph> patterns;
    Status st = SamplePatterns(patent, 5, PatternDensity::kDense,
                               bench::PatternsPerConfig(), 97, &patterns);
    CSCE_CHECK(st.ok());
    RunPanel("Patent-5", index, patterns, /*crosscheck_rows=*/false, &json);
  }

  std::printf("none = every pass off (the ablation); none,lpi / none,fs = "
              "one pass alone; lpi,fs = the default (label-pair filter plus "
              "failing-set backjumping). hetero-dup rows are cross-checked "
              "byte-identical to none at 1 and 8 threads.\n");
  return 0;
}
