// Fig. 10: plan-generation scalability — time and peak memory of the
// full optimization pipeline for patterns up to 2000 vertices on a
// Patent-like graph with 2000 vertex labels, for all three variants.
// The cluster read (Algorithm 1, ReadClusters) and planning (MakePlan:
// GCF, BuildDAG, LDSF, NEC and constraint compilation) are separate
// columns, and so is the mapped-index prefetch schedule derived from
// the plan (PlanClusterSchedule). Each cell is the best of 3 runs, and
// the variant order rotates with the size, so no variant always runs
// first.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "util/memory.h"
#include "util/timer.h"

int main() {
  using namespace csce;
  std::printf("Fig. 10 analogue: plan generation time/memory vs pattern "
              "size (Patent-like graph, 2000 labels)\n\n");

  bench::BenchJson json("fig10_plan_scale");
  json.Config("labels", 2000);
  constexpr int kRepeats = 3;
  json.Config("repeats", kRepeats);
  Graph patent = datasets::Patent(2000);
  WallTimer build_timer;
  Ccsr gc = Ccsr::Build(patent);
  std::printf("offline CCSR build: %.2fs, %zu clusters\n", build_timer.Seconds(),
              gc.NumClusters());
  std::printf("cells: best of %d runs, milliseconds\n\n", kRepeats);
  Planner planner(&gc);

  struct Variant {
    MatchVariant variant;
    const char* name;  // JSON key prefix
    char tag;          // column tag
  };
  const Variant kVariants[] = {{MatchVariant::kEdgeInduced, "edge", 'E'},
                               {MatchVariant::kVertexInduced, "vertex", 'V'},
                               {MatchVariant::kHomomorphic, "hom", 'H'}};
  std::printf("%-8s", "size");
  for (const Variant& v : kVariants) {
    std::printf(" %c read(ms) %c plan(ms) %c sched(ms)", v.tag, v.tag, v.tag);
  }
  std::printf(" %14s\n", "peak RSS (GB)");
  std::vector<uint32_t> sizes = {8u, 32u, 128u, 512u, 1000u, 2000u};
  if (bench::QuickMode()) sizes = {8u, 32u, 128u};
  for (size_t s = 0; s < sizes.size(); ++s) {
    const uint32_t size = sizes[s];
    Rng rng(size + 17);
    Graph pattern;
    Status st =
        SamplePattern(patent, size, PatternDensity::kDense, rng, &pattern);
    if (!st.ok()) {
      std::printf("%-8u (sampling failed: %s)\n", size,
                  st.ToString().c_str());
      continue;
    }
    double read_s[3];
    double plan_s[3];
    double sched_s[3];
    for (int k = 0; k < 3; ++k) {
      const int i = static_cast<int>((s + k) % 3);
      read_s[i] = plan_s[i] = sched_s[i] = 1e300;
      for (int r = 0; r < kRepeats; ++r) {
        WallTimer timer;
        QueryClusters qc;
        CSCE_CHECK(ReadClusters(gc, pattern, kVariants[i].variant, &qc).ok());
        read_s[i] = std::min(read_s[i], timer.Seconds());
        timer.Restart();
        Plan plan;
        CSCE_CHECK(planner
                       .MakePlan(pattern, kVariants[i].variant, PlanOptions{},
                                 &plan)
                       .ok());
        plan_s[i] = std::min(plan_s[i], timer.Seconds());
        timer.Restart();
        const std::vector<ClusterId> schedule = PlanClusterSchedule(gc, plan);
        sched_s[i] = std::min(sched_s[i], timer.Seconds());
        CSCE_CHECK(!schedule.empty());
      }
    }
    std::printf("%-8u", size);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("pattern_size", size);
    for (int i = 0; i < 3; ++i) {
      std::printf(" %10.3f %10.3f %11.3f", read_s[i] * 1e3, plan_s[i] * 1e3,
                  sched_s[i] * 1e3);
      row.Set(std::string(kVariants[i].name) + "_read_seconds", read_s[i]);
      row.Set(std::string(kVariants[i].name) + "_plan_seconds", plan_s[i]);
      row.Set(std::string(kVariants[i].name) + "_schedule_seconds",
              sched_s[i]);
    }
    double rss_gb =
        static_cast<double>(PeakRssBytes()) / (1024.0 * 1024 * 1024);
    row.Set("peak_rss_gb", rss_gb);
    json.AddRow(std::move(row));
    std::printf(" %14.2f\n", rss_gb);
  }
  std::printf("\nExpected shape (Finding 10): plans for 2000-vertex "
              "patterns complete within the budget; homomorphism (no "
              "injectivity bookkeeping) is the cheapest.\n");
  return 0;
}
