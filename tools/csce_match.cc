// csce_match: the online stage — match a pattern against a data graph
// (text) or a prebuilt CCSR artifact.
//
//   csce_match --ccsr=data.ccsr --pattern=p.txt [--variant=edge]
//   csce_match --graph=data.txt --pattern=p.txt --variant=hom
//              --time-limit=10 --max=100000 --explain --no-sce
//
// Out-of-core mode: --mmap (or CSCE_CCSR_MMAP=1 in the environment)
// maps a v2 --ccsr artifact instead of streaming it into memory —
// clusters page in on demand as the query touches them. --memory-cap=N
// additionally bounds the paging-advice window to N bytes.
//
// Prints the embedding count and the per-stage breakdown; --print=N
// additionally streams the first N embeddings. Observability:
// --metrics-json=FILE dumps the process metric registry as
// csce.metrics.v1 JSON, --trace=FILE records phase spans as Chrome
// chrome://tracing JSON (one track per worker thread).

#include <cstdio>
#include <memory>
#include <string>

#include <cstdlib>

#include "ccsr/ccsr.h"
#include "ccsr/ccsr_io.h"
#include "ccsr/ccsr_mmap.h"
#include "engine/matcher.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_printer.h"
#include "util/flags.h"

namespace {

bool ParseVariant(const std::string& name, csce::MatchVariant* out) {
  if (name == "edge" || name == "edge-induced") {
    *out = csce::MatchVariant::kEdgeInduced;
  } else if (name == "vertex" || name == "vertex-induced" ||
             name == "induced") {
    *out = csce::MatchVariant::kVertexInduced;
  } else if (name == "hom" || name == "homomorphic") {
    *out = csce::MatchVariant::kHomomorphic;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csce;
  FlagParser flags;
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::string ccsr_path = flags.GetString("ccsr", "");
  std::string graph_path = flags.GetString("graph", "");
  std::string pattern_path = flags.GetString("pattern", "");
  if (pattern_path.empty() || (ccsr_path.empty() == graph_path.empty())) {
    std::fprintf(stderr,
                 "usage: csce_match (--ccsr=x.ccsr | --graph=x.txt) "
                 "--pattern=p.txt [--variant=edge|vertex|hom] "
                 "[--mmap] [--memory-cap=bytes] "
                 "[--time-limit=s] [--max=n] [--print=n] [--threads=n] "
                 "[--explain] [--no-sce] [--no-nec] [--no-ldsf] "
                 "[--no-tiebreak] [--cost-based] [--self-check] "
                 "[--prune=aux|all|none (adds to the default lpi,fs "
                 "passes; only none turns them off)] "
                 "[--metrics-json=f.json] [--trace=f.json]\n");
    return 2;
  }

  // Install tracing before the index build so ccsr.build spans land in
  // the file too.
  std::string metrics_path = flags.GetString("metrics-json", "");
  std::string trace_path = flags.GetString("trace", "");
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    obs::TraceRecorder::Install(recorder.get());
  }

  const char* mmap_env = std::getenv("CSCE_CCSR_MMAP");
  const bool use_mmap = flags.GetBool("mmap") ||
                        (mmap_env != nullptr && std::string(mmap_env) == "1");
  const uint64_t memory_cap =
      static_cast<uint64_t>(flags.GetInt("memory-cap", 0));

  Ccsr index;
  std::unique_ptr<MmapCcsr> mapping;  // keeps the borrowed index alive
  if (!ccsr_path.empty()) {
    if (use_mmap) {
      MmapCcsr::Options mopts;
      mopts.memory_cap_bytes = memory_cap;
      if (Status st = MmapCcsr::Open(ccsr_path, mopts, &mapping); !st.ok()) {
        std::fprintf(stderr, "mmap ccsr: %s\n", st.ToString().c_str());
        return 1;
      }
      index = mapping->Release();
    } else if (Status st = LoadCcsrFromFile(ccsr_path, &index); !st.ok()) {
      std::fprintf(stderr, "load ccsr: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    if (use_mmap) {
      std::fprintf(stderr,
                   "warning: --mmap needs a --ccsr artifact; building "
                   "in-memory from --graph\n");
    }
    Graph g;
    if (Status st = LoadGraphFromFile(graph_path, &g); !st.ok()) {
      std::fprintf(stderr, "load graph: %s\n", st.ToString().c_str());
      return 1;
    }
    index = Ccsr::Build(g);
  }
  Graph pattern;
  if (Status st = LoadGraphFromFile(pattern_path, &pattern); !st.ok()) {
    std::fprintf(stderr, "load pattern: %s\n", st.ToString().c_str());
    return 1;
  }

  MatchOptions options;
  if (!ParseVariant(flags.GetString("variant", "edge"), &options.variant)) {
    std::fprintf(stderr, "unknown --variant\n");
    return 2;
  }
  options.time_limit_seconds = flags.GetDouble("time-limit", 0);
  options.max_embeddings =
      static_cast<uint64_t>(flags.GetInt("max", 0));
  options.num_threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  options.plan.use_sce = !flags.GetBool("no-sce");
  options.plan.use_nec = !flags.GetBool("no-nec");
  options.plan.use_ldsf = !flags.GetBool("no-ldsf");
  options.plan.use_cluster_tiebreak = !flags.GetBool("no-tiebreak");
  options.plan.use_cost_based = flags.GetBool("cost-based");
  options.self_check = flags.GetBool("self-check");
  // Proactive pruning passes: --prune wins over the CSCE_PRUNE
  // environment default (mirroring the --mmap / CSCE_CCSR_MMAP pair).
  // With neither set the spec is "", which parses to the default
  // label-pair filter.
  {
    const char* prune_env = std::getenv("CSCE_PRUNE");
    std::string prune_spec =
        flags.GetString("prune", prune_env != nullptr ? prune_env : "");
    if (Status st = ParsePruneList(prune_spec, &options.plan.prune);
        !st.ok()) {
      std::fprintf(stderr, "--prune: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  if (options.self_check) {
    // Paranoid mode starts at the index itself: deep-validate the CCSR
    // once before matching against it.
    if (Status st = index.Validate(); !st.ok()) {
      std::fprintf(stderr, "ccsr validation: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  CsceMatcher matcher(&index);
  if (flags.GetBool("explain")) {
    Plan plan;
    if (Status st = matcher.ExplainPlan(pattern, options, &plan); !st.ok()) {
      std::fprintf(stderr, "plan: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%s", PlanToString(plan).c_str());
  }

  int64_t print_count = flags.GetInt("print", 0);
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unused.c_str());
  }

  MatchResult result;
  Status st;
  if (print_count > 0) {
    int64_t shown = 0;
    st = matcher.MatchWithCallback(
        pattern, options,
        [&](std::span<const VertexId> mapping) {
          std::printf("embedding:");
          for (VertexId u = 0; u < mapping.size(); ++u) {
            std::printf(" u%u->v%u", u, mapping[u]);
          }
          std::printf("\n");
          return ++shown < print_count;
        },
        &result);
  } else {
    st = matcher.Match(pattern, options, &result);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "match: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("variant=%s embeddings=%llu%s%s\n",
              VariantName(options.variant),
              static_cast<unsigned long long>(result.embeddings),
              result.timed_out ? " (timed out)" : "",
              result.limit_reached ? " (limit reached)" : "");
  std::printf("read=%.3fms plan=%.3fms enumerate=%.3fms total=%.3fms\n",
              result.read_seconds * 1e3, result.plan_seconds * 1e3,
              result.enumerate_seconds * 1e3, result.total_seconds * 1e3);
  std::printf("clusters_read=%zu candidates: computed=%llu reused=%llu\n",
              result.clusters_read,
              static_cast<unsigned long long>(result.candidate_sets_computed),
              static_cast<unsigned long long>(result.candidate_sets_reused));
  if (options.plan.prune.any()) {
    std::printf(
        "prune=%s candidates_removed=%llu extensions_skipped=%llu "
        "aux_hits=%llu intersect_elements=%llu\n",
        PruneOptionsToString(options.plan.prune).c_str(),
        static_cast<unsigned long long>(result.prune_candidates_removed),
        static_cast<unsigned long long>(result.prune_extensions_skipped),
        static_cast<unsigned long long>(result.prune_aux_hits),
        static_cast<unsigned long long>(result.intersect_elements));
  }
  if (options.self_check) {
    std::printf(
        "self-check: verified=%llu mismatches=0\n",
        static_cast<unsigned long long>(result.embeddings_verified));
  }

  if (!metrics_path.empty()) {
    if (Status wst = obs::WriteMetricsFile(obs::MetricRegistry::Global(),
                                           metrics_path);
        !wst.ok()) {
      std::fprintf(stderr, "metrics: %s\n", wst.ToString().c_str());
      return 1;
    }
  }
  if (recorder != nullptr) {
    obs::TraceRecorder::Install(nullptr);
    if (Status wst = recorder->WriteFile(trace_path); !wst.ok()) {
      std::fprintf(stderr, "trace: %s\n", wst.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
