// Set-operation kernel microbenchmark: times every compiled-in kernel
// (scalar reference, AVX2) over a list-size x selectivity x skew
// grid, for both intersection and difference, and closes with an
// end-to-end Patent homomorphic count under each kernel. Each timed
// row double-checks the kernel's output length against the scalar
// reference, so the bench is also a coarse differential test.
//
// Environment knobs:
//   CSCE_INTERSECT_REPEATS   timed repetitions per cell (default 3)
//   CSCE_INTERSECT_LABELS    vertex labels of the Patent graph (default 18)
//   CSCE_INTERSECT_SIZE      end-to-end pattern vertices (default 6)
//   CSCE_INTERSECT_SEED     pattern sampling seed (default 42)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "ccsr/ccsr.h"
#include "engine/matcher.h"
#include "engine/setops/setops.h"
#include "gen/datasets.h"
#include "gen/pattern_gen.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace csce {
namespace {

uint32_t EnvOr(const char* name, uint32_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? static_cast<uint32_t>(std::atoi(env)) : fallback;
}

std::vector<setops::Kernel> CompiledKernels() {
  std::vector<setops::Kernel> kernels = {setops::Kernel::kScalar};
  if (setops::KernelSupported(setops::Kernel::kAvx2)) {
    kernels.push_back(setops::Kernel::kAvx2);
  }
  return kernels;
}

// Two sorted unique lists of sizes n and n*skew whose intersection is
// ~selectivity * n: elements are drawn from a shared pool so overlap
// is controlled, then each side is padded with disjoint private values.
struct ListPair {
  std::vector<VertexId> a;
  std::vector<VertexId> b;
};

ListPair MakeLists(Rng& rng, size_t n, double selectivity, size_t skew) {
  const size_t nb = n * skew;
  const size_t shared = static_cast<size_t>(selectivity * n);
  ListPair p;
  p.a.reserve(n);
  p.b.reserve(nb);
  // Stride-3 value space: slot 0 shared, slots 1/2 private to a/b, so
  // the lists interleave (worst case for block merges) yet the overlap
  // is exact.
  size_t taken_a = 0, taken_b = 0, taken_shared = 0;
  for (VertexId base = 0; taken_a < n || taken_b < nb; ++base) {
    if (taken_shared < shared && taken_a < n && taken_b < nb &&
        rng.Bernoulli(0.5)) {
      p.a.push_back(3 * base);
      p.b.push_back(3 * base);
      ++taken_a;
      ++taken_b;
      ++taken_shared;
      continue;
    }
    if (taken_a < n && rng.Bernoulli(0.5)) {
      p.a.push_back(3 * base + 1);
      ++taken_a;
    }
    if (taken_b < nb) {
      p.b.push_back(3 * base + 2);
      ++taken_b;
    }
  }
  return p;
}

using KernelCall = size_t (*)(setops::Kernel, std::span<const VertexId>,
                              std::span<const VertexId>, VertexId*);

size_t CallIntersect(setops::Kernel k, std::span<const VertexId> a,
                     std::span<const VertexId> b, VertexId* out) {
  return setops::IntersectWith(k, a, b, out);
}

size_t CallDifference(setops::Kernel k, std::span<const VertexId> a,
                      std::span<const VertexId> b, VertexId* out) {
  return setops::DifferenceWith(k, a, b, out);
}

// Best-of-`repeats` seconds for `iters` calls of `call`.
double TimeKernel(KernelCall call, setops::Kernel k, const ListPair& lists,
                  uint32_t repeats, size_t iters, VertexId* out,
                  size_t* checksum) {
  double best = 0.0;
  for (uint32_t r = 0; r < repeats; ++r) {
    size_t sink = 0;
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) {
      sink += call(k, lists.a, lists.b, out);
    }
    double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
    *checksum = sink;
  }
  return best;
}

}  // namespace

int Main() {
  const bool quick = bench::QuickMode();
  const uint32_t repeats = EnvOr("CSCE_INTERSECT_REPEATS", quick ? 2 : 3);
  const uint32_t labels = EnvOr("CSCE_INTERSECT_LABELS", 18);
  const uint32_t pattern_size = EnvOr("CSCE_INTERSECT_SIZE", 6);
  const uint32_t seed = EnvOr("CSCE_INTERSECT_SEED", 42);
  const std::vector<setops::Kernel> kernels = CompiledKernels();

  bench::BenchJson json("intersect");
  json.Config("repeats", repeats);
  json.Config("labels", labels);
  json.Config("pattern_size", pattern_size);
  json.Config("seed", seed);
  json.Config("active_kernel", setops::KernelName(setops::ActiveKernel()));

  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{1 << 10, 1 << 14}
            : std::vector<size_t>{1 << 8, 1 << 12, 1 << 16};
  const std::vector<double> selectivities =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.5, 0.9};
  const std::vector<size_t> skews =
      quick ? std::vector<size_t>{1} : std::vector<size_t>{1, 8, 64};
  // Enough total elements per cell to hide timer granularity.
  const size_t target_elems = quick ? (1u << 22) : (1u << 26);

  std::printf("Set-operation kernels (best of %u):\n", repeats);
  std::printf("%6s %10s %6s %5s %8s %12s %10s %8s\n", "op", "size", "sel",
              "skew", "kernel", "seconds", "Melem/s", "vs scal");
  bench::PrintRule(72);

  Rng rng(seed);
  struct Op {
    const char* name;
    KernelCall call;
  };
  const Op ops[] = {{"and", CallIntersect}, {"sub", CallDifference}};

  for (size_t n : sizes) {
    for (double sel : selectivities) {
      for (size_t skew : skews) {
        ListPair lists = MakeLists(rng, n, sel, skew);
        std::vector<VertexId> out(lists.a.size() + lists.b.size() +
                                  setops::kOutPad);
        const size_t iters =
            std::max<size_t>(1, target_elems / (n * (1 + skew)));
        for (const Op& op : ops) {
          double scalar_seconds = 0.0;
          size_t scalar_checksum = 0;
          for (setops::Kernel k : kernels) {
            size_t checksum = 0;
            double seconds = TimeKernel(op.call, k, lists, repeats, iters,
                                        out.data(), &checksum);
            if (k == setops::Kernel::kScalar) {
              scalar_seconds = seconds;
              scalar_checksum = checksum;
            } else {
              // Differential guard: same total result length as scalar.
              CSCE_CHECK(checksum == scalar_checksum)
                  << op.name << " result diverged on kernel "
                  << setops::KernelName(k);
            }
            const double total_elems =
                static_cast<double>(iters) * (lists.a.size() + lists.b.size());
            const double speedup =
                seconds > 0 ? scalar_seconds / seconds : 0.0;
            std::printf("%6s %10zu %6.2f %5zu %8s %12.6f %10.1f %7.2fx\n",
                        op.name, n, sel, skew, setops::KernelName(k), seconds,
                        total_elems / seconds / 1e6, speedup);
            obs::JsonValue row = obs::JsonValue::Object();
            row.Set("section", "kernel");
            row.Set("op", op.name);
            row.Set("size", static_cast<uint64_t>(n));
            row.Set("selectivity", sel);
            row.Set("skew", static_cast<uint64_t>(skew));
            row.Set("kernel", setops::KernelName(k));
            row.Set("seconds", seconds);
            row.Set("melems_per_sec", total_elems / seconds / 1e6);
            row.Set("speedup_vs_scalar", speedup);
            json.AddRow(std::move(row));
          }
        }
      }
    }
  }

  // End-to-end: intersection-heavy homomorphic counting on Patent,
  // same plan and patterns, only the dispatched kernel differs.
  bench::PrintRule(72);
  Graph data = datasets::Patent(labels);
  Ccsr gc = Ccsr::Build(data);
  CsceMatcher matcher(&gc);
  std::vector<Graph> patterns;
  Status st = SamplePatterns(data, pattern_size, PatternDensity::kSparse,
                             bench::PatternsPerConfig(), seed, &patterns);
  CSCE_CHECK(st.ok());

  const setops::Kernel original = setops::ActiveKernel();
  double scalar_seconds = 0.0;
  uint64_t scalar_embeddings = 0;
  for (setops::Kernel k : kernels) {
    setops::SetKernelForTesting(k);
    double best = 0.0;
    uint64_t embeddings = 0;
    for (uint32_t r = 0; r < repeats; ++r) {
      uint64_t total = 0;
      WallTimer timer;
      for (const Graph& p : patterns) {
        MatchOptions options;
        options.variant = MatchVariant::kHomomorphic;
        MatchResult result;
        st = matcher.Match(p, options, &result);
        CSCE_CHECK(st.ok());
        total += result.embeddings;
      }
      double s = timer.Seconds();
      if (r == 0 || s < best) best = s;
      embeddings = total;
    }
    if (k == setops::Kernel::kScalar) {
      scalar_seconds = best;
      scalar_embeddings = embeddings;
    }
    CSCE_CHECK(embeddings == scalar_embeddings)
        << "embedding count diverged on kernel " << setops::KernelName(k);
    const double speedup = best > 0 ? scalar_seconds / best : 0.0;
    std::printf("%6s %10s %6s %5s %8s %12.4f %10s %7.2fx  (%llu embeddings)\n",
                "hom", "patent", "-", "-", setops::KernelName(k), best, "-",
                speedup, static_cast<unsigned long long>(embeddings));
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("section", "end_to_end");
    row.Set("dataset", "patent");
    row.Set("kernel", setops::KernelName(k));
    row.Set("seconds", best);
    row.Set("embeddings", embeddings);
    row.Set("speedup_vs_scalar", speedup);
    json.AddRow(std::move(row));
  }
  setops::SetKernelForTesting(original);
  return 0;
}

}  // namespace csce

int main() { return csce::Main(); }
