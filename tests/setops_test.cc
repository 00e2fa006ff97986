#include "engine/setops/setops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <vector>

#include "engine/matcher.h"
#include "engine/setops/vertex_scratch.h"
#include "gen/pattern_gen.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace csce {
namespace {

using setops::Kernel;
using setops::kOutPad;

// Value no kernel should ever produce from our inputs: marks the
// region past the contractual output capacity, which must survive
// every call untouched (catches out-of-bounds SIMD stores).
constexpr VertexId kCanary = 0xDEADBEEFu;

std::vector<Kernel> SupportedKernels() {
  std::vector<Kernel> kernels = {Kernel::kScalar};
  if (setops::KernelSupported(Kernel::kAvx2)) kernels.push_back(Kernel::kAvx2);
  return kernels;
}

// Sorted unique list of `n` values with gaps in [1, max_gap].
std::vector<VertexId> RandomSortedUnique(Rng& rng, size_t n,
                                         uint32_t max_gap) {
  std::vector<VertexId> v;
  v.reserve(n);
  VertexId x = 0;
  for (size_t i = 0; i < n; ++i) {
    x += 1 + static_cast<VertexId>(rng.Uniform(max_gap));
    v.push_back(x);
  }
  return v;
}

std::vector<VertexId> RefIntersect(const std::vector<VertexId>& a,
                                   const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<VertexId> RefDifference(const std::vector<VertexId>& a,
                                    const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Runs the kernel into a canary-guarded buffer sized exactly to the
// documented capacity contract and checks nothing beyond it was
// written.
std::vector<VertexId> RunIntersect(Kernel k, const std::vector<VertexId>& a,
                                   const std::vector<VertexId>& b) {
  const size_t cap = std::min(a.size(), b.size()) + kOutPad;
  std::vector<VertexId> out(cap + 16, kCanary);
  size_t n = setops::IntersectWith(k, a, b, out.data());
  for (size_t i = cap; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kCanary) << "intersect wrote past capacity at " << i;
  }
  EXPECT_LE(n, std::min(a.size(), b.size()));
  out.resize(n);
  return out;
}

std::vector<VertexId> RunDifference(Kernel k, const std::vector<VertexId>& a,
                                    const std::vector<VertexId>& b) {
  const size_t cap = a.size() + kOutPad;
  std::vector<VertexId> out(cap + 16, kCanary);
  size_t n = setops::DifferenceWith(k, a, b, out.data());
  for (size_t i = cap; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kCanary) << "difference wrote past capacity at " << i;
  }
  EXPECT_LE(n, a.size());
  out.resize(n);
  return out;
}

void ExpectAllKernelsAgree(const std::vector<VertexId>& a,
                           const std::vector<VertexId>& b,
                           const std::string& label) {
  const std::vector<VertexId> want_and = RefIntersect(a, b);
  const std::vector<VertexId> want_sub = RefDifference(a, b);
  for (Kernel k : SupportedKernels()) {
    EXPECT_EQ(RunIntersect(k, a, b), want_and)
        << label << " intersect, kernel " << setops::KernelName(k) << ", |a|="
        << a.size() << " |b|=" << b.size();
    EXPECT_EQ(RunDifference(k, a, b), want_sub)
        << label << " difference, kernel " << setops::KernelName(k)
        << ", |a|=" << a.size() << " |b|=" << b.size();
  }
}

// --- Differential fuzz ----------------------------------------------

TEST(SetopsDifferentialTest, SizeGridAgainstReference) {
  // Sizes straddling the AVX2 block boundary (8) plus large.
  const size_t kSizes[] = {0, 1, 2, 7, 8, 9, 31, 32, 33, 1000, 65536};
  Rng rng(0x5e70b5u);
  for (size_t na : kSizes) {
    for (size_t nb : kSizes) {
      // Dense values (small gaps) so the lists overlap heavily.
      std::vector<VertexId> a = RandomSortedUnique(rng, na, 3);
      std::vector<VertexId> b = RandomSortedUnique(rng, nb, 3);
      ExpectAllKernelsAgree(a, b, "size-grid");
    }
  }
}

TEST(SetopsDifferentialTest, SkewRatiosAcrossGallopThreshold) {
  // Kernels delegate to galloping when |large|/|small| >= 32; probe
  // both sides of the threshold and far beyond it.
  Rng rng(0x9a110fu);
  const size_t kSmall[] = {1, 5, 64};
  const size_t kRatios[] = {16, 31, 32, 33, 64, 1024};
  for (size_t ns : kSmall) {
    for (size_t ratio : kRatios) {
      std::vector<VertexId> small_list = RandomSortedUnique(rng, ns, 40);
      std::vector<VertexId> large_list =
          RandomSortedUnique(rng, ns * ratio, 2);
      ExpectAllKernelsAgree(small_list, large_list, "skew small-first");
      ExpectAllKernelsAgree(large_list, small_list, "skew large-first");
    }
  }
}

TEST(SetopsDifferentialTest, StructuredCases) {
  Rng rng(0x57a71cu);
  std::vector<VertexId> base = RandomSortedUnique(rng, 1000, 5);

  // Identical lists.
  ExpectAllKernelsAgree(base, base, "identical");

  // Strict subset (every third element).
  std::vector<VertexId> subset;
  for (size_t i = 0; i < base.size(); i += 3) subset.push_back(base[i]);
  ExpectAllKernelsAgree(base, subset, "superset-vs-subset");
  ExpectAllKernelsAgree(subset, base, "subset-vs-superset");

  // Disjoint: interleaved (worst case for block merges) and fully
  // separated ranges.
  std::vector<VertexId> odd;
  for (VertexId v : base) odd.push_back(2 * v + 1);
  std::vector<VertexId> even;
  for (VertexId v : base) even.push_back(2 * v);
  ExpectAllKernelsAgree(odd, even, "interleaved-disjoint");
  std::vector<VertexId> shifted;
  for (VertexId v : base) shifted.push_back(v + 1'000'000);
  ExpectAllKernelsAgree(base, shifted, "range-disjoint");

  // Empty against everything.
  std::vector<VertexId> empty;
  ExpectAllKernelsAgree(empty, base, "empty-a");
  ExpectAllKernelsAgree(base, empty, "empty-b");
  ExpectAllKernelsAgree(empty, empty, "empty-both");
}

TEST(SetopsDifferentialTest, RandomizedManyRounds) {
  Rng rng(0xf022u);
  for (int round = 0; round < 200; ++round) {
    size_t na = rng.Uniform(300);
    size_t nb = rng.Uniform(300);
    uint32_t gap_a = 1 + static_cast<uint32_t>(rng.Uniform(8));
    uint32_t gap_b = 1 + static_cast<uint32_t>(rng.Uniform(8));
    std::vector<VertexId> a = RandomSortedUnique(rng, na, gap_a);
    std::vector<VertexId> b = RandomSortedUnique(rng, nb, gap_b);
    ExpectAllKernelsAgree(a, b, "random-round");
  }
}

TEST(SetopsDifferentialTest, DifferenceInPlaceAliasing) {
  // Difference documents in-place support: out == a.data().
  Rng rng(0xa11a5u);
  for (Kernel k : SupportedKernels()) {
    for (size_t na : {size_t{9}, size_t{33}, size_t{1000}}) {
      std::vector<VertexId> a = RandomSortedUnique(rng, na, 3);
      std::vector<VertexId> b = RandomSortedUnique(rng, na, 3);
      std::vector<VertexId> want = RefDifference(a, b);
      std::vector<VertexId> acc = a;
      acc.resize(setops::DifferenceWith(k, acc, b, acc.data()));
      EXPECT_EQ(acc, want) << "in-place, kernel " << setops::KernelName(k);
      // And against an empty b (the memcpy path must tolerate aliasing).
      acc = a;
      acc.resize(setops::DifferenceWith(k, acc, {}, acc.data()));
      EXPECT_EQ(acc, a);
    }
  }
}

// --- VertexScratch --------------------------------------------------

TEST(VertexScratchTest, ReserveIsNotCountedButHotGrowthIs) {
  setops::VertexScratch::ResetHotGrowthCountForTesting();
  setops::VertexScratch s;
  s.Reserve(128);
  EXPECT_EQ(setops::VertexScratch::HotGrowthCountForTesting(), 0u);
  EXPECT_GE(s.capacity(), 128u);
  EXPECT_EQ(s.size(), 0u);

  s.EnsureCapacity(64);  // within capacity: no growth
  EXPECT_EQ(setops::VertexScratch::HotGrowthCountForTesting(), 0u);
  s.EnsureCapacity(256);  // must grow: counted
  EXPECT_EQ(setops::VertexScratch::HotGrowthCountForTesting(), 1u);
  EXPECT_GE(s.capacity(), 256u);
  setops::VertexScratch::ResetHotGrowthCountForTesting();
}

TEST(VertexScratchTest, AssignCompareAndMutate) {
  setops::VertexScratch a;
  setops::VertexScratch b;
  const std::vector<VertexId> values = {3, 5, 8, 13};
  a.Assign(values);
  b.Assign(values);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a[2], 8u);
  b.pop_back();
  EXPECT_FALSE(a == b);
  b.push_back(13);
  EXPECT_TRUE(a == b);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_GE(a.capacity(), 4u);  // clear keeps storage
}

// --- Dispatch -------------------------------------------------------

TEST(SetopsDispatchTest, EnvOverridesPinKernels) {
  // Each gtest case runs in its own process under ctest, but restore
  // the variable anyway for in-process filters.
  const char* saved_force = std::getenv("CSCE_FORCE_SCALAR");

  setenv("CSCE_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(setops::ChooseKernelFromEnv(), Kernel::kScalar);
  setenv("CSCE_FORCE_SCALAR", "", 1);  // empty means off
  const Kernel widest = setops::KernelSupported(Kernel::kAvx2)
                            ? Kernel::kAvx2
                            : Kernel::kScalar;
  EXPECT_EQ(setops::ChooseKernelFromEnv(), widest);
  setenv("CSCE_FORCE_SCALAR", "0", 1);  // "0" means off
  EXPECT_EQ(setops::ChooseKernelFromEnv(), widest);
  unsetenv("CSCE_FORCE_SCALAR");
  EXPECT_EQ(setops::ChooseKernelFromEnv(), widest);

  if (saved_force != nullptr) setenv("CSCE_FORCE_SCALAR", saved_force, 1);
}

TEST(SetopsDispatchTest, KernelNamesAreStable) {
  EXPECT_STREQ(setops::KernelName(Kernel::kScalar), "scalar");
  EXPECT_STREQ(setops::KernelName(Kernel::kAvx2), "avx2");
}

TEST(SetopsDispatchTest, SetKernelForTestingRedirectsDispatch) {
  Kernel original = setops::ActiveKernel();
  setops::SetKernelForTesting(Kernel::kScalar);
  EXPECT_EQ(setops::ActiveKernel(), Kernel::kScalar);

  std::vector<VertexId> a = {1, 2, 3, 4, 5};
  std::vector<VertexId> b = {2, 4, 6};
  std::vector<VertexId> out(a.size() + kOutPad);
  out.resize(setops::Intersect(a, b, out.data()));
  EXPECT_EQ(out, (std::vector<VertexId>{2, 4}));

  setops::SetKernelForTesting(original);
  EXPECT_EQ(setops::ActiveKernel(), original);
}

// --- Engine crosscheck: forced scalar vs SIMD -----------------------

struct EngineOutcome {
  MatchResult result;
  obs::HistogramData hist;  // engine.candidate_set_size
  std::vector<std::vector<VertexId>> embeddings;
};

EngineOutcome RunEngine(const Ccsr& gc, const Graph& pattern,
                        MatchVariant variant, uint32_t threads) {
  obs::MetricRegistry::Global().ResetForTesting();
  CsceMatcher matcher(&gc);
  MatchOptions options;
  options.variant = variant;
  options.num_threads = threads;
  if (threads > 1) options.morsel_size = 2;
  EngineOutcome outcome;
  std::mutex mu;
  Status st = matcher.MatchWithCallback(
      pattern, options,
      [&](std::span<const VertexId> mapping) {
        std::lock_guard<std::mutex> lock(mu);
        outcome.embeddings.emplace_back(mapping.begin(), mapping.end());
        return true;
      },
      &outcome.result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::sort(outcome.embeddings.begin(), outcome.embeddings.end());
  obs::MetricsSnapshot snap = obs::MetricRegistry::Global().Snapshot();
  outcome.hist = snap.histograms["engine.candidate_set_size"];
  return outcome;
}

void CrosscheckKernels(const Ccsr& gc, const Graph& pattern,
                       MatchVariant variant) {
  Kernel widest = setops::ActiveKernel();
  for (uint32_t threads : {1u, 8u}) {
    setops::SetKernelForTesting(Kernel::kScalar);
    EngineOutcome scalar = RunEngine(gc, pattern, variant, threads);
    setops::SetKernelForTesting(widest);
    EngineOutcome simd = RunEngine(gc, pattern, variant, threads);

    // The embedding set and the work-defining counters must be
    // bit-identical whichever kernel ran.
    EXPECT_EQ(scalar.embeddings, simd.embeddings) << "threads=" << threads;
    EXPECT_EQ(scalar.result.embeddings, simd.result.embeddings);
    EXPECT_EQ(scalar.result.search_nodes, simd.result.search_nodes)
        << "threads=" << threads;
    EXPECT_EQ(scalar.result.candidate_sets_computed +
                  scalar.result.candidate_sets_reused,
              simd.result.candidate_sets_computed +
                  simd.result.candidate_sets_reused)
        << "threads=" << threads;
    if (threads == 1) {
      // Serially even the cache hit pattern and the candidate-set size
      // distribution are deterministic and kernel-independent.
      EXPECT_EQ(scalar.result.candidate_sets_computed,
                simd.result.candidate_sets_computed);
      EXPECT_EQ(scalar.result.candidate_sets_reused,
                simd.result.candidate_sets_reused);
      EXPECT_EQ(scalar.hist.count, simd.hist.count);
      EXPECT_DOUBLE_EQ(scalar.hist.sum, simd.hist.sum);
      EXPECT_DOUBLE_EQ(scalar.hist.min, simd.hist.min);
      EXPECT_DOUBLE_EQ(scalar.hist.max, simd.hist.max);
      EXPECT_EQ(scalar.hist.buckets, simd.hist.buckets);
    }
  }
}

TEST(SetopsEngineCrosscheckTest, UnlabeledCliqueAllVariants) {
  Ccsr gc = Ccsr::Build(testing::Clique(9));
  Graph pattern = testing::Cycle(4);
  for (MatchVariant variant :
       {MatchVariant::kHomomorphic, MatchVariant::kEdgeInduced,
        MatchVariant::kVertexInduced}) {
    CrosscheckKernels(gc, pattern, variant);
  }
}

TEST(SetopsEngineCrosscheckTest, LabeledRandomGraphSampledPatterns) {
  Rng rng(20260806);
  Graph data = testing::RandomGraph(rng, 64, 0.15, 3, 2, false);
  Ccsr gc = Ccsr::Build(data);
  std::vector<Graph> patterns;
  ASSERT_TRUE(SamplePatterns(data, 4, PatternDensity::kDense, 2,
                             /*seed=*/7, &patterns)
                  .ok());
  for (const Graph& pattern : patterns) {
    for (MatchVariant variant :
         {MatchVariant::kHomomorphic, MatchVariant::kEdgeInduced,
          MatchVariant::kVertexInduced}) {
      CrosscheckKernels(gc, pattern, variant);
    }
  }
}

// --- Zero-allocation discipline -------------------------------------

TEST(SetopsZeroAllocTest, PrepareBoundsCoverTheWholeRun) {
  // Any EnsureCapacity growth inside the enumeration bumps the
  // process-wide hot-growth counter; a correct Prepare() sizes every
  // scratch buffer so the counter never moves. Exercised across all
  // variants (vertex-induced hits the negation/difference paths) and
  // both serial and morsel-parallel execution.
  Rng rng(99);
  Graph data = testing::RandomGraph(rng, 80, 0.12, 3, 2, false);
  Ccsr gc = Ccsr::Build(data);
  std::vector<Graph> patterns;
  ASSERT_TRUE(SamplePatterns(data, 4, PatternDensity::kDense, 2,
                             /*seed=*/11, &patterns)
                  .ok());
  patterns.push_back(testing::Cycle(3));  // label-0 pattern, label scan mix

  setops::VertexScratch::ResetHotGrowthCountForTesting();
  CsceMatcher matcher(&gc);
  for (const Graph& pattern : patterns) {
    for (MatchVariant variant :
         {MatchVariant::kHomomorphic, MatchVariant::kEdgeInduced,
          MatchVariant::kVertexInduced}) {
      for (uint32_t threads : {1u, 4u}) {
        MatchOptions options;
        options.variant = variant;
        options.num_threads = threads;
        MatchResult result;
        ASSERT_TRUE(matcher.Match(pattern, options, &result).ok());
      }
    }
  }
  EXPECT_EQ(setops::VertexScratch::HotGrowthCountForTesting(), 0u)
      << "a Prepare() candidate bound was too small somewhere";
}

}  // namespace
}  // namespace csce
