// CSCE benchmark binary: one workload per process.
//
//   csce_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>] [--small] [--git-sha <sha>]
//                  [--src-digest <hex>]
//
// Prints an environment/diagnostics line, a work-counter line and, as
// the last line of stdout, the result object. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones
// plus the tracing overhead (traced minus untraced) of every
// end-to-end metric. perfbench/README.md describes the workloads and
// metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "engine/setops/setops.h"
#include "harness.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using csce::obs::JsonValue;

// Set-ups per mode: at least kMinSetUps (two per CPU on a 4-CPU host)
// and until kSetUpSeconds have passed, at most kMaxSetUps (which a
// 0.2 ms set-up reaches in about a second).
constexpr int kMinSetUps = 8;
constexpr int kMaxSetUps = 4000;
constexpr double kSetUpSeconds = 2.0;
// Timed rounds, time or not: round 0 and a repeat of the cheap queries
// on each CPU of a 4-CPU host.
constexpr int kMinRounds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string workdir = ".";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Timed executions per query, for one mode (untraced or traced).
using Records = std::vector<std::vector<Exec>>;

struct EndToEnd {
  double setup_s = 0;
  double latency_p50_ms = 0;
  double latency_p75_ms = 0;
  double solved_ratio = 0;
  double setup_peak_rss_mb = 0;
  // Diagnostics only: steady on some workloads but not all.
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
  double embeddings_per_s = 0;
  double setup_median_s = 0;
  /// Median over timed-out queries of latency minus the limit: how late
  /// the executor noticed the deadline.
  double timeout_overshoot_ms = 0;
};

// Each query's repeats are reduced to their fastest first; percentiles
// are taken over queries. Host interference only ever slows a run, and
// on this kind of shared host the per-query minimum moved half as much
// between runs as the per-query median. A query counts as solved only
// if every repeat completed within its limit. Set-ups are reduced to
// their fastest for the same reason, and their memory peaks to the
// highest, which does not depend on how threads a set-up starts happen
// to interleave.
EndToEnd ComputeEndToEnd(const Records& records,
                         const std::vector<double>& setups,
                         const std::vector<double>& setup_peaks,
                         double limit_s) {
  EndToEnd m;
  std::vector<double> latency_ms;
  std::vector<double> rates;
  std::vector<double> overshoot_ms;
  size_t solved = 0;
  for (const std::vector<Exec>& execs : records) {
    if (execs.empty()) continue;
    double best_s = execs[0].latency_s;
    bool all_solved = true;
    for (const Exec& e : execs) {
      best_s = std::min(best_s, e.latency_s);
      all_solved = all_solved && e.ok && !e.timed_out;
      if (e.timed_out) overshoot_ms.push_back((e.latency_s - limit_s) * 1e3);
    }
    latency_ms.push_back(best_s * 1e3);
    if (all_solved) {
      ++solved;
      if (best_s > 0) rates.push_back(execs[0].embeddings / best_s);
    }
  }
  m.setup_s = *std::min_element(setups.begin(), setups.end());
  m.setup_median_s = Median(setups);
  m.timeout_overshoot_ms = Median(overshoot_ms);
  m.latency_p50_ms = Percentile(latency_ms, 50);
  m.latency_p75_ms = Percentile(latency_ms, 75);
  m.solved_ratio =
      latency_ms.empty() ? 0 : static_cast<double>(solved) / latency_ms.size();
  m.setup_peak_rss_mb =
      *std::max_element(setup_peaks.begin(), setup_peaks.end());
  m.latency_p90_ms = Percentile(latency_ms, 90);
  m.latency_p99_ms = Percentile(latency_ms, 99);
  m.embeddings_per_s = Median(rates);
  return m;
}

Metrics EndToEndMetrics(const EndToEnd& m) {
  return {{"setup_s", m.setup_s, "s"},
          {"latency_p50_ms", m.latency_p50_ms, "ms"},
          {"latency_p75_ms", m.latency_p75_ms, "ms"},
          {"solved_ratio", m.solved_ratio, "1"},
          {"setup_peak_rss_mb", m.setup_peak_rss_mb, "MB"}};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer readings of the traced rounds. Work counters come from each
// query's first traced execution (one round's worth); times are the
// median over queries of each query's median.
Metrics LayerMetrics(const Workload& w, const Records& traced,
                     const std::vector<double>& loads) {
  std::vector<double> read_ms, plan_ms, enum_ms, queue_ms, exec_ms, shard_plan,
      loop_ms;
  double plan_sum = 0, stage_sum = 0, busy_sum = 0, loop_sum = 0,
         enum_sum_ms = 0;
  uint64_t clusters = 0, bytes = 0, intersect = 0, computed = 0, reused = 0,
           nodes = 0, embeddings = 0, removed = 0, timeouts = 0, rounds = 0,
           tasks = 0, retried = 0, restarts = 0, rt_failed = 0,
           rt_timed_out = 0;
  for (const std::vector<Exec>& execs : traced) {
    if (execs.empty()) continue;
    auto median_ms = [&execs](double Exec::*field) {
      std::vector<double> v;
      for (const Exec& e : execs) v.push_back(e.*field * 1e3);
      return Median(v);
    };
    const Exec& first = execs.front();
    const double plan = median_ms(&Exec::plan_s);
    const double read = median_ms(&Exec::read_s);
    const double enumerate = median_ms(&Exec::enumerate_s);
    plan_ms.push_back(plan);
    read_ms.push_back(read);
    enum_ms.push_back(enumerate);
    enum_sum_ms += enumerate;
    clusters += first.clusters_read;
    bytes += first.decompressed_bytes;
    intersect += first.intersect_elements;
    computed += first.sets_computed;
    reused += first.sets_reused;
    nodes += first.search_nodes;
    embeddings += first.embeddings;
    removed += first.prune_removed;
    timeouts += first.timed_out ? 1 : 0;
    if (first.via_runtime) {
      queue_ms.push_back(median_ms(&Exec::queue_wait_s));
      exec_ms.push_back(median_ms(&Exec::latency_s));
      for (const Exec& e : execs) {
        rt_failed += e.ok ? 0 : 1;
        rt_timed_out += e.timed_out ? 1 : 0;
      }
    }
    if (first.via_shards) {
      const double loop = median_ms(&Exec::round_loop_s);
      shard_plan.push_back(plan);
      loop_ms.push_back(loop);
      loop_sum += loop;
      busy_sum += median_ms(&Exec::busy_s);
      rounds += first.rounds;
      tasks += first.tasks_routed;
      for (const Exec& e : execs) {
        retried += e.frames_retried;
        restarts += e.worker_restarts;
      }
      stage_sum += plan + loop;
    } else {
      stage_sum += plan + read + enumerate;
    }
    plan_sum += plan;
  }
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"ccsr.build_s", w.build_s(), "s"},
      {"ccsr.load_s", Median(loads), "s"},
      {"ccsr.read_ms", Median(read_ms), "ms"},
      {"ccsr.clusters_read", d(clusters), "count"},
      {"ccsr.decompressed_bytes", d(bytes), "bytes"},
      {"ccsr.cache_hit_ratio", w.CacheHitRatio(), "1"},
      {"plan.make_plan_ms", Median(plan_ms), "ms"},
      {"plan.share", Ratio(plan_sum, stage_sum), "1"},
      {"engine.enumerate_ms", Median(enum_ms), "ms"},
      {"engine.search_nodes", d(nodes), "count"},
      {"engine.candidate_sets_computed", d(computed), "count"},
      {"engine.sce_reuse_ratio", Ratio(d(reused), d(computed + reused)), "1"},
      {"engine.intersect_elements", d(intersect), "count"},
      {"engine.embeddings_per_node", Ratio(d(embeddings), d(nodes)), "1"},
      {"engine.embeddings_per_s", Ratio(d(embeddings), enum_sum_ms * 1e-3),
       "1/s"},
      {"engine.prune_candidates_removed", d(removed), "count"},
      {"engine.timeouts", d(timeouts), "count"},
      {"runtime.queue_wait_ms", Median(queue_ms), "ms"},
      {"runtime.exec_ms", Median(exec_ms), "ms"},
      {"runtime.queries_per_s", w.QueriesPerS(true), "1/s"},
      {"runtime.failed", d(rt_failed), "count"},
      {"runtime.timed_out", d(rt_timed_out), "count"},
      {"shard.plan_ms", Median(shard_plan), "ms"},
      {"shard.round_loop_ms", Median(loop_ms), "ms"},
      {"shard.busy_ratio", Ratio(busy_sum, 2 * loop_sum), "1"},
      {"shard.rounds", d(rounds), "count"},
      {"shard.tasks_routed", d(tasks), "count"},
      {"shard.frames_retried", d(retried), "count"},
      {"shard.worker_restarts", d(restarts), "count"},
  };
}

bool SameWork(const Exec& a, const Exec& b) {
  return a.embeddings == b.embeddings && a.search_nodes == b.search_nodes &&
         a.sets_computed == b.sets_computed && a.sets_reused == b.sets_reused &&
         a.intersect_elements == b.intersect_elements &&
         a.rounds == b.rounds && a.tasks_routed == b.tasks_routed;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Calibration calibration_start = Calibrate();
  GenerateOptions gen;
  gen.seed = args.seed;
  gen.small = args.small;
  gen.workdir = args.workdir;
  csce::Status st = w->Generate(gen);
  if (!st.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const size_t n = w->NumQueries();
  const int modes = args.trace ? 2 : 1;  // mode 1: traced
  Tracer tracer;

  // Set-up, repeated and rotated over the CPUs (threads it starts
  // inherit the pinning); the traced run alternates untraced and traced.
  const CpuRotation cpus;
  std::vector<double> setups[2];
  std::vector<double> setup_peaks[2];
  std::vector<double> loads;
  const int64_t setup_start = NowNs();
  for (int i = 0; i < kMaxSetUps * modes; ++i) {
    if (i >= kMinSetUps * modes && i % modes == 0 &&
        SecondsSince(setup_start) >= kSetUpSeconds * modes) {
      break;
    }
    const int mode = i % modes;
    double load_s = 0;
    cpus.Pin(i / modes);
    w->TearDown();
    TrimHeap();
    ResetPeakRss();
    const int64_t t0 = NowNs();
    st = w->SetUp(mode ? &tracer : nullptr, &load_s);
    setups[mode].push_back(SecondsSince(t0));
    setup_peaks[mode].push_back(PeakRssMb());
    loads.push_back(load_s);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  // Threads started by a set-up inherit its pinning, so the queries run
  // on one more, untimed set-up made with every CPU.
  cpus.Unpin();
  w->TearDown();
  double unused_load_s = 0;
  st = w->SetUp(nullptr, &unused_load_s);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  w->WarmUp();

  // Timed rounds. Round 0 runs every query; later rounds repeat the
  // queries cheap enough to repeat, at least four times and then until
  // the time is up. Each repeat round pins the calling thread to the
  // next CPU; a workload that asks for it has every thread pinned to
  // the next CPU in every round, round 0 included. The traced run
  // interleaves an untraced and a traced pass of every round so both see
  // the same host.
  Records records[2] = {Records(n), Records(n)};
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<uint32_t> repeatable;
  std::vector<double> round_s;
  TrimHeap();
  ResetPeakRss();
  const int64_t timed_start = NowNs();
  for (int r = 0;; ++r) {
    const bool time_up =
        r >= kMinRounds && SecondsSince(timed_start) >= args.seconds;
    if (r > 0 && (repeatable.empty() || time_up)) break;
    const std::vector<uint32_t>& round_ids = r == 0 ? ids : repeatable;
    if (w->PinAllThreads()) {
      cpus.PinAll(r);
    } else if (r > 0) {
      cpus.Pin(r - 1);
    }
    const int64_t round_start = NowNs();
    for (int mode = 0; mode < modes; ++mode) {
      std::vector<Exec> out;
      w->RunRound(round_ids, mode ? &tracer : nullptr, &out);
      for (size_t i = 0; i < round_ids.size(); ++i) {
        records[mode][round_ids[i]].push_back(std::move(out[i]));
      }
    }
    if (r == 0) {
      for (uint32_t id : ids) {
        if (records[0][id][0].latency_s <= w->RepeatBudgetS()) {
          repeatable.push_back(id);
        }
      }
    }
    round_s.push_back(SecondsSince(round_start));
  }
  const double timed_s = SecondsSince(timed_start);
  cpus.Unpin();
  const double query_peak_rss_mb = PeakRssMb();

  // Output checks: every completed execution must match the reference
  // count and repeat the work counters of the query's first completed
  // execution exactly.
  uint64_t attempted = 0, failed = 0;
  std::vector<const Exec*> first_done(n, nullptr);
  for (int mode = 0; mode < modes; ++mode) {
    for (uint32_t id = 0; id < n; ++id) {
      for (const Exec& e : records[mode][id]) {
        ++attempted;
        if (!e.ok) {
          ++failed;
          std::fprintf(stderr, "query %u failed: %s\n", id, e.error.c_str());
          continue;
        }
        if (e.timed_out) continue;
        uint64_t reference = 0;
        st = w->Reference(id, &reference);
        if (!st.ok() || e.embeddings != reference) {
          ++failed;
          std::fprintf(stderr, "query %u: %llu embeddings, reference %llu %s\n",
                       id, static_cast<unsigned long long>(e.embeddings),
                       static_cast<unsigned long long>(reference),
                       st.ToString().c_str());
          continue;
        }
        if (first_done[id] == nullptr) {
          first_done[id] = &e;
        } else if (!SameWork(*first_done[id], e)) {
          ++failed;
          std::fprintf(stderr, "query %u: work counters differ between runs\n",
                       id);
        }
      }
    }
  }

  // Per-query round-0 latency, timed-out flag and work counters,
  // compared across processes by `run.py --check`.
  JsonValue queries = JsonValue::Array();
  for (uint32_t id = 0; id < n; ++id) {
    const Exec& e = records[0][id][0];
    JsonValue q = JsonValue::Array();
    for (JsonValue v :
         {JsonValue(id), JsonValue(e.latency_s * 1e3), JsonValue(e.timed_out),
          JsonValue(e.embeddings), JsonValue(e.search_nodes),
          JsonValue(e.sets_computed), JsonValue(e.sets_reused),
          JsonValue(e.intersect_elements), JsonValue(e.rounds),
          JsonValue(e.tasks_routed)}) {
      q.Append(std::move(v));
    }
    queries.Append(std::move(q));
  }

  const double limit_s = w->TimeLimitS();
  const EndToEnd untraced =
      ComputeEndToEnd(records[0], setups[0], setup_peaks[0], limit_s);
  Metrics metrics;
  std::string trace_file;
  if (!args.trace) {
    metrics = EndToEndMetrics(untraced);
  } else {
    metrics = LayerMetrics(*w, records[1], loads);
    const Metrics plain = EndToEndMetrics(untraced);
    const Metrics traced = EndToEndMetrics(
        ComputeEndToEnd(records[1], setups[1], setup_peaks[1], limit_s));
    for (size_t i = 0; i < plain.size(); ++i) {
      metrics.push_back({"overhead." + plain[i].name,
                         traced[i].value - plain[i].value, plain[i].unit});
    }
    trace_file = args.workdir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    if (!tracer.Write(trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }
  const Calibration calibration_end = Calibrate();

  auto pair = [](double start, double end) {
    JsonValue v = JsonValue::Array();
    v.Append(start);
    v.Append(end);
    return v;
  };
  JsonValue env = JsonValue::Object();
  env.Set("workload", args.workload);
  env.Set("seed", args.seed);
  env.Set("git_sha", args.git_sha);
  env.Set("src_digest", args.src_digest);
  env.Set("compiler", PERFBENCH_COMPILER);
  env.Set("build_type", PERFBENCH_BUILD_TYPE);
  env.Set("cpu_model", CpuModel());
  env.Set("nproc", std::thread::hardware_concurrency());
  env.Set("setops_kernel",
          csce::setops::KernelName(csce::setops::ActiveKernel()));
  env.Set("alu_mops", pair(calibration_start.alu_mops,
                           calibration_end.alu_mops));
  env.Set("mem_mloads", pair(calibration_start.mem_mloads,
                             calibration_end.mem_mloads));
  JsonValue rounds = JsonValue::Array();
  for (double r : round_s) rounds.Append(r);
  JsonValue diagnostics = JsonValue::Object();
  diagnostics.Set("queries", static_cast<uint64_t>(n));
  diagnostics.Set("round_s", std::move(rounds));
  diagnostics.Set("repeated_queries",
                  static_cast<uint64_t>(repeatable.size()));
  diagnostics.Set("timed_s", timed_s);
  diagnostics.Set("set_ups", static_cast<uint64_t>(setups[0].size()));
  diagnostics.Set("setup_median_s", untraced.setup_median_s);
  diagnostics.Set("latency_p90_ms", untraced.latency_p90_ms);
  diagnostics.Set("latency_p99_ms", untraced.latency_p99_ms);
  diagnostics.Set("samples_beyond_p99", static_cast<uint64_t>(n / 100));
  diagnostics.Set("timeout_overshoot_ms", untraced.timeout_overshoot_ms);
  diagnostics.Set("embeddings_per_s", untraced.embeddings_per_s);
  diagnostics.Set("query_peak_rss_mb", query_peak_rss_mb);
  diagnostics.Set("queries_per_s", w->QueriesPerS(false));
  diagnostics.Set("trace_file", trace_file);
  JsonValue env_line = JsonValue::Object();
  env_line.Set("env", std::move(env));
  env_line.Set("diagnostics", std::move(diagnostics));
  std::printf("%s\n", env_line.Dump().c_str());

  JsonValue fields = JsonValue::Array();
  for (const char* f :
       {"id", "latency_ms", "timed_out", "embeddings", "search_nodes",
        "candidate_sets_computed", "candidate_sets_reused",
        "intersect_elements", "rounds", "tasks_routed"}) {
    fields.Append(f);
  }
  JsonValue work = JsonValue::Object();
  work.Set("limit_ms", limit_s * 1e3);
  work.Set("fields", std::move(fields));
  work.Set("queries", std::move(queries));
  JsonValue work_line = JsonValue::Object();
  work_line.Set("work", std::move(work));
  std::printf("%s\n", work_line.Dump().c_str());

  JsonValue metric_values = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue v = JsonValue::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    metric_values.Set(m.name, std::move(v));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metric_values));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--small]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
