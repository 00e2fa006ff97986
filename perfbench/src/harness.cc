#include "harness.h"

#include <malloc.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include "obs/json.h"

namespace perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void TrimHeap() { malloc_trim(0); }

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

int32_t Tracer::Begin(const char* name, uint32_t query) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(
      {name, NowNs(), 0, open_.empty() ? -1 : open_.back(), query});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  using csce::obs::JsonValue;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  JsonValue events = JsonValue::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue args = JsonValue::Object();
    args.Set("id", static_cast<uint64_t>(i));
    args.Set("parent", static_cast<int64_t>(s.parent));
    args.Set("query", s.query);
    JsonValue event = JsonValue::Object();
    event.Set("name", s.name);
    event.Set("ph", "X");
    event.Set("pid", 1);
    event.Set("tid", 1);
    event.Set("ts", static_cast<double>(s.start_ns - origin) * 1e-3);
    event.Set("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  return static_cast<bool>(out);
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
}

namespace {

// Thread ids of this process; a thread that exits meanwhile is skipped
// by sched_setaffinity failing on it.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(
        static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  return tids;
}

cpu_set_t OneCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return one;
}

}  // namespace

void CpuRotation::Pin(size_t i) const {
  if (cpus_.empty()) return;
  const cpu_set_t one = OneCpu(cpus_[i % cpus_.size()]);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

void CpuRotation::PinAll(size_t i) const {
  if (cpus_.empty()) return;
  const cpu_set_t one = OneCpu(cpus_[i % cpus_.size()]);
  for (pid_t tid : ThreadIds()) {
    (void)sched_setaffinity(tid, sizeof(one), &one);
  }
}

void CpuRotation::Unpin() const {
  if (cpus_.empty()) return;
  for (pid_t tid : ThreadIds()) {
    (void)sched_setaffinity(tid, sizeof(allowed_), &allowed_);
  }
}

Calibration Calibrate() {
  Calibration c;
  {
    constexpr uint64_t kSteps = 20'000'000;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < kSteps; ++i) {
      x = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ull + i;
      asm volatile("" : "+r"(x));  // keeps the loop between the clock reads
    }
    c.alu_mops = static_cast<double>(kSteps) / SecondsSince(t0) / 1e6;
  }
  {
    // One random cycle over 32 MiB (Sattolo's shuffle), walked by
    // dependent loads: a latency-bound probe of the memory system.
    constexpr size_t kSlots = (32u << 20) / sizeof(uint32_t);
    constexpr uint64_t kLoads = 2'000'000;
    std::unique_ptr<uint32_t[]> next(new uint32_t[kSlots]);
    for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
    uint64_t r = 88172645463325252ull;
    for (size_t i = kSlots - 1; i > 0; --i) {
      r ^= r << 13;
      r ^= r >> 7;
      r ^= r << 17;
      std::swap(next[i], next[r % i]);
    }
    uint32_t at = 0;
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < kLoads; ++i) {
      at = next[at];
      asm volatile("" : "+r"(at));
    }
    c.mem_mloads = static_cast<double>(kLoads) / SecondsSince(t0) / 1e6;
  }
  return c;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
