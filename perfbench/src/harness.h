#ifndef CSCE_PERFBENCH_HARNESS_H_
#define CSCE_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: clocks, order
// statistics, resident-memory marks, in-memory span tracing and host
// calibration.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// Percentile `p` in [0, 100] by linear interpolation between closest
/// ranks (numpy's default); 0 if empty.
double Percentile(std::vector<double> v, double p);

/// Resident-memory high-water marks. ResetPeakRss() restarts the
/// kernel's mark at the current RSS (/proc/self/clear_refs); PeakRssMb()
/// reads it back (VmHWM). Where the reset is not permitted the mark
/// covers the whole process lifetime. TrimHeap() returns free heap
/// pages to the kernel, so the marks start from live data.
void TrimHeap();
void ResetPeakRss();
double PeakRssMb();

/// Spans recorded in memory and written once at the end of a run, in
/// Chrome trace-event format. A span opened while another is open
/// becomes its child; spans of one query share its id.
class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t query);
  void End(int32_t id);
  /// Writes every span; false on I/O failure.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint32_t query;
  };
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths
/// share the instrumented ones without paying for them.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t query)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Pins the calling thread to one CPU of the set the process started
/// with, in turn. A shared host slows single vCPUs for seconds at a
/// time, so repeats spread over every CPU, reduced to their fastest,
/// leave the slowed ones out. Threads inherit the pinning of the thread
/// that creates them.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins the calling thread to the (i mod n)-th allowed CPU.
  void Pin(size_t i) const;
  /// Pins every thread of the process to the (i mod n)-th allowed CPU.
  void PinAll(size_t i) const;
  /// Restores the starting CPU set of every thread of the process.
  void Unpin() const;

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Host speed probes, taken at the start and the end of a run so a
/// reader can tell host drift from a program change. Diagnostics only.
struct Calibration {
  double alu_mops = 0;    // dependent integer multiply-xor steps, 1e6/s
  double mem_mloads = 0;  // dependent random loads over 32 MiB, 1e6/s
};
Calibration Calibrate();

/// An ordered list of named metrics with units, printed as the result
/// line's `metrics` object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// First "model name" of /proc/cpuinfo, or "unknown".
std::string CpuModel();

}  // namespace perfbench

#endif  // CSCE_PERFBENCH_HARNESS_H_
