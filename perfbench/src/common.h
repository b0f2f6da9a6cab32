// Shared plumbing of the benchmark program: clocks, process counters, the
// per-run result, calibration of single library calls, and JSON output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adlp/log_entry.h"
#include "bench_stats.h"
#include "common/bytes.h"
#include "crypto/sig.h"

namespace perfbench {

using adlp::Bytes;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stable 64-bit hash of a name (FNV-1a), for deterministic per-name seeds.
std::uint64_t NameSeed(const std::string& name);

/// Starts the window PeakRssMb() covers: returns freed memory to the OS and
/// resets the kernel's high-water mark to the current RSS, so the peak
/// measures the timed part and not the set-up repetitions before it. False
/// when the mark could not be reset.
[[nodiscard]] bool StartPeakRssWindow();

/// Sleeps until the steady-clock instant `at_ns` (no busy wait).
void SleepUntilNs(std::int64_t at_ns);

/// Moves the calling thread to the next of the CPUs it was allowed at
/// construction on each Next(), and gives it back its whole mask when
/// destroyed. A single-threaded timed loop left where the scheduler put it
/// stays on one vCPU for tens of seconds, and on a shared host the vCPUs
/// differ in speed for as long; taking turns, every run samples all of
/// them alike.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Process-wide counters from getrusage (all threads).
struct ProcSample {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t ctx_switches = 0;
  static ProcSample Now();
  std::int64_t CpuNs() const { return user_ns + sys_ns; }
};

/// VmHWM of this process in MB (10^6 bytes).
double PeakRssMb();

/// Sum of the adlp_transport_bytes_total{dir="tx"} counters (all kinds).
std::uint64_t TransportTxBytes();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Scratch directory inside the checkout (log files, results, traces).
  std::string workdir;
};

/// Outcome of one measured run of one workload.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every metric measured: the end-to-end ones, and in a traced run the
  /// layer ones. BENCHMARK.json names the ones the benchmark reports.
  std::map<std::string, double> metrics;
  /// CPU per log entry over the part of the run that tracing instruments:
  /// the timed window of a live workload, the capture of forensic_audit.
  /// bench.trace_overhead_pct compares it between the traced and the
  /// untraced half.
  double instrumented_cpu_us_per_entry = 0.0;
  /// Sample count behind each percentile metric.
  std::map<std::string, std::size_t> samples;
  /// Oracle failures and warnings, one line each.
  std::vector<std::string> notes;
  /// "Where the time went" breakdown (traced live runs), one line each.
  std::vector<std::string> breakdown;
  std::vector<std::string> span_names;
  std::vector<Span> spans;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// Times the single library calls a workload's payload and key go through
/// (the calibration rows of the traced run) into `out.metrics`.
void CalibrateCalls(const Bytes& payload, const adlp::proto::LogEntry& entry,
                    const adlp::crypto::SigKeyPair& keys, RunResult& out);

/// Adds p50 and p90 of `ms_samples` as `<prefix>_p50_ms`/`<prefix>_p90_ms`.
void AddLatency(const std::string& prefix, const std::vector<double>& ms_samples,
                RunResult& out);

std::string JsonNumber(double value);
std::string JsonString(const std::string& s);

/// CPU model, core count, ISA flags, compiler and build type.
std::map<std::string, std::string> HardwareStamp();

}  // namespace perfbench
