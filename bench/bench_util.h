// Shared helpers for the benchmark harness: sample statistics, table
// printing, and pre-generated RSA-1024 identities (matching the paper's key
// size so signature/message byte counts line up with Tables I and III).
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "adlp/component.h"
#include "adlp/log_server.h"
#include "audit/report_json.h"
#include "common/clock.h"
#include "common/rng.h"
#include "pubsub/master.h"

namespace adlp::bench {

struct SampleStats {
  double mean = 0.0;
  double stdev = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

inline SampleStats ComputeStats(std::vector<double> samples) {
  SampleStats s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / samples.size();
  double var = 0.0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stdev = samples.size() > 1 ? std::sqrt(var / (samples.size() - 1)) : 0.0;
  s.p50 = samples[samples.size() / 2];
  s.p99 = samples[static_cast<std::size_t>(
      static_cast<double>(samples.size() - 1) * 0.99)];
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

/// Times `fn` `iterations` times; returns per-call durations in
/// milliseconds.
template <typename Fn>
std::vector<double> TimeSamplesMs(std::size_t iterations, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const Timestamp start = MonotonicNowNs();
    fn();
    samples.push_back(static_cast<double>(MonotonicNowNs() - start) / 1e6);
  }
  return samples;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Human-readable byte count.
inline std::string HumanBytes(double bytes) {
  char buf[64];
  if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// Writes `"hardware": {cpu_model, nproc, sha_ni, avx2}` into the object
/// `e` has open, from /proc/cpuinfo (the fields perfbench stamps). One CPU
/// flag moves hash-bound numbers several-fold, so
/// tools/check_bench_json.py --compare refuses two stamps that disagree on
/// sha_ni.
inline void EmitHardwareStamp(audit::JsonEmitter& e) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model;
  std::string flags;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t value = line.find_first_not_of(" \t", colon + 1);
    const std::string rest =
        value == std::string::npos ? "" : line.substr(value);
    if (model.empty() && line.rfind("model name", 0) == 0) model = rest;
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = " " + rest + " ";
  }
  const auto has = [&flags](const char* flag) {
    return flags.find(std::string(" ") + flag + " ") != std::string::npos;
  };
  e.OpenObject("hardware");
  e.StringField("cpu_model", model);
  e.NumberField("nproc",
                static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  e.Field("sha_ni", has("sha_ni") ? "true" : "false");
  e.Field("avx2", has("avx2") ? "true" : "false");
  e.CloseObject();
}

/// Component options preset for benches: 1024-bit keys as in the paper.
inline proto::ComponentOptions PaperOptions(
    proto::LoggingScheme scheme = proto::LoggingScheme::kAdlp) {
  proto::ComponentOptions opts;
  opts.scheme = scheme;
  opts.rsa_bits = 1024;
  return opts;
}

inline const char* SchemeLabel(proto::LoggingScheme scheme) {
  switch (scheme) {
    case proto::LoggingScheme::kNone: return "No Logging";
    case proto::LoggingScheme::kBase: return "Base Logging";
    case proto::LoggingScheme::kAdlp: return "ADLP";
  }
  return "?";
}

}  // namespace adlp::bench
