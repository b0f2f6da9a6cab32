#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>

#include "audit/report_json.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "pubsub/message.h"

namespace perfbench {

using namespace adlp;

std::uint64_t NameSeed(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

bool StartPeakRssWindow() {
  malloc_trim(0);
  // Writing 5 resets VmHWM to the current RSS (Linux 4.0 and later).
  const int fd = open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool reset = write(fd, "5", 1) == 1;
  close(fd);
  return reset;
}

void SleepUntilNs(std::int64_t at_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(at_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(at_ns % 1'000'000'000);
  // steady_clock is CLOCK_MONOTONIC on Linux/libstdc++.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int cpu : cpus_) CPU_SET(cpu, &allowed);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

ProcSample ProcSample::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.user_ns = static_cast<std::int64_t>(ru.ru_utime.tv_sec) * 1'000'000'000 +
              static_cast<std::int64_t>(ru.ru_utime.tv_usec) * 1000;
  s.sys_ns = static_cast<std::int64_t>(ru.ru_stime.tv_sec) * 1'000'000'000 +
             static_cast<std::int64_t>(ru.ru_stime.tv_usec) * 1000;
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return s;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t TransportTxBytes() {
  std::uint64_t total = 0;
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name != "adlp_transport_bytes_total") continue;
    for (const auto& [key, value] : c.labels) {
      if (key == "dir" && value == "tx") total += c.value;
    }
  }
  return total;
}

namespace {

/// Median wall time of `reps` calls of `fn`, in microseconds. Calls far
/// shorter than a clock read are timed in batches of about 20 us.
double MedianCallUs(int reps, const std::function<void()>& fn) {
  const std::int64_t w0 = NowNs();
  fn();
  const std::int64_t once = std::max<std::int64_t>(1, NowNs() - w0);
  const std::int64_t batch =
      std::clamp<std::int64_t>(20'000 / once, 1, 10'000);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    for (std::int64_t b = 0; b < batch; ++b) fn();
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3 /
                 static_cast<double>(batch));
  }
  return Median(std::move(us));
}

}  // namespace

void CalibrateCalls(const Bytes& payload, const proto::LogEntry& entry,
                    const crypto::SigKeyPair& keys, RunResult& out) {
  // Repetitions sized so each row takes a few tens of milliseconds.
  const int reps = payload.size() > 100'000 ? 15 : 301;
  volatile std::uint8_t sink = 0;

  out.metrics["crypto.sha256_payload_us"] = MedianCallUs(reps, [&] {
    sink = sink ^ crypto::Sha256Digest(payload)[0];
  });
  out.metrics["common.payload_copy_us"] = MedianCallUs(reps, [&] {
    Bytes copy = payload;
    sink = sink ^ copy[copy.size() / 2];
  });
  pubsub::Message message;
  message.header.topic = entry.topic;
  message.header.publisher = entry.component;
  message.header.seq = entry.seq;
  message.header.stamp = entry.message_stamp;
  message.payload = payload;
  out.metrics["wire.serialize_message_us"] = MedianCallUs(reps, [&] {
    sink = sink ^ static_cast<std::uint8_t>(
                      pubsub::SerializeMessage(message).size());
  });
  const Bytes record = proto::SerializeLogEntry(entry);
  out.metrics["adlp.serialize_entry_us"] = MedianCallUs(reps, [&] {
    sink = sink ^ static_cast<std::uint8_t>(
                      proto::SerializeLogEntry(entry).size());
  });
  out.metrics["adlp.deserialize_entry_us"] = MedianCallUs(reps, [&] {
    sink = sink ^ static_cast<std::uint8_t>(
                      proto::DeserializeLogEntry(record).seq);
  });

  // Sign and batch-verify 256 distinct digests under the workload's key.
  constexpr int kBatch = 256;
  std::vector<crypto::Digest> digests;
  std::vector<Bytes> signatures;
  std::vector<double> sign_us;
  for (int i = 0; i < kBatch; ++i) {
    Bytes seed = BytesOf("perfbench-calibration-" + std::to_string(i));
    digests.push_back(crypto::Sha256Digest(seed));
    const std::int64_t t0 = NowNs();
    signatures.push_back(crypto::SignDigest(keys.priv, digests.back()));
    sign_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  out.metrics["crypto.sign_us"] = Median(std::move(sign_us));
  std::vector<crypto::VerifyRequest> requests;
  for (int i = 0; i < kBatch; ++i) {
    requests.push_back({&keys.pub, digests[static_cast<std::size_t>(i)],
                        signatures[static_cast<std::size_t>(i)]});
  }
  bool all_ok = true;
  out.metrics["crypto.verify_batch_us_per_sig"] =
      MedianCallUs(3, [&] {
        for (std::uint8_t ok : crypto::VerifyDigestBatch(requests)) {
          all_ok = all_ok && ok != 0;
        }
      }) /
      kBatch;
  if (!all_ok) out.Fail("calibration: a genuine signature failed to verify");
}

void AddLatency(const std::string& prefix, const std::vector<double>& ms,
                RunResult& out) {
  const Percentile p50 = NearestRank(ms, 0.50);
  const Percentile p90 = NearestRank(ms, 0.90);
  out.metrics[prefix + "_p50_ms"] = p50.value;
  out.metrics[prefix + "_p90_ms"] = p90.value;
  out.samples[prefix + "_p50_ms"] = p50.samples;
  out.samples[prefix + "_p90_ms"] = p90.samples;
  if (!p90.Trusted()) {
    out.notes.push_back("warning: " + prefix + "_p90_ms has only " +
                        std::to_string(p90.beyond) +
                        " samples beyond it (want >= 10)");
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string JsonString(const std::string& s) { return audit::JsonQuote(s); }

std::map<std::string, std::string> HardwareStamp() {
  std::map<std::string, std::string> stamp;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string flags;
  while (std::getline(in, line)) {
    if (stamp["cpu_model"].empty() && line.rfind("model name", 0) == 0) {
      stamp["cpu_model"] = line.substr(line.find(':') + 2);
    }
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = line + " ";
  }
  for (const char* flag : {"sha_ni", "avx2", "avx512f"}) {
    stamp[flag] =
        flags.find(std::string(" ") + flag + " ") != std::string::npos
            ? "yes"
            : "no";
  }
  stamp["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  stamp["compiler"] = PERFBENCH_COMPILER;
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  return stamp;
}

}  // namespace perfbench
