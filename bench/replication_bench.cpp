// replication_bench — quorum-ack commit throughput and latency of the
// replicated logger fleet vs a single logger.
//
// For each fleet size (default 1, 3, 5 replicas; majority write quorum) the
// bench appends --entries log entries through a ReplicatedLogSink backed by
// real LogServerService replicas over localhost TCP, then waits for the
// quorum commit watermark to cover every frame. Wall time measures the
// pipelined commit throughput; a poller thread samples the advancing
// watermark to attribute a commit latency to each seq (append -> quorum
// ack, resolution = the polling interval). After the timed run every
// replica must converge to the full entry count — quorum acks the fast
// majority, but the slow minority still has to catch up.
//
// Output: BENCH_replication.json (schema-checked and baseline-gated by
// tools/check_bench_json.py; the throughput rows are what regress —
// latency absolutes are machine-dependent and only reported).
//
//   replication_bench [--entries N] [--reps R] [--payload BYTES]
//                     [--fleets "1,3,5"] [--out FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adlp/log_server.h"
#include "adlp/remote_log.h"
#include "adlp/replicated_log.h"
#include "audit/report_json.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "transport/reconnect.h"
#include "transport/tcp.h"

using namespace adlp;

namespace {

struct RunResult {
  double wall_ms = 0.0;
  std::vector<double> latency_ns;  // one sample per committed seq
  bool committed = false;          // DrainCommitted within the timeout
  bool converged = false;          // every replica reached the full count
};

/// One timed repetition against an existing fleet. A fresh sink_id per rep
/// keeps the servers' per-sink dedup watermarks from swallowing the new
/// frames (each rep is a new logical uploader).
RunResult RunOnce(std::deque<proto::LogServer>& servers,
                  const std::vector<proto::ReplicatedLogSink::Connector>&
                      connectors,
                  const std::string& sink_id, std::size_t entries,
                  std::size_t payload_bytes, std::size_t expected_per_server) {
  proto::ReplicatedLogSinkOptions options;
  options.sink_id = sink_id;
  options.replica.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.replica.connect = transport::TcpConnectOptions{1, 200, 10, 50};
  proto::ReplicatedLogSink sink(connectors, options);

  Rng rng(0xbe9c ^ entries);
  std::vector<proto::LogEntry> batch;
  batch.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    proto::LogEntry entry;
    entry.component = "bench";
    entry.topic = "t";
    entry.seq = i;
    entry.timestamp = static_cast<Timestamp>(1000 + i);
    entry.data = rng.RandomBytes(payload_bytes);
    batch.push_back(std::move(entry));
  }

  RunResult result;
  std::vector<Timestamp> sent(entries + 2, 0);
  std::atomic<std::uint64_t> last_seq{0};
  std::atomic<bool> done{false};

  // Watermark poller: stamps each seq's commit as soon as the quorum
  // watermark passes it. 50 us polling bounds the attribution error.
  std::thread poller([&] {
    std::uint64_t seen = 0;
    std::vector<double> samples;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t committed = sink.CommittedSeq();
      const Timestamp now = MonotonicNowNs();
      for (std::uint64_t seq = seen + 1; seq <= committed; ++seq) {
        if (seq < sent.size() && sent[seq] != 0) {
          samples.push_back(static_cast<double>(now - sent[seq]));
        }
      }
      seen = committed;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    result.latency_ns = std::move(samples);
  });

  const Timestamp start = MonotonicNowNs();
  for (const auto& entry : batch) {
    const Timestamp now = MonotonicNowNs();
    const std::uint64_t seq = sink.AppendSeq(entry);
    if (seq < sent.size()) sent[seq] = now;
    last_seq.store(seq, std::memory_order_release);
  }
  result.committed = sink.DrainCommitted(std::chrono::seconds(30));
  result.wall_ms = static_cast<double>(MonotonicNowNs() - start) / 1e6;
  done.store(true, std::memory_order_release);
  poller.join();

  // Quorum committed the fast majority; the stragglers still converge.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  result.converged = true;
  for (auto& server : servers) {
    while (server.EntryCount() < expected_per_server) {
      if (std::chrono::steady_clock::now() >= deadline) {
        result.converged = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return result;
}

double PercentileUs(std::vector<double> ns_samples, double q) {
  if (ns_samples.empty()) return 0.0;
  std::sort(ns_samples.begin(), ns_samples.end());
  const std::size_t index = static_cast<std::size_t>(
      static_cast<double>(ns_samples.size() - 1) * q);
  return ns_samples[index] / 1e3;
}

int Usage() {
  std::fprintf(stderr,
               "usage: replication_bench [--entries N] [--reps R] "
               "[--payload BYTES] [--fleets \"1,3,5\"] [--out FILE]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t entries = 4000;
  std::size_t reps = 3;
  std::size_t payload_bytes = 64;
  std::vector<std::size_t> fleets = {1, 3, 5};
  std::string out_path = "BENCH_replication.json";

  for (int i = 1; i < argc; ++i) {
    auto next = [&](std::size_t& slot) {
      if (i + 1 >= argc) return false;
      slot = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      return true;
    };
    if (std::strcmp(argv[i], "--entries") == 0) {
      if (!next(entries) || entries == 0) return Usage();
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      if (!next(reps) || reps == 0) return Usage();
    } else if (std::strcmp(argv[i], "--payload") == 0) {
      if (!next(payload_bytes)) return Usage();
    } else if (std::strcmp(argv[i], "--fleets") == 0 && i + 1 < argc) {
      fleets.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const std::size_t n =
            static_cast<std::size_t>(std::strtoull(p, &end, 10));
        if (end == p || n == 0) return Usage();
        fleets.push_back(n);
        p = *end == ',' ? end + 1 : end;
      }
      if (fleets.empty()) return Usage();
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }

  bench::PrintHeader("replicated logger: quorum-ack commit vs single logger");
  std::printf("%zu entries x %zu reps, %zu-byte payloads\n\n", entries, reps,
              payload_bytes);
  std::printf("%9s %7s %12s %14s %14s %12s %12s\n", "replicas", "quorum",
              "wall ms", "entries/sec", "best e/s", "commit p50", "commit p99");
  bench::PrintRule();

  struct Row {
    std::size_t replicas = 0;
    std::size_t quorum = 0;
    bench::SampleStats wall;
    double p50_us = 0.0;
    double p99_us = 0.0;
    bool committed = true;
    bool converged = true;
  };
  std::vector<Row> rows;
  bool all_committed = true;
  bool all_converged = true;

  for (const std::size_t n : fleets) {
    std::deque<proto::LogServer> servers;
    std::vector<std::unique_ptr<proto::LogServerService>> services;
    std::vector<proto::ReplicatedLogSink::Connector> connectors;
    for (std::size_t i = 0; i < n; ++i) {
      servers.emplace_back();
      services.push_back(
          std::make_unique<proto::LogServerService>(servers[i], 0));
      const std::uint16_t port = services[i]->Port();
      connectors.push_back([port]() {
        return transport::TryTcpConnect(
            port, transport::TcpConnectOptions{1, 200, 10, 50});
      });
    }

    Row row;
    row.replicas = n;
    row.quorum = n / 2 + 1;
    std::vector<double> wall_samples;
    std::vector<double> latency_ns;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const RunResult run =
          RunOnce(servers, connectors, "bench-rep-" + std::to_string(rep),
                  entries, payload_bytes, entries * (rep + 1));
      wall_samples.push_back(run.wall_ms);
      latency_ns.insert(latency_ns.end(), run.latency_ns.begin(),
                        run.latency_ns.end());
      row.committed &= run.committed;
      row.converged &= run.converged;
    }
    row.wall = bench::ComputeStats(wall_samples);
    row.p50_us = PercentileUs(latency_ns, 0.50);
    row.p99_us = PercentileUs(latency_ns, 0.99);
    all_committed &= row.committed;
    all_converged &= row.converged;

    const double per_sec =
        static_cast<double>(entries) / (row.wall.mean / 1e3);
    const double best =
        static_cast<double>(entries) / (row.wall.min / 1e3);
    std::printf("%9zu %7zu %12.2f %14.0f %14.0f %10.0fus %10.0fus%s\n",
                row.replicas, row.quorum, row.wall.mean, per_sec, best,
                row.p50_us, row.p99_us,
                row.committed && row.converged ? "" : "  FAILED");
    rows.push_back(row);
    for (auto& service : services) service->Shutdown();
  }

  const bool replication_ok = all_committed && all_converged;
  std::printf("\nall committed: %s   all converged: %s\n",
              all_committed ? "yes" : "NO", all_converged ? "yes" : "NO");

  audit::JsonEmitter e(/*pretty=*/true);
  char buf[64];
  e.OpenObject();
  bench::EmitHardwareStamp(e);
  e.OpenObject("config");
  e.NumberField("entries", entries);
  e.NumberField("reps", reps);
  e.NumberField("payload_bytes", payload_bytes);
  e.CloseObject();
  e.OpenArray("results");
  for (const Row& row : rows) {
    e.OpenObject();
    e.NumberField("replicas", row.replicas);
    e.NumberField("quorum", row.quorum);
    std::snprintf(buf, sizeof(buf), "%.3f", row.wall.mean);
    e.Field("wall_ms", buf);
    std::snprintf(buf, sizeof(buf), "%.0f",
                  static_cast<double>(entries) / (row.wall.mean / 1e3));
    e.Field("entries_per_sec", buf);
    std::snprintf(buf, sizeof(buf), "%.0f",
                  static_cast<double>(entries) / (row.wall.min / 1e3));
    e.Field("entries_per_sec_best", buf);
    std::snprintf(buf, sizeof(buf), "%.1f", row.p50_us);
    e.Field("commit_p50_us", buf);
    std::snprintf(buf, sizeof(buf), "%.1f", row.p99_us);
    e.Field("commit_p99_us", buf);
    e.Field("committed", row.committed ? "true" : "false");
    e.Field("converged", row.converged ? "true" : "false");
    e.CloseObject();
  }
  e.CloseArray();
  e.OpenObject("gate");
  e.Field("all_committed", all_committed ? "true" : "false");
  e.Field("all_converged", all_converged ? "true" : "false");
  e.CloseObject();
  e.Field("replication_ok", replication_ok ? "true" : "false");
  e.CloseObject();

  std::ofstream out(out_path);
  out << std::move(e).Take() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!replication_ok) {
    std::fprintf(stderr,
                 "replication_bench: FAILURE — %s\n",
                 all_committed ? "a replica failed to converge"
                               : "quorum commit timed out");
    return 1;
  }
  return 0;
}
