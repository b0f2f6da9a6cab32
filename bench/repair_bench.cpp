// repair_bench — anti-entropy repair throughput and time-to-quorum-
// reconvergence of the replicated logger fleet.
//
// A 3-replica fleet is seeded so that `behind` replicas (1 or 2) hold
// nothing while the healthy remainder holds --entries sealed records. The
// behind replicas then repair over real localhost TCP through the sync
// protocol (signed roots -> consistency gate -> verified ranges -> sampled
// inclusion proofs -> verify-then-commit), all at once. Wall time from
// repair start until EVERY replica is byte-identical (size, root) is the
// time-to-quorum-reconvergence; records/s repaired is the aggregate
// verified-append rate across the behind replicas.
//
// Output: BENCH_repair.json (schema-checked and baseline-gated by
// tools/check_bench_json.py; the repair throughput rows are what regress —
// reconvergence absolutes include TCP and scheduling noise and are only
// reported).
//
//   repair_bench [--entries N] [--reps R] [--payload BYTES]
//                [--seal-every K] [--out FILE]
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
#include "adlp/repair.h"
#include "audit/report_json.h"
#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"

using namespace adlp;

namespace {

constexpr std::size_t kReplicas = 3;

struct RunResult {
  double wall_ms = 0.0;
  std::uint64_t records_repaired = 0;
  bool converged = false;
  bool clean = false;  // no repair findings against honest peers
};

/// One timed repetition: fresh fleet, `behind` empty replicas repairing
/// from the healthy remainder concurrently.
RunResult RunOnce(std::size_t behind, std::size_t entries,
                  std::size_t payload_bytes, std::uint64_t seal_every) {
  proto::LogServerOptions server_options;
  server_options.seal_every = seal_every;

  std::deque<proto::LogServer> servers;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    servers.emplace_back(server_options);
  }

  // Seed the healthy replicas [behind, kReplicas) with identical tagged,
  // sealed histories — the state a live fleet has after the upload legs
  // delivered and the epochs sealed.
  Rng rng(0x9e9a ^ entries);
  for (std::uint64_t seq = 1; seq <= entries; ++seq) {
    proto::LogEntry entry;
    entry.component = "bench";
    entry.topic = "t";
    entry.seq = seq;
    entry.timestamp = static_cast<Timestamp>(1000 + seq);
    entry.data = rng.RandomBytes(payload_bytes);
    for (std::size_t i = behind; i < kReplicas; ++i) {
      servers[i].ApplyTaggedEntry("fleet-sink", seq, entry);
    }
  }
  for (std::size_t i = behind; i < kReplicas; ++i) servers[i].SealEpoch();

  std::vector<std::unique_ptr<proto::LogServerService>> services;
  std::vector<std::uint16_t> healthy_ports;
  for (std::size_t i = behind; i < kReplicas; ++i) {
    services.push_back(
        std::make_unique<proto::LogServerService>(servers[i], 0));
    healthy_ports.push_back(services.back()->Port());
  }

  std::vector<std::unique_ptr<proto::RepairAgent>> agents;
  for (std::size_t i = 0; i < behind; ++i) {
    proto::RepairAgentOptions options;
    options.seal_key = servers[i].SealKey();
    for (std::size_t p = 0; p < healthy_ports.size(); ++p) {
      options.peers.push_back(proto::TcpRepairPeer(
          "replica-" + std::to_string(behind + p), healthy_ports[p]));
    }
    agents.push_back(
        std::make_unique<proto::RepairAgent>(servers[i], options));
  }

  RunResult result;
  const Timestamp start = MonotonicNowNs();
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < behind; ++i) {
    workers.emplace_back([&, i] {
      while (servers[i].EntryCount() < entries) {
        if (agents[i]->RunOnce() == 0) break;  // converged or rejected
      }
    });
  }
  for (auto& worker : workers) worker.join();
  result.wall_ms = static_cast<double>(MonotonicNowNs() - start) / 1e6;

  result.converged = true;
  result.clean = true;
  const auto reference_roots = servers[kReplicas - 1].EpochRoots();
  for (std::size_t i = 0; i < kReplicas; ++i) {
    if (servers[i].EntryCount() != entries ||
        servers[i].MerkleRoot() != servers[kReplicas - 1].MerkleRoot()) {
      result.converged = false;
    }
    const auto roots = servers[i].EpochRoots();
    if (roots.size() != reference_roots.size()) {
      result.converged = false;
      continue;
    }
    for (std::size_t e = 0; e < roots.size(); ++e) {
      if (roots[e].tree_size != reference_roots[e].tree_size ||
          roots[e].root != reference_roots[e].root) {
        result.converged = false;
      }
    }
  }
  for (const auto& agent : agents) {
    result.records_repaired += agent->Stats().records_repaired;
    if (!agent->Findings().empty()) result.clean = false;
  }
  for (auto& service : services) service->Shutdown();
  return result;
}

int Usage() {
  std::fprintf(stderr,
               "usage: repair_bench [--entries N] [--reps R] "
               "[--payload BYTES] [--seal-every K] [--out FILE]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t entries = 4000;
  std::size_t reps = 3;
  std::size_t payload_bytes = 64;
  std::size_t seal_every = 64;
  std::string out_path = "BENCH_repair.json";

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
    } else if (std::strcmp(argv[i], "--seal-every") == 0) {
      if (!next(seal_every) || seal_every == 0) return Usage();
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }

  bench::PrintHeader(
      "anti-entropy repair: Merkle-verified peer fetch over TCP");
  std::printf("%zu entries x %zu reps, %zu-byte payloads, seal every %zu\n\n",
              entries, reps, payload_bytes, seal_every);
  std::printf("%7s %12s %16s %16s %15s\n", "behind", "wall ms",
              "records/sec", "best rec/s", "reconverge ms");
  bench::PrintRule();

  struct Row {
    std::size_t behind = 0;
    bench::SampleStats wall;
    std::uint64_t records_per_rep = 0;
    bool converged = true;
    bool clean = true;
  };
  std::vector<Row> rows;
  bool all_converged = true;
  bool all_clean = true;

  for (const std::size_t behind : {std::size_t{1}, std::size_t{2}}) {
    Row row;
    row.behind = behind;
    std::vector<double> wall_samples;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const RunResult run =
          RunOnce(behind, entries, payload_bytes, seal_every);
      wall_samples.push_back(run.wall_ms);
      row.records_per_rep = run.records_repaired;
      row.converged &= run.converged;
      row.clean &= run.clean;
    }
    row.wall = bench::ComputeStats(wall_samples);
    all_converged &= row.converged;
    all_clean &= row.clean;

    const double per_sec = static_cast<double>(row.records_per_rep) /
                           (row.wall.mean / 1e3);
    const double best = static_cast<double>(row.records_per_rep) /
                        (row.wall.min / 1e3);
    std::printf("%7zu %12.2f %16.0f %16.0f %15.2f%s\n", row.behind,
                row.wall.mean, per_sec, best, row.wall.mean,
                row.converged && row.clean ? "" : "  FAILED");
    rows.push_back(row);
  }

  const bool repair_ok = all_converged && all_clean;
  std::printf("\nall converged: %s   no findings: %s\n",
              all_converged ? "yes" : "NO", all_clean ? "yes" : "NO");

  audit::JsonEmitter e(/*pretty=*/true);
  char buf[64];
  e.OpenObject();
  bench::EmitHardwareStamp(e);
  e.OpenObject("config");
  e.NumberField("entries", entries);
  e.NumberField("reps", reps);
  e.NumberField("payload_bytes", payload_bytes);
  e.NumberField("seal_every", seal_every);
  e.NumberField("replicas", kReplicas);
  e.CloseObject();
  e.OpenArray("results");
  for (const Row& row : rows) {
    e.OpenObject();
    e.NumberField("behind", row.behind);
    e.NumberField("records_repaired", row.records_per_rep);
    std::snprintf(buf, sizeof(buf), "%.3f", row.wall.mean);
    e.Field("wall_ms", buf);
    std::snprintf(buf, sizeof(buf), "%.0f",
                  static_cast<double>(row.records_per_rep) /
                      (row.wall.mean / 1e3));
    e.Field("repair_records_per_sec", buf);
    std::snprintf(buf, sizeof(buf), "%.0f",
                  static_cast<double>(row.records_per_rep) /
                      (row.wall.min / 1e3));
    e.Field("repair_records_per_sec_best", buf);
    std::snprintf(buf, sizeof(buf), "%.3f", row.wall.mean);
    e.Field("reconverge_ms", buf);
    e.Field("converged", row.converged ? "true" : "false");
    e.Field("clean", row.clean ? "true" : "false");
    e.CloseObject();
  }
  e.CloseArray();
  e.OpenObject("gate");
  e.Field("all_converged", all_converged ? "true" : "false");
  e.Field("no_findings", all_clean ? "true" : "false");
  e.CloseObject();
  e.Field("repair_ok", repair_ok ? "true" : "false");
  e.CloseObject();

  std::ofstream out(out_path);
  out << std::move(e).Take() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!repair_ok) {
    std::fprintf(stderr, "repair_bench: FAILURE — %s\n",
                 all_converged ? "a repair round produced findings"
                               : "a replica failed to converge");
    return 1;
  }
  return 0;
}
