// audit_bench — throughput of the offline audit (Auditor::Audit, a replay
// of the log through StreamingAuditor split into topic partitions) by
// thread count.
//
// Builds a synthetic fleet (a relay chain, every transmission faithfully
// logged on both sides), audits the resulting LogDatabase at each thread
// count, checks that every thread count's report is byte-identical to the
// serial one, and writes the measurements to BENCH_audit.json.
//
//   audit_bench [--alg rsa|ed25519] [--entries N] [--links L]
//               [--rsa-bits B] [--reps R] [--max-threads T]
//               [--min-parallel-ratio X] [--out FILE]
//
// Defaults: 51200 entries over 8 links, 512-bit RSA (the protocol logic is
// key-size agnostic; --rsa-bits 1024 reproduces the paper's signature
// sizes at ~4x the verification cost), 3 repetitions per thread count,
// thread counts 1/2/4/8. --alg ed25519 signs the fleet with the
// lightweight scheme instead, whose verification runs through the
// combined-equation batch kernel.
//
// Every thread count's throughput is also checked against the serial row:
// parallel audit must never be slower than serial beyond
// --min-parallel-ratio (noise tolerance). Two measures keep this gate
// meaningful rather than flaky on shared or small CI runners:
//   - The gate compares best-of-reps throughput (fastest repetition on
//     both sides) rather than the mean. Contention only ever adds time,
//     so the fastest sample is the low-noise estimate, and one unlucky
//     scheduling burst in a repetition cannot fail the job.
//   - Only thread counts the hardware can actually run in parallel
//     (threads <= hardware_concurrency) are gated. Oversubscribed rows —
//     e.g. threads=4 on a 2-core runner, where parallel physically cannot
//     beat serial and pool overhead makes it slower — are measured and
//     reported but exempt from the gate.
// A violation fails the run, making thread-scaling regressions CI-visible.
// The mean is still what gets reported and baseline-compared.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "adlp/protocols.h"
#include "audit/auditor.h"
#include "audit/log_database.h"
#include "audit/report_json.h"
#include "bench_util.h"
#include "faults/fabricate.h"

using namespace adlp;

namespace {

struct Measurement {
  std::size_t threads = 1;
  double ms_mean = 0.0;
  double entries_per_sec = 0.0;
  double eps_best = 0.0;  // throughput of the fastest repetition
  double speedup = 1.0;
  bool identical = true;
  bool monotone = true;  // not slower than the serial row
};

struct Fleet {
  std::vector<proto::LogEntry> entries;
  audit::Topology topology;
  crypto::KeyStore keys;
};

/// Relay chain c0 -> c1 -> ... -> c{links}: every link carries
/// seqs-per-link transmissions, each logged faithfully by both sides (two
/// entries per transmission, exactly two signatures per entry — the
/// worst-case verification load, since nothing short-circuits).
Fleet BuildFleet(std::size_t target_entries, std::size_t links,
                 std::size_t rsa_bits, crypto::SigAlgorithm alg) {
  Fleet fleet;
  Rng rng(0xa0d17);

  std::vector<proto::NodeIdentity> ids;
  ids.reserve(links + 1);
  for (std::size_t i = 0; i <= links; ++i) {
    ids.push_back(
        proto::MakeNodeIdentity("c" + std::to_string(i), rng, rsa_bits, alg));
    fleet.keys.Register(ids.back().id, ids.back().keys.pub);
  }

  const std::size_t seqs_per_link =
      (target_entries + 2 * links - 1) / (2 * links);
  for (std::size_t link = 0; link < links; ++link) {
    const std::string topic = "t" + std::to_string(link + 1);
    fleet.topology[topic] =
        pubsub::Master::TopicInfo{ids[link].id, {ids[link + 1].id}};
    for (std::size_t s = 1; s <= seqs_per_link; ++s) {
      faults::FabricationSpec spec;
      spec.topic = topic;
      spec.seq = s;
      spec.timestamp = static_cast<Timestamp>(s * 1000 + link * 10);
      spec.message_stamp = spec.timestamp - 1;
      spec.data = rng.RandomBytes(48);
      spec.peer = ids[link + 1].id;
      const faults::ForgedPair pair = faults::ForgeColludingPair(
          ids[link], ids[link + 1], spec, /*subscriber_stores_hash=*/true);
      fleet.entries.push_back(pair.publisher_entry);
      fleet.entries.push_back(pair.subscriber_entry);
    }
  }
  return fleet;
}

int Usage() {
  std::fprintf(stderr,
               "usage: audit_bench [--alg rsa|ed25519] [--entries N] "
               "[--links L] [--rsa-bits B] [--reps R] [--max-threads T] "
               "[--min-parallel-ratio X] [--out FILE]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_entries = 51200;
  std::size_t links = 8;
  std::size_t rsa_bits = 512;
  std::size_t reps = 3;
  std::size_t max_threads = 8;
  double min_parallel_ratio = 0.85;
  crypto::SigAlgorithm alg = crypto::SigAlgorithm::kRsaPkcs1Sha256;
  std::string out_path = "BENCH_audit.json";

  for (int i = 1; i < argc; ++i) {
    auto next = [&](std::size_t& slot) {
      if (i + 1 >= argc) return false;
      slot = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      return true;
    };
    if (std::strcmp(argv[i], "--entries") == 0) {
      if (!next(target_entries)) return Usage();
    } else if (std::strcmp(argv[i], "--links") == 0) {
      if (!next(links) || links == 0) return Usage();
    } else if (std::strcmp(argv[i], "--rsa-bits") == 0) {
      if (!next(rsa_bits)) return Usage();
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      if (!next(reps) || reps == 0) return Usage();
    } else if (std::strcmp(argv[i], "--max-threads") == 0) {
      if (!next(max_threads) || max_threads == 0) return Usage();
    } else if (std::strcmp(argv[i], "--min-parallel-ratio") == 0 &&
               i + 1 < argc) {
      min_parallel_ratio = std::strtod(argv[++i], nullptr);
      if (min_parallel_ratio <= 0.0) return Usage();
    } else if (std::strcmp(argv[i], "--alg") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "rsa") {
        alg = crypto::SigAlgorithm::kRsaPkcs1Sha256;
      } else if (name == "ed25519") {
        alg = crypto::SigAlgorithm::kEd25519;
      } else {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }

  bench::PrintHeader("audit pipeline: threads");
  if (alg == crypto::SigAlgorithm::kRsaPkcs1Sha256) {
    std::printf("generating fleet: ~%zu entries, %zu links, RSA-%zu ...\n",
                target_entries, links, rsa_bits);
  } else {
    std::printf("generating fleet: ~%zu entries, %zu links, Ed25519 ...\n",
                target_entries, links);
  }
  const Fleet fleet = BuildFleet(target_entries, links, rsa_bits, alg);
  const audit::LogDatabase db(fleet.entries, fleet.topology);

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  // Topic partitions of the widest row: one per link, at most one per
  // thread.
  const std::size_t partitions = std::min(links, thread_counts.back());
  std::printf("database: %zu entries, %zu pairs, %zu topic partitions\n",
              fleet.entries.size(), db.Pairs().size(), partitions);

  const audit::Auditor auditor(fleet.keys);

  // Serial reference report: every thread count must match it
  // byte-for-byte.
  const audit::AuditReport serial_report = auditor.Audit(db);
  const std::string serial_json = audit::RenderReportJson(serial_report);

  const std::size_t hw_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw_threads < max_threads) {
    std::printf(
        "note: %zu hardware thread(s) — scaling gate covers threads <= %zu; "
        "oversubscribed rows are reported but not gated\n",
        hw_threads, hw_threads);
  }

  std::vector<Measurement> results;
  double serial_ms = 0.0;
  double serial_eps = 0.0;  // best-of-reps entries/sec of threads=1
  std::printf("\n%8s %12s %14s %10s  %s\n", "threads", "mean ms",
              "entries/sec", "speedup", "identical");
  bench::PrintRule();
  for (const std::size_t threads : thread_counts) {
    audit::AuditOptions exec;
    exec.threads = threads;

    Measurement m;
    m.threads = threads;
    std::string json;
    const std::vector<double> samples = bench::TimeSamplesMs(reps, [&] {
      json = audit::RenderReportJson(auditor.Audit(db, exec));
    });
    const bench::SampleStats stats = bench::ComputeStats(samples);
    m.ms_mean = stats.mean;
    m.entries_per_sec =
        static_cast<double>(fleet.entries.size()) / (stats.mean / 1e3);
    m.eps_best =
        static_cast<double>(fleet.entries.size()) / (stats.min / 1e3);
    m.identical = (json == serial_json);
    if (threads == 1) serial_ms = stats.mean;
    m.speedup = serial_ms > 0.0 ? serial_ms / stats.mean : 1.0;
    // Thread-scaling assertion: a parallel row must reach at least
    // min_parallel_ratio of the serial throughput. Both sides use
    // best-of-reps: scheduler noise on a shared runner only inflates
    // samples, so the fastest repetition is the robust estimate, and a
    // single preempted rep cannot fail the gate. Rows oversubscribing the
    // hardware (threads > cores) cannot be expected to beat serial, so
    // they are reported but not gated.
    if (threads == 1) {
      serial_eps = m.eps_best;
    } else if (serial_eps > 0.0 && threads <= hw_threads) {
      m.monotone = m.eps_best >= min_parallel_ratio * serial_eps;
    }
    results.push_back(m);
    std::printf("%8zu %12.2f %14.0f %9.2fx  %s%s\n", threads, m.ms_mean,
                m.entries_per_sec, m.speedup, m.identical ? "yes" : "NO (BUG)",
                m.monotone ? "" : "  [SLOWER THAN SERIAL]");
  }

  bool all_identical = true;
  bool scaling_monotone = true;
  for (const Measurement& m : results) {
    all_identical &= m.identical;
    scaling_monotone &= m.monotone;
  }

  audit::JsonEmitter e(/*pretty=*/true);
  e.OpenObject();
  e.OpenObject("config");
  e.NumberField("entries", fleet.entries.size());
  e.NumberField("pairs", db.Pairs().size());
  e.NumberField("shards", partitions);
  e.NumberField("links", links);
  e.StringField("alg", alg == crypto::SigAlgorithm::kEd25519 ? "ed25519"
                                                             : "rsa");
  e.NumberField("rsa_bits", rsa_bits);
  e.NumberField("reps", reps);
  e.NumberField("hardware_concurrency", hw_threads);
  e.CloseObject();
  e.OpenArray("results");
  char buf[64];
  for (const Measurement& m : results) {
    e.OpenObject();
    e.NumberField("threads", m.threads);
    std::snprintf(buf, sizeof(buf), "%.3f", m.ms_mean);
    e.Field("ms_mean", buf);
    std::snprintf(buf, sizeof(buf), "%.0f", m.entries_per_sec);
    e.Field("entries_per_sec", buf);
    std::snprintf(buf, sizeof(buf), "%.0f", m.eps_best);
    e.Field("entries_per_sec_best", buf);
    std::snprintf(buf, sizeof(buf), "%.3f", m.speedup);
    e.Field("speedup_vs_serial", buf);
    e.Field("report_identical", m.identical ? "true" : "false");
    e.Field("monotone_ok", m.monotone ? "true" : "false");
    e.CloseObject();
  }
  e.CloseArray();
  e.Field("all_reports_identical", all_identical ? "true" : "false");
  e.Field("scaling_monotone", scaling_monotone ? "true" : "false");
  e.CloseObject();

  std::ofstream out(out_path);
  out << std::move(e).Take() << "\n";
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "audit_bench: FAILURE — a parallel report diverged from "
                 "the serial reference\n");
    return 1;
  }
  if (!scaling_monotone) {
    std::fprintf(stderr,
                 "audit_bench: FAILURE — a parallel configuration ran "
                 "slower than serial (below --min-parallel-ratio %.2f)\n",
                 min_parallel_ratio);
    return 2;
  }
  return 0;
}
