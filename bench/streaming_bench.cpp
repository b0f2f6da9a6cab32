// streaming_bench — online detection latency of the streaming auditor vs
// batch-at-end auditing, plus streaming consumption throughput.
//
// Builds a relay-chain fleet with a known set of misbehaving transmissions
// (receipt-hiding: the subscriber entry is dropped) spread uniformly across
// the run, then replays the upload stream through a StreamingAuditor that
// seals an epoch every --epoch transmissions. Each flagged pair's detection
// latency is the wall time from its first entry's arrival to its flagged
// seal; the batch-at-end latency for the same pair is the remainder of the
// stream plus one full batch audit (detection is only possible once
// everything has arrived and been audited). The run fails unless
//
//   * the streaming report is byte-identical to the batch report, and
//   * streaming p99 detection is at least --min-detect-speedup times
//     earlier than batch-at-end p99 (default 10x).
//
// The `batch` row times Auditor::Audit, which is itself a seal-free replay
// of the stored log through StreamingAuditor (no epochs, one final seal);
// the `streaming` row adds the per-epoch seals and the online flags.
//
// Output: BENCH_streaming.json (schema-checked and baseline-gated by
// tools/check_bench_json.py; the throughput rows are what regress).
//
//   streaming_bench [--entries N] [--links L] [--flagged K] [--epoch E]
//                   [--rsa-bits B] [--reps R] [--min-detect-speedup X]
//                   [--out FILE]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "adlp/protocols.h"
#include "audit/auditor.h"
#include "audit/log_database.h"
#include "audit/report_json.h"
#include "audit/streaming_auditor.h"
#include "bench_util.h"
#include "common/clock.h"
#include "faults/fabricate.h"

using namespace adlp;

namespace {

struct Fleet {
  /// Entries grouped per transmission (1 entry for hidden receipts, 2
  /// otherwise) so epoch boundaries always land between transmissions.
  std::vector<std::vector<proto::LogEntry>> arrivals;
  std::size_t entries = 0;
  std::size_t flagged = 0;
  audit::Topology topology;
  crypto::KeyStore keys;

  std::vector<proto::LogEntry> Flat() const {
    std::vector<proto::LogEntry> flat;
    flat.reserve(entries);
    for (const auto& group : arrivals) {
      flat.insert(flat.end(), group.begin(), group.end());
    }
    return flat;
  }
};

Fleet BuildFleet(std::size_t target_entries, std::size_t links,
                 std::size_t flagged_target, std::size_t rsa_bits) {
  Fleet fleet;
  Rng rng(0x57bea);

  std::vector<proto::NodeIdentity> ids;
  ids.reserve(links + 1);
  for (std::size_t i = 0; i <= links; ++i) {
    ids.push_back(proto::MakeNodeIdentity("s" + std::to_string(i), rng,
                                          rsa_bits));
    fleet.keys.Register(ids.back().id, ids.back().keys.pub);
  }

  const std::size_t seqs_per_link =
      (target_entries + 2 * links - 1) / (2 * links);
  const std::size_t total_pairs = links * seqs_per_link;
  const std::size_t stride =
      flagged_target == 0 ? 0 : std::max<std::size_t>(1, total_pairs /
                                                             flagged_target);
  std::size_t pair_index = 0;
  for (std::size_t link = 0; link < links; ++link) {
    const std::string topic = "t" + std::to_string(link + 1);
    fleet.topology[topic] =
        pubsub::Master::TopicInfo{ids[link].id, {ids[link + 1].id}};
    for (std::size_t s = 1; s <= seqs_per_link; ++s, ++pair_index) {
      faults::FabricationSpec spec;
      spec.topic = topic;
      spec.seq = s;
      spec.timestamp = static_cast<Timestamp>(s * 1000 + link * 10);
      spec.message_stamp = spec.timestamp - 1;
      spec.data = rng.RandomBytes(48);
      spec.peer = ids[link + 1].id;
      const faults::ForgedPair pair = faults::ForgeColludingPair(
          ids[link], ids[link + 1], spec, /*subscriber_stores_hash=*/true);
      std::vector<proto::LogEntry> group{pair.publisher_entry};
      const bool hide =
          stride != 0 && pair_index % stride == 0 && fleet.flagged <
                                                         flagged_target;
      if (hide) {
        ++fleet.flagged;  // subscriber entry withheld: receipt-hiding
      } else {
        group.push_back(pair.subscriber_entry);
      }
      fleet.entries += group.size();
      fleet.arrivals.push_back(std::move(group));
    }
  }
  return fleet;
}

double PercentileMs(std::vector<double> ns_samples, double q) {
  if (ns_samples.empty()) return 0.0;
  std::sort(ns_samples.begin(), ns_samples.end());
  const std::size_t index = static_cast<std::size_t>(
      static_cast<double>(ns_samples.size() - 1) * q);
  return ns_samples[index] / 1e6;
}

int Usage() {
  std::fprintf(stderr,
               "usage: streaming_bench [--entries N] [--links L] "
               "[--flagged K] [--epoch E] [--rsa-bits B] [--reps R] "
               "[--min-detect-speedup X] [--out FILE]\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_entries = 8192;
  std::size_t links = 8;
  std::size_t flagged = 32;
  std::size_t epoch_transmissions = 128;
  std::size_t rsa_bits = 512;
  std::size_t reps = 3;
  double min_detect_speedup = 10.0;
  std::string out_path = "BENCH_streaming.json";

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
    } else if (std::strcmp(argv[i], "--flagged") == 0) {
      if (!next(flagged) || flagged == 0) return Usage();
    } else if (std::strcmp(argv[i], "--epoch") == 0) {
      if (!next(epoch_transmissions) || epoch_transmissions == 0) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--rsa-bits") == 0) {
      if (!next(rsa_bits)) return Usage();
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      if (!next(reps) || reps == 0) return Usage();
    } else if (std::strcmp(argv[i], "--min-detect-speedup") == 0 &&
               i + 1 < argc) {
      min_detect_speedup = std::strtod(argv[++i], nullptr);
      if (min_detect_speedup <= 0.0) return Usage();
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Usage();
    }
  }

  bench::PrintHeader("streaming audit: online detection vs batch-at-end");
  std::printf(
      "generating fleet: ~%zu entries, %zu links, %zu hidden receipts, "
      "RSA-%zu ...\n",
      target_entries, links, flagged, rsa_bits);
  const Fleet fleet = BuildFleet(target_entries, links, flagged, rsa_bits);
  const std::vector<proto::LogEntry> flat = fleet.Flat();
  std::printf("fleet: %zu entries over %zu transmissions, %zu misbehaving, "
              "epoch every %zu transmissions\n",
              fleet.entries, fleet.arrivals.size(), fleet.flagged,
              epoch_transmissions);

  // Batch reference (the seal-free replay): wall time and the byte-identity
  // oracle.
  const audit::Auditor batch(fleet.keys);
  std::string batch_json;
  const std::vector<double> batch_samples = bench::TimeSamplesMs(reps, [&] {
    const audit::LogDatabase db(flat, fleet.topology);
    batch_json = audit::RenderReportJson(batch.Audit(db));
  });
  const bench::SampleStats batch_stats = bench::ComputeStats(batch_samples);

  // Streaming runs: detection latencies from the last repetition, wall
  // times from all of them.
  std::string streaming_json;
  std::vector<double> detect_ns;           // streaming: arrival -> flag
  std::vector<double> arrival_ns;          // absolute arrival stamps
  Timestamp stream_end_ns = 0;
  std::size_t online_flags = 0;
  const std::vector<double> streaming_samples =
      bench::TimeSamplesMs(reps, [&] {
        detect_ns.clear();
        arrival_ns.clear();
        audit::StreamingOptions options;
        options.on_finding = [&](const audit::PairVerdict&, Timestamp ns) {
          detect_ns.push_back(static_cast<double>(ns));
          arrival_ns.push_back(
              static_cast<double>(MonotonicNowNs() - ns));
        };
        audit::StreamingAuditor streaming(fleet.keys, fleet.topology,
                                          options);
        std::size_t since_seal = 0;
        for (const auto& group : fleet.arrivals) {
          for (const auto& entry : group) streaming.OnEntry(entry);
          if (++since_seal == epoch_transmissions) {
            streaming.SealEpoch();
            since_seal = 0;
          }
        }
        streaming.SealEpoch();
        online_flags = detect_ns.size();
        stream_end_ns = MonotonicNowNs();
        streaming_json = audit::RenderReportJson(streaming.Finalize());
      });
  const bench::SampleStats streaming_stats =
      bench::ComputeStats(streaming_samples);

  // Batch-at-end detection latency for the same flagged pairs: the rest of
  // the stream has to arrive, then a full batch audit has to run.
  std::vector<double> batch_detect_ns;
  batch_detect_ns.reserve(arrival_ns.size());
  for (const double arrival : arrival_ns) {
    batch_detect_ns.push_back(static_cast<double>(stream_end_ns) - arrival +
                              batch_stats.mean * 1e6);
  }

  const double stream_p50 = PercentileMs(detect_ns, 0.50);
  const double stream_p99 = PercentileMs(detect_ns, 0.99);
  const double batch_p50 = PercentileMs(batch_detect_ns, 0.50);
  const double batch_p99 = PercentileMs(batch_detect_ns, 0.99);
  const double detect_speedup =
      stream_p99 > 0.0 ? batch_p99 / stream_p99 : 0.0;
  const bool identical = streaming_json == batch_json;
  const bool flags_complete = online_flags == fleet.flagged;
  const bool detect_ok = detect_speedup >= min_detect_speedup;
  const bool streaming_ok = identical && flags_complete && detect_ok;

  const double entries = static_cast<double>(fleet.entries);
  std::printf("\n%10s %12s %14s %14s %12s %12s\n", "mode", "wall ms",
              "entries/sec", "flags", "detect p50", "detect p99");
  bench::PrintRule();
  std::printf("%10s %12.2f %14.0f %14zu %10.2fms %10.2fms\n", "streaming",
              streaming_stats.mean, entries / (streaming_stats.mean / 1e3),
              online_flags, stream_p50, stream_p99);
  std::printf("%10s %12.2f %14.0f %14zu %10.2fms %10.2fms\n", "batch",
              batch_stats.mean, entries / (batch_stats.mean / 1e3),
              fleet.flagged, batch_p50, batch_p99);
  std::printf("\ndetection p99 speedup: %.1fx (gate: >= %.1fx)   "
              "report identical: %s   flags: %zu/%zu\n",
              detect_speedup, min_detect_speedup, identical ? "yes" : "NO",
              online_flags, fleet.flagged);

  audit::JsonEmitter e(/*pretty=*/true);
  e.OpenObject();
  e.OpenObject("config");
  e.NumberField("entries", fleet.entries);
  e.NumberField("transmissions", fleet.arrivals.size());
  e.NumberField("links", links);
  e.NumberField("flagged_pairs", fleet.flagged);
  e.NumberField("epoch_transmissions", epoch_transmissions);
  e.NumberField("rsa_bits", rsa_bits);
  e.NumberField("reps", reps);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", min_detect_speedup);
  e.Field("min_detect_speedup", buf);
  e.CloseObject();
  e.OpenArray("results");
  const struct {
    const char* mode;
    const bench::SampleStats* stats;
    std::size_t flags;
    double p50;
    double p99;
  } rows[] = {
      {"streaming", &streaming_stats, online_flags, stream_p50, stream_p99},
      {"batch", &batch_stats, fleet.flagged, batch_p50, batch_p99},
  };
  for (const auto& row : rows) {
    e.OpenObject();
    e.StringField("mode", row.mode);
    std::snprintf(buf, sizeof(buf), "%.3f", row.stats->mean);
    e.Field("wall_ms", buf);
    std::snprintf(buf, sizeof(buf), "%.0f",
                  entries / (row.stats->mean / 1e3));
    e.Field("entries_per_sec", buf);
    std::snprintf(buf, sizeof(buf), "%.0f", entries / (row.stats->min / 1e3));
    e.Field("entries_per_sec_best", buf);
    e.NumberField("flags", row.flags);
    std::snprintf(buf, sizeof(buf), "%.3f", row.p50);
    e.Field("detect_p50_ms", buf);
    std::snprintf(buf, sizeof(buf), "%.3f", row.p99);
    e.Field("detect_p99_ms", buf);
    e.CloseObject();
  }
  e.CloseArray();
  e.OpenObject("gate");
  std::snprintf(buf, sizeof(buf), "%.3f", detect_speedup);
  e.Field("detect_speedup_p99", buf);
  e.Field("identical", identical ? "true" : "false");
  e.Field("flags_complete", flags_complete ? "true" : "false");
  e.CloseObject();
  e.Field("streaming_ok", streaming_ok ? "true" : "false");
  e.CloseObject();

  std::ofstream out(out_path);
  out << std::move(e).Take() << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "streaming_bench: FAILURE — streaming report diverged "
                 "from the batch reference\n");
    return 1;
  }
  if (!flags_complete) {
    std::fprintf(stderr,
                 "streaming_bench: FAILURE — %zu of %zu misbehaving pairs "
                 "flagged online\n",
                 online_flags, fleet.flagged);
    return 1;
  }
  if (!detect_ok) {
    std::fprintf(stderr,
                 "streaming_bench: FAILURE — detection p99 speedup %.1fx "
                 "below the %.1fx gate\n",
                 detect_speedup, min_detect_speedup);
    return 2;
  }
  return 0;
}
