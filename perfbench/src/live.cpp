// image_20hz and steering_repl3: open-loop publishing through a live
// deployment, with an online auditor on the logger's tap.
#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis.h"
#include "fleet.h"
#include "workloads.h"

namespace perfbench {

using namespace adlp;

namespace {

// Fig. 11's image fan-out: one camera, two consumers, in-proc, RSA-1024,
// one trusted LogServer.
FleetSpec ImageSpec() {
  FleetSpec spec;
  spec.payload_type = "Image";
  spec.topics = {"camera/image"};
  spec.topic_publisher = {0};
  spec.publishers = {"camera"};
  spec.subscribers = {"detector", "recorder"};
  spec.transport = pubsub::TransportKind::kInProc;
  spec.alg = crypto::SigAlgorithm::kRsaPkcs1Sha256;
  spec.rate_hz = 20.0;
  spec.payload_pool = 4;
  return spec;
}

// Four 250 Hz steering links over loopback TCP with Ed25519, uploaded to
// three logger replicas with a majority quorum.
FleetSpec SteeringSpec() {
  FleetSpec spec;
  spec.payload_type = "Steering";
  spec.topics = {"steer/0", "steer/1", "steer/2", "steer/3"};
  spec.topic_publisher = {0, 0, 0, 0};
  spec.publishers = {"controller"};
  spec.subscribers = {"actuator"};
  spec.transport = pubsub::TransportKind::kTcp;
  spec.alg = crypto::SigAlgorithm::kEd25519;
  spec.replicas = 3;
  spec.rate_hz = 1000.0;
  return spec;
}

// A live run is a series of segments of about kSegmentSeconds, each on a
// fresh deployment. The logger keeps every entry (image_20hz grows by about
// 3.6 MB per transmission), so a segment bounds memory; and the set-up
// repetitions, split between the gaps before, between and after the
// segments, sample the host across the whole run.
constexpr double kSegmentSeconds = 10.0;

RunResult RunLive(const FleetSpec& spec, const RunConfig& config,
                  double seconds, bool traced) {
  RunResult out;
  const int segments =
      std::max(1, static_cast<int>(std::lround(seconds / kSegmentSeconds)));
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / segments * spec.rate_hz)));
  const int reps_per_gap = std::max(1, kSetupReps / (segments + 1));

  // Set-up, repeated in every gap; the last deployment built before a
  // segment is the one it measures.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  auto set_up = [&] {
    for (int rep = 0; rep < reps_per_gap; ++rep) {
      fleet.reset();
      const std::int64_t t0 = NowNs();
      fleet = std::make_unique<Fleet>(spec, config.seed, n, traced);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  };

  TxOutcome tx;     // pooled over the segments
  ProcSample used;  // CPU and switches of the timed segments
  double entries = 0.0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t audited = 0;
  std::int64_t audit_busy_ns = 0;
  double peak_rss_mb = 0.0;
  for (int segment = 0; segment < segments; ++segment) {
    set_up();
    const bool last = segment + 1 == segments;

    // Timed segment: first due publish -> every transmission judged.
    if (!StartPeakRssWindow()) {
      out.Fail("peak_rss_mb: /proc/self/clear_refs did not reset the mark");
    }
    const std::uint64_t bytes0 = TransportTxBytes();
    const ProcSample proc0 = ProcSample::Now();
    const std::int64_t start = NowNs() + 20'000'000;
    fleet->Run(start);
    const std::int64_t deadline = NowNs() + 15'000'000'000;
    if (!fleet->Drain(deadline)) out.notes.push_back("drain deadline reached");
    const std::int64_t end = NowNs();
    const ProcSample proc1 = ProcSample::Now();
    tx_bytes += TransportTxBytes() - bytes0;
    used.user_ns += proc1.user_ns - proc0.user_ns;
    used.sys_ns += proc1.sys_ns - proc0.sys_ns;
    used.ctx_switches += proc1.ctx_switches - proc0.ctx_switches;
    entries += static_cast<double>(n * fleet->EntriesPerTx());

    // Layer metrics, spans and the breakdown come from the last segment.
    if (traced && last) {
      AddFleetLayerMetrics(*fleet, end - start, out);
      const auto sample = fleet->SamplePublisherEntry();
      if (sample) {
        CalibrateCalls(fleet->SamplePayload(), *sample,
                       fleet->ComponentNamed(spec.publishers.front())
                           .Identity()
                           .keys,
                       out);
      } else {
        out.Fail("no publisher entry reached the logger");
      }
    }

    fleet->Shutdown(NowNs() + 20'000'000'000);
    const TxOutcome judged = JudgeTransmissions(*fleet);
    auto pool = [](std::vector<double>& all, const std::vector<double>& part) {
      all.insert(all.end(), part.begin(), part.end());
    };
    pool(tx.deliver_ms, judged.deliver_ms);
    pool(tx.evidence_ms, judged.evidence_ms);
    pool(tx.verdict_ms, judged.verdict_ms);
    tx.failed += judged.failed;
    for (const auto& why : judged.reasons) out.notes.push_back(why);
    audited += fleet->EntriesAudited();
    audit_busy_ns += fleet->AuditBusyNs();
    if (traced && last) AddBreakdown(*fleet, out);

    // Oracles over the segment.
    const std::size_t expected = n * fleet->EntriesPerTx();
    if (spec.replicas > 0) {
      CheckReplicas(*fleet, expected, out);
    } else if (fleet->PrimaryServer().EntryCount() != expected) {
      out.Fail("logger holds " +
               std::to_string(fleet->PrimaryServer().EntryCount()) +
               " entries, want " + std::to_string(expected));
    }
    if (fleet->UnexpectedEntries() != 0) {
      out.Fail("auditor saw unexpected entries");
    }
    const audit::AuditReport report = fleet->Auditor()->Finalize();
    if (!report.unfaithful.empty()) {
      out.Fail("audit names " + *report.unfaithful.begin() + " unfaithful");
    }
    std::size_t ok = 0;
    for (const auto& v : report.verdicts) ok += v.finding == audit::Finding::kOk;
    if (ok != n * fleet->Subscribers() || ok != report.verdicts.size()) {
      out.Fail("audit has " + std::to_string(ok) + " clean verdicts of " +
               std::to_string(report.verdicts.size()) + ", want " +
               std::to_string(n * fleet->Subscribers()));
    }
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
  }
  set_up();
  fleet.reset();

  const std::size_t transmissions = n * static_cast<std::size_t>(segments);
  out.metrics["cpu_us_per_entry"] =
      static_cast<double>(used.CpuNs()) / 1e3 / entries;
  out.instrumented_cpu_us_per_entry = out.metrics["cpu_us_per_entry"];
  if (traced) {
    out.metrics["transport.bytes_per_tx"] =
        static_cast<double>(tx_bytes) / static_cast<double>(transmissions);
    out.metrics["proc.ctx_switches_per_entry"] =
        static_cast<double>(used.ctx_switches) / entries;
    out.metrics["proc.sys_cpu_share"] =
        static_cast<double>(used.sys_ns) / static_cast<double>(used.CpuNs());
  }
  out.attempted = transmissions;
  out.failed = tx.failed;
  if (out.failed != 0) out.correct = false;
  AddLatency("deliver", tx.deliver_ms, out);
  AddLatency("evidence", tx.evidence_ms, out);
  AddLatency("verdict", tx.verdict_ms, out);
  out.metrics["audit_entries_per_s"] =
      static_cast<double>(audited) /
      (static_cast<double>(std::max<std::int64_t>(1, audit_busy_ns)) / 1e9);
  out.metrics["peak_rss_mb"] = peak_rss_mb;
  out.metrics["setup_s"] = Median(setup_s);
  return out;
}

}  // namespace

RunResult RunImage20Hz(const RunConfig& config, double seconds, bool traced) {
  return RunLive(ImageSpec(), config, seconds, traced);
}

RunResult RunSteeringRepl3(const RunConfig& config, double seconds,
                           bool traced) {
  return RunLive(SteeringSpec(), config, seconds, traced);
}

}  // namespace perfbench
