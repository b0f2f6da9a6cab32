// forensic_audit: an investigator re-auditing an exported log. Set-up
// captures a Scan-sized Ed25519 fleet live, with about 1% of its
// transmissions carrying one of the paper's misbehaviours, and exports
// replica 0's log with WriteLogFile. The timed part repeats the
// adlp_audit --json --verdicts path:
// ReadLogFile -> LogDatabase -> Auditor::Audit -> RenderReportJson.
//
// The capture runs over loopback TCP into three quorum replicas, so the
// replicated upload path (ResilientLogSink legs, LogServerService,
// ReplicatedLogSink commit) is exercised, and traced, by a gated workload.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>

#include "adlp/log_file.h"
#include "analysis.h"
#include "audit/auditor.h"
#include "audit/log_database.h"
#include "audit/manifest.h"
#include "audit/report_json.h"
#include "audit/streaming_auditor.h"
#include "faults/behavior.h"
#include "faults/fabricate.h"
#include "fleet.h"
#include "sim/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace adlp;

namespace {

// 100 publishes per topic, 400 pairs: a pass is short enough that a run
// holds over a hundred of them, so the p90 has ten samples beyond it.
constexpr std::size_t kPublishes = 200;
constexpr double kCaptureRateHz = 2000.0;
constexpr std::size_t kReplayEpochEntries = 256;  // adlp_audit --streaming
const char* const kShadow = "shadow";  // identity an impersonator claims

enum class Misbehavior { kHiding, kFalsification, kFabrication,
                         kImpersonation, kTiming };
constexpr Misbehavior kClasses[] = {
    Misbehavior::kHiding, Misbehavior::kFalsification,
    Misbehavior::kFabrication, Misbehavior::kImpersonation,
    Misbehavior::kTiming};

struct Injection {
  Misbehavior kind = Misbehavior::kHiding;
  std::size_t topic = 0;
  std::uint64_t seq = 0;
  std::size_t sub = 0;
  bool publisher_side = false;
};

using Finding = std::tuple<std::string, std::uint64_t, std::string,
                           audit::Finding>;

FleetSpec ScanSpec() {
  FleetSpec spec;
  spec.payload_type = "Scan";
  spec.topics = {"scan/front", "scan/rear"};
  spec.topic_publisher = {0, 1};
  spec.publishers = {"lidar_front", "lidar_rear"};
  spec.subscribers = {"planner", "mapper"};
  spec.transport = pubsub::TransportKind::kTcp;
  spec.alg = crypto::SigAlgorithm::kEd25519;
  spec.replicas = 3;
  spec.audit_tap = false;
  spec.rate_hz = kCaptureRateHz;
  return spec;
}

/// One injection per 100 pairs, at least one of each class, cycling through
/// the classes, each on its own (topic, seq); fabrications claim seqs past
/// the last publish.
std::vector<Injection> PlanInjections(const FleetSpec& spec,
                                      std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0xfa17);
  const std::size_t topics = spec.topics.size();
  const std::size_t per_topic = kPublishes / topics;
  const std::size_t count = std::max(
      std::size(kClasses), kPublishes * spec.subscribers.size() / 100);
  std::set<std::pair<std::size_t, std::uint64_t>> used;
  std::vector<Injection> plan;
  std::uint64_t fabricated = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Injection inj;
    inj.kind = kClasses[i % std::size(kClasses)];
    inj.topic = rng.UniformBelow(topics);
    inj.sub = rng.UniformBelow(spec.subscribers.size());
    inj.publisher_side =
        inj.kind != Misbehavior::kImpersonation && rng.Chance(0.5);
    if (inj.kind == Misbehavior::kFabrication) {
      inj.seq = per_topic + 1 + fabricated++;
    } else {
      do {
        inj.seq = 1 + rng.UniformBelow(per_topic);
      } while (!used.insert({inj.topic, inj.seq}).second);
    }
    plan.push_back(inj);
  }
  return plan;
}

std::string Attacker(const FleetSpec& spec, const Injection& inj) {
  return inj.publisher_side ? spec.publishers[spec.topic_publisher[inj.topic]]
                            : spec.subscribers[inj.sub];
}

/// Installs each non-fabrication injection as an UnfaithfulLogPipe on its
/// attacker (fabrications are entered after the capture).
void InstallFaults(FleetSpec& spec, const std::vector<Injection>& plan) {
  std::map<std::string, std::vector<Injection>> by_attacker;
  for (const Injection& inj : plan) {
    if (inj.kind != Misbehavior::kFabrication) {
      by_attacker[Attacker(spec, inj)].push_back(inj);
    }
  }
  for (auto& [attacker, injections] : by_attacker) {
    spec.faults[attacker] = [spec, injections](proto::LogPipe& inner,
                                               const proto::NodeIdentity& id)
        -> std::unique_ptr<proto::LogPipe> {
      std::vector<std::shared_ptr<faults::UnfaithfulBehavior>> behaviors;
      for (const Injection& inj : injections) {
        faults::FaultFilter filter;
        filter.topic = spec.topics[inj.topic];
        filter.direction = inj.publisher_side ? proto::Direction::kOut
                                              : proto::Direction::kIn;
        if (inj.publisher_side) filter.peer = spec.subscribers[inj.sub];
        filter.seq_min = filter.seq_max = inj.seq;
        switch (inj.kind) {
          case Misbehavior::kHiding:
            behaviors.push_back(std::make_shared<faults::HidingBehavior>(filter));
            break;
          case Misbehavior::kFalsification:
            behaviors.push_back(std::make_shared<faults::FalsificationBehavior>(
                filter, std::make_shared<proto::NodeIdentity>(id)));
            break;
          case Misbehavior::kImpersonation:
            behaviors.push_back(std::make_shared<faults::ImpersonationBehavior>(
                filter, kShadow));
            break;
          case Misbehavior::kTiming:
            behaviors.push_back(
                std::make_shared<faults::TimingDisruptionBehavior>(
                    filter, inj.publisher_side ? 500'000'000 : -500'000'000));
            break;
          case Misbehavior::kFabrication:
            break;
        }
      }
      return std::make_unique<faults::UnfaithfulLogPipe>(
          inner, std::make_shared<faults::ComposedBehavior>(behaviors));
    };
  }
}

/// What the auditor must report: the flagged pairs and the blamed set.
/// Timing disruption is outside the signed digest, so the pairwise audit
/// reports it clean (the causality checker is what sees it).
void ExpectedOutcome(const FleetSpec& spec, const std::vector<Injection>& plan,
                     std::set<Finding>& findings,
                     std::set<std::string>& unfaithful) {
  using F = audit::Finding;
  for (const Injection& inj : plan) {
    const std::string& topic = spec.topics[inj.topic];
    const std::string& sub = spec.subscribers[inj.sub];
    F finding = F::kOk;
    switch (inj.kind) {
      case Misbehavior::kHiding:
        finding = inj.publisher_side ? F::kPublisherHidEntry
                                     : F::kSubscriberHidEntry;
        break;
      case Misbehavior::kFalsification:
        finding = inj.publisher_side ? F::kPublisherFalsified
                                     : F::kSubscriberFalsified;
        break;
      case Misbehavior::kFabrication:
        finding = inj.publisher_side ? F::kPublisherFabricated
                                     : F::kSubscriberFabricated;
        break;
      case Misbehavior::kImpersonation:
        // The attacker's own entry is missing; the one it forged under the
        // victim's name fails the victim's key. A registered victim that
        // takes part in no transmission cannot be told from a hider, so it
        // is blamed too (misbehavior_matrix_test pins the same outcome).
        finding = F::kSubscriberHidEntry;
        findings.insert({topic, inj.seq, kShadow, F::kSubscriberSelfAuthFailed});
        unfaithful.insert(kShadow);
        break;
      case Misbehavior::kTiming:
        continue;
    }
    findings.insert({topic, inj.seq, sub, finding});
    unfaithful.insert(Attacker(spec, inj));
  }
}

void CheckReport(const audit::AuditReport& report,
                 const std::set<Finding>& expected,
                 const std::set<std::string>& unfaithful, RunResult& out) {
  std::set<Finding> flagged;
  for (const auto& v : report.verdicts) {
    if (v.finding != audit::Finding::kOk) {
      flagged.insert({v.topic, v.seq, v.subscriber, v.finding});
    }
  }
  for (const auto& f : flagged) {
    if (!expected.contains(f)) {
      out.Fail("unexpected finding " +
               std::string(audit::FindingName(std::get<3>(f))) + " on " +
               std::get<0>(f) + "#" + std::to_string(std::get<1>(f)) + "->" +
               std::get<2>(f));
    }
  }
  for (const auto& f : expected) {
    if (!flagged.contains(f)) {
      out.Fail("missed injected " +
               std::string(audit::FindingName(std::get<3>(f))) + " on " +
               std::get<0>(f) + "#" + std::to_string(std::get<1>(f)) + "->" +
               std::get<2>(f));
    }
  }
  const std::set<std::string> blamed(report.unfaithful.begin(),
                                     report.unfaithful.end());
  if (blamed != unfaithful) {
    std::string got, want;
    for (const auto& id : blamed) got += " " + id;
    for (const auto& id : unfaithful) want += " " + id;
    out.Fail("audit blames {" + got + " }, injected {" + want + " }");
  }
}

}  // namespace

RunResult RunForensicAudit(const RunConfig& config, double seconds,
                           bool traced) {
  RunResult out;
  FleetSpec spec = ScanSpec();
  const std::vector<Injection> plan = PlanInjections(spec, config.seed);
  InstallFaults(spec, plan);
  std::set<Finding> expected;
  std::set<std::string> expected_unfaithful;
  ExpectedOutcome(spec, plan, expected, expected_unfaithful);
  const std::string stem =
      config.workdir + "/forensic-" + std::to_string(getpid());
  const std::string log_path = stem + ".adlplog";
  const std::string manifest_path = stem + ".manifest";

  // Set-up: capture the fleet and export replica 0's log and the system
  // manifest. It is repeated before and after the timed passes; the last
  // capture before them is kept for the layer metrics and the passes.
  std::vector<double> setup_s;
  std::vector<double> capture_cpu_us;  // per captured entry
  std::unique_ptr<Fleet> fleet;
  std::int64_t capture_ns = 0;
  std::uint64_t capture_bytes = 0;
  ProcSample capture0, capture1;
  auto set_up = [&] {
    fleet.reset();
    const std::int64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>(spec, config.seed, kPublishes, traced);
    Rng key_rng(NameSeed(kShadow));
    const proto::NodeIdentity shadow = proto::MakeNodeIdentity(
        kShadow, key_rng, 1024, crypto::SigAlgorithm::kEd25519);
    fleet->Sink().RegisterKey(shadow.id, shadow.keys.pub);

    const std::uint64_t bytes0 = TransportTxBytes();
    capture0 = ProcSample::Now();
    const std::int64_t start = NowNs() + 5'000'000;
    fleet->Run(start);
    if (!fleet->Drain(NowNs() + 15'000'000'000)) {
      out.Fail("capture: not every transmission was delivered");
    }
    capture_ns = NowNs() - start;
    capture1 = ProcSample::Now();
    capture_bytes = TransportTxBytes() - bytes0;
    Rng fabricate_rng(config.seed ^ 0xfab);
    for (const Injection& inj : plan) {
      if (inj.kind != Misbehavior::kFabrication) continue;
      proto::Component& attacker = fleet->ComponentNamed(Attacker(spec, inj));
      faults::FabricationSpec fab;
      fab.topic = spec.topics[inj.topic];
      fab.seq = inj.seq;
      fab.timestamp = WallClock::Instance().Now();
      fab.message_stamp = fab.timestamp - 1000;
      fab.data = sim::MakePayload(fabricate_rng,
                                  sim::PaperDataType("Scan").size_bytes);
      fab.peer = inj.publisher_side
                     ? spec.subscribers[inj.sub]
                     : spec.publishers[spec.topic_publisher[inj.topic]];
      attacker.logging().Enter(
          inj.publisher_side
              ? faults::FabricatePublisherEntry(attacker.Identity(), fab,
                                                fabricate_rng)
              : faults::FabricateSubscriberEntry(attacker.Identity(), fab,
                                                 fabricate_rng));
    }
    fleet->Shutdown(NowNs() + 15'000'000'000);
    proto::LogServer& server = fleet->PrimaryServer();
    CheckReplicas(*fleet, server.EntryCount(), out);
    capture_cpu_us.push_back(
        static_cast<double>(capture1.CpuNs() - capture0.CpuNs()) / 1e3 /
        static_cast<double>(std::max<std::size_t>(1, server.EntryCount())));
    server.SealEpoch();
    proto::WriteLogFile(log_path, server);
    audit::WriteManifestFile(manifest_path, fleet->Topology(), server.Keys());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep) set_up();

  if (traced) {
    // The data-plane layers are measured over the kept capture.
    AddFleetLayerMetrics(*fleet, capture_ns, out);
    const double captured =
        static_cast<double>(fleet->PrimaryServer().EntryCount());
    out.metrics["transport.bytes_per_tx"] =
        static_cast<double>(capture_bytes) / static_cast<double>(kPublishes);
    out.metrics["proc.ctx_switches_per_entry"] =
        static_cast<double>(capture1.ctx_switches - capture0.ctx_switches) /
        captured;
    out.metrics["proc.sys_cpu_share"] =
        static_cast<double>(capture1.sys_ns - capture0.sys_ns) /
        static_cast<double>(capture1.CpuNs() - capture0.CpuNs());
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
  // The investigator works from the exported files alone.
  fleet.reset();
  const audit::LoadedManifest manifest =
      audit::ReadManifestFile(manifest_path);
  audit::JsonOptions json;
  json.include_verdicts = true;

  // Oracle (untimed): a streaming replay of the exported entries, sealed
  // every 256 entries, must report exactly the injected misbehaviour.
  std::string reference;
  {
    const proto::LoadedLog log = proto::ReadLogFile(log_path);
    audit::StreamingAuditor online(manifest.keys, manifest.topology);
    std::vector<double> on_entry_us, seal_us;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
      const std::int64_t t0 = NowNs();
      online.OnEntry(log.entries[i]);
      on_entry_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if ((i + 1) % kReplayEpochEntries == 0) {
        const std::int64_t s0 = NowNs();
        online.SealEpoch();
        seal_us.push_back(static_cast<double>(NowNs() - s0) / 1e3);
      }
    }
    const audit::AuditReport report = online.Finalize();
    CheckReport(report, expected, expected_unfaithful, out);
    reference = audit::RenderReportJson(report, json);
    if (traced) {
      out.metrics["audit.on_entry_us"] = Median(on_entry_us);
      out.metrics["audit.seal_us"] = Median(seal_us);
      out.metrics["audit.late_entries"] =
          static_cast<double>(online.Stats().late_entries);
    }
  }

  // Timed: investigator passes until the time is up.
  std::vector<double> read_ms, indexed_ms, verdict_ms, stage_db, stage_audit,
      stage_render;
  std::uint64_t entries = 0;
  double pass_s = 0.0;
  const audit::Auditor auditor(manifest.keys);
  if (!StartPeakRssWindow()) {
    out.Fail("peak_rss_mb: /proc/self/clear_refs did not reset the mark");
  }
  const ProcSample proc0 = ProcSample::Now();
  const std::int64_t stop = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  // The rotation ends with the passes: the set-ups after them use every CPU.
  for (CpuRotation rotation;;) {
    // Each pass starts as a fresh adlp_audit process would: on the next
    // CPU, with the memory the last pass freed back with the OS, so every
    // pass faults its working set in. Left to the allocator's trim
    // heuristics, some passes reused the heap and some did not, and the mix
    // varied from run to run.
    rotation.Next();
    malloc_trim(0);
    const std::int64_t t0 = NowNs();
    proto::LoadedLog log = proto::ReadLogFile(log_path);
    const std::int64_t t1 = NowNs();
    entries += log.entries.size();
    const audit::LogDatabase db(std::move(log.entries), manifest.topology);
    const std::int64_t t2 = NowNs();
    const audit::AuditReport report = auditor.Audit(db, audit::AuditOptions{});
    const std::int64_t t3 = NowNs();
    const std::string rendered = audit::RenderReportJson(report, json);
    const std::int64_t t4 = NowNs();
    ++out.attempted;
    if (rendered != reference) ++out.failed;
    pass_s += static_cast<double>(t4 - t0) / 1e9;
    read_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    indexed_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    verdict_ms.push_back(static_cast<double>(t4 - t0) / 1e6);
    stage_db.push_back(static_cast<double>(t2 - t1) / 1e6);
    stage_audit.push_back(static_cast<double>(t3 - t2) / 1e6);
    stage_render.push_back(static_cast<double>(t4 - t3) / 1e6);
    if (NowNs() >= stop) break;
  }
  const ProcSample proc1 = ProcSample::Now();
  out.metrics["peak_rss_mb"] = PeakRssMb();

  for (int rep = 0; rep < kSetupReps / 2; ++rep) set_up();
  fleet.reset();
  out.metrics["setup_s"] = Median(setup_s);
  // Tracing instruments the capture only; the investigator passes are the
  // same in a traced and an untraced run.
  out.instrumented_cpu_us_per_entry = Median(capture_cpu_us);
  std::filesystem::remove(log_path);
  std::filesystem::remove(manifest_path);

  // An investigator's pass is its transmission: the evidence is delivered
  // when the log file is read, indexed when the database is built, and
  // judged when the report is rendered.
  AddLatency("deliver", read_ms, out);
  AddLatency("evidence", indexed_ms, out);
  AddLatency("verdict", verdict_ms, out);
  const double cpu_ns = static_cast<double>(proc1.CpuNs() - proc0.CpuNs());
  out.metrics["cpu_us_per_entry"] =
      cpu_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(1, entries));
  out.metrics["audit_entries_per_s"] = static_cast<double>(entries) / pass_s;
  if (out.failed != 0) out.Fail("a pass rendered a different report");

  if (traced) {
    out.metrics["adlp.log_file_read_ms"] = Median(read_ms);
    out.metrics["audit.database_build_ms"] = Median(stage_db);
    out.metrics["audit.audit_ms"] = Median(stage_audit);
    out.metrics["audit.render_ms"] = Median(stage_render);
    const double total = Median(verdict_ms);
    char line[160];
    std::snprintf(line, sizeof(line), "verdict p50 %.3f ms over %zu passes:",
                  total, verdict_ms.size());
    out.breakdown.push_back(line);
    for (const auto& [name, v] :
         {std::pair{"adlp.log_file_read", Median(read_ms)},
          std::pair{"audit.database_build", Median(stage_db)},
          std::pair{"audit.audit", Median(stage_audit)},
          std::pair{"audit.render", Median(stage_render)}}) {
      std::snprintf(line, sizeof(line), "  %-22s %9.3f ms  %5.1f%%", name, v,
                    100.0 * v / total);
      out.breakdown.push_back(line);
    }
  }
  return out;
}

}  // namespace perfbench
