// Third-party investigator workflow: the log file and system manifest are
// the ONLY artifacts crossing the boundary — the investigation never
// touches the live system, the manufacturer's tooling, or any in-memory
// state. (The paper's motivation: proprietary black-box formats keep
// examiners like the NTSB from auditing independently.)
//
//   build/examples/investigator [workdir]
//
// Phase 1 (the "vehicle"): runs the self-driving app with a misbehaving
// planner, exports <workdir>/incident.adlplog and <workdir>/system.manifest.
// Phase 2 (the "investigator"): loads the two files, verifies the hash
// chain, audits every transmission, assigns responsibility, and walks the
// provenance of the last steering command back to the sensors.
#include <cstdio>
#include <string>

#include "adlp/log_file.h"
#include "audit/auditor.h"
#include "audit/manifest.h"
#include "audit/provenance.h"
#include "audit/report_json.h"
#include "faults/behavior.h"
#include "sim/app.h"

using namespace adlp;

namespace {

void RunVehicleAndExport(const std::string& log_path,
                         const std::string& manifest_path) {
  pubsub::Master master;
  proto::LogServer log_server;

  sim::AppOptions options;
  options.component.scheme = proto::LoggingScheme::kAdlp;
  options.component.rsa_bits = 1024;
  options.realtime = false;

  // The planner falsifies the plans it logs (e.g. to claim it commanded a
  // stop it never commanded).
  options.fault_wrappers["planner"] =
      [](proto::LogPipe& inner, const proto::NodeIdentity& identity) {
        auto behavior = std::make_shared<faults::FalsificationBehavior>(
            faults::FaultFilter{.topic = "plan",
                                .direction = proto::Direction::kOut},
            std::make_shared<proto::NodeIdentity>(identity));
        return std::make_unique<faults::UnfaithfulLogPipe>(inner, behavior);
      };

  sim::SelfDrivingApp app(master, log_server, options);
  app.Run(2.0);
  app.Shutdown();

  proto::WriteLogFile(log_path, log_server);
  audit::WriteManifestFile(manifest_path, master.Topology(),
                           log_server.Keys());
  std::printf("[vehicle] exported %zu log entries to %s\n",
              log_server.EntryCount(), log_path.c_str());
  std::printf("[vehicle] exported manifest (%zu topics, %zu keys) to %s\n",
              master.Topology().size(), log_server.Keys().Size(),
              manifest_path.c_str());
}

int Investigate(const std::string& log_path,
                const std::string& manifest_path) {
  std::printf("\n[investigator] loading artifacts...\n");
  proto::LoadedLog log = proto::ReadLogFile(log_path);
  const audit::LoadedManifest manifest =
      audit::ReadManifestFile(manifest_path);

  std::printf("[investigator] %zu entries, Merkle root %s\n",
              log.entries.size(),
              log.verified ? "VERIFIES (log is exactly as written)"
                           : "MISMATCH (log was tampered with!)");
  if (!log.verified) return 1;

  const audit::LogDatabase db(std::move(log.entries), manifest.topology);
  audit::Auditor auditor(manifest.keys);
  const audit::AuditReport report = auditor.Audit(db);
  std::printf("\n%s", report.Render().c_str());

  // Machine-readable exhibit for downstream tooling.
  {
    audit::JsonOptions json_options;
    json_options.include_verdicts = false;  // keep the exhibit small
    const std::string json = audit::RenderReportJson(report, json_options);
    std::FILE* f = std::fopen("/tmp/audit_report.json", "w");
    if (f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\n[investigator] JSON report written to "
                  "/tmp/audit_report.json (%zu bytes)\n",
                  json.size());
    }
  }

  // Provenance: trace the final steering command back to its sensory
  // origin, purely from the log.
  std::uint64_t last_steering_seq = 0;
  for (const auto& entry : db.RawEntries()) {
    if (entry.topic == "steering" && entry.seq > last_steering_seq) {
      last_steering_seq = entry.seq;
    }
  }
  if (last_steering_seq > 0) {
    audit::ProvenanceGraph graph(db);
    const audit::PairKey last{"steering", last_steering_seq, "actuator"};
    std::printf("\n%s", graph.RenderAncestry(last).c_str());
  }

  if (report.unfaithful.empty()) {
    std::printf("\n[investigator] no responsibility assignable.\n");
    return 1;
  }
  std::printf("\n[investigator] responsibility assigned to:");
  for (const auto& id : report.unfaithful) std::printf(" %s", id.c_str());
  std::printf("\n");
  return report.Blames("planner") && report.unfaithful.size() == 1 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : "/tmp";
  const std::string log_path = workdir + "/incident.adlplog";
  const std::string manifest_path = workdir + "/system.manifest";

  RunVehicleAndExport(log_path, manifest_path);
  const int rc = Investigate(log_path, manifest_path);
  std::printf("\n==> %s\n", rc == 0
                                ? "offline investigation pinned the planner."
                                : "UNEXPECTED investigation outcome.");
  return rc;
}
