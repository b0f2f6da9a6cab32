// adlp_audit — command-line auditor for exported evidence.
//
//   adlp_audit <log-file> <manifest-file> [--json] [--verdicts]
//              [--threads N] [--metrics-out FILE]
//              [--streaming] [--epoch N]
//              [--replica FILE]... [--replica-addr HOST:PORT]...
//              [--seal-key-seed N]
//              [--trace <topic> <seq> <subscriber>]
//
// Loads a tamper-evident log file and a system manifest (see
// examples/investigator for how a system exports them), verifies the
// records against the file's Merkle root, audits every transmission, and
// prints either the human-readable report or a JSON exhibit. The audit
// replays the entries in file order through the StreamingAuditor with no
// intermediate seals; --threads N splits that replay into topic partitions
// audited concurrently. With --trace, also prints the provenance ancestry
// of one transmission instance.
//
// With --streaming, the replay seals an epoch every N entries (--epoch,
// default 256) instead, and each misbehaving pair is announced at the epoch
// that flags it rather than at the end. Sealing only moves when a finding
// surfaces, never what it is: the final report is byte-identical in every
// mode, so exit codes and JSON output carry the same meaning.
//
// Each --replica adds another fleet member's log file. The sealed epoch
// roots of every file (including the primary) are then cross-audited: seal
// signatures under the fleet key (regenerated from --seal-key-seed, default
// 0x5ea1 — the LogServer default), per-replica chain linkage, sealed roots
// against roots recomputed from each file's records (spot-checked with
// sampled inclusion proofs), and cross-replica root agreement. Divergent
// roots for one epoch are logger equivocation: the logger identity joins
// the unfaithful set. An honest fleet adds nothing to the report, so its
// output is byte-identical to a single-logger audit's.
//
// Each --replica-addr HOST:PORT (or just PORT) audits a LIVE replica over
// the wire instead of an exported file: the auditor dials the replica's
// upload port, fetches its signed epoch roots through the read-side sync
// protocol (adlp/sync_msgs.h), and cross-audits them with the file
// evidence exactly as above. Store integrity is spot-checked by fetching
// sampled records plus their inclusion proofs over the same connection and
// verifying them against the signed roots — no log file ever leaves the
// replica. On an honest fleet the resulting report is byte-identical to
// the exported-file path. An unreachable replica is missing evidence
// (exit 2), not a silent skip.
//
// Exit status: 0 = Merkle root verifies and no component implicated;
//              1 = unfaithful components identified;
//              2 = evidence tampered or unreadable (including replica
//                  store/seal findings short of equivocation);
//              3 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adlp/log_file.h"
#include "adlp/sync_msgs.h"
#include "audit/auditor.h"
#include "audit/manifest.h"
#include "audit/provenance.h"
#include "audit/replica_check.h"
#include "audit/report_json.h"
#include "audit/streaming_auditor.h"
#include "obs/export.h"

using namespace adlp;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: adlp_audit <log-file> <manifest-file> [--json] "
               "[--verdicts] [--threads N] [--metrics-out FILE] "
               "[--streaming] [--epoch N] "
               "[--replica FILE]... [--replica-addr HOST:PORT]... "
               "[--seal-key-seed N] "
               "[--trace <topic> <seq> <subscriber>]\n");
  return 3;
}

/// "HOST:PORT" or bare "PORT" (host defaults to 127.0.0.1). False on a
/// malformed port.
bool ParseReplicaAddr(const std::string& addr, std::string& host,
                      std::uint16_t& port) {
  host = "127.0.0.1";
  std::string port_str = addr;
  if (const std::size_t colon = addr.rfind(':'); colon != std::string::npos) {
    host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  if (host.empty() || port_str.empty()) return false;
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string log_path = argv[1];
  const std::string manifest_path = argv[2];
  bool json = false;
  bool verdicts = false;
  bool trace = false;
  bool streaming = false;
  std::size_t epoch_entries = 256;
  std::vector<std::string> replica_paths;
  std::vector<std::string> replica_addrs;
  std::uint64_t seal_key_seed = 0x5ea1;
  std::string metrics_out;
  audit::AuditOptions exec;
  audit::PairKey trace_key;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--verdicts") == 0) {
      verdicts = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      exec.threads = std::strtoull(argv[++i], nullptr, 10);
      if (exec.threads == 0) return Usage();
    } else if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
    } else if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      epoch_entries = std::strtoull(argv[++i], nullptr, 10);
      if (epoch_entries == 0) return Usage();
    } else if (std::strcmp(argv[i], "--replica") == 0 && i + 1 < argc) {
      replica_paths.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--replica-addr") == 0 && i + 1 < argc) {
      replica_addrs.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--seal-key-seed") == 0 && i + 1 < argc) {
      seal_key_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 3 < argc) {
      trace = true;
      trace_key.topic = argv[i + 1];
      trace_key.seq = std::strtoull(argv[i + 2], nullptr, 10);
      trace_key.subscriber = argv[i + 3];
      i += 3;
    } else {
      return Usage();
    }
  }

  proto::LoadedLog log;
  audit::LoadedManifest manifest;
  try {
    log = proto::ReadLogFile(log_path);
    manifest = audit::ReadManifestFile(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adlp_audit: %s\n", e.what());
    return 2;
  }

  if (!log.verified) {
    std::fprintf(stderr,
                 "adlp_audit: MERKLE ROOT MISMATCH — the log file is not what "
                 "the trusted logger wrote (%zu records, %zu unparseable)\n",
                 log.records.size(), log.malformed_records);
    return 2;
  }

  // Fleet evidence: the primary file plus every --replica file. Entries are
  // audited from the primary; the epoch roots of all members cross-check.
  std::vector<audit::ReplicaEvidence> fleet;
  fleet.push_back({log_path, std::move(log.records), log.epoch_roots, false});
  for (const std::string& path : replica_paths) {
    try {
      proto::LoadedLog replica = proto::ReadLogFile(path);
      if (!replica.verified) {
        std::fprintf(stderr, "adlp_audit: MERKLE ROOT MISMATCH in replica %s\n",
                     path.c_str());
        return 2;
      }
      fleet.push_back({path, std::move(replica.records),
                       std::move(replica.epoch_roots), false});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "adlp_audit: %s\n", e.what());
      return 2;
    }
  }
  // Live replicas join the same fleet as roots-only members; their store
  // spot checks run over the wire after the cross-audit. Clients stay open
  // so the proof fetches reuse the root-fetch connection.
  std::vector<std::pair<std::size_t, std::unique_ptr<proto::SyncClient>>>
      wire_replicas;
  for (const std::string& addr : replica_addrs) {
    std::string host;
    std::uint16_t port = 0;
    if (!ParseReplicaAddr(addr, host, port)) return Usage();
    transport::TcpConnectOptions connect;
    connect.host = host;
    connect.attempts = 3;
    connect.connect_timeout_ms = 1000;
    auto client = proto::SyncClient::Dial(port, connect);
    auto evidence =
        client ? audit::FetchReplicaEvidence(*client, addr) : std::nullopt;
    if (!evidence) {
      std::fprintf(stderr, "adlp_audit: replica %s unreachable\n",
                   addr.c_str());
      return 2;
    }
    fleet.push_back(std::move(*evidence));
    wire_replicas.emplace_back(fleet.size() - 1, std::move(client));
  }
  bool any_roots = false;
  for (const auto& member : fleet) any_roots |= !member.roots.empty();

  const audit::LogDatabase db(std::move(log.entries), manifest.topology);
  audit::AuditReport report;
  if (streaming) {
    // Epoch-sealed replay: findings are announced at the epoch that seals
    // them, and the finalized report is the seal-free audit's verbatim.
    audit::StreamingOptions options;
    std::size_t epoch = 0;
    if (!json) {
      options.on_finding = [&epoch](const audit::PairVerdict& v,
                                    Timestamp /*detect_ns*/) {
        std::printf("epoch %zu: [%s] %s#%llu -> %s\n", epoch,
                    std::string(audit::FindingName(v.finding)).c_str(),
                    v.topic.c_str(), static_cast<unsigned long long>(v.seq),
                    v.subscriber.c_str());
      };
    }
    audit::StreamingAuditor online(manifest.keys, manifest.topology, options);
    std::size_t since_seal = 0;
    for (const auto& entry : db.RawEntries()) {
      online.OnEntry(entry);
      if (++since_seal == epoch_entries) {
        online.SealEpoch();
        since_seal = 0;
        ++epoch;
      }
    }
    online.SealEpoch();
    report = online.Finalize();
    if (!json) {
      const audit::StreamingStats stats = online.Stats();
      std::printf("streaming: %zu entries, %zu epochs, %zu pairs flagged "
                  "online, %zu late entries\n",
                  stats.entries, stats.epochs, stats.flagged,
                  stats.late_entries);
    }
  } else {
    const audit::Auditor auditor(manifest.keys);
    report = auditor.Audit(db, exec);
  }

  if (any_roots) {
    audit::ReplicaCheckOptions check;
    check.seal_key = proto::EpochSealKeys(seal_key_seed).pub;
    audit::ReplicaCheckResult fleet_result =
        audit::CheckReplicas(fleet, check);
    for (auto& [index, client] : wire_replicas) {
      audit::CheckReplicaWireProofs(*client, fleet[index], check,
                                    fleet_result);
    }
    if (!json) {
      std::printf("fleet: %zu member(s), %zu epoch-root finding(s), "
                  "%zu inclusion proof(s) verified\n",
                  fleet.size(), fleet_result.verdicts.size(),
                  fleet_result.proofs_checked);
      for (const auto& [name, epochs] : fleet_result.behind) {
        std::printf("fleet: %s is %llu epoch(s) behind (crash or "
                    "partition, not a finding)\n",
                    name.c_str(), static_cast<unsigned long long>(epochs));
      }
    }
    audit::ApplyReplicaFindings(report, std::move(fleet_result));
  }

  if (json) {
    audit::JsonOptions options;
    options.include_verdicts = verdicts;
    std::printf("%s\n", audit::RenderReportJson(report, options).c_str());
  } else {
    std::printf("evidence: %zu entries, Merkle root verifies\n",
                db.RawEntries().size());
    std::printf("%s", report.Render().c_str());
    if (verdicts) {
      for (const auto& v : report.verdicts) {
        if (v.finding == audit::Finding::kOk) continue;
        std::printf("  [%s] %s#%llu -> %s: %s\n",
                    std::string(audit::FindingName(v.finding)).c_str(),
                    v.topic.c_str(), static_cast<unsigned long long>(v.seq),
                    v.subscriber.c_str(), v.detail.c_str());
      }
    }
  }

  if (trace) {
    audit::ProvenanceGraph graph(db);
    std::printf("\n%s", graph.RenderAncestry(trace_key).c_str());
  }

  // Dump whatever the audit recorded (partition timings, signature
  // latencies). A `.prom` suffix selects Prometheus text;
  // anything else gets JSON with the event trace appended.
  if (!metrics_out.empty() && !obs::WriteMetricsFile(metrics_out)) {
    std::fprintf(stderr, "adlp_audit: cannot write metrics to %s\n",
                 metrics_out.c_str());
    return 2;
  }

  if (!report.unfaithful.empty()) return 1;
  // Replica findings short of equivocation (store rewritten after sealing,
  // forged seals) are evidence tampering.
  return report.replica_verdicts.empty() ? 0 : 2;
}
