// Repair-chaos test: a replica is killed and stays down long enough that
// the fleet sink's per-leg spool overflows — frames the dead replica never
// acknowledged are evicted, so NO retransmission can ever make it whole.
// On restart, the anti-entropy RepairAgent pulls the missing sealed ranges
// from live peers over TCP, Merkle-verifies them against the signed epoch
// roots, and converges the replica to byte-identical (size, root) per
// epoch; the live leg then dedups its replay and the fleet reconverges to
// full-ack. The acceptance bar is the audit report: byte-for-byte the same
// as an uninterrupted single-logger baseline. A wire peer serving a forged
// history must instead be rejected with a distinct repair verdict and leave
// the local store untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "adlp/component.h"
#include "adlp/remote_log.h"
#include "adlp/repair.h"
#include "adlp/replicated_log.h"
#include "audit/auditor.h"
#include "audit/replica_check.h"
#include "audit/report_json.h"
#include "test_util.h"

namespace adlp {
namespace {

using test::WaitFor;

constexpr int kMessagesBeforeKill = 4;
constexpr int kMessagesAfterKill = 8;
constexpr int kTotalMessages = kMessagesBeforeKill + kMessagesAfterKill;
constexpr std::size_t kExpectedEntries = 2u * kTotalMessages;
constexpr std::uint64_t kSealEvery = 4;
constexpr std::size_t kReplicas = 3;
// Small enough that the post-kill traffic (2 * kMessagesAfterKill frames)
// blows past it: the dead replica's gap becomes unrecoverable by replay.
// Publishing is paced against the HEALTHY replicas' ingestion below, so
// only the dead leg ever accumulates a spool this deep.
constexpr std::size_t kTinySpool = 6;

proto::LogServerOptions FleetServerOptions() {
  proto::LogServerOptions options;
  options.seal_every = kSealEvery;
  return options;
}

proto::ResilientLogSinkOptions FastLegOptions() {
  proto::ResilientLogSinkOptions options;
  options.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.connect = transport::TcpConnectOptions{1, 200, 10, 50};
  return options;
}

audit::ReplicaCheckOptions FleetKey() {
  audit::ReplicaCheckOptions options;
  options.seal_key =
      proto::EpochSealKeys(proto::LogServerOptions{}.seal_key_seed).pub;
  return options;
}

struct RunOutcome {
  audit::AuditReport report;
  std::string rendered;
  std::string json;
};

/// The uninterrupted single-logger reference run.
RunOutcome RunSingleLoggerBaseline() {
  proto::LogServer server(FleetServerOptions());
  proto::LogServerService service(server, 0);
  proto::ResilientLogSink sink(service.Port(), FastLegOptions());

  pubsub::Master master;
  Rng rng(20260807);
  proto::Component camera("camera", master, sink, rng, test::FastOptions());
  proto::Component detector("detector", master, sink, rng,
                            test::FastOptions());
  std::atomic<int> got{0};
  detector.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& publisher = camera.Advertise("image");
  for (int i = 0; i < kTotalMessages; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kTotalMessages; }));
  camera.Shutdown();
  detector.Shutdown();
  EXPECT_TRUE(sink.Drain(std::chrono::seconds(10)));
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == kExpectedEntries; }));
  server.SealEpoch();

  RunOutcome outcome;
  outcome.report = audit::Auditor(server.Keys())
                       .Audit(server.Entries(), master.Topology());
  audit::ReplicaEvidence self;
  self.name = "replica-0";
  self.records = server.SerializedRecords();
  self.roots = server.EpochRoots();
  audit::ReplicaCheckResult check = audit::CheckReplicas({self}, FleetKey());
  EXPECT_TRUE(check.Clean());
  audit::ApplyReplicaFindings(outcome.report, std::move(check));
  outcome.rendered = outcome.report.Render();
  outcome.json = audit::RenderReportJson(outcome.report);
  service.Shutdown();
  return outcome;
}

TEST(RepairChaosTest, RestartPastSpoolHorizonConvergesViaPeerRepair) {
  const RunOutcome baseline = RunSingleLoggerBaseline();
  ASSERT_TRUE(baseline.report.unfaithful.empty());

  std::deque<proto::LogServer> servers;
  std::vector<std::unique_ptr<proto::LogServerService>> services;
  std::vector<proto::ReplicatedLogSink::Connector> connectors;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    servers.emplace_back(FleetServerOptions());
    services.push_back(
        std::make_unique<proto::LogServerService>(servers[i], 0));
    const std::uint16_t port = services[i]->Port();
    connectors.push_back([port]() {
      return transport::TryTcpConnect(
          port, transport::TcpConnectOptions{1, 200, 10, 50});
    });
  }
  const std::uint16_t killed_port = services[2]->Port();
  const std::uint16_t peer_ports[2] = {services[0]->Port(),
                                       services[1]->Port()};

  proto::ReplicatedLogSinkOptions options;
  options.sink_id = "fleet-sink";
  options.replica = FastLegOptions();
  options.replica.spool_capacity = kTinySpool;
  proto::ReplicatedLogSink sink(std::move(connectors), options);

  pubsub::Master master;
  Rng rng(20260807);
  proto::Component camera("camera", master, sink, rng, test::FastOptions());
  proto::Component detector("detector", master, sink, rng,
                            test::FastOptions());
  std::atomic<int> got{0};
  detector.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& publisher = camera.Advertise("image");

  // Paced publishing: wait for the live replicas to ingest each message
  // before sending the next, so a healthy leg's spool never overflows —
  // spool pressure builds only behind the replica we kill.
  for (int i = 0; i < kMessagesBeforeKill; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
    const std::size_t want = 2u * (i + 1);
    for (auto& server : servers) {
      EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == want; }));
    }
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kMessagesBeforeKill; }));

  // Kill replica 2's front-end, then log far past its leg's spool horizon.
  services[2]->Shutdown();
  services[2].reset();
  for (int i = kMessagesBeforeKill; i < kTotalMessages; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
    const std::size_t want = 2u * (i + 1);
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_TRUE(WaitFor([&] { return servers[r].EntryCount() == want; }));
    }
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kTotalMessages; }));
  camera.Shutdown();
  detector.Shutdown();

  // The dead leg evicted frames it never got acknowledged: replay alone can
  // no longer make replica 2 whole. This is the gap repair exists for.
  EXPECT_TRUE(WaitFor(
      [&] { return sink.ReplicaStats(2).entries_evicted_unacked > 0; }));

  // The healthy quorum commits everything and seals its full history.
  EXPECT_TRUE(sink.DrainCommitted(std::chrono::seconds(10)));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(WaitFor(
        [&] { return servers[i].EntryCount() == kExpectedEntries; }));
    servers[i].SealEpoch();
  }

  // Restart replica 2 and let the repair agent pull from both live peers.
  services[2] =
      std::make_unique<proto::LogServerService>(servers[2], killed_port);
  proto::RepairAgentOptions repair;
  repair.seal_key = servers[2].SealKey();
  repair.poll_interval_ms = 5;
  repair.peers.push_back(proto::TcpRepairPeer("replica-0", peer_ports[0]));
  repair.peers.push_back(proto::TcpRepairPeer("replica-1", peer_ports[1]));
  proto::RepairAgent agent(servers[2], repair);
  agent.Start();

  // Convergence bar: byte-identical (size, root) — overall and per epoch.
  ASSERT_TRUE(WaitFor(
      [&] {
        return servers[2].EntryCount() == kExpectedEntries &&
               servers[2].MerkleRoot() == servers[0].MerkleRoot();
      },
      std::chrono::seconds(20)));
  const auto reference = servers[0].EpochRoots();
  for (std::size_t i = 1; i < kReplicas; ++i) {
    const auto roots = servers[i].EpochRoots();
    ASSERT_EQ(roots.size(), reference.size()) << "replica " << i;
    for (std::size_t e = 0; e < roots.size(); ++e) {
      EXPECT_EQ(roots[e].epoch, reference[e].epoch);
      EXPECT_EQ(roots[e].tree_size, reference[e].tree_size);
      EXPECT_EQ(roots[e].root, reference[e].root);
    }
  }
  EXPECT_TRUE(servers[2].VerifyRecords());
  EXPECT_TRUE(agent.Findings().empty()) << "live peers are honest";
  EXPECT_GT(agent.Stats().records_repaired, 0u);

  // Live-path reconvergence: the repaired watermark dedups the leg's
  // replayed spool remnant and the leg acks up to the global frontier.
  const std::uint64_t last_seq = sink.Stats().last_seq;
  EXPECT_TRUE(WaitFor(
      [&] { return sink.Stats().replica_acked[2] == last_seq; },
      std::chrono::seconds(20)));
  agent.Stop();

  // The audit — fleet cross-check included — is byte-identical to the
  // uninterrupted baseline: repair left no residue.
  RunOutcome outcome;
  outcome.report = audit::Auditor(servers[0].Keys())
                       .Audit(servers[0].Entries(), master.Topology());
  std::vector<audit::ReplicaEvidence> fleet;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    audit::ReplicaEvidence evidence;
    evidence.name = "replica-" + std::to_string(i);
    evidence.records = servers[i].SerializedRecords();
    evidence.roots = servers[i].EpochRoots();
    fleet.push_back(std::move(evidence));
  }
  audit::ReplicaCheckResult check = audit::CheckReplicas(fleet, FleetKey());
  EXPECT_TRUE(check.Clean());
  EXPECT_TRUE(check.behind.empty()) << "repaired replica is not behind";
  audit::ApplyReplicaFindings(outcome.report, std::move(check));
  EXPECT_EQ(outcome.report.Render(), baseline.rendered);
  EXPECT_EQ(audit::RenderReportJson(outcome.report), baseline.json);

  for (auto& service : services) {
    if (service) service->Shutdown();
  }
}

TEST(RepairChaosTest, ForgedHistoryPeerOverWireRejectedWithDistinctVerdict) {
  // A wire peer with validly SIGNED seals over a different history (it
  // holds the fleet seal key — the strongest forgery available) must fail
  // the consistency gate: it cannot prove the local tree is a prefix of
  // its claimed root. Distinct fork verdict; local store untouched.
  proto::LogServer local(FleetServerOptions());
  proto::LogServer forger(FleetServerOptions());
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    proto::LogEntry e;
    e.component = "camera";
    e.topic = "image";
    e.seq = seq;
    e.data = BytesOf("honest-" + std::to_string(seq));
    local.Append(e);
  }
  for (std::uint64_t seq = 0; seq < 12; ++seq) {
    proto::LogEntry e;
    e.component = "ghost";
    e.topic = "image";
    e.seq = seq;
    e.data = BytesOf("forged-" + std::to_string(seq));
    forger.Append(e);
  }
  forger.SealEpoch();
  const std::size_t local_entries = local.EntryCount();
  const crypto::Digest local_root = local.MerkleRoot();

  proto::LogServerService service(forger, 0);
  proto::RepairAgentOptions repair;
  repair.seal_key = local.SealKey();
  repair.peers.push_back(proto::TcpRepairPeer("forger", service.Port()));
  proto::RepairAgent agent(local, repair);

  EXPECT_EQ(agent.RunOnce(), 0u);
  const auto findings = agent.Findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].finding, proto::RepairFinding::kForkDetected);
  EXPECT_EQ(findings[0].peer, "forger");
  EXPECT_EQ(local.EntryCount(), local_entries);
  EXPECT_EQ(local.MerkleRoot(), local_root);
  service.Shutdown();
}

}  // namespace
}  // namespace adlp
