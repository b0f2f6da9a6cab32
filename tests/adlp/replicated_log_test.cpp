// Quorum-commit semantics of ReplicatedLogSink over an in-process replica
// fleet: majority defaults, commit stalls below quorum, retransmission
// after a replica drop with exactly-once application, and per-replica
// watermark accounting.
#include "adlp/replicated_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "adlp/remote_log.h"
#include "test_util.h"
#include "transport/fault_inject.h"

namespace adlp::proto {
namespace {

using test::WaitFor;

LogEntry EntryWithSeq(std::uint64_t seq) {
  LogEntry e;
  e.component = "node";
  e.topic = "t";
  e.seq = seq;
  return e;
}

/// Per-leg options tuned for tests: tiny backoff so reconnects happen in ms.
ResilientLogSinkOptions FastLegOptions() {
  ResilientLogSinkOptions options;
  options.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.connect = transport::TcpConnectOptions{1, 200, 10, 50};
  return options;
}

/// An in-process replica fleet: N independent LogServers, each behind its
/// own TCP service.
struct Fleet {
  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<LogServer>());
      services.push_back(std::make_unique<LogServerService>(*servers[i], 0));
    }
  }
  ~Fleet() {
    for (auto& s : services) {
      if (s) s->Shutdown();
    }
  }

  std::vector<ReplicatedLogSink::Connector> Connectors() const {
    std::vector<ReplicatedLogSink::Connector> out;
    for (const auto& s : services) {
      const std::uint16_t port = s->Port();
      out.push_back([port]() {
        return transport::TryTcpConnect(
            port, transport::TcpConnectOptions{1, 200, 10, 50});
      });
    }
    return out;
  }

  std::vector<std::unique_ptr<LogServer>> servers;
  std::vector<std::unique_ptr<LogServerService>> services;
};

TEST(ReplicatedLogSinkTest, EmptyFleetIsRejected) {
  // A zero-replica sink would "commit" every append while logging nothing;
  // the misconfiguration must be loud instead of silently evidence-free.
  EXPECT_THROW(ReplicatedLogSink({}, {}), std::invalid_argument);
}

TEST(ReplicatedLogSinkTest, QuorumDefaultsToMajorityAndClamps) {
  // Connectors that never connect: quorum math needs no live fleet.
  auto down = []() -> std::shared_ptr<transport::AsyncChannel> { return nullptr; };
  {
    ReplicatedLogSink sink({down, down, down},
                           {.replica = FastLegOptions()});
    EXPECT_EQ(sink.ReplicaCount(), 3u);
    EXPECT_EQ(sink.Quorum(), 2u);
  }
  {
    ReplicatedLogSink sink({down, down, down, down, down},
                           {.replica = FastLegOptions()});
    EXPECT_EQ(sink.Quorum(), 3u);
  }
  {
    ReplicatedLogSink sink({down, down, down},
                           {.quorum = 7, .replica = FastLegOptions()});
    EXPECT_EQ(sink.Quorum(), 3u) << "quorum larger than fleet clamps to N";
  }
}

TEST(ReplicatedLogSinkTest, CommitsOnFullFleetAndDeliversEverywhere) {
  Fleet fleet(3);
  ReplicatedLogSink sink(fleet.Connectors(), {.replica = FastLegOptions()});

  Rng rng(21);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  for (std::uint64_t i = 0; i < 5; ++i) sink.Append(EntryWithSeq(i));

  ASSERT_TRUE(sink.DrainCommitted(std::chrono::seconds(5)));
  EXPECT_EQ(sink.LastSeq(), 6u);  // 1 key + 5 entries
  EXPECT_GE(sink.CommittedSeq(), 6u);

  // Quorum is 2 of 3, but with a healthy fleet every replica converges.
  for (auto& server : fleet.servers) {
    EXPECT_TRUE(WaitFor([&] { return server->EntryCount() == 5; }));
    EXPECT_TRUE(server->Keys().Contains("node"));
    EXPECT_TRUE(server->VerifyRecords());
  }

  const ReplicatedSinkStats stats = sink.Stats();
  ASSERT_EQ(stats.replica_acked.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(WaitFor([&] { return sink.Stats().replica_acked[i] == 6; }))
        << "replica " << i << " must ack the full stream";
  }
}

TEST(ReplicatedLogSinkTest, CommitStallsBelowQuorumThenRecovers) {
  Fleet fleet(3);
  // Replicas 1 and 2 are unreachable until flipped up.
  std::atomic<bool> up1{false};
  std::atomic<bool> up2{false};
  auto base = fleet.Connectors();
  std::vector<ReplicatedLogSink::Connector> connectors;
  connectors.push_back(base[0]);
  connectors.push_back([&, c = base[1]]() -> std::shared_ptr<transport::AsyncChannel> {
    return up1.load() ? c() : nullptr;
  });
  connectors.push_back([&, c = base[2]]() -> std::shared_ptr<transport::AsyncChannel> {
    return up2.load() ? c() : nullptr;
  });
  ReplicatedLogSink sink(std::move(connectors),
                         {.replica = FastLegOptions()});

  for (std::uint64_t i = 0; i < 3; ++i) sink.Append(EntryWithSeq(i));

  // One ack of three is below the write quorum of two: nothing commits,
  // even though replica 0 has durably ingested everything.
  ASSERT_TRUE(
      WaitFor([&] { return fleet.servers[0]->EntryCount() == 3; }));
  EXPECT_FALSE(sink.WaitCommitted(3, std::chrono::milliseconds(200)));
  EXPECT_EQ(sink.CommittedSeq(), 0u);

  // A second replica coming up completes the quorum.
  up1.store(true);
  EXPECT_TRUE(sink.DrainCommitted(std::chrono::seconds(5)));
  EXPECT_EQ(sink.CommittedSeq(), 3u);
  EXPECT_TRUE(WaitFor([&] { return fleet.servers[1]->EntryCount() == 3; }));
  EXPECT_EQ(fleet.servers[2]->EntryCount(), 0u);
}

TEST(ReplicatedLogSinkTest, ReplicaDropRetransmitsExactlyOnce) {
  Fleet fleet(3);
  // Replica 2's first connection dies after 3 frames; the leg reconnects
  // and retransmits every unacked frame. The server-side per-sink seq
  // watermark must collapse the overlap to exactly-once application.
  auto base = fleet.Connectors();
  std::atomic<int> connections{0};
  std::vector<ReplicatedLogSink::Connector> connectors;
  connectors.push_back(base[0]);
  connectors.push_back(base[1]);
  connectors.push_back([&, c = base[2]]() -> std::shared_ptr<transport::AsyncChannel> {
    auto inner = c();
    if (!inner) return nullptr;
    transport::FaultPlan plan;
    if (connections.fetch_add(1) == 0) plan.disconnect_after_frames = 3;
    return transport::WrapWithFaults(std::move(inner), plan, Rng(7));
  });
  // Quorum of 3: DrainCommitted below proves even the faulty replica
  // acknowledged the entire stream.
  ReplicatedLogSink sink(std::move(connectors),
                         {.quorum = 3, .replica = FastLegOptions()});

  Rng rng(22);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  for (std::uint64_t i = 0; i < 10; ++i) sink.Append(EntryWithSeq(i));

  ASSERT_TRUE(sink.DrainCommitted(std::chrono::seconds(5)));
  for (std::size_t r = 0; r < 3; ++r) {
    ASSERT_EQ(fleet.servers[r]->EntryCount(), 10u)
        << "replica " << r << ": retransmission must not duplicate entries";
    const auto entries = fleet.servers[r]->Entries();
    for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(entries[i].seq, i);
    EXPECT_TRUE(fleet.servers[r]->VerifyRecords());
    EXPECT_TRUE(fleet.servers[r]->Keys().Contains("node"));
  }
  EXPECT_GE(sink.ReplicaStats(2).reconnects, 1u);
  EXPECT_EQ(sink.ReplicaStats(2).acked_seq, 11u);
}

TEST(ReplicatedLogSinkTest, ReconnectMustNotReplayUnackedKeyAheadOfEntries) {
  // Regression: a key registered AFTER unacked entries gets a higher seq.
  // If a reconnect re-sent that key frame ahead of the spool replay, the
  // server's per-sink watermark would jump past the unacked entries and the
  // cumulative ack would release them from the spool unapplied — silent
  // log-entry loss that later reads as replica divergence.
  Fleet fleet(1);
  LogServer& server = *fleet.servers[0];
  const std::uint16_t port = fleet.services[0]->Port();
  std::atomic<int> connections{0};
  ResilientLogSink::Connector connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
    auto inner = transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
    if (!inner) return nullptr;
    if (connections.fetch_add(1) == 0) {
      // Connection 1 dies after forwarding one frame: entry seq 1 reaches
      // the server; entry seq 2 and the key (seq 3) stay spooled unacked.
      transport::FaultPlan plan;
      plan.disconnect_after_frames = 1;
      return transport::WrapWithFaults(std::move(inner), plan, Rng(7));
    }
    return inner;
  };
  ResilientLogSinkOptions options = FastLegOptions();
  options.sink_id = "sink-a";
  ResilientLogSink sink(connector, options);

  EXPECT_EQ(sink.AppendAcked(EntryWithSeq(0)), 1u);
  EXPECT_EQ(sink.AppendAcked(EntryWithSeq(1)), 2u);
  Rng rng(23);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  EXPECT_EQ(sink.RegisterKeyAcked("node", kp.pub), 3u);

  // Acked-mode Drain == everything acknowledged by the server.
  ASSERT_TRUE(sink.Drain(std::chrono::seconds(5)));
  ASSERT_EQ(server.EntryCount(), 2u)
      << "reconnect replay lost an unacked entry below the key's seq";
  const auto entries = server.Entries();
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[1].seq, 1u);
  EXPECT_TRUE(server.Keys().Contains("node"));
  EXPECT_TRUE(server.VerifyRecords());
  EXPECT_EQ(sink.Stats().acked_seq, 3u);
  EXPECT_GE(sink.Stats().reconnects, 1u);
}

TEST(ReplicatedLogSinkTest, SingleReplicaDegeneratesToAckedSink) {
  Fleet fleet(1);
  ReplicatedLogSink sink(fleet.Connectors(), {.replica = FastLegOptions()});
  EXPECT_EQ(sink.Quorum(), 1u);
  for (std::uint64_t i = 0; i < 4; ++i) sink.Append(EntryWithSeq(i));
  EXPECT_TRUE(sink.DrainCommitted(std::chrono::seconds(5)));
  EXPECT_EQ(fleet.servers[0]->EntryCount(), 4u);
  EXPECT_EQ(sink.CommittedSeq(), 4u);
}

TEST(ReplicatedLogSinkTest, DestroyWhileAcksInFlight) {
  // Each leg's ack handler calls back into the replicated sink. Destroying
  // the sink mid-stream must wait out a running callback and turn later
  // ones away; a late one would touch freed state (caught under ASan and
  // TSan).
  Fleet fleet(3);
  for (int round = 0; round < 10; ++round) {
    auto sink = std::make_unique<ReplicatedLogSink>(
        fleet.Connectors(), ReplicatedLogSinkOptions{.replica = FastLegOptions()});
    for (std::uint64_t i = 0; i < 200; ++i) sink->Append(EntryWithSeq(i));
    ASSERT_TRUE(WaitFor([&] { return sink->CommittedSeq() > 0; }));
    sink.reset();
  }
}

// --- Thread budget -----------------------------------------------------------

/// Threads in this process right now.
std::size_t ThreadCount() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ThreadBudgetTest, ConnectedSinksAddNoThreads) {
  // A sink is a state machine on the shared reactor: a connected legacy
  // sink, a connected acked sink and a 3-replica quorum sink with every leg
  // acked own no thread of their own.
  Fleet fleet(3);  // the services warm Reactor::Global()
  const std::uint16_t port = fleet.services[0]->Port();
  const auto baseline = static_cast<std::int64_t>(ThreadCount());
  const auto added = [&] {
    return static_cast<std::int64_t>(ThreadCount()) - baseline;
  };

  {
    ResilientLogSink legacy(port, FastLegOptions());
    legacy.Append(EntryWithSeq(0));
    ASSERT_TRUE(WaitFor([&] { return fleet.servers[0]->EntryCount() == 1; }));
    ASSERT_TRUE(legacy.Connected());
    EXPECT_LE(added(), 0) << "legacy sink";
  }
  {
    ResilientLogSinkOptions options = FastLegOptions();
    options.sink_id = "budget-acked";
    ResilientLogSink acked(port, options);
    const std::uint64_t seq = acked.AppendAcked(EntryWithSeq(1));
    ASSERT_TRUE(WaitFor([&] { return acked.Stats().acked_seq == seq; }));
    ASSERT_TRUE(acked.Connected());
    EXPECT_LE(added(), 0) << "acked sink";
  }
  {
    ReplicatedLogSink replicated(
        fleet.Connectors(),
        {.sink_id = "budget-repl", .replica = FastLegOptions()});
    replicated.Append(EntryWithSeq(2));
    ASSERT_TRUE(WaitFor([&] {
      for (const std::uint64_t acked : replicated.Stats().replica_acked) {
        if (acked != replicated.LastSeq()) return false;
      }
      return true;
    }));
    EXPECT_LE(added(), 0) << "3-replica sink";
  }
}

}  // namespace
}  // namespace adlp::proto
