// Failure-mode coverage for ResilientLogSink, driven deterministically
// through FaultInjectingChannel: logger dead at startup, logger dying
// mid-stream, spool overflow accounting, and reconnect-then-replay ordering.
#include "adlp/resilient_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

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

/// Options tuned for tests: tiny backoff so reconnects happen in ms.
ResilientLogSink::Options FastSinkOptions() {
  ResilientLogSink::Options options;
  options.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.connect = transport::TcpConnectOptions{1, 200, 10, 50};
  return options;
}

/// A port that was just free (listener bound then closed). Racy in theory,
/// fine for loopback tests.
std::uint16_t FreePort() {
  transport::TcpListener probe(0);
  return probe.Port();
}

TEST(ResilientLogSinkTest, LoggerDeadAtStartupSpoolsThenDelivers) {
  const std::uint16_t port = FreePort();
  ResilientLogSink sink(port, FastSinkOptions());  // nothing listening yet

  Rng rng(11);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  for (std::uint64_t i = 0; i < 3; ++i) sink.Append(EntryWithSeq(i));

  // Never blocks, never throws; frames wait in the spool.
  EXPECT_TRUE(WaitFor([&] { return sink.Stats().connect_failures >= 1; }));
  EXPECT_FALSE(sink.Connected());
  EXPECT_EQ(sink.Stats().entries_sent, 0u);

  // Logger comes up late: everything is delivered.
  LogServer server;
  LogServerService service(server, port);
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 3; }));
  EXPECT_TRUE(server.Keys().Contains("node"));
  EXPECT_TRUE(sink.Drain(std::chrono::seconds(5)));
  EXPECT_EQ(sink.Stats().entries_dropped, 0u);
  service.Shutdown();
}

TEST(ResilientLogSinkTest, LoggerDyingMidStreamReplaysInOrder) {
  LogServer server;
  auto service = std::make_unique<LogServerService>(server, 0);
  const std::uint16_t port = service->Port();

  // First connection hard-disconnects after 5 frames; later connections are
  // clean. This makes "the logger died under us" deterministic: the 6th
  // frame fails cleanly instead of racing TCP buffers.
  std::atomic<int> connections{0};
  auto connector = [&]() -> transport::ChannelPtr {
    auto inner = transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
    if (!inner) return nullptr;
    transport::FaultPlan plan;
    if (connections.fetch_add(1) == 0) plan.disconnect_after_frames = 5;
    return transport::WrapWithFaults(std::move(inner), plan, Rng(99));
  };
  ResilientLogSink sink(connector, FastSinkOptions());

  for (std::uint64_t i = 0; i < 5; ++i) sink.Append(EntryWithSeq(i));
  ASSERT_TRUE(WaitFor([&] { return server.EntryCount() == 5; }));

  // Kill the logger, then log while it is down.
  service->Shutdown();
  service.reset();
  for (std::uint64_t i = 5; i < 10; ++i) sink.Append(EntryWithSeq(i));
  EXPECT_TRUE(WaitFor([&] { return !sink.Connected(); }));

  // Restart on the same port: the sink reconnects and replays the spool.
  service = std::make_unique<LogServerService>(server, port);
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 10; }));

  const auto entries = server.Entries();
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(entries[i].seq, i) << "replay must preserve order";
  }
  const SinkStats stats = sink.Stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.entries_dropped, 0u);
  EXPECT_TRUE(server.VerifyRecords());
  service->Shutdown();
}

TEST(ResilientLogSinkTest, SpoolOverflowDropsOldestAndCounts) {
  // Connector fails until the flag flips: everything spools meanwhile.
  LogServer server;
  auto service = std::make_unique<LogServerService>(server, 0);
  const std::uint16_t port = service->Port();
  std::atomic<bool> reachable{false};
  auto connector = [&]() -> transport::ChannelPtr {
    if (!reachable.load()) return nullptr;
    return transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
  };
  ResilientLogSink::Options options = FastSinkOptions();
  options.spool_capacity = 4;
  ResilientLogSink sink(connector, options);

  for (std::uint64_t i = 0; i < 10; ++i) sink.Append(EntryWithSeq(i));
  EXPECT_TRUE(WaitFor([&] { return sink.Stats().entries_dropped == 6; }));
  EXPECT_EQ(sink.Stats().entries_spooled, 4u);
  EXPECT_EQ(sink.Stats().spool_high_water, 4u);

  // Once the logger is reachable, the *newest* 4 entries survive — the
  // oldest-drop policy favours recency.
  reachable.store(true);
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 4; }));
  const auto entries = server.Entries();
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(entries[i].seq, i + 6);

  // Legacy (unacked) mode: an evicted frame was never going to be
  // retransmitted anyway, so the unacked-eviction counter stays zero.
  EXPECT_EQ(sink.Stats().entries_evicted_unacked, 0u);
  service->Shutdown();
}

TEST(ResilientLogSinkTest, AckedModeSurfacesEvictedUnackedFrames) {
  // Regression: an acked-mode spool overflow silently discarded frames the
  // server had NOT acknowledged — past the spool horizon no retransmission
  // can ever deliver them, which is exactly the condition anti-entropy
  // repair exists for, yet SinkStats gave operators no way to see it.
  auto connector = []() -> transport::ChannelPtr { return nullptr; };
  ResilientLogSink::Options options = FastSinkOptions();
  options.spool_capacity = 4;
  options.sink_id = "sink-a";
  ResilientLogSink sink(connector, options);

  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_GT(sink.AppendAcked(EntryWithSeq(i)), 0u);
  }
  const SinkStats stats = sink.Stats();
  EXPECT_EQ(stats.entries_dropped, 6u);
  // Nothing was ever acked, so every eviction lost an unacked frame.
  EXPECT_EQ(stats.entries_evicted_unacked, 6u);
  EXPECT_EQ(stats.acked_seq, 0u);
}

TEST(ResilientLogSinkTest, KeysReRegisteredOnFreshLoggerState) {
  // The restarted logger has EMPTY state (new LogServer): only the sink's
  // key re-registration makes the replayed entries auditable.
  auto first_server = std::make_unique<LogServer>();
  auto service = std::make_unique<LogServerService>(*first_server, 0);
  const std::uint16_t port = service->Port();

  std::atomic<int> connections{0};
  auto connector = [&]() -> transport::ChannelPtr {
    auto inner = transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
    if (!inner) return nullptr;
    transport::FaultPlan plan;
    if (connections.fetch_add(1) == 0) plan.disconnect_after_frames = 3;
    return transport::WrapWithFaults(std::move(inner), plan, Rng(5));
  };
  ResilientLogSink sink(connector, FastSinkOptions());

  Rng rng(12);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  sink.Append(EntryWithSeq(0));
  sink.Append(EntryWithSeq(1));
  ASSERT_TRUE(WaitFor([&] { return first_server->EntryCount() == 2; }));

  service->Shutdown();
  service.reset();
  sink.Append(EntryWithSeq(2));  // trips the fault disconnect, then spools
  EXPECT_TRUE(WaitFor([&] { return !sink.Connected(); }));

  LogServer fresh_server;
  service = std::make_unique<LogServerService>(fresh_server, port);
  EXPECT_TRUE(WaitFor([&] { return fresh_server.EntryCount() == 1; }));
  EXPECT_TRUE(fresh_server.Keys().Contains("node"))
      << "keys must be re-registered on every reconnect";
  EXPECT_EQ(fresh_server.Keys().Find("node"), kp.pub);
  service->Shutdown();
}

TEST(ResilientLogSinkTest, StatsCountSends) {
  LogServer server;
  LogServerService service(server, 0);
  ResilientLogSink sink(service.Port(), FastSinkOptions());
  Rng rng(13);
  const auto kp = crypto::GenerateSigKeyPair(
      rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  for (std::uint64_t i = 0; i < 8; ++i) sink.Append(EntryWithSeq(i));
  ASSERT_TRUE(sink.Drain(std::chrono::seconds(5)));
  const SinkStats stats = sink.Stats();
  EXPECT_EQ(stats.entries_sent, 9u);  // 1 key + 8 entries
  EXPECT_EQ(stats.entries_spooled, 0u);
  EXPECT_EQ(stats.entries_dropped, 0u);
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 8; }));
  service.Shutdown();
}

TEST(LogServerServiceTest, ReapsFinishedConnections) {
  LogServer server;
  LogServerService service(server, 0);
  // Churn: connect, upload one frame, disconnect.
  for (int i = 0; i < 8; ++i) {
    auto channel = transport::TcpConnect(service.Port());
    ASSERT_TRUE(channel->Send(SerializeLogUpload(EntryWithSeq(i))));
    channel->Close();
  }
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 8; }));
  // Dead connections are pruned; the tracked set does not grow with
  // lifetime accept count.
  EXPECT_TRUE(WaitFor([&] { return service.ActiveConnections() == 0; }));
  service.Shutdown();
}

}  // namespace
}  // namespace adlp::proto
