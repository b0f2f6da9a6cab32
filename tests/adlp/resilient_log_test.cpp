// Failure-mode coverage for ResilientLogSink, driven deterministically
// through FaultInjectingChannel: logger dead at startup, logger dying
// mid-stream, spool overflow accounting, and reconnect-then-replay ordering.
#include "adlp/resilient_log.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "adlp/remote_log.h"
#include "test_util.h"
#include "transport/fault_inject.h"
#include "wire/wire.h"

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
  auto connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
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
  auto connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
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
  auto connector = []() -> std::shared_ptr<transport::AsyncChannel> { return nullptr; };
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
  auto connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
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

TEST(ResilientLogSinkTest, DrainWaitsForTheConnectionSendQueue) {
  // Send never blocks, so a frame larger than the socket buffers still sits
  // in the connection's send queue when the spool empties. Drain must wait
  // for it: the destructor's close would discard it.
  transport::TcpListener listener(0);
  auto sink = std::make_unique<ResilientLogSink>(listener.Port(),
                                                 FastSinkOptions());
  const int fd = ::accept(listener.NativeHandle(), nullptr, nullptr);
  ASSERT_GE(fd, 0);
  LogEntry big = EntryWithSeq(0);
  big.data.assign(16u << 20, 0xab);
  const Bytes expected = wire::FramePayload(SerializeLogUpload(big));
  sink->Append(big);
  // A slow reader: nothing is read until well after the append.
  Bytes received;
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::uint8_t buf[64 * 1024];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.insert(received.end(), buf, buf + n);
    }
  });
  EXPECT_TRUE(sink->Drain(std::chrono::seconds(10)));
  sink.reset();
  reader.join();
  ::close(fd);
  EXPECT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected);
}

TEST(ResilientLogSinkTest, DestroyWithBackoffTimerArmed) {
  // The reconnect backoff is a reactor timer. Destroying the sink while it
  // is armed must leave nothing that still dials: the connector's captures
  // may die with the sink.
  auto dials = std::make_shared<std::atomic<int>>(0);
  ResilientLogSink::Options options = FastSinkOptions();
  options.backoff = transport::BackoffPolicy{100, 100, 1.0, 0.0};
  auto sink = std::make_unique<ResilientLogSink>(
      [dials]() -> std::shared_ptr<transport::AsyncChannel> {
        dials->fetch_add(1);
        return nullptr;
      },
      options);
  ASSERT_TRUE(WaitFor([&] { return sink->Stats().connect_failures == 1; }));
  sink.reset();  // the 100 ms retry timer is still armed
  const int at_destruction = dials->load();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(dials->load(), at_destruction);
}

TEST(ResilientLogSinkTest, NoAckCallbackAfterDestructorReturns) {
  // on_ack runs on the connection's reactor loop. Destroying the sink while
  // acks stream in must wait out a running callback and drop the rest.
  LogServer server;
  LogServerService service(server, 0);
  for (int round = 0; round < 20; ++round) {
    auto destroyed = std::make_shared<std::atomic<bool>>(false);
    auto late = std::make_shared<std::atomic<bool>>(false);
    auto acks = std::make_shared<std::atomic<int>>(0);
    ResilientLogSink::Options options = FastSinkOptions();
    options.sink_id = "sink-" + std::to_string(round);
    options.on_ack = [destroyed, late, acks](std::uint64_t) {
      if (destroyed->load()) late->store(true);
      acks->fetch_add(1);
    };
    auto sink = std::make_unique<ResilientLogSink>(service.Port(), options);
    for (std::uint64_t i = 0; i < 200; ++i) sink->AppendAcked(EntryWithSeq(i));
    ASSERT_TRUE(WaitFor([&] { return acks->load() > 0; }));
    sink.reset();
    destroyed->store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_FALSE(late->load()) << "round " << round;
  }
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
