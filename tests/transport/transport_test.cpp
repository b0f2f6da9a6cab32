#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "obs/instrument.h"
#include "test_util.h"
#include "transport/epoll_channel.h"
#include "transport/inproc.h"
#include "transport/tcp.h"

namespace adlp::transport {
namespace {

using test::Inbox;

void ExerciseEcho(const ChannelPtr& a, const ChannelPtr& b) {
  Rng rng(1);
  const Bytes msg1 = rng.RandomBytes(100);
  const Bytes msg2 = rng.RandomBytes(100000);
  Inbox at_a(*a);
  Inbox at_b(*b);

  ASSERT_TRUE(a->Send(msg1));
  ASSERT_TRUE(a->Send(msg2));
  auto r1 = at_b.Pop();
  auto r2 = at_b.Pop();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(*r1, msg1);  // FIFO order preserved
  EXPECT_EQ(*r2, msg2);

  // Duplex: the other direction works too.
  ASSERT_TRUE(b->Send(msg1));
  auto r3 = at_a.Pop();
  ASSERT_TRUE(r3);
  EXPECT_EQ(*r3, msg1);
}

TEST(InProcChannelTest, EchoBothDirections) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  ExerciseEcho(pair.a, pair.b);
}

TEST(InProcChannelTest, EmptyMessage) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  Inbox inbox(*pair.b);
  ASSERT_TRUE(pair.a->Send({}));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->empty());
}

TEST(InProcChannelTest, CloseUnblocksReceiver) {
  // The peer's close reaches the receiving end as its close edge: the
  // close handler runs, with no frame, and WaitClosed returns.
  auto pair = MakeInProcChannelPair(Reactor::Global());
  std::atomic<int> frames{0};
  std::atomic<bool> closed{false};
  pair.b->StartAsync([&](BytesView) { ++frames; },
                     [&] { closed.store(true); });
  std::thread waiter([&] { EXPECT_TRUE(pair.b->WaitClosed(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pair.a->Close();
  waiter.join();
  EXPECT_TRUE(closed.load());
  EXPECT_EQ(frames.load(), 0);
}

TEST(InProcChannelTest, SendAfterCloseFails) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  pair.b->Close();
  EXPECT_FALSE(pair.a->Send(Bytes{1}));
  EXPECT_FALSE(pair.a->IsOpen());
}

TEST(InProcChannelTest, DrainAfterClose) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  ASSERT_TRUE(pair.a->Send(Bytes{1}));
  ASSERT_TRUE(pair.a->Send(Bytes{2}));
  pair.a->Close();
  // Queued messages are still deliverable after close.
  Inbox inbox(*pair.b);
  EXPECT_TRUE(inbox.Pop().has_value());
  EXPECT_TRUE(inbox.Pop().has_value());
  EXPECT_FALSE(inbox.Pop().has_value());
}

TEST(InProcChannelTest, LatencyModelDelaysDelivery) {
  LinkModel model;
  model.latency_ns = 20'000'000;  // 20 ms
  auto pair = MakeInProcChannelPair(Reactor::Global(), model);
  Inbox inbox(*pair.b);
  const Timestamp start = MonotonicNowNs();
  ASSERT_TRUE(pair.a->Send(Bytes{1}));
  auto r = inbox.Pop();
  const Timestamp elapsed = MonotonicNowNs() - start;
  ASSERT_TRUE(r);
  EXPECT_GE(elapsed, 18'000'000);  // allow scheduler slop
}

TEST(InProcChannelTest, BandwidthModelScalesWithSize) {
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s
  EXPECT_EQ(model.TransferDelayNs(1000), 1'000'000);     // 1 ms
  EXPECT_EQ(model.TransferDelayNs(500'000), 500'000'000);  // 0.5 s
}

/// Frames an async in-proc end delivered: size and delivery time.
struct Deliveries {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, Timestamp>> frames;

  void Attach(AsyncChannel& channel) {
    channel.StartAsync(
        [this](BytesView frame) {
          std::lock_guard lock(mu);
          frames.emplace_back(frame.size(), MonotonicNowNs());
          cv.notify_all();
        },
        nullptr);
  }

  std::vector<std::pair<std::size_t, Timestamp>> Await(std::size_t count) {
    std::unique_lock lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return frames.size() >= count; }));
    return frames;
  }
};

TEST(InProcChannelTest, AsyncDeliveryIsNeverEarly) {
  // The loop delivers on a millisecond timer wheel; a frame must still not
  // arrive before its link-model due time, wherever in a tick it was sent.
  Reactor reactor;
  LinkModel model;
  model.latency_ns = 3'000'000;  // 3 ms
  Deliveries got;  // outlives the pair and its handler
  auto pair = MakeInProcChannelPair(reactor, model);
  got.Attach(*pair.a);
  constexpr std::size_t kFrames = 20;
  std::vector<Timestamp> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    sent.push_back(MonotonicNowNs());
    ASSERT_TRUE(pair.b->Send(Bytes{1}));
    std::this_thread::sleep_for(std::chrono::microseconds(370));
  }
  const auto frames = got.Await(kFrames);
  ASSERT_EQ(frames.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_GE(frames[i].second - sent[i], model.latency_ns) << "frame " << i;
  }
  pair.a->Close();
  EXPECT_TRUE(pair.a->WaitClosed(5000));
}

TEST(InProcChannelTest, AsyncDeliveryKeepsSendOrderUnderBandwidthModel) {
  // A small frame sent right after a large one is due first; it must still
  // wait for the large one: frames arrive in send order.
  Reactor reactor;
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1'000'000;  // 100 KB -> 100 ms
  Deliveries got;  // outlives the pair and its handler
  auto pair = MakeInProcChannelPair(reactor, model);
  got.Attach(*pair.a);
  const Timestamp start = MonotonicNowNs();
  ASSERT_TRUE(pair.b->Send(Bytes(100'000, 1)));
  ASSERT_TRUE(pair.b->Send(Bytes{2}));
  const auto frames = got.Await(2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, 100'000u);
  EXPECT_EQ(frames[1].first, 1u);
  EXPECT_GE(frames[0].second - start, 100'000'000);
  EXPECT_GE(frames[1].second, frames[0].second);
  pair.a->Close();
  EXPECT_TRUE(pair.a->WaitClosed(5000));
}

TEST(InProcChannelTest, ConcurrentSendersAllDelivered) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  Inbox inbox(*pair.b);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 250;
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&pair] {
      for (int i = 0; i < kPerSender; ++i) {
        ASSERT_TRUE(pair.a->Send(Bytes{42}));
      }
    });
  }
  int received = 0;
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    ASSERT_TRUE(inbox.Pop().has_value());
    ++received;
  }
  for (auto& t : senders) t.join();
  EXPECT_EQ(received, kSenders * kPerSender);
}

// --- TCP: dialled client ends are adopted EpollChannels ---------------------

/// The server end of a dialled connection: accepts on the listener's socket
/// and adopts it, as a ReactorAcceptor would. The dial has completed, so the
/// connection is already queued.
std::shared_ptr<AsyncChannel> AcceptOn(TcpListener& listener) {
  const int fd = ::accept(listener.NativeHandle(), nullptr, nullptr);
  if (fd < 0) return nullptr;
  return EpollChannel::Adopt(Reactor::Global(), fd);
}

TEST(TcpChannelTest, EchoBothDirections) {
  TcpListener listener(0);
  ASSERT_GT(listener.Port(), 0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);
  ASSERT_TRUE(server != nullptr);
  ASSERT_TRUE(client != nullptr);
  ExerciseEcho(client, server);
}

TEST(TcpChannelTest, LargeMessageIntegrity) {
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);

  Inbox inbox(*server);
  Rng rng(3);
  const Bytes big = rng.RandomBytes(2'000'000);  // 2 MB > Image size
  ASSERT_TRUE(client->Send(big));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, big);
}

TEST(TcpChannelTest, PeerCloseEndsReceive) {
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);

  Inbox inbox(*server);
  client->Close();
  EXPECT_FALSE(inbox.Pop().has_value());
}

TEST(TcpChannelTest, ConnectToClosedPortThrows) {
  TcpListener listener(0);
  const std::uint16_t port = listener.Port();
  listener.Close();
  EXPECT_THROW(TcpConnect(port), std::system_error);
}

TEST(TcpChannelTest, OversizedFramePreambleRejectedWithoutAllocation) {
  // The dialled end, facing a raw server socket so we can forge a preamble
  // the framing layer would never produce.
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  const int fd = ::accept(listener.NativeHandle(), nullptr, nullptr);
  ASSERT_GE(fd, 0);

  // A ~4 GiB length claim. The channel must reject it by inspecting the
  // preamble alone — no multi-GB allocation, no waiting for 4 GiB of body.
  Inbox inbox(*client);
  const std::uint8_t forged[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, forged, sizeof(forged), 0), 4);
  EXPECT_FALSE(inbox.Pop().has_value());
  EXPECT_FALSE(client->IsOpen());  // connection dropped: offset unrecoverable
  ::close(fd);
}

TEST(TcpChannelTest, FrameAtLimitStillAccepted) {
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);
  // Well under kMaxFrameBytes but above any small-buffer path, and larger
  // than the loopback socket buffer: the send returns at once and the
  // residue drains while the receiver reads.
  Inbox inbox(*server);
  const Bytes big(5'000'000, 0x5a);
  ASSERT_TRUE(client->Send(big));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  EXPECT_EQ(r->size(), big.size());
}

TEST(TcpChannelTest, SlowReaderBoundsItsReceiveQueue) {
  // A dialled client whose frame handler is slow must not buffer without
  // bound: its loop reads nothing while the handler runs, so the rest waits
  // in the kernel and on the sending side, held by TCP flow control.
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);
  obs::Counter& rx = obs::metric::TransportBytes("epoll", "rx");
  const std::uint64_t rx_before = rx.Value();
  const Bytes frame(1u << 20, 0x5a);
  constexpr int kFrames = 48;

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::mutex mu;
  std::vector<Bytes> got;
  client->StartAsync(
      [&, released](BytesView f) {
        released.wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard lock(mu);
        got.emplace_back(f.begin(), f.end());
      },
      nullptr);
  for (int i = 0; i < kFrames; ++i) ASSERT_TRUE(server->Send(frame));
  // Let the client's loop read all it will while the handler holds it: the
  // count stops moving.
  std::uint64_t read = 0;
  do {
    read = rx.Value();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } while (rx.Value() != read);
  // The frame in the handler, the partial next one and one read chunk: the
  // receiver holds no queue of frames.
  EXPECT_LE(read - rx_before, 2 * frame.size() + 64 * 1024);
  // The rest waits on the sender (the kernel's buffers hold a few MiB).
  EXPECT_GE(server->PendingSendBytes(), (kFrames / 2) * frame.size());

  // A handler that catches up gets every frame, in order, and the sender's
  // backlog drains.
  release.set_value();
  ASSERT_TRUE(test::WaitFor(
      [&] {
        std::lock_guard lock(mu);
        return got.size() == kFrames;
      },
      std::chrono::seconds(30)));
  for (const Bytes& f : got) EXPECT_EQ(f, frame);
  EXPECT_TRUE(test::WaitFor([&] { return server->PendingSendBytes() == 0; }));
  client->Close();
  EXPECT_TRUE(client->WaitClosed(5000));
}

TEST(TcpChannelTest, CloseFromAnotherThreadUnblocksReceive) {
  // Closing a connection from another thread reaches its handlers as the
  // close edge, and the fd stays held until the last user is gone (the
  // close-vs-receive race): Close() shuts down, the destructor releases it.
  TcpListener listener(0);
  ChannelPtr client = TcpConnect(listener.Port());
  ChannelPtr server = AcceptOn(listener);

  std::atomic<bool> closed{false};
  client->StartAsync([](BytesView) {}, [&] { closed.store(true); });
  std::thread waiter([&] { EXPECT_TRUE(client->WaitClosed(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client->Close();
  waiter.join();
  EXPECT_TRUE(closed.load());
  EXPECT_FALSE(client->IsOpen());
}

TEST(TcpConnectTest, TimedConnectToDeadPortFailsNotHangs) {
  TcpListener listener(0);
  const std::uint16_t port = listener.Port();
  listener.Close();

  TcpConnectOptions options;
  options.attempts = 2;
  options.connect_timeout_ms = 200;
  options.retry_delay_ms = 10;
  const Timestamp start = MonotonicNowNs();
  EXPECT_EQ(TryTcpConnect(port, options), nullptr);
  EXPECT_THROW(TcpConnect(port, options), std::system_error);
  // Refused connections fail fast; the bound is generous for CI jitter.
  EXPECT_LT(MonotonicNowNs() - start, 5'000'000'000);
}

TEST(TcpConnectTest, RetryBridgesLateListener) {
  // Grab a free port, release it, and bring the listener up only after the
  // client has started dialling — the fleet-boot race the retry option is
  // for.
  std::uint16_t port = 0;
  {
    TcpListener probe(0);
    port = probe.Port();
  }
  std::unique_ptr<TcpListener> listener;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    listener = std::make_unique<TcpListener>(port);
  });
  TcpConnectOptions options;
  options.attempts = 50;
  options.connect_timeout_ms = 200;
  options.retry_delay_ms = 20;
  options.max_retry_delay_ms = 50;
  ChannelPtr client = TryTcpConnect(port, options);
  late.join();
  ASSERT_TRUE(client != nullptr);
  ChannelPtr server = AcceptOn(*listener);
  ASSERT_TRUE(server != nullptr);
  Inbox inbox(*server);
  ASSERT_TRUE(client->Send(Bytes{7}));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  EXPECT_EQ((*r)[0], 7);
}

TEST(InProcChannelTest, OversizedSendRejected) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  // The inproc transport mirrors the TCP frame cap so fault-model tests see
  // identical limits on both substrates. Rejected before any copy is made.
  const Bytes oversized(kMaxFrameBytes + 1);
  EXPECT_FALSE(pair.a->Send(oversized));
  EXPECT_TRUE(pair.a->IsOpen());
}

TEST(TcpListenerTest, MultipleConnections) {
  TcpListener listener(0);
  std::vector<ChannelPtr> clients(3);
  for (auto& c : clients) c = TcpConnect(listener.Port());
  std::vector<ChannelPtr> servers;
  for (int i = 0; i < 3; ++i) servers.push_back(AcceptOn(listener));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(servers[i] != nullptr);
    ASSERT_TRUE(clients[i]->Send(Bytes{static_cast<std::uint8_t>(i)}));
  }
  // Each server connection gets exactly its client's byte.
  std::set<std::uint8_t> seen;
  for (auto& s : servers) {
    auto r = Inbox(*s).Pop();
    ASSERT_TRUE(r);
    seen.insert((*r)[0]);
  }
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace adlp::transport
