// Reactor and EpollChannel unit tests: timer-wheel ordering (including laps
// and large clock jumps), eventfd wakeup under concurrent enqueue, frame
// reassembly across partial reads and short writes, fd-limit degradation,
// thread-vs-reactor round-trip interop, and the AsyncChannel contract over
// both EpollChannel and in-proc ends.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "obs/instrument.h"
#include "test_util.h"
#include "transport/epoll_channel.h"
#include "transport/inproc.h"
#include "transport/reactor.h"
#include "transport/tcp.h"
#include "wire/wire.h"

namespace adlp::transport {
namespace {

// --- TimerWheel (pure data structure; caller-supplied clock) ----------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.Schedule(30, [&] { fired.push_back(3); });
  wheel.Schedule(10, [&] { fired.push_back(1); });
  wheel.Schedule(20, [&] { fired.push_back(2); });

  for (auto& cb : wheel.Advance(9)) cb();
  EXPECT_TRUE(fired.empty());

  // One Advance past every deadline returns the callbacks deadline-sorted.
  for (auto& cb : wheel.Advance(35)) cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.Pending(), 0u);
}

TEST(TimerWheelTest, TiesFireInInsertionOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.Schedule(10, [&fired, i] { fired.push_back(i); });
  }
  for (auto& cb : wheel.Advance(10)) cb();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheelTest, LapDelaysWaitFullLaps) {
  // Delay beyond slots * tick must take extra laps, not fire on the first
  // pass over its slot.
  TimerWheel wheel(/*tick_ms=*/1, /*slots=*/16);
  bool fired = false;
  wheel.Schedule(40, [&] { fired = true; });  // 2.5 laps
  for (auto& cb : wheel.Advance(16)) cb();
  EXPECT_FALSE(fired);
  for (auto& cb : wheel.Advance(39)) cb();
  EXPECT_FALSE(fired);
  for (auto& cb : wheel.Advance(40)) cb();
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, LargeJumpFiresEverything) {
  // A clock jump far beyond the wheel span (loop slept with no timers due)
  // must still fire every pending timer exactly once.
  TimerWheel wheel(/*tick_ms=*/1, /*slots=*/16);
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    wheel.Schedule(i * 7, [&] { ++fired; });
  }
  for (auto& cb : wheel.Advance(1'000'000)) cb();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(wheel.Pending(), 0u);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerWheel wheel;
  bool fired = false;
  const std::uint64_t id = wheel.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // already removed
  for (auto& cb : wheel.Advance(20)) cb();
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, ScheduleAtPastDeadlineFiresNext) {
  TimerWheel wheel;
  for (auto& cb : wheel.Advance(100)) cb();
  bool fired = false;
  wheel.ScheduleAt(50, [&] { fired = true; });  // already past: clamps to now
  ASSERT_TRUE(wheel.NextDeadlineMs().has_value());
  // Ticks are the firing granularity: a past-deadline timer lands on the
  // next tick boundary, never silently in an already-swept slot.
  for (auto& cb : wheel.Advance(100)) cb();
  EXPECT_FALSE(fired);
  for (auto& cb : wheel.Advance(101)) cb();
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, NextDeadlineTracksEarliest) {
  TimerWheel wheel;
  EXPECT_FALSE(wheel.NextDeadlineMs().has_value());
  wheel.Schedule(100, [] {});
  const std::uint64_t early = wheel.Schedule(25, [] {});
  ASSERT_TRUE(wheel.NextDeadlineMs().has_value());
  EXPECT_EQ(*wheel.NextDeadlineMs(), 25);
  EXPECT_TRUE(wheel.Cancel(early));
  EXPECT_EQ(*wheel.NextDeadlineMs(), 100);
}

// --- Reactor: tasks, wakeups, timers ----------------------------------------

TEST(ReactorTest, ConcurrentPostsAllRunExactlyOnce) {
  // The eventfd wakeup must not lose tasks when many threads enqueue against
  // a loop that is busy sleeping/waking concurrently.
  Reactor reactor;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        reactor.Post(0, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& p : posters) p.join();
  const Timestamp deadline = MonotonicNowNs() + 5'000'000'000;
  while (ran.load() < kThreads * kPerThread && MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

TEST(ReactorTest, PostPreservesOrderPerLoop) {
  Reactor reactor;
  std::vector<int> order;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  for (int i = 0; i < 100; ++i) {
    reactor.Post(0, [&, i] {
      std::lock_guard lock(mu);
      order.push_back(i);
      if (i == 99) {
        done = true;
        cv.notify_one();
      }
    });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ReactorTest, RunAfterFiresOnLoopThread) {
  Reactor reactor;
  std::atomic<bool> fired{false};
  std::atomic<bool> on_loop{false};
  const Timestamp start = MonotonicNowNs();
  reactor.RunAfter(0, 20, [&] {
    on_loop.store(reactor.OnLoopThread(0));
    fired.store(true);
  });
  const Timestamp deadline = start + 5'000'000'000;
  while (!fired.load() && MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(fired.load());
  EXPECT_TRUE(on_loop.load());
  EXPECT_GE(MonotonicNowNs() - start, 19'000'000);
}

TEST(ReactorTest, CancelTimerStopsPendingTimer) {
  Reactor reactor;
  std::atomic<bool> fired{false};
  const Reactor::TimerId id =
      reactor.RunAfter(0, 100, [&] { fired.store(true); });
  EXPECT_TRUE(reactor.CancelTimer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(reactor.CancelTimer(Reactor::TimerId{}));  // invalid id
}

TEST(ReactorTest, StopReleasesTasksThatNeverRan) {
  // A task still queued when its loop stops may own the last reference to a
  // channel on another loop, whose destructor calls back into the reactor
  // (RemoveFd). Stop() must release it while every loop is whole, not leave
  // it to die with the loops.
  Reactor reactor(ReactorOptions{2});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto channel = EpollChannel::Adopt(reactor, fds[0]);
  const std::size_t other = 1 - channel->LoopIndex();
  std::promise<void> running;
  reactor.Post(other, [&running] {
    running.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  running.get_future().wait();
  // Queued behind the running task, so the stopping loop never runs it.
  struct Owner {
    std::shared_ptr<EpollChannel> channel;
    std::shared_ptr<std::atomic<bool>> released;
    ~Owner() { released->store(true); }
  };
  auto released = std::make_shared<std::atomic<bool>>(false);
  auto owner = std::make_shared<Owner>();
  owner->channel = std::move(channel);
  owner->released = released;
  reactor.Post(other, [owner = std::move(owner)] {});
  reactor.Stop();
  EXPECT_TRUE(released->load());
  ::close(fds[1]);
}

// --- EpollChannel: framing, reassembly, teardown ----------------------------

/// Connected (client_fd, server EpollChannel) pair on `reactor`.
struct RawPair {
  int client_fd = -1;
  std::shared_ptr<EpollChannel> server;

  ~RawPair() {
    if (client_fd >= 0) ::close(client_fd);
  }
};

RawPair MakeRawPair(Reactor& reactor, TcpListener& listener) {
  RawPair pair;
  pair.client_fd = TryTcpConnectFd(listener.Port());
  EXPECT_GE(pair.client_fd, 0);
  // Blocking Accept is fine here: the connection is already queued.
  std::thread accept_thread([&] {
    const int fd = ::accept(listener.NativeHandle(), nullptr, nullptr);
    if (fd >= 0) pair.server = EpollChannel::Adopt(reactor, fd);
  });
  accept_thread.join();
  EXPECT_NE(pair.server, nullptr);
  return pair;
}

TEST(EpollChannelTest, ReassemblesFrameFromPartialReads) {
  Reactor reactor;
  TcpListener listener(0);
  RawPair pair = MakeRawPair(reactor, listener);

  Bytes payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<std::uint8_t>(i));
  const Bytes framed = wire::FramePayload(payload);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Bytes> got;
  pair.server->StartAsync(
      [&](BytesView frame) {
        std::lock_guard lock(mu);
        got.emplace_back(frame.begin(), frame.end());
        cv.notify_one();
      },
      nullptr);

  // Dribble the framed bytes one at a time: every preamble/payload boundary
  // lands mid-read at least once.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    ASSERT_EQ(::send(pair.client_fd, framed.data() + i, 1, 0), 1);
    if (i % 64 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return !got.empty(); }));
    EXPECT_EQ(got[0], payload);
  }

  // Coalesced writes: several frames in one send() all come out separately.
  Bytes burst;
  for (int f = 0; f < 3; ++f) {
    const Bytes one = wire::FramePayload(Bytes{static_cast<std::uint8_t>(f)});
    burst.insert(burst.end(), one.begin(), one.end());
  }
  ASSERT_EQ(::send(pair.client_fd, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return got.size() == 4; }));
    for (int f = 0; f < 3; ++f) {
      EXPECT_EQ(got[static_cast<std::size_t>(f) + 1],
                Bytes{static_cast<std::uint8_t>(f)});
    }
  }
}

TEST(EpollChannelTest, ShortWritesFlushViaEpollout) {
  // A frame far larger than the socket buffer forces partial sends; the
  // EPOLLOUT path must deliver the residue while the reader drains slowly.
  Reactor reactor;
  TcpListener listener(0);
  RawPair pair = MakeRawPair(reactor, listener);

  Bytes big(4 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u);
  }
  ASSERT_TRUE(pair.server->Send(big));

  Bytes received;
  received.reserve(big.size() + 16);
  std::uint8_t buf[65536];
  const Timestamp deadline = MonotonicNowNs() + 10'000'000'000;
  while (received.size() < big.size() + wire::kFramePreambleSize &&
         MonotonicNowNs() < deadline) {
    const ssize_t n = ::recv(pair.client_fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    received.insert(received.end(), buf, buf + n);
    // Stay slower than the writer so EPOLLOUT stays armed a while.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(received.size(), big.size() + wire::kFramePreambleSize);
  EXPECT_TRUE(std::equal(big.begin(), big.end(),
                         received.begin() + wire::kFramePreambleSize));
}

TEST(EpollChannelTest, OversizedPreambleClosesConnection) {
  Reactor reactor;
  TcpListener listener(0);
  RawPair pair = MakeRawPair(reactor, listener);

  std::atomic<bool> closed{false};
  pair.server->StartAsync([](BytesView) { FAIL() << "frame from garbage"; },
                          [&] { closed.store(true); });

  // Preamble declaring 2x the cap: must tear down, not allocate.
  const std::uint32_t huge = 128u * 1024 * 1024;
  std::uint8_t preamble[4];
  for (int i = 0; i < 4; ++i) {
    preamble[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  ASSERT_EQ(::send(pair.client_fd, preamble, 4, 0), 4);

  const Timestamp deadline = MonotonicNowNs() + 5'000'000'000;
  while (!closed.load() && MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed.load());
  EXPECT_TRUE(pair.server->WaitClosed(1000));
  EXPECT_FALSE(pair.server->IsOpen());
}

TEST(EpollChannelTest, CloseUnblocksReceiveAndTearsDown) {
  // A local Close() reaches the handlers as the close edge, with no frame,
  // releases a thread in WaitClosed, and leaves the channel unable to send.
  Reactor reactor;
  TcpListener listener(0);
  RawPair pair = MakeRawPair(reactor, listener);

  std::atomic<int> frames{0};
  std::atomic<bool> closed{false};
  pair.server->StartAsync([&](BytesView) { ++frames; },
                          [&] { closed.store(true); });
  std::thread waiter([&] { EXPECT_TRUE(pair.server->WaitClosed(5000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.server->Close();
  waiter.join();
  EXPECT_TRUE(closed.load());
  EXPECT_EQ(frames.load(), 0);
  EXPECT_FALSE(pair.server->Send(Bytes{1}));
}

// --- The AsyncChannel contract, over both implementations -------------------
//
// One body per property, run over an EpollChannel (with a dialled client,
// read through a test inbox, as its peer) and over one end of an in-proc
// pair (with the pair's other end as its peer).

enum class AsyncKind { kEpoll, kInProc };

/// An async end and the peer that talks to it.
struct AsyncPair {
  std::shared_ptr<AsyncChannel> end;
  ChannelPtr peer;
};

AsyncPair ConnectAsync(AsyncKind kind, Reactor& reactor,
                       TcpListener& listener) {
  if (kind == AsyncKind::kInProc) {
    auto pair = MakeInProcChannelPair(reactor);
    return {pair.a, pair.b};
  }
  AsyncPair pair;
  pair.peer = TcpConnect(listener.Port());
  // Blocking accept is fine: the connection is already queued.
  const int fd = ::accept(listener.NativeHandle(), nullptr, nullptr);
  EXPECT_GE(fd, 0);
  pair.end = EpollChannel::Adopt(reactor, fd);
  return pair;
}

/// What an async end delivered, in order: each frame's first byte, and -1
/// for the close edge. Shared-owned by the handlers, so it outlives them.
struct Recorder {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> events;

  static std::shared_ptr<Recorder> Attach(AsyncChannel& channel) {
    auto rec = std::make_shared<Recorder>();
    channel.StartAsync([rec](BytesView frame) { rec->Note(frame[0]); },
                       [rec] { rec->Note(-1); });
    return rec;
  }

  void Note(int event) {
    std::lock_guard lock(mu);
    events.push_back(event);
    cv.notify_all();
  }

  bool WaitForEvents(std::size_t count) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return events.size() >= count; });
  }

  std::vector<int> Events() {
    std::lock_guard lock(mu);
    return events;
  }
};

void ExpectQueuedFramesDrainToLateHandler(AsyncKind kind) {
  // Frames arriving before StartAsync must reach the handler first, in
  // order.
  Reactor reactor;
  TcpListener listener(0);
  AsyncPair pair = ConnectAsync(kind, reactor, listener);

  for (std::uint8_t i = 0; i < 5; ++i) ASSERT_TRUE(pair.peer->Send(Bytes{i}));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto rec = Recorder::Attach(*pair.end);
  ASSERT_TRUE(pair.peer->Send(Bytes{5}));
  ASSERT_TRUE(rec->WaitForEvents(6));
  EXPECT_EQ(rec->Events(), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  pair.end->Close();
  EXPECT_TRUE(pair.end->WaitClosed(5000));
}

TEST(EpollChannelTest, QueuedFramesDrainToLateHandler) {
  ExpectQueuedFramesDrainToLateHandler(AsyncKind::kEpoll);
}

TEST(InProcChannelTest, QueuedFramesDrainToLateHandler) {
  ExpectQueuedFramesDrainToLateHandler(AsyncKind::kInProc);
}

void ExpectHandlerAttachedAfterTeardownIsReleased(AsyncKind kind) {
  // The peer leaves before the end attaches its handlers. The close edge
  // still fires, and a frame handler that owns the channel (as the
  // services' and the publisher links' handlers do) is released, so the
  // connection goes.
  Reactor reactor;
  TcpListener listener(0);
  AsyncPair pair = ConnectAsync(kind, reactor, listener);
  pair.peer->Close();
  const Timestamp closing = MonotonicNowNs() + 5'000'000'000;
  while (pair.end->IsOpen() && MonotonicNowNs() < closing) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(pair.end->IsOpen());

  std::atomic<bool> closed{false};
  std::weak_ptr<AsyncChannel> weak = pair.end;
  pair.end->StartAsync([owner = pair.end](BytesView) {},
                       [&] { closed.store(true); });
  pair.end.reset();
  const Timestamp deadline = MonotonicNowNs() + 5'000'000'000;
  while (!weak.expired() && MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed.load());
  EXPECT_TRUE(weak.expired());
}

TEST(EpollChannelTest, HandlerAttachedAfterTeardownIsReleased) {
  ExpectHandlerAttachedAfterTeardownIsReleased(AsyncKind::kEpoll);
}

TEST(InProcChannelTest, HandlerAttachedAfterTeardownIsReleased) {
  ExpectHandlerAttachedAfterTeardownIsReleased(AsyncKind::kInProc);
}

void ExpectCloseEdgeOnceAfterLastFrame(AsyncKind kind) {
  // Whichever end closes, the close edge comes exactly once, after every
  // frame, and WaitClosed() then returns true.
  for (const bool peer_closes : {true, false}) {
    SCOPED_TRACE(peer_closes ? "peer closes" : "async end closes");
    Reactor reactor;
    TcpListener listener(0);
    AsyncPair pair = ConnectAsync(kind, reactor, listener);
    auto rec = Recorder::Attach(*pair.end);
    for (std::uint8_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(pair.peer->Send(Bytes{i}));
    }
    if (peer_closes) {
      pair.peer->Close();
    } else {
      ASSERT_TRUE(rec->WaitForEvents(3));
      pair.end->Close();
    }
    ASSERT_TRUE(pair.end->WaitClosed(5000));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(rec->Events(), (std::vector<int>{0, 1, 2, -1}));
  }
}

TEST(EpollChannelTest, CloseEdgeFiresOnceAfterLastFrame) {
  ExpectCloseEdgeOnceAfterLastFrame(AsyncKind::kEpoll);
}

TEST(InProcChannelTest, CloseEdgeFiresOnceAfterLastFrame) {
  ExpectCloseEdgeOnceAfterLastFrame(AsyncKind::kInProc);
}

void ExpectFrameHandlerMaySendOnItsOwnEnd(AsyncKind kind) {
  // How a publisher link answers an ACK with the next publication: the
  // frame handler, on the end's loop, sends on that same end.
  Reactor reactor;
  TcpListener listener(0);
  AsyncPair pair = ConnectAsync(kind, reactor, listener);
  AsyncChannel* end = pair.end.get();
  std::atomic<bool> on_loop{true};
  end->StartAsync(
      [end, &reactor, &on_loop](BytesView frame) {
        if (!reactor.OnLoopThread(end->LoopIndex())) on_loop.store(false);
        Bytes reply(frame.begin(), frame.end());
        reply.push_back(0xff);
        EXPECT_TRUE(end->Send(reply));
      },
      nullptr);
  test::Inbox replies(*pair.peer);
  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(pair.peer->Send(Bytes{i}));
    auto reply = replies.Pop();
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, (Bytes{i, 0xff}));
  }
  EXPECT_TRUE(on_loop.load());
  pair.end->Close();
  EXPECT_TRUE(pair.end->WaitClosed(5000));
}

TEST(EpollChannelTest, FrameHandlerMaySendOnItsOwnEnd) {
  ExpectFrameHandlerMaySendOnItsOwnEnd(AsyncKind::kEpoll);
}

TEST(InProcChannelTest, FrameHandlerMaySendOnItsOwnEnd) {
  ExpectFrameHandlerMaySendOnItsOwnEnd(AsyncKind::kInProc);
}

// --- Blocking client vs reactor server --------------------------------------

TEST(EpollChannelTest, InteroperatesWithBlockingTcpChannel) {
  // How every TCP link in the tree is paired: the server end accepted by
  // the reactor, the client end dialled and adopted, as a subscription's
  // is. The framing must be byte-identical in both directions.
  Reactor reactor;
  TcpListener listener(0);

  ChannelPtr server;
  std::mutex mu;
  std::condition_variable cv;
  ReactorAcceptor acceptor(
      reactor, listener, [&](std::shared_ptr<EpollChannel> channel) {
        std::lock_guard lock(mu);
        server = std::move(channel);
        cv.notify_one();
      });

  ChannelPtr client = TcpConnect(listener.Port());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return server != nullptr; }));
  }

  Bytes msg1{1, 2, 3};
  Bytes msg2(100'000);
  for (std::size_t i = 0; i < msg2.size(); ++i) {
    msg2[i] = static_cast<std::uint8_t>(i);
  }
  test::Inbox at_server(*server);
  test::Inbox at_client(*client);
  ASSERT_TRUE(client->Send(msg1));
  ASSERT_TRUE(client->Send(msg2));
  auto r1 = at_server.Pop();
  auto r2 = at_server.Pop();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(*r1, msg1);
  EXPECT_EQ(*r2, msg2);

  ASSERT_TRUE(server->Send(msg2));
  auto r3 = at_client.Pop();
  ASSERT_TRUE(r3);
  EXPECT_EQ(*r3, msg2);

  acceptor.Close();
  client->Close();
  server->Close();
}

// --- fd-limit degradation ---------------------------------------------------

TEST(ReactorAcceptorTest, FdExhaustionDefersAcceptsInsteadOfSpinning) {
  // Drop the fd soft limit, exhaust the table, and connect: accept4 hits
  // EMFILE. The acceptor must unregister the listener (no hot loop), count
  // the deferral, and accept the parked connection once fds free up.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);

  Reactor reactor;  // epoll/eventfd created before the squeeze
  TcpListener listener(0);

  std::mutex mu;
  std::condition_variable cv;
  std::shared_ptr<EpollChannel> accepted;
  ReactorAcceptor acceptor(reactor, listener,
                           [&](std::shared_ptr<EpollChannel> channel) {
                             std::lock_guard lock(mu);
                             accepted = std::move(channel);
                             cv.notify_one();
                           });

  // The client socket exists before the squeeze; connect() itself needs no
  // new fd, so the connection parks in the kernel backlog.
  const int client_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client_fd, 0);

  const std::uint64_t deferred_before =
      obs::metric::ReactorAcceptDeferredTotal().Value();

  std::vector<int> hoard;
  rlimit tight = saved;
  tight.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hoard.push_back(fd);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.Port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(client_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // The accept attempt must fail gracefully: deferral counted, no callback.
  const Timestamp deadline = MonotonicNowNs() + 5'000'000'000;
  while (obs::metric::ReactorAcceptDeferredTotal().Value() == deferred_before &&
         MonotonicNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(obs::metric::ReactorAcceptDeferredTotal().Value(),
            deferred_before);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(accepted, nullptr);
  }

  // Free the table: the re-arm timer must pick the parked connection up.
  for (const int fd : hoard) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return accepted != nullptr; }));
  }

  // The recovered connection is fully functional.
  test::Inbox inbox(*accepted);
  const Bytes framed = wire::FramePayload(Bytes{42});
  ASSERT_EQ(::send(client_fd, framed.data(), framed.size(), 0),
            static_cast<ssize_t>(framed.size()));
  auto frame = inbox.Pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, Bytes{42});

  acceptor.Close();
  ::close(client_fd);
}

}  // namespace
}  // namespace adlp::transport
