#include "pubsub/node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adlp/protocols.h"
#include "pubsub/remote_master.h"
#include "test_util.h"
#include "transport/reactor.h"

namespace adlp::pubsub {
namespace {

using test::WaitFor;

NodeOptions PlainOptions() {
  NodeOptions opts;
  opts.protocol = std::make_shared<proto::NoLoggingFactory>();
  return opts;
}

TEST(NodeTest, RequiresProtocolFactory) {
  Master master;
  EXPECT_THROW(Node("n", master, NodeOptions{}), std::invalid_argument);
}

TEST(NodeTest, RejectsZeroAckWindow) {
  Master master;
  NodeOptions opts = PlainOptions();
  opts.ack_window = 0;
  EXPECT_THROW(Node("n", master, opts), std::invalid_argument);
}

TEST(NodeTest, BasicDelivery) {
  Master master;
  Node pub("pub", master, PlainOptions());
  Node sub("sub", master, PlainOptions());

  std::atomic<int> got{0};
  Message last;
  std::mutex mu;
  sub.Subscribe("t", [&](const Message& m) {
    std::lock_guard lock(mu);
    last = m;
    got++;
  });
  auto& p = pub.Advertise("t");
  p.Publish(Bytes{1, 2, 3});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));

  std::lock_guard lock(mu);
  EXPECT_EQ(last.payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(last.header.topic, "t");
  EXPECT_EQ(last.header.publisher, "pub");
  EXPECT_EQ(last.header.seq, 1u);
}

TEST(NodeTest, SequenceNumbersMonotonicFromOne) {
  Master master;
  Node pub("pub", master, PlainOptions());
  Node sub("sub", master, PlainOptions());

  std::vector<std::uint64_t> seqs;
  std::mutex mu;
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message& m) {
    std::lock_guard lock(mu);
    seqs.push_back(m.header.seq);
    got++;
  });
  auto& p = pub.Advertise("t");
  for (int i = 0; i < 10; ++i) p.Publish(Bytes{static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 10; }));

  std::lock_guard lock(mu);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
}

TEST(NodeTest, MultipleSubscribersEachReceive) {
  Master master;
  Node pub("pub", master, PlainOptions());
  std::vector<std::unique_ptr<Node>> subs;
  std::atomic<int> got{0};
  for (int i = 0; i < 4; ++i) {
    subs.push_back(std::make_unique<Node>("sub" + std::to_string(i), master,
                                          PlainOptions()));
    subs.back()->Subscribe("t", [&](const Message&) { got++; });
  }
  auto& p = pub.Advertise("t");
  EXPECT_EQ(p.SubscriberCount(), 4u);
  for (int i = 0; i < 5; ++i) p.Publish(Bytes{7});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 20; }));
}

TEST(NodeTest, SubscribeBeforeAdvertise) {
  Master master;
  Node sub("sub", master, PlainOptions());
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });

  Node pub("pub", master, PlainOptions());
  auto& p = pub.Advertise("t");
  p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));
}

TEST(NodeTest, TwoTopicsIndependent) {
  Master master;
  Node pub("pub", master, PlainOptions());
  Node sub("sub", master, PlainOptions());
  std::atomic<int> got_a{0}, got_b{0};
  sub.Subscribe("a", [&](const Message&) { got_a++; });
  sub.Subscribe("b", [&](const Message&) { got_b++; });
  auto& pa = pub.Advertise("a");
  auto& pb = pub.Advertise("b");
  pa.Publish(Bytes{1});
  pa.Publish(Bytes{2});
  pb.Publish(Bytes{3});
  EXPECT_TRUE(WaitFor([&] { return got_a.load() == 2 && got_b.load() == 1; }));
}

TEST(NodeTest, SelfSubscriptionWorks) {
  Master master;
  Node node("loop", master, PlainOptions());
  std::atomic<int> got{0};
  node.Subscribe("t", [&](const Message&) { got++; });
  auto& p = node.Advertise("t");
  p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));
}

TEST(NodeTest, ShutdownStopsDelivery) {
  Master master;
  Node pub("pub", master, PlainOptions());
  Node sub("sub", master, PlainOptions());
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });
  auto& p = pub.Advertise("t");
  p.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  sub.Shutdown();
  p.Publish(Bytes{2});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 1);
}

TEST(NodeTest, OperationsAfterShutdownThrow) {
  Master master;
  Node node("n", master, PlainOptions());
  node.Shutdown();
  EXPECT_THROW(node.Advertise("t"), std::logic_error);
  EXPECT_THROW(node.Subscribe("t", [](const Message&) {}), std::logic_error);
}

TEST(NodeTest, TcpTransportDelivery) {
  Master master;
  NodeOptions opts = PlainOptions();
  opts.transport = TransportKind::kTcp;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });
  auto& p = pub.Advertise("t");
  ASSERT_TRUE(p.WaitForSubscribers(1));
  for (int i = 0; i < 10; ++i) p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 10; }));
}

TEST(NodeTest, WaitForSubscribersTimesOutWhenNoneArrive) {
  Master master;
  Node pub("pub", master, PlainOptions());
  auto& p = pub.Advertise("lonely");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.WaitForSubscribers(1, std::chrono::milliseconds(50)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(45));
}

TEST(NodeTest, LinkModelBandwidthDelaysLargeMessages) {
  Master master;
  NodeOptions opts = PlainOptions();
  opts.link_model.bandwidth_bytes_per_sec = 1'000'000;  // 1 MB/s
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });
  auto& p = pub.Advertise("t");

  const auto start = std::chrono::steady_clock::now();
  p.Publish(Bytes(100'000, 7));  // 100 KB -> >= 100 ms serialization delay
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(90));
}

TEST(NodeTest, AdvertiseWithTcpPortOnlyStillServesLocalSubscribers) {
  // A master entry carrying only a TCP port (what a cross-process publisher
  // announces) must still connect subscribers in this process: the master
  // synthesizes the TCP connector.
  Master master;
  NodeOptions opts = PlainOptions();
  opts.transport = TransportKind::kTcp;
  Node pub("pub", master, opts);
  Node sub("sub", master, PlainOptions());  // subscriber itself is in-proc
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });
  auto& p = pub.Advertise("t");
  ASSERT_TRUE(p.WaitForSubscribers(1));
  p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));
}

TEST(NodeTest, DriveByDisconnectDoesNotDisturbOtherSubscribers) {
  // A subscriber whose connection dies immediately (crash, network drop)
  // must not disturb the publisher's other links.
  Master master;
  NodeOptions opts = PlainOptions();
  opts.transport = TransportKind::kTcp;
  Node pub("pub", master, opts);
  auto& p = pub.Advertise("t");

  Node sub("sub", master, PlainOptions());
  std::atomic<int> got{0};
  sub.Subscribe("t", [&](const Message&) { got++; });
  ASSERT_TRUE(p.WaitForSubscribers(1));

  // The drive-by: attaches a link, then its channel closes at once.
  master.Subscribe("t", "driveby",
                   [](const crypto::ComponentId&, transport::ChannelPtr ch) {
                     ch->Close();
                   });

  p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));
  p.Publish(Bytes{2});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 2; }));
}

// --- ACK gating ------------------------------------------------------------

/// Test protocol: publisher expects ACKs; subscriber replies only while
/// `replying` is true. Lets tests observe the gating/penalty mechanism
/// without crypto.
class MockAckFactory final : public ProtocolFactory {
 public:
  std::atomic<bool> replying{true};
  std::atomic<int> acks_seen{0};
  std::atomic<int> delivered{0};
  // Encoded publications still referenced anywhere (link queues included).
  std::shared_ptr<std::atomic<int>> live =
      std::make_shared<std::atomic<int>>(0);

  EncodedPublicationPtr Encode(Message message) override {
    auto* enc = new EncodedPublication;
    enc->wire = SerializeMessage(message);
    enc->message = std::move(message);
    live->fetch_add(1);
    auto release = [live = live](const EncodedPublication* p) {
      live->fetch_sub(1);
      delete p;
    };
    return EncodedPublicationPtr(enc, release);
  }

  std::unique_ptr<PublisherLinkProtocol> MakePublisherLink(
      const std::string&, const crypto::ComponentId&) override {
    class Link final : public PublisherLinkProtocol {
     public:
      explicit Link(MockAckFactory* f) : f_(f) {}
      bool ExpectsAck() const override { return true; }
      void OnSent(const EncodedPublication&) override {}
      void OnAck(const EncodedPublication&, BytesView) override {
        f_->acks_seen++;
      }

     private:
      MockAckFactory* f_;
    };
    return std::make_unique<Link>(this);
  }

  std::unique_ptr<SubscriberLinkProtocol> MakeSubscriberLink(
      const std::string&, const crypto::ComponentId&) override {
    class Link final : public SubscriberLinkProtocol {
     public:
      explicit Link(MockAckFactory* f) : f_(f) {}
      DecodeResult OnMessage(BytesView wire_bytes) override {
        DecodeResult r;
        r.deliver = DeserializeMessage(wire_bytes);
        f_->delivered++;
        if (f_->replying.load()) r.reply = Bytes{0xac};
        return r;
      }

     private:
      MockAckFactory* f_;
    };
    return std::make_unique<Link>(this);
  }
};

TEST(AckGatingTest, AcksFlowWhenSubscriberCooperates) {
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  NodeOptions opts;
  opts.protocol = factory;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  for (int i = 0; i < 10; ++i) p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return factory->acks_seen.load() == 10; }));
}

TEST(AckGatingTest, NonCooperativeSubscriberStallsTheLink) {
  // The paper's penalty: without the ACK for seq, seq+1 is not sent.
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  factory->replying = false;
  NodeOptions opts;
  opts.protocol = factory;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  for (int i = 0; i < 5; ++i) p.Publish(Bytes{1});
  // Exactly one message crosses the wire; the rest wait for the missing ACK.
  EXPECT_TRUE(WaitFor([&] { return factory->delivered.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(factory->delivered.load(), 1);
  EXPECT_EQ(factory->acks_seen.load(), 0);
}

TEST(AckGatingTest, WiderWindowAllowsMoreInFlight) {
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  factory->replying = false;
  NodeOptions opts;
  opts.protocol = factory;
  opts.ack_window = 3;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  for (int i = 0; i < 10; ++i) p.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return factory->delivered.load() == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(factory->delivered.load(), 3);
}

TEST(AckGatingTest, BoundedQueueDropsWhenStalled) {
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  factory->replying = false;
  NodeOptions opts;
  opts.protocol = factory;
  opts.max_queue = 2;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  ASSERT_TRUE(WaitFor([&] { return p.SubscriberCount() == 1; }));
  for (int i = 0; i < 20; ++i) p.Publish(Bytes{1});
  // One in flight + at most 2 queued; the rest must have been dropped.
  EXPECT_TRUE(WaitFor([&] { return p.DroppedCount() >= 17; }));
}

// --- Departed subscribers ---------------------------------------------------

/// A subscriber that leaves must stop costing its publisher: the link stops
/// counting at once, and no later publication is kept for it.
void ExpectDepartedSubscriberRetired(TransportKind transport) {
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  NodeOptions opts;
  opts.protocol = factory;
  opts.transport = transport;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  ASSERT_TRUE(p.WaitForSubscribers(1));
  p.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return factory->acks_seen.load() == 1; }));

  sub.Shutdown();
  EXPECT_TRUE(WaitFor([&] { return p.SubscriberCount() == 0; }));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.Publish(Bytes(1000, 7)), static_cast<std::uint64_t>(i + 2));
  }
  EXPECT_TRUE(WaitFor([&] { return factory->live->load() == 0; }))
      << factory->live->load() << " publications still held";
  EXPECT_EQ(p.SubscriberCount(), 0u);
  EXPECT_EQ(p.DroppedCount(), 0u);
}

TEST(DepartedSubscriberTest, InProcLinkIsRetired) {
  ExpectDepartedSubscriberRetired(TransportKind::kInProc);
}

TEST(DepartedSubscriberTest, TcpLinkIsRetired) {
  ExpectDepartedSubscriberRetired(TransportKind::kTcp);
}

TEST(DepartedSubscriberTest, DropsOfRetiredLinksStayCounted) {
  // A stalled subscriber overflows its queue, then leaves: the drops it
  // caused still count once its link is retired.
  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  factory->replying = false;
  NodeOptions opts;
  opts.protocol = factory;
  opts.max_queue = 2;
  Node pub("pub", master, opts);
  Node sub("sub", master, opts);
  sub.Subscribe("t", [](const Message&) {});
  auto& p = pub.Advertise("t");
  ASSERT_TRUE(p.WaitForSubscribers(1));
  for (int i = 0; i < 20; ++i) p.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return p.DroppedCount() >= 17; }));
  const std::uint64_t dropped = p.DroppedCount();

  sub.Shutdown();
  ASSERT_TRUE(WaitFor([&] { return p.SubscriberCount() == 0; }));
  p.Publish(Bytes{1});  // retires the link
  EXPECT_EQ(p.DroppedCount(), dropped);
}

// --- Thread budget ----------------------------------------------------------

std::size_t ProcessThreads() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

TEST(ThreadBudgetTest, InProcSubscriptionsAddNoThreads) {
  // Every publisher link and every subscription runs on the shared
  // reactor, so in-proc subscribers cost no thread at all.
  transport::Reactor::Global();  // its loop threads exist once per process
  Master master;
  Node pub("pub", master, PlainOptions());
  auto& p = pub.Advertise("t");
  std::vector<std::unique_ptr<Node>> subs;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(std::make_unique<Node>("sub" + std::to_string(i), master,
                                          PlainOptions()));
  }
  const std::size_t before = ProcessThreads();
  for (auto& sub : subs) sub->Subscribe("t", [](const Message&) {});
  ASSERT_TRUE(p.WaitForSubscribers(8));
  EXPECT_EQ(ProcessThreads() - before, 0u);
}

TEST(ThreadBudgetTest, TcpSubscriptionsAddNoThreads) {
  transport::Reactor::Global();
  Master master;
  NodeOptions opts = PlainOptions();
  opts.transport = TransportKind::kTcp;
  Node pub("pub", master, opts);
  auto& p = pub.Advertise("t");
  std::vector<std::unique_ptr<Node>> subs;
  for (int i = 0; i < 4; ++i) {
    subs.push_back(
        std::make_unique<Node>("sub" + std::to_string(i), master, opts));
  }
  const std::size_t before = ProcessThreads();
  std::atomic<int> got{0};
  for (auto& sub : subs) sub->Subscribe("t", [&](const Message&) { got++; });
  ASSERT_TRUE(p.WaitForSubscribers(4));
  p.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 4; }));
  EXPECT_EQ(ProcessThreads() - before, 0u);
}

TEST(ThreadBudgetTest, RemoteMasterClientAddsNoThreads) {
  transport::Reactor::Global();
  MasterService service(0);
  const std::size_t before = ProcessThreads();
  RemoteMaster master(service.Port());
  EXPECT_TRUE(master.Topology().empty());
  EXPECT_EQ(ProcessThreads() - before, 0u);
}

TEST(DepartedSubscriberTest, PublishFromCallbackRetiresWithoutWaiting) {
  // A callback runs on its connection's loop and may publish. A link stops
  // being live as soon as its subscriber closes, before its loop runs the
  // close edge, so retiring it from a callback on that loop must not wait
  // for the edge. The subscribers leave while the callback holds its loop,
  // one departed link per loop, so one of them shares the callback's loop.
  auto& reactor = transport::Reactor::Global();
  const std::size_t first = reactor.AssignLoop();
  std::size_t loops = 1;
  while (reactor.AssignLoop() != first) ++loops;

  Master master;
  auto factory = std::make_shared<MockAckFactory>();
  factory->replying = false;  // stall the links, so they drop
  NodeOptions opts;
  opts.protocol = factory;
  opts.max_queue = 2;
  Node relay("relay", master, opts);
  auto& out = relay.Advertise("out");
  // Consecutive in-proc pairs take consecutive loops.
  std::vector<std::unique_ptr<Node>> leavers;
  for (std::size_t i = 0; i < loops; ++i) {
    leavers.push_back(
        std::make_unique<Node>("leaver" + std::to_string(i), master, opts));
    leavers.back()->Subscribe("out", [](const Message&) {});
  }
  ASSERT_TRUE(out.WaitForSubscribers(loops));
  for (int i = 0; i < 20; ++i) out.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return out.DroppedCount() >= 17 * loops; }));
  const std::uint64_t dropped = out.DroppedCount();

  std::atomic<bool> in_callback{false};
  std::atomic<std::int64_t> publish_ns{-1};
  relay.Subscribe("in", [&](const Message&) {
    in_callback.store(true);
    // Hold the loop until every subscriber of "out" has left.
    if (!WaitFor([&] { return out.SubscriberCount() == 0; })) return;
    const Timestamp start = MonotonicNowNs();
    out.Publish(Bytes{2});
    publish_ns.store(MonotonicNowNs() - start);
  });
  Node source("source", master, opts);
  auto& in = source.Advertise("in");
  in.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return in_callback.load(); }));
  // One thread each: a leaver whose pair shares the callback's loop waits
  // for that loop in its Shutdown.
  std::vector<std::thread> leaving;
  for (auto& leaver : leavers) {
    leaving.emplace_back([&leaver] { leaver->Shutdown(); });
  }
  for (auto& t : leaving) t.join();
  ASSERT_TRUE(WaitFor([&] { return publish_ns.load() >= 0; }));
  EXPECT_LT(publish_ns.load(), 100'000'000);
  EXPECT_EQ(out.DroppedCount(), dropped);
  // Every departed link was retired: once their close edges ran, the
  // publications they held are released. Only the one "in" publication,
  // still waiting for its ACK, stays referenced.
  EXPECT_TRUE(WaitFor([&] {
    out.Publish(Bytes{3});
    return factory->live->load() == 1;
  })) << factory->live->load() << " publications still held";
  EXPECT_EQ(out.DroppedCount(), dropped);
}

}  // namespace
}  // namespace adlp::pubsub
