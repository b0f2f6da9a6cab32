#include "pubsub/remote_master.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>

#include "audit/auditor.h"
#include "test_util.h"

namespace adlp::pubsub {
namespace {

using test::FastOptions;
using test::WaitFor;

proto::ComponentOptions TcpOptions(
    proto::LoggingScheme scheme = proto::LoggingScheme::kAdlp) {
  proto::ComponentOptions opts = FastOptions(scheme);
  opts.transport = TransportKind::kTcp;  // required across processes
  return opts;
}

TEST(RemoteMasterTest, AdvertiseThenSubscribeDelivers) {
  MasterService service(0);
  RemoteMaster pub_master(service.Port());
  RemoteMaster sub_master(service.Port());

  proto::LogServer server;
  Rng rng(1);
  proto::Component pub("camera", pub_master, server, rng, TcpOptions());
  proto::Component sub("viewer", sub_master, server, rng, TcpOptions());

  auto& publisher = pub.Advertise("image");
  std::atomic<int> got{0};
  sub.Subscribe("image", [&](const Message&) { got++; });
  ASSERT_TRUE(publisher.WaitForSubscribers(1));
  for (int i = 0; i < 5; ++i) publisher.Publish(Bytes{1});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 5; }));

  pub.Shutdown();
  sub.Shutdown();
  pub_master.Close();
  sub_master.Close();
  service.Shutdown();
}

TEST(RemoteMasterTest, SubscribeBeforeAdvertiseIsParked) {
  MasterService service(0);
  RemoteMaster pub_master(service.Port());
  RemoteMaster sub_master(service.Port());

  proto::LogServer server;
  Rng rng(2);
  proto::Component sub("viewer", sub_master, server, rng, TcpOptions());
  std::atomic<int> got{0};
  sub.Subscribe("image", [&](const Message&) { got++; });

  proto::Component pub("camera", pub_master, server, rng, TcpOptions());
  auto& publisher = pub.Advertise("image");
  ASSERT_TRUE(publisher.WaitForSubscribers(1));
  publisher.Publish(Bytes{7});
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));

  pub.Shutdown();
  sub.Shutdown();
}

TEST(RemoteMasterTest, DuplicatePublisherRejectedAcrossClients) {
  MasterService service(0);
  RemoteMaster a(service.Port());
  RemoteMaster b(service.Port());
  a.Advertise("t", "first", AdvertiseInfo{nullptr, 1234});
  EXPECT_THROW(b.Advertise("t", "second", AdvertiseInfo{nullptr, 5678}),
               std::logic_error);
}

TEST(RemoteMasterTest, AdvertiseRequiresTcpPort) {
  MasterService service(0);
  RemoteMaster m(service.Port());
  EXPECT_THROW(m.Advertise("t", "pub", AdvertiseInfo{nullptr, 0}),
               std::invalid_argument);
}

TEST(RemoteMasterTest, TopologyVisibleToEveryClient) {
  MasterService service(0);
  RemoteMaster a(service.Port());
  RemoteMaster b(service.Port());
  a.Advertise("image", "camera", AdvertiseInfo{nullptr, 40000});
  b.Subscribe("image", "viewer",
              [](const crypto::ComponentId&, transport::ChannelPtr channel) {
                if (channel) channel->Close();
              });

  EXPECT_TRUE(WaitFor([&] {
    const auto topo = b.Topology();
    const auto it = topo.find("image");
    return it != topo.end() && it->second.publisher == "camera" &&
           it->second.subscribers.size() == 1;
  }));
  EXPECT_EQ(a.PublisherOf("image"), "camera");
  EXPECT_FALSE(a.PublisherOf("ghost").has_value());
  // The service's own view matches.
  EXPECT_EQ(service.Topology().at("image").publisher, "camera");
}

TEST(RemoteMasterTest, ConnectToDeadServiceThrows) {
  std::uint16_t port;
  {
    MasterService service(0);
    port = service.Port();
  }
  EXPECT_THROW(RemoteMaster m(port), std::system_error);
}

TEST(RemoteMasterTest, RpcAfterServiceShutdownThrows) {
  auto service = std::make_unique<MasterService>(0);
  RemoteMaster m(service->Port());
  service.reset();
  EXPECT_THROW(m.Topology(), std::runtime_error);
}

/// Open file descriptors of this process.
std::size_t OpenFds() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator{}));
}

TEST(RemoteMasterTest, DepartedNodesReleaseTheirConnections) {
  // Node churn: every node that connects, asks, and leaves must give its
  // connection back, or a long-lived master reaches the fd limit. Half of
  // them leave a subscription parked on a topic nobody advertises.
  MasterService service(0);
  const std::size_t before = OpenFds();
  for (int i = 0; i < 200; ++i) {
    RemoteMaster node(service.Port());
    if (i % 2 == 0) {
      node.Subscribe("unadvertised", "node" + std::to_string(i),
                     [](const crypto::ComponentId&, transport::ChannelPtr) {});
    }
    (void)node.Topology();
    node.Close();
  }
  EXPECT_TRUE(WaitFor([&] { return OpenFds() <= before + 8; }))
      << OpenFds() << " fds open, " << before << " before the churn";
}

TEST(RemoteMasterTest, FullAdlpFleetAuditsClean) {
  // Three "processes" (three RemoteMaster clients in one test process —
  // the true multi-process variant lives in integration/multiprocess_test):
  // one publisher, two subscribers, shared remote master; logs audit clean.
  MasterService service(0);
  proto::LogServer server;
  Rng rng(3);

  RemoteMaster m1(service.Port()), m2(service.Port()), m3(service.Port());
  proto::Component pub("camera", m1, server, rng, TcpOptions());
  proto::Component s1("lane", m2, server, rng, TcpOptions());
  proto::Component s2("sign", m3, server, rng, TcpOptions());

  std::atomic<int> got{0};
  s1.Subscribe("image", [&](const Message&) { got++; });
  s2.Subscribe("image", [&](const Message&) { got++; });
  auto& publisher = pub.Advertise("image");
  ASSERT_TRUE(publisher.WaitForSubscribers(2));
  for (int i = 0; i < 4; ++i) publisher.Publish(Bytes{1, 2});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 8; }));
  pub.Shutdown();
  s1.Shutdown();
  s2.Shutdown();

  const audit::AuditReport report =
      audit::Auditor(server.Keys()).Audit(server.Entries(),
                                          service.Topology());
  EXPECT_EQ(report.verdicts.size(), 8u);
  EXPECT_TRUE(report.unfaithful.empty()) << report.Render();
}

}  // namespace
}  // namespace adlp::pubsub
