#include "pubsub/master.h"

#include <gtest/gtest.h>

#include "transport/inproc.h"

namespace adlp::pubsub {
namespace {

ConnectFn DummyConnect() {
  return [](const crypto::ComponentId&) {
    return transport::MakeInProcChannelPair(transport::Reactor::Global()).b;
  };
}

TEST(MasterTest, PublisherOfUnknownTopicIsNull) {
  Master master;
  EXPECT_FALSE(master.PublisherOf("nope").has_value());
}

TEST(MasterTest, AdvertiseThenLookup) {
  Master master;
  master.Advertise("image", "camera", DummyConnect());
  EXPECT_EQ(master.PublisherOf("image"), "camera");
}

TEST(MasterTest, DuplicatePublisherThrows) {
  // The system model forbids two publishers of the same data type.
  Master master;
  master.Advertise("image", "camera", DummyConnect());
  EXPECT_THROW(master.Advertise("image", "camera2", DummyConnect()),
               std::logic_error);
}

TEST(MasterTest, SubscribeAfterAdvertiseConnectsImmediately) {
  Master master;
  bool connected = false;
  master.Advertise("image", "camera", DummyConnect());
  master.Subscribe("image", "viewer",
                   [&](const crypto::ComponentId& publisher,
                       transport::ChannelPtr channel) {
                     EXPECT_EQ(publisher, "camera");
                     EXPECT_TRUE(channel != nullptr);
                     connected = true;
                   });
  EXPECT_TRUE(connected);
}

TEST(MasterTest, SubscribeBeforeAdvertiseIsParked) {
  Master master;
  bool connected = false;
  master.Subscribe("image", "viewer",
                   [&](const crypto::ComponentId&, transport::ChannelPtr) {
                     connected = true;
                   });
  EXPECT_FALSE(connected);
  master.Advertise("image", "camera", DummyConnect());
  EXPECT_TRUE(connected);
}

TEST(MasterTest, MultiplePendingSubscribersAllConnected) {
  Master master;
  int connected = 0;
  for (int i = 0; i < 3; ++i) {
    master.Subscribe("scan", "sub" + std::to_string(i),
                     [&](const crypto::ComponentId&, transport::ChannelPtr) {
                       ++connected;
                     });
  }
  master.Advertise("scan", "lidar", DummyConnect());
  EXPECT_EQ(connected, 3);
}

TEST(MasterTest, TopologyReflectsGraph) {
  Master master;
  master.Advertise("image", "camera", DummyConnect());
  master.Subscribe("image", "lane",
                   [](const crypto::ComponentId&, transport::ChannelPtr) {});
  master.Subscribe("image", "sign",
                   [](const crypto::ComponentId&, transport::ChannelPtr) {});
  master.Advertise("quiet", "nobody_listens", DummyConnect());

  const auto topo = master.Topology();
  ASSERT_TRUE(topo.contains("image"));
  EXPECT_EQ(topo.at("image").publisher, "camera");
  EXPECT_EQ(topo.at("image").subscribers,
            (std::vector<crypto::ComponentId>{"lane", "sign"}));
  ASSERT_TRUE(topo.contains("quiet"));
  EXPECT_TRUE(topo.at("quiet").subscribers.empty());
}

TEST(MasterTest, TopologyOmitsUnadvertisedTopics) {
  Master master;
  master.Subscribe("pending", "sub",
                   [](const crypto::ComponentId&, transport::ChannelPtr) {});
  EXPECT_TRUE(master.Topology().empty());
}

TEST(MasterTest, ConnectFnReceivesSubscriberId) {
  Master master;
  crypto::ComponentId seen;
  master.Advertise("t", "pub", [&](const crypto::ComponentId& subscriber) {
    seen = subscriber;
    return transport::MakeInProcChannelPair(transport::Reactor::Global()).b;
  });
  master.Subscribe("t", "the-subscriber",
                   [](const crypto::ComponentId&, transport::ChannelPtr) {});
  EXPECT_EQ(seen, "the-subscriber");
}

}  // namespace
}  // namespace adlp::pubsub
