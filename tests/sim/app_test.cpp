#include "sim/app.h"

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "test_util.h"

namespace adlp::sim {
namespace {

AppOptions FastAppOptions(proto::LoggingScheme scheme) {
  AppOptions options;
  options.component = test::FastOptions(scheme);
  options.realtime = false;  // step as fast as possible
  return options;
}

TEST(SelfDrivingAppTest, PipelineFlowsEndToEnd) {
  pubsub::Master master;
  proto::LogServer server;
  AppOptions options = FastAppOptions(proto::LoggingScheme::kNone);
  options.with_stop_sign = false;
  SelfDrivingApp app(master, server, options);
  app.Run(2.0);  // 40 frames
  app.Shutdown();

  const auto stats = app.stats();
  EXPECT_EQ(stats.frames, 40u);
  EXPECT_EQ(stats.scans, 20u);
  // Perception messages flow (some frames may still be in flight at stop).
  EXPECT_GT(stats.lane_msgs, 30u);
  EXPECT_GT(stats.sign_msgs, 30u);
  EXPECT_GT(stats.plan_msgs, 25u);
  EXPECT_GT(stats.steering_msgs, 25u);
  EXPECT_GT(stats.actuations, 25u);
}

TEST(SelfDrivingAppTest, CarDrivesAndStaysNearTrack) {
  pubsub::Master master;
  proto::LogServer server;
  AppOptions options = FastAppOptions(proto::LoggingScheme::kNone);
  options.with_stop_sign = false;
  SelfDrivingApp app(master, server, options);
  app.Run(10.0);
  app.Shutdown();

  const auto state = app.stats().final_state;
  EXPECT_GT(state.speed, 0.3);  // actually moving
  const double radius = std::sqrt(state.x * state.x + state.y * state.y);
  EXPECT_NEAR(radius, 3.0, 0.6);  // roughly on the circle
}

TEST(SelfDrivingAppTest, StopSignStopsTheCar) {
  pubsub::Master master;
  proto::LogServer server;
  AppOptions options = FastAppOptions(proto::LoggingScheme::kNone);
  options.with_stop_sign = true;
  SelfDrivingApp app(master, server, options);
  app.Run(30.0);
  app.Shutdown();

  const auto stats = app.stats();
  EXPECT_TRUE(stats.stop_engaged);
  EXPECT_LT(stats.final_state.speed, 0.1);  // braked to rest
}

TEST(SelfDrivingAppTest, ObstacleSlowsTheCar) {
  // Same track, but with an obstacle parked on it and no stop sign: the
  // LIDAR -> obstacle_detector -> planner path must brake the car before
  // contact.
  pubsub::Master master;
  proto::LogServer server;
  AppOptions options = FastAppOptions(proto::LoggingScheme::kNone);
  options.with_stop_sign = false;
  options.with_obstacle = true;
  SelfDrivingApp app(master, server, options);
  app.Run(25.0);  // enough to reach the 3/4-lap obstacle
  app.Shutdown();

  const auto stats = app.stats();
  EXPECT_GT(stats.obstacle_msgs, 0u);
  // The car must have slowed well below cruise speed near the obstacle and
  // must not have driven through it (obstacle sits at (0, -R)).
  const auto& s = stats.final_state;
  const double dist_to_obstacle =
      std::hypot(s.x - 0.0, s.y - (-3.0));
  EXPECT_GT(dist_to_obstacle, 0.15);  // never collided
  EXPECT_LT(s.speed, 0.6);            // braked from 1.0 m/s cruise
}

TEST(SelfDrivingAppTest, TopologyMatchesFigure11) {
  pubsub::Master master;
  proto::LogServer server;
  SelfDrivingApp app(master, server,
                     FastAppOptions(proto::LoggingScheme::kNone));
  const auto topo = master.Topology();
  ASSERT_EQ(topo.size(), SelfDrivingApp::TopicNames().size());
  EXPECT_EQ(topo.at("image").publisher, "image_feeder");
  EXPECT_EQ(topo.at("image").subscribers.size(), 2u);  // lane + sign
  EXPECT_EQ(topo.at("scan").publisher, "lidar_driver");
  EXPECT_EQ(topo.at("plan").publisher, "planner");
  EXPECT_EQ(topo.at("steering").subscribers,
            (std::vector<crypto::ComponentId>{"actuator"}));
  app.Shutdown();
}

TEST(SelfDrivingAppTest, AdlpLogsAuditClean) {
  pubsub::Master master;
  proto::LogServer server;
  AppOptions options = FastAppOptions(proto::LoggingScheme::kAdlp);
  SelfDrivingApp app(master, server, options);
  app.Run(1.0);  // 20 frames through the full graph
  app.Shutdown();

  EXPECT_GT(server.EntryCount(), 100u);
  EXPECT_TRUE(server.VerifyRecords());

  const audit::AuditReport report =
      audit::Auditor(server.Keys()).Audit(server.Entries(), master.Topology());
  EXPECT_TRUE(report.unfaithful.empty()) << report.Render();
  EXPECT_EQ(report.TotalInvalid(), 0u) << report.Render();
  // Hidden entries can only be in-flight stragglers; with clean shutdown
  // and ACK gating, publishers only log acked transmissions.
  EXPECT_EQ(report.TotalHidden(), 0u) << report.Render();
}

TEST(SelfDrivingAppTest, BaseSchemeLogsAreUnprovable) {
  pubsub::Master master;
  proto::LogServer server;
  SelfDrivingApp app(master, server,
                     FastAppOptions(proto::LoggingScheme::kBase));
  app.Run(0.5);
  app.Shutdown();
  EXPECT_GT(server.EntryCount(), 20u);

  const audit::AuditReport report =
      audit::Auditor(server.Keys()).Audit(server.Entries(), master.Topology());
  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.finding == audit::Finding::kUnprovableConsistent ||
                v.finding == audit::Finding::kUnprovableMissing)
        << FindingName(v.finding);
  }
}

}  // namespace
}  // namespace adlp::sim
