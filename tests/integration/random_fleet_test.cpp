// Randomized full-pipeline adversary sweep: real components, real
// middleware, random adversary placement — the live-system counterpart of
// the synthetic Theorem 1/2 property tests. For every seed:
//   * no faithful component is ever blamed (Theorem 1);
//   * every adversary with at least one faithful neighbour is blamed —
//     exactly the guarantee of Theorems 1/2. Two *adjacent* all-out
//     adversaries can mutually mask their shared link (both sides of the
//     transmission vanish from the log), which is the collusion-equivalent
//     case the paper concedes; detection there is possible but not
//     guaranteed;
//   * nobody outside the adversary set is blamed;
//   * the log store's records still verify against its Merkle root.
#include <gtest/gtest.h>

#include <set>

#include "audit/auditor.h"
#include "faults/behavior.h"
#include "test_util.h"

namespace adlp {
namespace {

enum class Role { kFaithful, kHider, kFalsifier };

struct FleetResult {
  std::set<crypto::ComponentId> adversaries;
  std::set<crypto::ComponentId> guaranteed_blamed;  // >=1 faithful neighbour
  std::set<crypto::ComponentId> faithful;
  audit::AuditReport report;
  bool records_ok = false;
};

/// A relay chain c0 -> c1 -> ... -> c{n-1} over topics t1..t{n-1}; each
/// middle component re-publishes a transformation of what it receives.
FleetResult RunFleet(std::uint64_t seed, int components, int messages) {
  Rng meta(seed);
  test::MiniSystem sys;

  std::vector<Role> roles(static_cast<std::size_t>(components));
  for (auto& role : roles) {
    const double dice = meta.NextDouble();
    role = dice < 0.4 ? Role::kFaithful
                      : (dice < 0.7 ? Role::kHider : Role::kFalsifier);
  }

  FleetResult result;
  std::vector<proto::Component*> nodes;
  for (int i = 0; i < components; ++i) {
    const std::string name = "node" + std::to_string(i);
    proto::ComponentOptions opts = test::FastOptions();
    switch (roles[static_cast<std::size_t>(i)]) {
      case Role::kFaithful:
        result.faithful.insert(name);
        break;
      case Role::kHider:
        opts.pipe_wrapper = faults::MakePipeWrapper(
            std::make_shared<faults::HidingBehavior>(faults::FaultFilter{}));
        result.adversaries.insert(name);
        break;
      case Role::kFalsifier:
        opts.pipe_wrapper = [](proto::LogPipe& inner,
                               const proto::NodeIdentity& identity) {
          auto behavior = std::make_shared<faults::FalsificationBehavior>(
              faults::FaultFilter{},
              std::make_shared<proto::NodeIdentity>(identity));
          return std::make_unique<faults::UnfaithfulLogPipe>(inner, behavior);
        };
        result.adversaries.insert(name);
        break;
    }
    nodes.push_back(&sys.Add(name, opts));
  }
  // Detection is guaranteed for any adversary sharing a link with a
  // faithful component (chain neighbours).
  for (int i = 0; i < components; ++i) {
    if (roles[static_cast<std::size_t>(i)] == Role::kFaithful) continue;
    const bool faithful_left =
        i > 0 && roles[static_cast<std::size_t>(i - 1)] == Role::kFaithful;
    const bool faithful_right =
        i < components - 1 &&
        roles[static_cast<std::size_t>(i + 1)] == Role::kFaithful;
    if (faithful_left || faithful_right) {
      result.guaranteed_blamed.insert("node" + std::to_string(i));
    }
  }

  // Wire the chain: node i consumes t{i} and publishes t{i+1}.
  std::vector<pubsub::Publisher*> publishers(nodes.size(), nullptr);
  std::atomic<int> sink_count{0};
  for (int i = 0; i < components - 1; ++i) {
    publishers[static_cast<std::size_t>(i)] =
        &nodes[static_cast<std::size_t>(i)]->Advertise(
            "t" + std::to_string(i + 1));
  }
  for (int i = 1; i < components; ++i) {
    const bool is_sink = (i == components - 1);
    pubsub::Publisher* next =
        is_sink ? nullptr : publishers[static_cast<std::size_t>(i)];
    nodes[static_cast<std::size_t>(i)]->Subscribe(
        "t" + std::to_string(i),
        [next, &sink_count](const pubsub::Message& m) {
          if (next == nullptr) {
            sink_count++;
            return;
          }
          Bytes transformed = m.payload;
          for (auto& b : transformed) b = static_cast<std::uint8_t>(b + 1);
          next->Publish(transformed);
        });
  }

  Rng payload_rng(seed ^ 0xf1ee7);
  for (int m = 0; m < messages; ++m) {
    publishers[0]->Publish(payload_rng.RandomBytes(64));
  }
  EXPECT_TRUE(test::WaitFor([&] { return sink_count.load() == messages; }));
  sys.ShutdownAll();

  result.records_ok = sys.server.VerifyRecords();
  result.report = audit::Auditor(sys.server.Keys())
                      .Audit(sys.server.Entries(), sys.master.Topology());
  return result;
}

class RandomFleetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFleetTest, BlameMatchesAdversaryPlacementExactly) {
  const FleetResult result = RunFleet(GetParam(), 6, 4);
  EXPECT_TRUE(result.records_ok);

  // Theorem 1: faithful components are never blamed.
  for (const auto& name : result.faithful) {
    EXPECT_FALSE(result.report.Blames(name))
        << name << " is faithful but was blamed\n"
        << result.report.Render();
  }
  // Guaranteed detection across faithful-adjacent links.
  for (const auto& name : result.guaranteed_blamed) {
    EXPECT_TRUE(result.report.Blames(name))
        << name << " has a faithful neighbour but was not blamed\n"
        << result.report.Render();
  }
  // Soundness: blame never lands outside the adversary set.
  for (const auto& name : result.report.unfaithful) {
    EXPECT_TRUE(result.adversaries.contains(name))
        << name << " was blamed but never misbehaved\n"
        << result.report.Render();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFleetTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace adlp
