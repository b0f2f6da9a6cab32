// Randomized misbehavior matrix (the property behind Theorems 1-2): for
// every fault class and every seed, a fleet with ONE unfaithful
// non-colluding component audits to exactly that component — never a
// faithful one. Each seed randomizes the chain shape, the attacker's
// position, the fault parameters, AND the audit's thread count, so the
// matrix simultaneously exercises the topic-partitioned audit against the
// one-thread semantics it must preserve.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "audit/auditor.h"
#include "audit/causality.h"
#include "fleet_gen.h"

namespace adlp {
namespace {

using test::ApplyBehavior;
using test::ChainFleet;
using test::MakeChainFleet;
using test::TestIdentity;

class MisbehaviorMatrixTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Per-class stream constants keep the six tests' random choices
  /// independent even though they share the seed parameter.
  Rng MakeRng(std::uint64_t stream) const {
    return Rng(GetParam() * 0x9e37'79b9'7f4a'7c15ull + stream);
  }

  ChainFleet MakeFleet(Rng& rng) const {
    const std::size_t links = 2 + rng.UniformBelow(3);  // 2..4 hops
    const std::size_t seqs = 3 + rng.UniformBelow(4);   // 3..6 per hop
    return MakeChainFleet(links, seqs);
  }

  /// Audits with a seed-randomized thread count: every matrix cell doubles
  /// as a serial/parallel interchangeability check.
  audit::AuditReport AuditFleet(const ChainFleet& fleet, Rng& rng) const {
    const audit::LogDatabase db(fleet.entries, fleet.topology);
    const audit::Auditor auditor(fleet.keys);
    audit::AuditOptions exec;
    exec.threads = 1 + rng.UniformBelow(8);
    return auditor.Audit(db, exec);
  }

  static std::set<crypto::ComponentId> Blamed(const audit::AuditReport& r) {
    return r.unfaithful;
  }
};

TEST_P(MisbehaviorMatrixTest, CleanFleetAuditsClean) {
  Rng rng = MakeRng(0);
  const ChainFleet fleet = MakeFleet(rng);
  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_TRUE(report.unfaithful.empty())
      << "clean fleet blamed " << report.unfaithful.size() << " components";
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.finding, audit::Finding::kOk) << v.detail;
  }
  const audit::LogDatabase db(fleet.entries, fleet.topology);
  EXPECT_TRUE(audit::CausalityChecker(db).Check(fleet.dependencies).empty());
}

TEST_P(MisbehaviorMatrixTest, HidingBlamedExactly) {
  Rng rng = MakeRng(1);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = rng.UniformBelow(fleet.links + 1);
  const crypto::ComponentId attacker = fleet.Node(a).id;

  // A hop the attacker actually participates in, and its role there.
  const bool hide_in =
      a == fleet.links || (a > 0 && rng.Chance(0.5));
  faults::FaultFilter filter;
  filter.topic = hide_in ? fleet.Topic(a - 1) : fleet.Topic(a);
  filter.direction =
      hide_in ? proto::Direction::kIn : proto::Direction::kOut;
  faults::HidingBehavior hide(filter, GetParam() + 11);
  ApplyBehavior(fleet.entries, attacker, hide);
  ASSERT_EQ(hide.HiddenCount(), fleet.seqs);

  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_EQ(Blamed(report), std::set<crypto::ComponentId>{attacker});
  std::size_t hidden_findings = 0;
  for (const auto& v : report.verdicts) {
    if (v.finding == audit::Finding::kPublisherHidEntry ||
        v.finding == audit::Finding::kSubscriberHidEntry) {
      ++hidden_findings;
      EXPECT_EQ(v.blamed, std::vector<crypto::ComponentId>{attacker});
    }
  }
  EXPECT_EQ(hidden_findings, fleet.seqs);
}

TEST_P(MisbehaviorMatrixTest, FalsificationBlamedExactly) {
  Rng rng = MakeRng(2);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = rng.UniformBelow(fleet.links + 1);
  const crypto::ComponentId attacker = fleet.Node(a).id;

  const bool falsify_in =
      a == fleet.links || (a > 0 && rng.Chance(0.5));
  faults::FaultFilter filter;
  filter.topic = falsify_in ? fleet.Topic(a - 1) : fleet.Topic(a);
  filter.direction =
      falsify_in ? proto::Direction::kIn : proto::Direction::kOut;
  faults::FalsificationBehavior falsify(
      filter, std::make_shared<proto::NodeIdentity>(fleet.Node(a)),
      /*mutate=*/nullptr, GetParam() + 22);
  ApplyBehavior(fleet.entries, attacker, falsify);
  ASSERT_EQ(falsify.FalsifiedCount(), fleet.seqs);

  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_EQ(Blamed(report), std::set<crypto::ComponentId>{attacker});
  const audit::Finding expected = falsify_in
                                      ? audit::Finding::kSubscriberFalsified
                                      : audit::Finding::kPublisherFalsified;
  std::size_t falsified_findings = 0;
  for (const auto& v : report.verdicts) {
    if (v.finding == expected) ++falsified_findings;
  }
  EXPECT_EQ(falsified_findings, fleet.seqs);
}

TEST_P(MisbehaviorMatrixTest, FabricationBlamedExactly) {
  Rng rng = MakeRng(3);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = rng.UniformBelow(fleet.links + 1);
  const crypto::ComponentId attacker = fleet.Node(a).id;

  // Fabricate a transmission at a sequence number that never happened, on a
  // hop where the attacker holds the chosen role.
  const bool sub_side =
      a == fleet.links || (a > 0 && rng.Chance(0.5));
  faults::FabricationSpec spec;
  spec.seq = fleet.seqs + 1 + rng.UniformBelow(4);
  spec.timestamp = static_cast<Timestamp>(spec.seq * 1000);
  spec.message_stamp = spec.timestamp - 1;
  spec.data = rng.RandomBytes(24);
  Rng forge_rng = MakeRng(33);
  if (sub_side) {
    spec.topic = fleet.Topic(a - 1);
    spec.peer = fleet.Node(a - 1).id;
    fleet.entries.push_back(
        faults::FabricateSubscriberEntry(fleet.Node(a), spec, forge_rng));
  } else {
    spec.topic = fleet.Topic(a);
    spec.peer = fleet.Node(a + 1).id;
    fleet.entries.push_back(
        faults::FabricatePublisherEntry(fleet.Node(a), spec, forge_rng));
  }

  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_EQ(Blamed(report), std::set<crypto::ComponentId>{attacker});
  const audit::Finding expected = sub_side
                                      ? audit::Finding::kSubscriberFabricated
                                      : audit::Finding::kPublisherFabricated;
  std::size_t fabricated_findings = 0;
  for (const auto& v : report.verdicts) {
    if (v.finding == expected) ++fabricated_findings;
  }
  EXPECT_EQ(fabricated_findings, 1u);
}

TEST_P(MisbehaviorMatrixTest, ForgeByReplayBlamedExactly) {
  Rng rng = MakeRng(4);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = rng.UniformBelow(fleet.links + 1);
  const crypto::ComponentId attacker = fleet.Node(a).id;

  // Replay one of the attacker's own genuine entries under a fresh sequence
  // number: the reused counterpart signature covers the old h(seq || D).
  const bool replay_in =
      a == fleet.links || (a > 0 && rng.Chance(0.5));
  const std::string topic = replay_in ? fleet.Topic(a - 1) : fleet.Topic(a);
  const proto::Direction dir =
      replay_in ? proto::Direction::kIn : proto::Direction::kOut;
  const std::uint64_t old_seq = 1 + rng.UniformBelow(fleet.seqs);
  const proto::LogEntry* genuine = nullptr;
  for (const auto& entry : fleet.entries) {
    if (entry.component == attacker && entry.topic == topic &&
        entry.direction == dir && entry.seq == old_seq) {
      genuine = &entry;
      break;
    }
  }
  ASSERT_NE(genuine, nullptr);
  const std::uint64_t new_seq = fleet.seqs + 1 + rng.UniformBelow(4);
  fleet.entries.push_back(faults::FabricateByReplay(
      fleet.Node(a), *genuine, new_seq,
      static_cast<Timestamp>(new_seq * 1000)));

  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_EQ(Blamed(report), std::set<crypto::ComponentId>{attacker});
}

TEST_P(MisbehaviorMatrixTest, ImpersonationBlamesAttackerNotFaithful) {
  Rng rng = MakeRng(5);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = 1 + rng.UniformBelow(fleet.links);  // a subscriber
  const crypto::ComponentId attacker = fleet.Node(a).id;

  // The claimed author is a registered but non-participating component: the
  // auditor cannot distinguish the victim from a hider (the self-signature
  // simply fails under the victim's key), so the victim lands in the blamed
  // set too — the paper's "obvious detection" with blame at the claimed
  // author. What accountability REQUIRES is that the attacker is caught
  // (its own receipt entry is now missing) and no faithful chain member is
  // implicated.
  const proto::NodeIdentity& shadow = TestIdentity("mx-shadow");
  fleet.keys.Register(shadow.id, shadow.keys.pub);

  faults::FaultFilter filter;
  filter.topic = fleet.Topic(a - 1);
  filter.direction = proto::Direction::kIn;
  faults::ImpersonationBehavior impersonate(filter, shadow.id,
                                            GetParam() + 55);
  ApplyBehavior(fleet.entries, attacker, impersonate);

  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_TRUE(report.Blames(attacker));
  for (const auto& id : report.unfaithful) {
    EXPECT_TRUE(id == attacker || id == shadow.id)
        << "faithful component blamed: " << id;
  }
}

TEST_P(MisbehaviorMatrixTest, TimingDisruptionCaughtByCausality) {
  Rng rng = MakeRng(6);
  ChainFleet fleet = MakeFleet(rng);
  const std::size_t a = rng.UniformBelow(fleet.links + 1);
  const crypto::ComponentId attacker = fleet.Node(a).id;

  // Shift every local timestamp of the attacker far enough to break a
  // precedence constraint: forward anywhere except at the chain's end,
  // where only "received before the upstream send" (a backward shift) is
  // checkable.
  const Timestamp delta =
      a == fleet.links ? static_cast<Timestamp>(-500'000'000)
                       : static_cast<Timestamp>(500'000'000);
  faults::FaultFilter filter;
  faults::TimingDisruptionBehavior skew(filter, delta, GetParam() + 66);
  ApplyBehavior(fleet.entries, attacker, skew);

  // Timestamps are outside the signed digest, so the pairwise auditor must
  // NOT implicate anyone (Lemma 4: timestamps alone prove nothing)...
  const audit::AuditReport report = AuditFleet(fleet, rng);
  EXPECT_TRUE(report.unfaithful.empty());

  // ...but the causality checker localizes the liar to a suspect set that
  // always contains the attacker.
  const audit::LogDatabase db(fleet.entries, fleet.topology);
  const std::vector<audit::CausalityViolation> violations =
      audit::CausalityChecker(db).Check(fleet.dependencies);
  ASSERT_FALSE(violations.empty());
  for (const auto& violation : violations) {
    EXPECT_TRUE(std::find(violation.suspects.begin(),
                          violation.suspects.end(),
                          attacker) != violation.suspects.end())
        << violation.constraint << " blames a set without the attacker";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisbehaviorMatrixTest,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace adlp
