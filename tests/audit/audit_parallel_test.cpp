// Thread-count equivalence: splitting the audit into topic partitions must
// be an implementation detail. For clean and fault-injected fleets alike,
// every thread count must produce an AuditReport whose full JSON rendering
// (verdicts included) is byte-identical to the one-thread audit's, because
// every transmission instance is decided by one partition's auditor from
// its own entries, and the partition reports are joined in PairKey order
// whichever worker produced them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adlp/protocols.h"
#include "audit/auditor.h"
#include "audit/report_json.h"
#include "fleet_gen.h"
#include "obs/instrument.h"

namespace adlp {
namespace {

using test::ApplyBehavior;
using test::ChainFleet;
using test::MakeChainFleet;
using test::TestIdentity;

std::string FullJson(const audit::AuditReport& report) {
  audit::JsonOptions options;
  options.include_verdicts = true;
  return audit::RenderReportJson(report, options);
}

/// One fleet per scenario: clean plus one of each fault class.
std::vector<std::pair<std::string, ChainFleet>> Scenarios() {
  std::vector<std::pair<std::string, ChainFleet>> scenarios;

  scenarios.emplace_back("clean", MakeChainFleet(3, 4));

  {
    ChainFleet fleet = MakeChainFleet(3, 4);
    faults::FaultFilter filter;
    filter.topic = fleet.Topic(1);
    filter.direction = proto::Direction::kIn;
    faults::HidingBehavior hide(filter);
    ApplyBehavior(fleet.entries, fleet.Node(2).id, hide);
    scenarios.emplace_back("hiding", std::move(fleet));
  }
  {
    ChainFleet fleet = MakeChainFleet(3, 4);
    faults::FaultFilter filter;
    filter.topic = fleet.Topic(0);
    filter.direction = proto::Direction::kOut;
    faults::FalsificationBehavior falsify(
        filter, std::make_shared<proto::NodeIdentity>(fleet.Node(0)));
    ApplyBehavior(fleet.entries, fleet.Node(0).id, falsify);
    scenarios.emplace_back("falsification", std::move(fleet));
  }
  {
    ChainFleet fleet = MakeChainFleet(3, 4);
    Rng rng(77);
    faults::FabricationSpec spec;
    spec.topic = fleet.Topic(1);
    spec.seq = 99;
    spec.timestamp = 99'000;
    spec.message_stamp = 98'999;
    spec.data = rng.RandomBytes(16);
    spec.peer = fleet.Node(2).id;
    fleet.entries.push_back(
        faults::FabricatePublisherEntry(fleet.Node(1), spec, rng));
    scenarios.emplace_back("fabrication", std::move(fleet));
  }
  {
    ChainFleet fleet = MakeChainFleet(3, 4);
    const proto::NodeIdentity& shadow = TestIdentity("eq-shadow");
    fleet.keys.Register(shadow.id, shadow.keys.pub);
    faults::FaultFilter filter;
    filter.topic = fleet.Topic(2);
    filter.direction = proto::Direction::kIn;
    faults::ImpersonationBehavior impersonate(filter, shadow.id);
    ApplyBehavior(fleet.entries, fleet.Node(3).id, impersonate);
    scenarios.emplace_back("impersonation", std::move(fleet));
  }
  {
    ChainFleet fleet = MakeChainFleet(3, 4);
    faults::FaultFilter filter;
    faults::TimingDisruptionBehavior skew(filter, 500'000'000);
    ApplyBehavior(fleet.entries, fleet.Node(1).id, skew);
    scenarios.emplace_back("timing", std::move(fleet));
  }
  return scenarios;
}

TEST(AuditParallelTest, EveryConfigurationMatchesSerialByteForByte) {
  for (const auto& [name, fleet] : Scenarios()) {
    const audit::LogDatabase db(fleet.entries, fleet.topology);
    const audit::Auditor auditor(fleet.keys);
    const audit::AuditReport serial = auditor.Audit(db);
    const std::string serial_json = FullJson(serial);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      audit::AuditOptions exec;
      exec.threads = threads;
      const audit::AuditReport report = auditor.Audit(db, exec);
      EXPECT_EQ(FullJson(report), serial_json)
          << name << " diverged at threads=" << threads;
      EXPECT_EQ(report.unfaithful, serial.unfaithful) << name;
    }
  }
}

TEST(AuditParallelTest, Ed25519FleetMatchesSerialByteForByte) {
  // Lightweight-crypto fleet: every verification runs through the Ed25519
  // combined-equation batch kernel, including one tampered signature that
  // exercises the per-signature fallback. Serial and parallel reports must
  // still be byte-identical at every thread count.
  Rng rng(0xed255);
  std::vector<proto::NodeIdentity> ids;
  crypto::KeyStore keys;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(proto::MakeNodeIdentity("ed-c" + std::to_string(i), rng, 512,
                                          crypto::SigAlgorithm::kEd25519));
    keys.Register(ids.back().id, ids.back().keys.pub);
  }
  std::vector<proto::LogEntry> entries;
  audit::Topology topology;
  for (std::size_t link = 0; link + 1 < ids.size(); ++link) {
    const std::string topic = "ed-t" + std::to_string(link);
    topology[topic] =
        pubsub::Master::TopicInfo{ids[link].id, {ids[link + 1].id}};
    for (std::uint64_t s = 1; s <= 6; ++s) {
      const faults::ForgedPair pair = test::MakeFaithfulPair(
          ids[link], ids[link + 1], topic, s, rng.RandomBytes(24),
          static_cast<Timestamp>(s * 1000 + link * 10));
      entries.push_back(pair.publisher_entry);
      entries.push_back(pair.subscriber_entry);
    }
  }
  ASSERT_FALSE(entries[5].self_signature.empty());
  entries[5].self_signature[8] ^= 0x20;  // one forged item in the batch

  const audit::LogDatabase db(entries, topology);
  const audit::Auditor auditor(keys);
  const audit::AuditReport serial = auditor.Audit(db);
  const std::string serial_json = FullJson(serial);
  EXPECT_FALSE(serial.unfaithful.empty())
      << "the tampered entry went unnoticed";

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    audit::AuditOptions exec;
    exec.threads = threads;
    EXPECT_EQ(FullJson(auditor.Audit(db, exec)), serial_json)
        << "ed25519 diverged at threads=" << threads;
  }
}

/// Adds topic "fan", published by c0 to both c1 and c2. Each seq is one
/// publisher entry for both subscribers: aggregated (one AckRecord per
/// subscriber) or peerless (no ACK at all, so the entry attaches to every
/// manifest subscriber).
ChainFleet WithFanOutTopic(ChainFleet fleet, bool aggregated) {
  const proto::NodeIdentity& pub = fleet.Node(0);
  const proto::NodeIdentity& sub_a = fleet.Node(1);
  const proto::NodeIdentity& sub_b = fleet.Node(2);
  fleet.topology["fan"] = pubsub::Master::TopicInfo{pub.id, {sub_a.id,
                                                              sub_b.id}};
  Rng rng(aggregated ? 0xa66 : 0x9ee7);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const Bytes data = rng.RandomBytes(16);
    const Timestamp stamp = static_cast<Timestamp>(s * 1000 + 500);
    const faults::ForgedPair a =
        test::MakeFaithfulPair(pub, sub_a, "fan", s, data, stamp);
    const faults::ForgedPair b =
        test::MakeFaithfulPair(pub, sub_b, "fan", s, data, stamp);
    proto::LogEntry out = a.publisher_entry;
    if (aggregated) {
      out.acks.push_back({sub_a.id, a.publisher_entry.peer_data_hash,
                          a.publisher_entry.peer_signature});
      out.acks.push_back({sub_b.id, b.publisher_entry.peer_data_hash,
                          b.publisher_entry.peer_signature});
    }
    out.peer.clear();
    out.peer_data_hash.clear();
    out.peer_signature.clear();
    fleet.entries.push_back(std::move(out));
    fleet.entries.push_back(a.subscriber_entry);
    fleet.entries.push_back(b.subscriber_entry);
  }
  return fleet;
}

TEST(AuditParallelTest, TopicPartitionsMatchOneThread) {
  std::vector<std::pair<std::string, ChainFleet>> fleets;
  fleets.emplace_back("one-topic", MakeChainFleet(1, 5, "pt"));
  fleets.emplace_back("fewer-topics-than-threads", MakeChainFleet(3, 4, "pt"));
  {
    ChainFleet fleet = MakeChainFleet(3, 4, "pt");
    fleet.topology.erase(fleet.Topic(1));
    fleets.emplace_back("off-manifest-topic", std::move(fleet));
  }
  fleets.emplace_back("aggregated",
                      WithFanOutTopic(MakeChainFleet(3, 3, "pt"), true));
  fleets.emplace_back("peerless",
                      WithFanOutTopic(MakeChainFleet(3, 3, "pt"), false));

  for (const auto& [name, fleet] : fleets) {
    SCOPED_TRACE(name);
    const audit::LogDatabase db(fleet.entries, fleet.topology);
    const audit::Auditor auditor(fleet.keys);
    const std::string one_thread = FullJson(auditor.Audit(db));
    std::set<std::string> topics;
    for (const auto& entry : fleet.entries) topics.insert(entry.topic);

    for (std::size_t threads = 1; threads <= 8; ++threads) {
      audit::AuditOptions exec;
      exec.threads = threads;
      const std::uint64_t before = obs::metric::AuditShardNs().Snap().count;
      EXPECT_EQ(FullJson(auditor.Audit(db, exec)), one_thread)
          << "diverged at threads=" << threads;
      // One partition per thread, never more than there are topics.
      EXPECT_EQ(obs::metric::AuditShardNs().Snap().count - before,
                std::min(threads, topics.size()))
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace adlp
