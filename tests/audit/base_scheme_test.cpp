// The naive logging protocol's fundamental limitation (Section III-B): the
// auditor can detect inconsistencies but can never assign blame.
#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "pubsub/message.h"
#include "test_util.h"

namespace adlp::audit {
namespace {

using test::OneTopicTopology;

proto::LogEntry BaseEntry(const std::string& component, proto::Direction dir,
                          std::uint64_t seq, Bytes data,
                          const std::string& peer = "") {
  proto::LogEntry e;
  e.scheme = proto::LogScheme::kBase;
  e.component = component;
  e.topic = "image";
  e.direction = dir;
  e.seq = seq;
  e.timestamp = 100;
  e.message_stamp = 99;
  e.data = std::move(data);
  e.peer = peer;
  return e;
}

crypto::KeyStore NoKeys() { return {}; }

TEST(BaseSchemeTest, ConsistentEntriesAreUnprovable) {
  const auto keys = NoKeys();
  const AuditReport report = Auditor(keys).Audit(
      {BaseEntry("pub", proto::Direction::kOut, 1, {1, 2}, "sub"),
       BaseEntry("sub", proto::Direction::kIn, 1, {1, 2}, "pub")},
      OneTopicTopology("image", "pub", {"sub"}));
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].finding, Finding::kUnprovableConsistent);
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(BaseSchemeTest, ConflictingEntriesNoBlameAssignable) {
  // The Fig. 3 scenario: the subscriber logs D' != D. Under the naive
  // scheme the auditor sees the conflict but cannot say who lied.
  const auto keys = NoKeys();
  const AuditReport report = Auditor(keys).Audit(
      {BaseEntry("pub", proto::Direction::kOut, 1, {1, 2}, "sub"),
       BaseEntry("sub", proto::Direction::kIn, 1, {9, 9}, "pub")},
      OneTopicTopology("image", "pub", {"sub"}));
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].finding, Finding::kUnprovableConflict);
  EXPECT_TRUE(report.verdicts[0].blamed.empty());
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(BaseSchemeTest, MissingCounterpartIndistinguishable) {
  // Publisher-only entry: fabrication by the publisher and hiding by the
  // subscriber are indistinguishable — nobody can be blamed.
  const auto keys = NoKeys();
  const AuditReport report = Auditor(keys).Audit(
      {BaseEntry("pub", proto::Direction::kOut, 1, {1}, "sub")},
      OneTopicTopology("image", "pub", {"sub"}));
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].finding, Finding::kUnprovableMissing);
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(BaseSchemeTest, SubscriberOnlyAlsoUnprovable) {
  const auto keys = NoKeys();
  const AuditReport report = Auditor(keys).Audit(
      {BaseEntry("sub", proto::Direction::kIn, 1, {1}, "pub")},
      OneTopicTopology("image", "pub", {"sub"}));
  EXPECT_EQ(report.verdicts[0].finding, Finding::kUnprovableMissing);
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(BaseSchemeTest, PublisherJudgedOnRawDataNotItsHashField) {
  // Base-scheme consistency compares the data both sides stored. A
  // publisher entry that also carries a data_hash field is judged on its
  // raw data, whatever that field claims.
  const auto keys = NoKeys();
  const auto topology = OneTopicTopology("image", "pub", {"sub"});
  proto::LogEntry pub = BaseEntry("pub", proto::Direction::kOut, 1, {1, 2},
                                  "sub");
  const crypto::Digest other = pubsub::PayloadHash(Bytes{9, 9});
  pub.data_hash.assign(other.begin(), other.end());
  const AuditReport agree = Auditor(keys).Audit(
      {pub, BaseEntry("sub", proto::Direction::kIn, 1, {1, 2}, "pub")},
      topology);
  ASSERT_EQ(agree.verdicts.size(), 1u);
  EXPECT_EQ(agree.verdicts[0].finding, Finding::kUnprovableConsistent);

  const crypto::Digest same = pubsub::PayloadHash(Bytes{1, 2});
  pub.data_hash.assign(same.begin(), same.end());
  pub.data = {3, 4};
  const AuditReport conflict = Auditor(keys).Audit(
      {pub, BaseEntry("sub", proto::Direction::kIn, 1, {1, 2}, "pub")},
      topology);
  ASSERT_EQ(conflict.verdicts.size(), 1u);
  EXPECT_EQ(conflict.verdicts[0].finding, Finding::kUnprovableConflict);
}

TEST(BaseSchemeTest, CanBeExcludedFromAudit) {
  AuditorOptions options;
  options.include_base_scheme = false;
  const auto keys = NoKeys();
  const AuditReport report =
      Auditor(keys, options)
          .Audit({BaseEntry("pub", proto::Direction::kOut, 1, {1}, "sub")},
                 OneTopicTopology("image", "pub", {"sub"}));
  EXPECT_TRUE(report.verdicts.empty());
}

TEST(BaseSchemeTest, SideBySideWithAdlpShowsTheContrast) {
  // Same misbehaviour, two schemes: base yields "cannot determine"; ADLP
  // yields a blamed component. This is the paper's core motivation.
  const auto& pub = test::TestIdentity("pub");
  const auto& sub = test::TestIdentity("sub");
  crypto::KeyStore keys;
  keys.Register("pub", pub.keys.pub);
  keys.Register("sub", sub.keys.pub);

  // Base: conflict, no blame.
  const AuditReport base_report = Auditor(keys).Audit(
      {BaseEntry("pub", proto::Direction::kOut, 1, {1, 2}, "sub"),
       BaseEntry("sub", proto::Direction::kIn, 1, {9, 9}, "pub")},
      OneTopicTopology("image", "pub", {"sub"}));
  EXPECT_TRUE(base_report.unfaithful.empty());

  // ADLP: the falsifying subscriber is pinned (Lemma 3 (ii) machinery
  // covered in lemma3_test; here we just contrast the outcome).
  auto pair = test::MakeFaithfulPair(pub, sub, "image", 1, {1, 2});
  proto::LogEntry falsified = pair.subscriber_entry;
  falsified.data_hash = Bytes(32, 0x77);  // arbitrary wrong claim
  const AuditReport adlp_report = Auditor(keys).Audit(
      {pair.publisher_entry, falsified},
      OneTopicTopology("image", "pub", {"sub"}));
  EXPECT_FALSE(adlp_report.unfaithful.empty());
  EXPECT_TRUE(adlp_report.Blames("sub"));
}

}  // namespace
}  // namespace adlp::audit
