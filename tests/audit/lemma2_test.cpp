// Lemma 2 (Completeness): a component cannot hide its publication/receipt
// when the counterpart is faithful.
#include <gtest/gtest.h>

#include "adlp/component.h"
#include "audit/auditor.h"
#include "faults/behavior.h"
#include "test_util.h"

namespace adlp::audit {
namespace {

using test::MakeFaithfulPair;
using test::OneTopicTopology;
using test::TestIdentity;

crypto::KeyStore Keys() {
  crypto::KeyStore keys;
  for (const char* name : {"pub", "sub"}) {
    keys.Register(name, TestIdentity(name).keys.pub);
  }
  return keys;
}

TEST(Lemma2Test, PublisherHidingDetected) {
  // Only the subscriber's entry exists; its embedded s_x proves the
  // publisher published and then hid.
  const auto pair = MakeFaithfulPair(TestIdentity("pub"), TestIdentity("sub"),
                                     "image", 1, {1, 2});
  const auto keys = Keys();
  const AuditReport report = Auditor(keys).Audit(
      {pair.subscriber_entry}, OneTopicTopology("image", "pub", {"sub"}));

  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].finding, Finding::kPublisherHidEntry);
  EXPECT_TRUE(report.Blames("pub"));
  EXPECT_FALSE(report.Blames("sub"));
  EXPECT_EQ(report.TotalHidden(), 1u);  // the missing L_x
  EXPECT_EQ(report.TotalValid(), 1u);   // the subscriber's L_y
}

TEST(Lemma2Test, SubscriberHidingDetected) {
  // Only the publisher's entry exists, but it holds the subscriber's valid
  // ACK — receipt proven, entry hidden.
  const auto pair = MakeFaithfulPair(TestIdentity("pub"), TestIdentity("sub"),
                                     "image", 1, {1, 2});
  const auto keys = Keys();
  const AuditReport report = Auditor(keys).Audit(
      {pair.publisher_entry}, OneTopicTopology("image", "pub", {"sub"}));

  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].finding, Finding::kSubscriberHidEntry);
  EXPECT_TRUE(report.Blames("sub"));
  EXPECT_FALSE(report.Blames("pub"));
}

TEST(Lemma2Test, BothHidingIsUndetectable) {
  // When both sides hide (a colluding pair), no evidence exists — exactly
  // the limitation the paper concedes. The audit simply sees nothing.
  const auto keys = Keys();
  const AuditReport report = Auditor(keys).Audit(
      {}, OneTopicTopology("image", "pub", {"sub"}));
  EXPECT_TRUE(report.verdicts.empty());
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(Lemma2Test, PartialHidingOnlyHiddenSeqsFlagged) {
  const auto& pub = TestIdentity("pub");
  const auto& sub = TestIdentity("sub");
  std::vector<proto::LogEntry> entries;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    const auto pair = MakeFaithfulPair(pub, sub, "image", seq, {9});
    entries.push_back(pair.subscriber_entry);
    if (seq % 2 == 0) entries.push_back(pair.publisher_entry);  // hide odd
  }
  const auto keys = Keys();
  const AuditReport report = Auditor(keys).Audit(
      std::move(entries), OneTopicTopology("image", "pub", {"sub"}));
  int hidden = 0, ok = 0;
  for (const auto& v : report.verdicts) {
    if (v.finding == Finding::kPublisherHidEntry) ++hidden;
    if (v.finding == Finding::kOk) ++ok;
  }
  EXPECT_EQ(hidden, 2);
  EXPECT_EQ(ok, 2);
  EXPECT_TRUE(report.Blames("pub"));
}

TEST(Lemma2Test, EndToEndHidingThroughRealPipeline) {
  // The publisher runs a HidingBehavior that drops all its out-entries; the
  // real subscriber logs faithfully; the audit pins the publisher.
  test::MiniSystem sys;

  auto hide_all = std::make_shared<faults::HidingBehavior>(
      faults::FaultFilter{.direction = proto::Direction::kOut});
  proto::ComponentOptions pub_opts = test::FastOptions();
  pub_opts.pipe_wrapper = faults::MakePipeWrapper(hide_all);

  auto& pub = sys.Add("camera", pub_opts);
  auto& sub = sys.Add("detector");
  std::atomic<int> got{0};
  sub.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& p = pub.Advertise("image");
  for (int i = 0; i < 3; ++i) p.Publish(Bytes{1});
  ASSERT_TRUE(test::WaitFor([&] { return got.load() == 3; }));
  // got == 3 proves the ACKs were *sent*; the publisher link logs
  // (and the behaviour drops) each entry only after processing the ACK, so
  // wait for the last drop rather than asserting a racy instantaneous count.
  ASSERT_TRUE(test::WaitFor([&] { return hide_all->HiddenCount() == 3; }));
  pub.FlushLogs();
  sub.FlushLogs();
  EXPECT_EQ(sys.server.EntriesFor("camera").size(), 0u);

  const AuditReport report = Auditor(sys.server.Keys())
                                 .Audit(sys.server.Entries(),
                                        sys.master.Topology());
  EXPECT_EQ(report.verdicts.size(), 3u);
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.finding, Finding::kPublisherHidEntry);
  }
  EXPECT_TRUE(report.Blames("camera"));
  EXPECT_FALSE(report.Blames("detector"));
}

TEST(Lemma2Test, EndToEndSubscriberHiding) {
  test::MiniSystem sys;

  auto hide_in = std::make_shared<faults::HidingBehavior>(
      faults::FaultFilter{.direction = proto::Direction::kIn});
  proto::ComponentOptions sub_opts = test::FastOptions();
  sub_opts.pipe_wrapper = faults::MakePipeWrapper(hide_in);

  auto& pub = sys.Add("camera");
  auto& sub = sys.Add("detector", sub_opts);
  std::atomic<int> got{0};
  sub.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& p = pub.Advertise("image");
  for (int i = 0; i < 3; ++i) p.Publish(Bytes{1});
  ASSERT_TRUE(test::WaitFor([&] { return got.load() == 3; }));
  ASSERT_TRUE(test::WaitFor(
      [&] { return sys.server.EntriesFor("camera").size() == 3; }));

  // The subscriber still had to ACK to keep receiving (the protocol's
  // penalty), so the publisher's entries expose it.
  const AuditReport report = Auditor(sys.server.Keys())
                                 .Audit(sys.server.Entries(),
                                        sys.master.Topology());
  EXPECT_EQ(report.verdicts.size(), 3u);
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.finding, Finding::kSubscriberHidEntry);
  }
  EXPECT_TRUE(report.Blames("detector"));
  EXPECT_FALSE(report.Blames("camera"));
}

}  // namespace
}  // namespace adlp::audit
