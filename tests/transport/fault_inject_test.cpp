#include "transport/fault_inject.h"

#include <gtest/gtest.h>

#include <atomic>

#include "test_util.h"
#include "transport/inproc.h"
#include "transport/reconnect.h"

namespace adlp::transport {
namespace {

using test::Inbox;

struct FaultyEnds {
  ChannelPtr a;  // the faulty sender's end
  ChannelPtr b;
};

FaultyEnds FaultyPair(FaultPlan plan, std::uint64_t seed) {
  auto pair = MakeInProcChannelPair(Reactor::Global());
  return {WrapWithFaults(pair.a, plan, Rng(seed)), pair.b};
}

std::size_t CountDelivered(const ChannelPtr& sender, const ChannelPtr& receiver,
                           int frames) {
  for (int i = 0; i < frames; ++i) {
    (void)sender->Send(Bytes{static_cast<std::uint8_t>(i)});
  }
  sender->Close();
  Inbox inbox(*receiver);
  std::size_t delivered = 0;
  while (inbox.Pop()) ++delivered;
  return delivered;
}

TEST(FaultInjectTest, NoFaultsIsTransparent) {
  auto pair = FaultyPair(FaultPlan{}, 1);
  Inbox inbox(*pair.b);
  ASSERT_TRUE(pair.a->Send(Bytes{1, 2, 3}));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (Bytes{1, 2, 3}));
}

TEST(FaultInjectTest, DropsFramesButReportsSuccess) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  auto pair = FaultyPair(plan, 42);
  for (int i = 0; i < 100; ++i) {
    // Loss is silent: the one-way sender cannot tell.
    ASSERT_TRUE(pair.a->Send(Bytes{static_cast<std::uint8_t>(i)}));
  }
  auto* faulty = static_cast<FaultInjectingChannel*>(pair.a.get());
  const FaultStats stats = faulty->Stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_EQ(stats.dropped + stats.forwarded, 100u);
  pair.a->Close();
  Inbox inbox(*pair.b);
  std::size_t delivered = 0;
  while (inbox.Pop()) ++delivered;
  EXPECT_EQ(delivered, stats.forwarded);
}

TEST(FaultInjectTest, DeterministicAcrossRunsWithSameSeed) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  auto first = FaultyPair(plan, 7);
  auto second = FaultyPair(plan, 7);
  const std::size_t d1 = CountDelivered(first.a, first.b, 200);
  const std::size_t d2 = CountDelivered(second.a, second.b, 200);
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1, 200u);
}

TEST(FaultInjectTest, DuplicatesFrames) {
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  auto pair = FaultyPair(plan, 3);
  Inbox inbox(*pair.b);
  ASSERT_TRUE(pair.a->Send(Bytes{9}));
  auto r1 = inbox.Pop();
  auto r2 = inbox.Pop();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(*r1, *r2);
}

TEST(FaultInjectTest, CorruptsExactlyOneByte) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  auto pair = FaultyPair(plan, 4);
  const Bytes original(64, 0xAB);
  Inbox inbox(*pair.b);
  ASSERT_TRUE(pair.a->Send(original));
  auto r = inbox.Pop();
  ASSERT_TRUE(r);
  ASSERT_EQ(r->size(), original.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if ((*r)[i] != original[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(FaultInjectTest, HardDisconnectAfterNFrames) {
  FaultPlan plan;
  plan.disconnect_after_frames = 3;
  auto pair = FaultyPair(plan, 5);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pair.a->Send(Bytes{static_cast<std::uint8_t>(i)}));
  }
  // The triggering frame is NOT sent: a clean failure, like a cut cable.
  EXPECT_FALSE(pair.a->Send(Bytes{99}));
  EXPECT_FALSE(pair.a->IsOpen());
  EXPECT_FALSE(pair.a->Send(Bytes{100}));
  Inbox inbox(*pair.b);
  std::size_t delivered = 0;
  while (inbox.Pop()) ++delivered;
  EXPECT_EQ(delivered, 3u);
}

TEST(FaultInjectTest, DelayStillDeliversIntact) {
  FaultPlan plan;
  plan.delay_ns_max = 2'000'000;  // up to 2 ms
  auto pair = FaultyPair(plan, 6);
  Inbox inbox(*pair.b);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pair.a->Send(Bytes{static_cast<std::uint8_t>(i)}));
  }
  for (int i = 0; i < 5; ++i) {
    auto r = inbox.Pop();
    ASSERT_TRUE(r);
    EXPECT_EQ((*r)[0], static_cast<std::uint8_t>(i));
  }
}

TEST(FaultInjectTest, AsyncEndForwardsFramesAndTheCloseEdge) {
  // How a log sink consumes a faulty connection: handlers on the decorator
  // get the inner channel's frames, and a disconnect fault reaches them as
  // the close edge, as a real cut would.
  FaultPlan plan;
  plan.disconnect_after_frames = 2;
  auto pair = MakeInProcChannelPair(Reactor::Global());
  auto faulty = WrapWithFaults(pair.a, plan, Rng(7));
  std::atomic<int> frames{0};
  std::atomic<bool> closed{false};
  faulty->StartAsync([&](BytesView frame) { frames.fetch_add(frame[0]); },
                     [&] { closed.store(true); });
  ASSERT_TRUE(pair.b->Send(Bytes{5}));
  ASSERT_TRUE(faulty->Send(Bytes{1}));
  ASSERT_TRUE(faulty->Send(Bytes{2}));
  EXPECT_FALSE(faulty->Send(Bytes{3}));
  EXPECT_TRUE(faulty->WaitClosed(5000));
  EXPECT_TRUE(closed.load());
  EXPECT_EQ(frames.load(), 5);
}

TEST(BackoffPolicyTest, GrowsExponentiallyAndCaps) {
  BackoffPolicy policy{10, 1000, 2.0, 0.0};
  Rng rng(1);
  EXPECT_EQ(policy.DelayMs(0, rng), 10);
  EXPECT_EQ(policy.DelayMs(1, rng), 20);
  EXPECT_EQ(policy.DelayMs(2, rng), 40);
  EXPECT_EQ(policy.DelayMs(10, rng), 1000);  // capped
  EXPECT_EQ(policy.DelayMs(63, rng), 1000);
}

TEST(BackoffPolicyTest, JitterStaysWithinBandAndIsDeterministic) {
  BackoffPolicy policy{100, 10000, 2.0, 0.25};
  Rng a(9), b(9);
  for (unsigned f = 0; f < 6; ++f) {
    const auto d1 = policy.DelayMs(f, a);
    const auto d2 = policy.DelayMs(f, b);
    EXPECT_EQ(d1, d2);  // same seed, same schedule
    const double base = std::min(100.0 * (1 << f), 10000.0);
    EXPECT_GE(d1, static_cast<std::int64_t>(base * 0.74));
    EXPECT_LE(d1, static_cast<std::int64_t>(base * 1.26));
  }
}

}  // namespace
}  // namespace adlp::transport
