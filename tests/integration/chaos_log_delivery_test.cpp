// Chaos test for the log-delivery pipeline: the trusted logger service is
// killed and restarted mid-fleet while FaultInjectingChannel cuts the
// sinks' connections. The accountability verdicts must be indistinguishable
// from an uninterrupted run — ADLP's Theorems 1-2 only hold if entries
// actually reach the logger, so resilience is a correctness property here,
// not an ops nicety.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "adlp/component.h"
#include "adlp/remote_log.h"
#include "adlp/resilient_log.h"
#include "audit/auditor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "transport/fault_inject.h"

namespace adlp {
namespace {

using test::WaitFor;

constexpr int kMessagesBeforeOutage = 4;
constexpr int kMessagesDuringOutage = 3;
constexpr int kTotalMessages = kMessagesBeforeOutage + kMessagesDuringOutage;
// Every transmission yields two log entries (publisher + subscriber).
constexpr std::size_t kExpectedEntries = 2u * kTotalMessages;

struct RunOutcome {
  audit::AuditReport report;
  std::size_t entries = 0;
  bool records_ok = false;
  proto::SinkStats pub_stats;
  proto::SinkStats sub_stats;
};

proto::ResilientLogSink::Options ChaosSinkOptions(std::uint64_t seed) {
  proto::ResilientLogSink::Options options;
  options.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.backoff_seed = seed;
  return options;
}

/// One fleet run: camera -> detector over an in-proc data plane, both
/// logging to a LogServerService over real TCP. With `chaos` set, each
/// sink's first connection is cut by a FaultInjectingChannel after exactly
/// 1 key + kMessagesBeforeOutage entries, the service is killed, more
/// messages flow during the outage, and the service is restarted on the
/// same port with the SAME LogServer state (the paper's logger persists its
/// store; only the ingestion front-end crashes).
RunOutcome RunFleet(bool chaos) {
  proto::LogServer server;
  auto service = std::make_unique<proto::LogServerService>(server, 0);
  const std::uint16_t port = service->Port();

  // Deterministic chaos: connection #1 of each sink drops after
  // (1 key + kMessagesBeforeOutage entries) frames; reconnections are clean.
  auto make_connector = [&](std::atomic<int>& connection_count,
                            std::uint64_t fault_seed) {
    return [&connection_count, fault_seed, port,
            chaos]() -> std::shared_ptr<transport::AsyncChannel> {
      auto inner = transport::TryTcpConnect(
          port, transport::TcpConnectOptions{1, 200, 10, 50});
      if (!inner) return nullptr;
      transport::FaultPlan plan;
      if (chaos && connection_count.fetch_add(1) == 0) {
        plan.disconnect_after_frames = 1 + kMessagesBeforeOutage;
      }
      return transport::WrapWithFaults(std::move(inner), plan, Rng(fault_seed));
    };
  };
  std::atomic<int> pub_connections{0}, sub_connections{0};
  proto::ResilientLogSink pub_sink(make_connector(pub_connections, 0xFA01),
                                   ChaosSinkOptions(0xBAC0FF01));
  proto::ResilientLogSink sub_sink(make_connector(sub_connections, 0xFA02),
                                   ChaosSinkOptions(0xBAC0FF02));

  pubsub::Master master;
  Rng rng(20260806);
  proto::Component camera("camera", master, pub_sink, rng,
                          test::FastOptions());
  proto::Component detector("detector", master, sub_sink, rng,
                            test::FastOptions());

  std::atomic<int> got{0};
  detector.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& publisher = camera.Advertise("image");

  for (int i = 0; i < kMessagesBeforeOutage; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kMessagesBeforeOutage; }));
  // All pre-outage entries ingested: nothing is in flight when we pull the
  // plug, so the only entries at risk are the ones the resilience layer
  // must spool.
  EXPECT_TRUE(WaitFor(
      [&] { return server.EntryCount() == 2u * kMessagesBeforeOutage; }));

  if (chaos) {
    service->Shutdown();
    service.reset();
  }

  for (int i = kMessagesBeforeOutage; i < kTotalMessages; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kTotalMessages; }));

  if (chaos) {
    // The post-outage entries trip the injected disconnect (a clean send
    // failure) and spool; both sinks are now down and retrying.
    EXPECT_TRUE(WaitFor(
        [&] { return !pub_sink.Connected() && !sub_sink.Connected(); }));
    // Logger comes back on the same port with its persisted store.
    service = std::make_unique<proto::LogServerService>(server, port);
  }

  camera.Shutdown();
  detector.Shutdown();
  EXPECT_TRUE(pub_sink.Drain(std::chrono::seconds(10)));
  EXPECT_TRUE(sub_sink.Drain(std::chrono::seconds(10)));
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == kExpectedEntries; }));

  RunOutcome outcome;
  outcome.entries = server.EntryCount();
  outcome.records_ok = server.VerifyRecords();
  outcome.pub_stats = pub_sink.Stats();
  outcome.sub_stats = sub_sink.Stats();
  outcome.report = audit::Auditor(server.Keys())
                       .Audit(server.Entries(), master.Topology());
  service->Shutdown();
  return outcome;
}

/// Sum of a counter family across all label sets in a registry snapshot.
std::uint64_t CounterTotal(const obs::MetricsSnapshot& snap,
                           std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

/// Total sample count of a histogram family across all label sets.
std::uint64_t HistogramSamples(const obs::MetricsSnapshot& snap,
                               std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == name) total += h.data.count;
  }
  return total;
}

TEST(ChaosLogDeliveryTest, VerdictsMatchUninterruptedBaseline) {
  // Isolate this test's metrics so the observability assertions below see
  // only what these two fleets recorded.
  obs::MetricsRegistry::Global().Reset();
  obs::TraceLog::Global().Reset();

  const RunOutcome baseline = RunFleet(/*chaos=*/false);
  const RunOutcome chaos = RunFleet(/*chaos=*/true);

  // The baseline is itself clean.
  ASSERT_EQ(baseline.entries, kExpectedEntries);
  EXPECT_TRUE(baseline.records_ok);
  EXPECT_TRUE(baseline.report.unfaithful.empty());
  EXPECT_EQ(baseline.report.TotalValid(), kExpectedEntries);

  // The chaos run reaches the same verdicts: same entry count, same number
  // of audited transmissions, every verdict kOk, nobody blamed.
  EXPECT_EQ(chaos.entries, baseline.entries);
  EXPECT_TRUE(chaos.records_ok);
  EXPECT_EQ(chaos.report.TotalValid(), baseline.report.TotalValid());
  EXPECT_EQ(chaos.report.TotalInvalid(), baseline.report.TotalInvalid());
  EXPECT_EQ(chaos.report.TotalHidden(), baseline.report.TotalHidden());
  EXPECT_EQ(chaos.report.unfaithful, baseline.report.unfaithful);
  ASSERT_EQ(chaos.report.verdicts.size(), baseline.report.verdicts.size());
  for (std::size_t i = 0; i < chaos.report.verdicts.size(); ++i) {
    EXPECT_EQ(chaos.report.verdicts[i].finding,
              baseline.report.verdicts[i].finding);
  }

  // The resilience layer did real work and lost nothing.
  EXPECT_GE(chaos.pub_stats.reconnects, 1u);
  EXPECT_GE(chaos.sub_stats.reconnects, 1u);
  EXPECT_EQ(chaos.pub_stats.entries_dropped, 0u);
  EXPECT_EQ(chaos.sub_stats.entries_dropped, 0u);
  // Baseline never reconnects.
  EXPECT_EQ(baseline.pub_stats.reconnects, 0u);
  EXPECT_EQ(baseline.sub_stats.reconnects, 0u);

  // The observability layer watched all of it: the process-wide registry
  // holds nonzero publish, sign, ack, reconnect, and spool activity for the
  // two fleets above (2 runs x kTotalMessages publications).
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterTotal(snap, "adlp_publish_total"), 2u * kTotalMessages);
  EXPECT_GE(HistogramSamples(snap, "adlp_sign_ns"), 2u * kTotalMessages);
  EXPECT_EQ(CounterTotal(snap, "adlp_ack_sent_total"), 2u * kTotalMessages);
  EXPECT_EQ(CounterTotal(snap, "adlp_ack_received_total"),
            2u * kTotalMessages);
  EXPECT_GE(CounterTotal(snap, "adlp_sink_reconnect_total"), 2u);
  EXPECT_GT(CounterTotal(snap, "adlp_sink_spooled_total"), 0u);
  EXPECT_GT(CounterTotal(snap, "adlp_sink_sent_total"), 0u);
  EXPECT_GE(CounterTotal(snap, "adlp_fault_injected_total"), 2u);
  // Everything that entered a spool was eventually flushed or accounted:
  // the depth gauges must read zero after both fleets shut down.
  for (const auto& g : snap.gauges) {
    if (g.name == "adlp_sink_spool_depth" || g.name == "adlp_pending_acks" ||
        g.name == "adlp_log_queue_depth") {
      EXPECT_EQ(g.value, 0) << g.name;
    }
  }
  // And the trace ring saw the protocol sequence unfold.
  EXPECT_GT(obs::TraceLog::Global().RecordedCount(), 0u);
}

}  // namespace
}  // namespace adlp
