// Streaming audit over the live upload path, under transport chaos: a real
// fleet logs to a LogServerService over TCP while FaultInjectingChannel
// duplicates and delays upload frames; the server's tap feeds a
// StreamingAuditor on its own thread, sealing epochs as the fleet runs.
// The finalized streaming report must be byte-identical to the batch audit
// of whatever the server stored — and any misbehavior the chaos manufactures
// (duplicated uploads audit as replayed entries) must be flagged online,
// before finalization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "adlp/component.h"
#include "adlp/log_tap.h"
#include "adlp/remote_log.h"
#include "adlp/resilient_log.h"
#include "audit/auditor.h"
#include "audit/report_json.h"
#include "audit/streaming_auditor.h"
#include "test_util.h"
#include "transport/fault_inject.h"

namespace adlp {
namespace {

using test::WaitFor;

constexpr int kMessages = 10;

std::string Render(const audit::AuditReport& report) {
  audit::JsonOptions json;
  json.pretty = false;
  return audit::RenderReportJson(report, json);
}

TEST(StreamingChaosTest, OnlineReportMatchesBatchUnderUploadFaults) {
  // The service ingests on a reactor loop thread; the kBlock tap below
  // holds that loop whenever the consumer falls behind.
  proto::LogServer server;
  proto::LogServerService service(server, 0);
  const std::uint16_t port = service.Port();

  // Every upload connection gets duplication + delay faults: duplicated
  // frames reach the logger as replayed entries (a real misbehavior class),
  // delays shear the two components' arrival orders against each other.
  auto make_connector = [&](std::uint64_t fault_seed) {
    return [fault_seed, port]() -> std::shared_ptr<transport::AsyncChannel> {
      auto inner = transport::TryTcpConnect(
          port, transport::TcpConnectOptions{1, 200, 10, 50});
      if (!inner) return nullptr;
      transport::FaultPlan plan;
      plan.duplicate_prob = 0.2;
      plan.delay_ns_max = 1'000'000;  // up to 1 ms per frame
      return transport::WrapWithFaults(std::move(inner), plan,
                                       Rng(fault_seed));
    };
  };
  proto::ResilientLogSink pub_sink(make_connector(0x57A1));
  proto::ResilientLogSink sub_sink(make_connector(0x57A2));

  pubsub::Master master;
  Rng rng(20260808);
  proto::Component camera("camera", master, pub_sink, rng,
                          test::FastOptions());
  proto::Component detector("detector", master, sub_sink, rng,
                            test::FastOptions());
  std::atomic<int> got{0};
  detector.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& publisher = camera.Advertise("image");

  // Online consumer: tap -> auditor, epoch seal every few events. Attached
  // after subscriptions so the manifest is complete; key uploads already
  // ingested are irrelevant to the tap (the auditor shares server.Keys()).
  proto::LogTapQueue tap(64, proto::TapOverflowPolicy::kBlock);
  server.AttachTap(&tap);
  audit::StreamingOptions streaming_options;
  std::atomic<std::size_t> online_flags{0};
  streaming_options.on_finding =
      [&](const audit::PairVerdict&, Timestamp) { ++online_flags; };
  audit::StreamingAuditor streaming(server.Keys(), master.Topology(),
                                    streaming_options);
  std::thread consumer([&] {
    std::size_t events = 0;
    while (auto event = tap.Pop(std::chrono::milliseconds(5000))) {
      if (event->kind == proto::TapEvent::Kind::kEntry) {
        streaming.OnEntry(event->entry);
      }
      if (++events % 6 == 0) streaming.SealEpoch();
    }
    streaming.SealEpoch();  // final online epoch: everything seen is sealed
  });

  for (int i = 0; i < kMessages; ++i) {
    publisher.Publish(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(WaitFor([&] { return got.load() == kMessages; }));
  camera.Shutdown();
  detector.Shutdown();
  EXPECT_TRUE(pub_sink.Drain(std::chrono::seconds(10)));
  EXPECT_TRUE(sub_sink.Drain(std::chrono::seconds(10)));
  service.Shutdown();  // no ingestion handler runs, so no Append, after this
  tap.Close();
  consumer.join();
  server.AttachTap(nullptr);

  // At least every honest entry arrived (duplicates add more).
  const std::size_t stored = server.EntryCount();
  ASSERT_GE(stored, 2u * kMessages);
  EXPECT_EQ(streaming.Stats().entries, stored);

  const std::size_t flags_before_finalize = online_flags.load();
  const std::string streaming_json = Render(streaming.Finalize());
  const audit::Auditor batch(server.Keys());
  const audit::AuditReport batch_report =
      batch.Audit(server.Entries(), master.Topology());
  EXPECT_EQ(streaming_json, Render(batch_report));

  // If the chaos actually duplicated an upload, the resulting replay
  // verdicts were flagged online — before finalization, while the "fleet"
  // (here: the drained run) was still current.
  if (stored > 2u * kMessages) {
    EXPECT_GE(flags_before_finalize, 1u);
    EXPECT_FALSE(batch_report.unfaithful.empty());
  }
}

}  // namespace
}  // namespace adlp
