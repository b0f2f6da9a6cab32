#include "adlp/remote_log.h"

#include <gtest/gtest.h>

#include "adlp/resilient_log.h"
#include "audit/auditor.h"
#include "test_util.h"
#include "wire/wire.h"

namespace adlp::proto {
namespace {

using test::WaitFor;

TEST(LogUploadCodecTest, KeyRegistrationRoundTrip) {
  Rng rng(1);
  const auto kp = crypto::GenerateSigKeyPair(rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  LogServer server;
  ApplyLogUpload(SerializeLogUpload("camera", kp.pub), server);
  EXPECT_EQ(server.Keys().Find("camera"), kp.pub);
}

TEST(LogUploadCodecTest, EntryRoundTrip) {
  LogEntry entry;
  entry.scheme = LogScheme::kAdlp;
  entry.component = "camera";
  entry.topic = "image";
  entry.seq = 7;
  entry.data = {1, 2, 3};
  LogServer server;
  ApplyLogUpload(SerializeLogUpload(entry), server);
  ASSERT_EQ(server.EntryCount(), 1u);
  EXPECT_EQ(server.Entries()[0], entry);
}

TEST(LogUploadCodecTest, GarbageRejected) {
  LogServer server;
  EXPECT_THROW(ApplyLogUpload(Bytes(9, 0xff), server), wire::WireError);
}

// The uploader side is ResilientLogSink with default options: untagged,
// fire-and-forget frames, the paper's one-way push.

TEST(RemoteLogTest, EntriesFlowOverTcp) {
  LogServer server;
  LogServerService service(server, 0);
  ResilientLogSink sink(service.Port());

  Rng rng(2);
  const auto kp = crypto::GenerateSigKeyPair(rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  sink.RegisterKey("node", kp.pub);
  for (int i = 0; i < 10; ++i) {
    LogEntry e;
    e.component = "node";
    e.topic = "t";
    e.seq = static_cast<std::uint64_t>(i);
    sink.Append(e);
  }
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 10; }));
  EXPECT_TRUE(server.Keys().Contains("node"));
  EXPECT_TRUE(server.VerifyRecords());
  service.Shutdown();
}

TEST(RemoteLogTest, ServerDeathDoesNotDisturbTheComponent) {
  LogServer server;
  auto service = std::make_unique<LogServerService>(server, 0);
  ResilientLogSink sink(service->Port());

  LogEntry e;
  e.component = "node";
  e.topic = "t";
  sink.Append(e);
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 1; }));

  // Kill the logger; the component keeps "logging" without errors — the
  // paper's no-single-point-of-failure property.
  service.reset();
  for (int i = 0; i < 5; ++i) sink.Append(e);  // must not throw or block
  SUCCEED();
}

TEST(RemoteLogTest, FullComponentStackOverRemoteLogger) {
  // Components wired to the logger via TCP; the audit works as usual.
  LogServer server;
  LogServerService service(server, 0);
  ResilientLogSink pub_sink(service.Port());
  ResilientLogSink sub_sink(service.Port());

  pubsub::Master master;
  Rng rng(3);
  proto::Component pub("camera", master, pub_sink, rng, test::FastOptions());
  proto::Component sub("detector", master, sub_sink, rng,
                       test::FastOptions());

  std::atomic<int> got{0};
  sub.Subscribe("image", [&](const pubsub::Message&) { got++; });
  auto& p = pub.Advertise("image");
  for (int i = 0; i < 5; ++i) p.Publish(Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return got.load() == 5; }));
  pub.Shutdown();
  sub.Shutdown();

  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 10; }));
  EXPECT_EQ(server.Keys().Size(), 2u);
  service.Shutdown();

  audit::Auditor auditor(server.Keys());
  const auto report = auditor.Audit(server.Entries(), master.Topology());
  EXPECT_EQ(report.TotalValid(), 10u);
  EXPECT_TRUE(report.unfaithful.empty());
}

TEST(RemoteLogTest, MalformedUploadIgnoredConnectionSurvives) {
  LogServer server;
  LogServerService service(server, 0);
  auto channel = transport::TcpConnect(service.Port());
  ASSERT_TRUE(channel->Send(Bytes(7, 0xee)));  // garbage frame

  LogEntry e;
  e.component = "node";
  e.topic = "t";
  ASSERT_TRUE(channel->Send(SerializeLogUpload(e)));
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 1; }));
  channel->Close();
  service.Shutdown();
}

TEST(RemoteLogTest, MalformedTaggedUploadDoesNotAdvanceWatermark) {
  // Regression: a tagged frame whose outer envelope parses but whose nested
  // payload is garbage must not burn its (sink_id, seq). If it advanced the
  // watermark, every honest retransmission of that seq would be deduped and
  // never acked — wedging the sink — and a hostile uploader could spoof
  // (sink_id, huge seq) to suppress all future honest frames for that sink.
  LogServer server;
  LogServerService service(server, 0);
  auto channel = transport::TcpConnect(service.Port());

  // Field tags mirror remote_log.cpp's wire layout: 1=kind (2=entry),
  // 5=nested entry bytes, 6=sink_id, 7=seq.
  wire::Writer w;
  w.PutU64(1, 2);
  w.PutBytes(5, Bytes(16, 0xff));  // nested entry: garbage
  w.PutString(6, "sink-a");
  w.PutU64(7, 1);
  ASSERT_TRUE(channel->Send(std::move(w).Take()));

  // The same seq carrying a well-formed entry must still be applied.
  LogEntry e;
  e.component = "node";
  e.topic = "t";
  ASSERT_TRUE(channel->Send(SerializeLogUpload(e, "sink-a", 1)));
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 1; }));
  EXPECT_EQ(server.UploadWatermark("sink-a"), 1u);
  channel->Close();
  service.Shutdown();
}

}  // namespace
}  // namespace adlp::proto
