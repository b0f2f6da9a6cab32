// Anti-entropy repair: the sync-protocol codec, the RepairAgent's happy
// paths (a behind replica converges to byte-identical (size, root) per
// epoch), the server's gap-hold rule for post-eviction uploads, and the
// adversary matrix — every class of hostile repair material is rejected
// with its own distinct finding and never poisons the local store.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adlp/log_entry.h"
#include "adlp/log_server.h"
#include "adlp/remote_log.h"
#include "adlp/repair.h"
#include "adlp/resilient_log.h"
#include "adlp/sync_msgs.h"
#include "crypto/merkle.h"
#include "test_util.h"
#include "transport/tcp.h"
#include "wire/wire.h"

namespace adlp {
namespace {

using test::WaitFor;

proto::LogEntry MakeEntry(std::uint64_t seq) {
  proto::LogEntry entry;
  entry.component = "camera";
  entry.topic = "image";
  entry.seq = seq;
  entry.data = Bytes{static_cast<std::uint8_t>(seq), 0x42};
  return entry;
}

/// Appends `count` tagged entries (seqs continuing from the server's
/// watermark for `sink`) so the server grows upload watermarks the way live
/// replicated ingestion would.
void FeedTagged(proto::LogServer& server, const std::string& sink,
                std::uint64_t count) {
  std::uint64_t seq = server.UploadWatermark(sink);
  for (std::uint64_t i = 0; i < count; ++i) {
    ++seq;
    ASSERT_EQ(server.ApplyTaggedEntry(sink, seq, MakeEntry(seq)),
              proto::LogServer::UploadSeqOutcome::kFresh);
  }
}

/// In-process peer that routes every fetch through the real wire codec and
/// server dispatch (serialize request -> HandleSyncRequest -> parse
/// response) — the full protocol stack minus the socket.
class LoopbackPeer : public proto::PeerSync {
 public:
  explicit LoopbackPeer(const proto::LogServer& server) : server_(server) {}

  std::optional<std::vector<proto::EpochRoot>> FetchRootsSince(
      std::uint64_t since) override {
    auto resp =
        proto::HandleSyncRequest(proto::SerializeSyncGetRoots({since}),
                                 server_);
    if (!resp) return std::nullopt;
    return proto::ParseSyncRoots(*resp).roots;
  }

  std::optional<proto::SyncRecords> FetchRecords(std::uint64_t first,
                                                 std::uint64_t count) override {
    auto resp = proto::HandleSyncRequest(
        proto::SerializeSyncGetRecords({first, count}), server_);
    if (!resp) return std::nullopt;
    return proto::ParseSyncRecords(*resp);
  }

  std::optional<std::vector<crypto::Digest>> FetchInclusionProof(
      std::uint64_t index, std::uint64_t tree_size) override {
    auto resp = proto::HandleSyncRequest(
        proto::SerializeSyncGetProof({index, tree_size}), server_);
    if (!resp) return std::nullopt;
    return proto::ParseSyncInclusionProof(*resp).proof;
  }

  std::optional<std::vector<crypto::Digest>> FetchConsistencyProof(
      std::uint64_t old_size, std::uint64_t new_size) override {
    auto resp = proto::HandleSyncRequest(
        proto::SerializeSyncGetConsistency({old_size, new_size}), server_);
    if (!resp) return std::nullopt;
    return proto::ParseSyncConsistencyProof(*resp).proof;
  }

  std::optional<proto::SyncSealInfo> FetchSealInfo(
      std::uint64_t epoch) override {
    auto resp = proto::HandleSyncRequest(
        proto::SerializeSyncGetSealInfo({epoch}), server_);
    if (!resp) return std::nullopt;
    return proto::ParseSyncSealInfo(*resp);
  }

 private:
  const proto::LogServer& server_;
};

proto::RepairAgentOptions AgentOptions(const proto::LogServer& source) {
  proto::RepairAgentOptions options;
  options.seal_key = source.SealKey();
  return options;
}

proto::RepairPeer LoopbackRepairPeer(const proto::LogServer& source) {
  proto::RepairPeer peer;
  peer.name = "loopback";
  peer.connect = [&source]() -> std::unique_ptr<proto::PeerSync> {
    return std::make_unique<LoopbackPeer>(source);
  };
  return peer;
}

/// Source replica with `records` tagged entries and a seal every
/// `seal_every` of them.
void SeedSource(proto::LogServer& source, std::uint64_t records,
                std::uint64_t seal_every) {
  for (std::uint64_t done = 0; done < records;) {
    const std::uint64_t step = std::min(seal_every, records - done);
    FeedTagged(source, "fleet-sink", step);
    done += step;
    ASSERT_TRUE(source.SealEpoch().has_value());
  }
}

/// Image-sized payload of the paper's camera (Table I).
constexpr std::size_t kImageBytes = 921'641;

/// One sealed epoch of `records` Image-sized tagged entries: together far
/// more than one frame may carry.
void SeedImageEpoch(proto::LogServer& source, std::uint64_t records) {
  for (std::uint64_t seq = 1; seq <= records; ++seq) {
    proto::LogEntry entry = MakeEntry(seq);
    entry.data.assign(kImageBytes, static_cast<std::uint8_t>(seq));
    ASSERT_EQ(source.ApplyTaggedEntry("fleet-sink", seq, entry),
              proto::LogServer::UploadSeqOutcome::kFresh);
  }
  ASSERT_TRUE(source.SealEpoch().has_value());
}

void ExpectConverged(const proto::LogServer& local,
                     const proto::LogServer& source) {
  EXPECT_EQ(local.EntryCount(), source.EntryCount());
  EXPECT_EQ(local.MerkleRoot(), source.MerkleRoot());
  const auto local_roots = local.EpochRoots();
  const auto source_roots = source.EpochRoots();
  ASSERT_EQ(local_roots.size(), source_roots.size());
  for (std::size_t i = 0; i < local_roots.size(); ++i) {
    EXPECT_EQ(local_roots[i].epoch, source_roots[i].epoch);
    EXPECT_EQ(local_roots[i].tree_size, source_roots[i].tree_size);
    EXPECT_EQ(local_roots[i].root, source_roots[i].root);
  }
  EXPECT_TRUE(local.VerifyRecords());
}

// --- Sync codec --------------------------------------------------------------

TEST(RepairSyncMsgsTest, RequestsRoundTrip) {
  const proto::SyncGetRoots roots{7};
  EXPECT_EQ(proto::ParseSyncGetRoots(proto::SerializeSyncGetRoots(roots)).since,
            7u);

  const proto::SyncGetRecords records{40, 16};
  const auto records_back =
      proto::ParseSyncGetRecords(proto::SerializeSyncGetRecords(records));
  EXPECT_EQ(records_back.first, 40u);
  EXPECT_EQ(records_back.count, 16u);

  const proto::SyncGetProof proof{3, 11};
  const auto proof_back =
      proto::ParseSyncGetProof(proto::SerializeSyncGetProof(proof));
  EXPECT_EQ(proof_back.index, 3u);
  EXPECT_EQ(proof_back.tree_size, 11u);

  const proto::SyncGetConsistency consistency{4, 9};
  const auto consistency_back = proto::ParseSyncGetConsistency(
      proto::SerializeSyncGetConsistency(consistency));
  EXPECT_EQ(consistency_back.old_size, 4u);
  EXPECT_EQ(consistency_back.new_size, 9u);

  const proto::SyncGetSealInfo seal{5};
  EXPECT_EQ(
      proto::ParseSyncGetSealInfo(proto::SerializeSyncGetSealInfo(seal)).epoch,
      5u);
}

TEST(RepairSyncMsgsTest, RootsRoundTripPreservesSeals) {
  proto::LogServer server;
  FeedTagged(server, "s", 3);
  ASSERT_TRUE(server.SealEpoch().has_value());
  proto::SyncRoots msg{server.EpochRoots()};
  const auto back = proto::ParseSyncRoots(proto::SerializeSyncRoots(msg));
  ASSERT_EQ(back.roots.size(), 1u);
  EXPECT_EQ(back.roots[0], msg.roots[0]);
}

TEST(RepairSyncMsgsTest, RecordsRoundTrip) {
  proto::SyncRecords msg;
  msg.first = 12;
  msg.records = {Bytes{1, 2, 3}, Bytes{}, Bytes{0xff}};
  const auto back = proto::ParseSyncRecords(proto::SerializeSyncRecords(msg));
  EXPECT_EQ(back.first, 12u);
  EXPECT_EQ(back.records, msg.records);
}

TEST(RepairSyncMsgsTest, ProofsRoundTrip) {
  proto::SyncProof msg;
  msg.proof.push_back(crypto::Sha256Digest(BytesOf("a")));
  msg.proof.push_back(crypto::Sha256Digest(BytesOf("b")));
  EXPECT_EQ(
      proto::ParseSyncInclusionProof(proto::SerializeSyncInclusionProof(msg))
          .proof,
      msg.proof);
  EXPECT_EQ(proto::ParseSyncConsistencyProof(
                proto::SerializeSyncConsistencyProof(msg))
                .proof,
            msg.proof);
}

TEST(RepairSyncMsgsTest, SealInfoRoundTrip) {
  proto::SyncSealInfo msg;
  msg.epoch = 2;
  msg.watermarks = {{"sink-a", 17}, {"sink-b", 4}};
  msg.keys.emplace_back("camera", Bytes{9, 9, 9});
  const auto back = proto::ParseSyncSealInfo(proto::SerializeSyncSealInfo(msg));
  EXPECT_EQ(back.epoch, 2u);
  EXPECT_EQ(back.watermarks, msg.watermarks);
  EXPECT_EQ(back.keys, msg.keys);
}

TEST(RepairSyncMsgsTest, WrongKindIsRejected) {
  const Bytes frame = proto::SerializeSyncGetRoots({0});
  EXPECT_THROW(proto::ParseSyncRoots(frame), wire::WireError);
  EXPECT_THROW(proto::ParseSyncGetRecords(frame), wire::WireError);
  EXPECT_THROW(proto::ParseSyncInclusionProof(frame), wire::WireError);
  EXPECT_THROW(proto::ParseSyncSealInfo(frame), wire::WireError);
}

TEST(RepairSyncMsgsTest, HostileDigestLengthIsRejected) {
  // An inclusion-proof frame whose "digest" is 3 bytes, not 32.
  wire::Writer w;
  w.PutU64(1, 9);  // kind = inclusion proof
  w.PutBytes(10, Bytes{1, 2, 3});
  const Bytes frame = std::move(w).Take();
  EXPECT_THROW(proto::ParseSyncInclusionProof(frame), wire::WireError);
}

TEST(RepairSyncMsgsTest, OversizedProofIsRejected) {
  proto::SyncProof msg;
  msg.proof.assign(257, crypto::Digest{});
  const Bytes frame = proto::SerializeSyncInclusionProof(msg);
  EXPECT_THROW(proto::ParseSyncInclusionProof(frame), wire::WireError);
}

TEST(RepairSyncMsgsTest, OversizedRecordBatchIsRejected) {
  proto::SyncRecords msg;
  msg.records.assign(proto::kMaxSyncRecordsPerBatch + 1, Bytes{1});
  const Bytes frame = proto::SerializeSyncRecords(msg);
  EXPECT_THROW(proto::ParseSyncRecords(frame), wire::WireError);
}

TEST(RepairSyncMsgsTest, HandleSyncRequestServesRootsRecordsAndProofs) {
  proto::LogServer server;
  FeedTagged(server, "s", 6);
  ASSERT_TRUE(server.SealEpoch().has_value());

  const auto roots_resp =
      proto::HandleSyncRequest(proto::SerializeSyncGetRoots({0}), server);
  ASSERT_TRUE(roots_resp.has_value());
  EXPECT_EQ(proto::ParseSyncRoots(*roots_resp).roots, server.EpochRoots());

  const auto records_resp = proto::HandleSyncRequest(
      proto::SerializeSyncGetRecords({2, 100}), server);
  ASSERT_TRUE(records_resp.has_value());
  const auto records = proto::ParseSyncRecords(*records_resp);
  EXPECT_EQ(records.first, 2u);
  EXPECT_EQ(records.records.size(), 4u);
  EXPECT_EQ(records.records, server.RecordRange(2, 100));

  const auto proof_resp =
      proto::HandleSyncRequest(proto::SerializeSyncGetProof({1, 6}), server);
  ASSERT_TRUE(proof_resp.has_value());
  EXPECT_EQ(proto::ParseSyncInclusionProof(*proof_resp).proof,
            server.InclusionProof(1, 6));

  const auto info_resp = proto::HandleSyncRequest(
      proto::SerializeSyncGetSealInfo({0}), server);
  ASSERT_TRUE(info_resp.has_value());
  const auto info = proto::ParseSyncSealInfo(*info_resp);
  EXPECT_EQ(info.watermarks, server.UploadWatermarksAtSeal(0));
}

TEST(RepairSyncMsgsTest, RecordsReplyStaysUnderTheFrameCap) {
  // 80 Image records are ~74 MB: a reply with all of them would pass the
  // frame cap, and the client would drop it with the connection. The
  // server stops short, and still serves at least one record.
  proto::LogServer server;
  SeedImageEpoch(server, 80);
  const auto resp = proto::HandleSyncRequest(
      proto::SerializeSyncGetRecords({0, proto::kMaxSyncRecordsPerBatch}),
      server);
  ASSERT_TRUE(resp.has_value());
  EXPECT_LE(resp->size(), transport::kMaxFrameBytes);
  const auto records = proto::ParseSyncRecords(*resp);
  EXPECT_EQ(records.first, 0u);
  ASSERT_GE(records.records.size(), 1u);
  EXPECT_LT(records.records.size(), 80u);
  EXPECT_EQ(records.records,
            server.RecordRange(0, records.records.size()));
}

TEST(RepairSyncMsgsTest, HandleSyncRequestIgnoresUploadFrames) {
  proto::LogServer server;
  EXPECT_FALSE(
      proto::HandleSyncRequest(proto::SerializeLogUpload(MakeEntry(1)), server)
          .has_value());
  EXPECT_FALSE(proto::HandleSyncRequest(proto::SerializeLogAck(3), server)
                   .has_value());
}

// --- Gap hold ----------------------------------------------------------------

TEST(RepairGapHoldTest, SeqSkipIsHeldNotApplied) {
  proto::LogServer server;
  EXPECT_EQ(server.NoteUploadSeqGapChecked("s", 1),
            proto::LogServer::UploadSeqOutcome::kFresh);
  EXPECT_EQ(server.NoteUploadSeqGapChecked("s", 1),
            proto::LogServer::UploadSeqOutcome::kDuplicate);
  // seq 3 skips seq 2: refused, watermark untouched.
  EXPECT_EQ(server.NoteUploadSeqGapChecked("s", 3),
            proto::LogServer::UploadSeqOutcome::kGap);
  EXPECT_EQ(server.UploadWatermark("s"), 1u);
  EXPECT_EQ(server.NoteUploadSeqGapChecked("s", 2),
            proto::LogServer::UploadSeqOutcome::kFresh);

  EXPECT_EQ(server.ApplyTaggedEntry("s", 9, MakeEntry(9)),
            proto::LogServer::UploadSeqOutcome::kGap);
  EXPECT_EQ(server.EntryCount(), 0u);  // the gapped entry was not appended
  EXPECT_EQ(server.ApplyTaggedEntry("s", 3, MakeEntry(3)),
            proto::LogServer::UploadSeqOutcome::kFresh);
  EXPECT_EQ(server.EntryCount(), 1u);
}

TEST(RepairGapHoldTest, ServerClosesConnectionOnGappedUpload) {
  proto::LogServer server;
  proto::LogServerService service(server, 0);
  auto channel = transport::TcpConnect(service.Port());
  test::Inbox inbox(*channel);

  ASSERT_TRUE(channel->Send(proto::SerializeLogUpload(MakeEntry(1), "s", 1)));
  auto ack = inbox.Pop();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(proto::ParseLogAck(*ack), 1u);

  // seq 3 skips 2 (the uploader's spool evicted it): the server must hold
  // the frame, send NO ack, and close so the leg re-enters backoff instead
  // of forking this replica off the fleet's record order.
  ASSERT_TRUE(channel->Send(proto::SerializeLogUpload(MakeEntry(3), "s", 3)));
  EXPECT_FALSE(inbox.Pop().has_value());
  EXPECT_EQ(server.EntryCount(), 1u);
  EXPECT_EQ(server.UploadWatermark("s"), 1u);
  service.Shutdown();
}

TEST(RepairGapHoldTest, GapHeldLegKeepsRetryingAndDeliversOnceGapIsFilled) {
  // Regression: the gap-hold close must not wedge the uploader. The sink
  // writes every spooled frame into the socket before the server's close is
  // observed; only the connection's close edge sees the EOF. It must retire
  // the channel and rewind the send cursor, or the leg parks forever
  // waiting for acks that can never come — and the replica silently never
  // recovers even after repair fills the gap.
  proto::LogServer server;
  proto::LogServerService service(server, 0);
  const std::uint16_t port = service.Port();
  std::atomic<bool> reachable{false};
  auto connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
    if (!reachable.load()) return nullptr;
    return transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
  };
  proto::ResilientLogSink::Options options;
  options.backoff = transport::BackoffPolicy{2, 50, 2.0, 0.25};
  options.connect = transport::TcpConnectOptions{1, 200, 10, 50};
  options.spool_capacity = 2;
  options.sink_id = "sink-a";
  proto::ResilientLogSink sink(connector, options);

  // Offline, the spool evicts seqs 1-4 unacked; only 5 and 6 survive.
  for (std::uint64_t i = 1; i <= 6; ++i) sink.AppendAcked(MakeEntry(i));
  EXPECT_EQ(sink.Stats().entries_evicted_unacked, 4u);

  // Online, the replay leads with seq 5 — a gap. The server holds it and
  // closes; the leg must cycle through reconnects, not park.
  reachable.store(true);
  EXPECT_TRUE(WaitFor([&] { return sink.Stats().reconnects >= 2; }));
  EXPECT_EQ(server.EntryCount(), 0u);

  // Repair fills the gap (as RepairAgent would, from a peer's sealed
  // range); the very next replay cycle applies 5 and 6 and gets acked.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(server.ApplyTaggedEntry("sink-a", i, MakeEntry(i)),
              proto::LogServer::UploadSeqOutcome::kFresh);
  }
  EXPECT_TRUE(WaitFor([&] { return server.EntryCount() == 6; }));
  EXPECT_TRUE(sink.Drain(std::chrono::seconds(5)));
  EXPECT_EQ(sink.Stats().acked_seq, 6u);
  EXPECT_EQ(server.UploadWatermark("sink-a"), 6u);
  service.Shutdown();
}

TEST(RepairGapHoldTest, GapHeldLegBacksOffBetweenReconnects) {
  // Regression: every successful dial reset the leg's backoff, so a
  // gap-held leg redialled at once and resent its whole unacked spool —
  // thousands of connections in half a second, none of them acked. A
  // connection the server closes without an ack is a failed attempt: the
  // default backoff (10 ms doubling to 2 s) allows about six dials in
  // 500 ms.
  proto::LogServer server;
  proto::LogServerService service(server, 0);
  const std::uint16_t port = service.Port();
  std::atomic<bool> reachable{false};
  auto connector = [&]() -> std::shared_ptr<transport::AsyncChannel> {
    if (!reachable.load()) return nullptr;
    return transport::TryTcpConnect(
        port, transport::TcpConnectOptions{1, 200, 10, 50});
  };
  proto::ResilientLogSink::Options options;
  options.spool_capacity = 4;
  options.sink_id = "sink-a";
  proto::ResilientLogSink sink(connector, options);

  // Offline, the spool evicts seqs 1-6 unacked; the replay leads with 7.
  for (std::uint64_t i = 1; i <= 10; ++i) sink.AppendAcked(MakeEntry(i));
  EXPECT_EQ(sink.Stats().entries_evicted_unacked, 6u);

  reachable.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const proto::SinkStats stats = sink.Stats();
  EXPECT_GE(stats.reconnects, 1u) << "the leg must keep retrying";
  EXPECT_LE(stats.reconnects, 10u) << "the leg must back off between dials";
  // Each connection resends at most the four spooled frames.
  EXPECT_LE(stats.entries_sent, 4 * (stats.reconnects + 1));
  EXPECT_EQ(stats.acked_seq, 0u);
  EXPECT_EQ(server.EntryCount(), 0u);
  service.Shutdown();
}

// --- RepairAgent happy paths -------------------------------------------------

TEST(RepairAgentTest, EmptyReplicaConvergesToPeer) {
  proto::LogServer source;
  SeedSource(source, 8, 4);  // 2 epochs of 4
  source.RegisterKey("camera", proto::EpochSealKeys(1234).pub);

  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(LoopbackRepairPeer(source));
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 8u);
  ExpectConverged(local, source);

  // The per-sink watermark resumed at the peer's sealed frontier, and the
  // per-seal snapshots match the peer's exactly.
  EXPECT_EQ(local.UploadWatermark("fleet-sink"), 8u);
  EXPECT_EQ(local.UploadWatermarksAtSeal(0), source.UploadWatermarksAtSeal(0));
  EXPECT_EQ(local.UploadWatermarksAtSeal(1), source.UploadWatermarksAtSeal(1));
  // The key registry rode along with the seal info.
  EXPECT_TRUE(local.Keys().Contains("camera"));

  const proto::RepairStats stats = agent.Stats();
  EXPECT_EQ(stats.epochs_repaired, 2u);
  EXPECT_EQ(stats.records_repaired, 8u);
  EXPECT_EQ(stats.rejects, 0u);
  EXPECT_GT(stats.bytes_repaired, 0u);
  EXPECT_TRUE(agent.Findings().empty());

  // A second round is a no-op: the peer is not ahead anymore.
  EXPECT_EQ(agent.RunOnce(), 0u);
  EXPECT_EQ(agent.Stats().epochs_repaired, 2u);
}

TEST(RepairAgentTest, PartialPrefixPassesConsistencyGate) {
  proto::LogServer source;
  SeedSource(source, 4, 4);

  // The local replica ingested the first epoch live, then died while the
  // source sealed two more.
  proto::LogServer local;
  FeedTagged(local, "fleet-sink", 4);
  ASSERT_TRUE(local.SealEpoch().has_value());
  SeedSource(source, 8, 4);  // extend source to 12 records, 3 epochs

  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(LoopbackRepairPeer(source));
  options.batch_records = 3;  // force multiple range fetches per epoch
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 8u);
  ExpectConverged(local, source);
  EXPECT_EQ(agent.Stats().epochs_repaired, 2u);
}

TEST(RepairAgentTest, AdoptsSealsForRecordsAlreadyHeld) {
  proto::LogServer source;
  SeedSource(source, 6, 3);

  // Same records (the replicated sink delivered them), but this replica
  // crashed before sealing: repair adopts the peer's seals without
  // fetching a single record.
  proto::LogServer local;
  FeedTagged(local, "fleet-sink", 6);

  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(LoopbackRepairPeer(source));
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 0u);  // no records moved...
  ExpectConverged(local, source);  // ...but the seal chains now match
  const proto::RepairStats stats = agent.Stats();
  EXPECT_EQ(stats.seals_adopted, 2u);
  EXPECT_EQ(stats.records_repaired, 0u);
}

TEST(RepairAgentTest, RepairsOverRealTcp) {
  proto::LogServer source;
  SeedSource(source, 8, 4);
  proto::LogServerService service(source, 0);

  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(proto::TcpRepairPeer("peer-0", service.Port()));
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 8u);
  ExpectConverged(local, source);
  service.Shutdown();
}

TEST(RepairAgentTest, ImageEpochConvergesOverTcpInOneRound) {
  // One sealed epoch of 80 Image records with default options: the records
  // replies come back short of the frame cap, and the agent pages on.
  proto::LogServer source;
  SeedImageEpoch(source, 80);
  proto::LogServerService service(source, 0);

  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(proto::TcpRepairPeer("peer-0", service.Port()));
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 80u);
  ExpectConverged(local, source);
  EXPECT_EQ(agent.Stats().peer_failures, 0u);
  EXPECT_TRUE(agent.Findings().empty());
  service.Shutdown();
}

TEST(RepairAgentTest, SilentPeerFailsTheRoundAndStopReturns) {
  // A peer that accepts (the kernel completes the handshake) and never
  // replies. The fetch's reply deadline (5 s) closes the connection, so the
  // round counts a peer failure and Stop returns instead of hanging.
  transport::TcpListener silent(0);
  proto::LogServer local;
  proto::RepairAgentOptions options;
  options.seal_key = proto::EpochSealKeys(1).pub;
  options.peers.push_back(proto::TcpRepairPeer("silent", silent.Port()));
  proto::RepairAgent agent(local, options);
  agent.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stop_start = std::chrono::steady_clock::now();
  agent.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(6));
  EXPECT_GE(agent.Stats().peer_failures, 1u);
}

TEST(RepairAgentTest, BackgroundThreadConvergesAndStops) {
  proto::LogServer source;
  SeedSource(source, 8, 4);

  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(LoopbackRepairPeer(source));
  options.poll_interval_ms = 1;
  proto::RepairAgent agent(local, options);
  agent.Start();
  agent.Start();  // idempotent
  EXPECT_TRUE(WaitFor([&] { return local.EntryCount() == 8u; }));
  agent.Stop();
  ExpectConverged(local, source);
}

TEST(RepairAgentTest, UnreachablePeerIsCountedNotFatal) {
  proto::LogServer source;
  SeedSource(source, 4, 4);

  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  proto::RepairPeer dead;
  dead.name = "dead";
  dead.connect = []() -> std::unique_ptr<proto::PeerSync> { return nullptr; };
  options.peers.push_back(dead);
  options.peers.push_back(LoopbackRepairPeer(source));
  proto::RepairAgent agent(local, options);

  EXPECT_EQ(agent.RunOnce(), 4u);
  ExpectConverged(local, source);
  EXPECT_EQ(agent.Stats().peer_failures, 1u);
}

// --- Adversary matrix --------------------------------------------------------
//
// Every hostile peer wraps an honest source and corrupts exactly one step
// of the protocol. The agent must (a) reject with the DISTINCT finding for
// that corruption and (b) leave the local store byte-identical.

struct StoreSnapshot {
  std::size_t entries;
  crypto::Digest merkle;
  std::size_t seals;

  explicit StoreSnapshot(const proto::LogServer& s)
      : entries(s.EntryCount()),
        merkle(s.MerkleRoot()),
        seals(s.EpochRoots().size()) {}

  void ExpectUnchanged(const proto::LogServer& s) const {
    EXPECT_EQ(s.EntryCount(), entries);
    EXPECT_EQ(s.MerkleRoot(), merkle);
    EXPECT_EQ(s.EpochRoots().size(), seals);
  }
};

void ExpectSingleFinding(proto::RepairAgent& agent,
                         proto::RepairFinding finding) {
  const auto findings = agent.Findings();
  ASSERT_EQ(findings.size(), 1u)
      << "expected exactly one " << proto::RepairFindingName(finding)
      << " finding";
  EXPECT_EQ(findings[0].finding, finding)
      << "got " << proto::RepairFindingName(findings[0].finding) << " ("
      << findings[0].detail << ")";
  EXPECT_EQ(agent.Stats().rejects, 1u);
}

/// Serves only the first `horizon` records regardless of the sealed claim.
class TruncatingPeer final : public LoopbackPeer {
 public:
  TruncatingPeer(const proto::LogServer& server, std::uint64_t horizon)
      : LoopbackPeer(server), horizon_(horizon) {}
  std::optional<proto::SyncRecords> FetchRecords(std::uint64_t first,
                                                 std::uint64_t count) override {
    auto got = LoopbackPeer::FetchRecords(first, count);
    if (got && first + got->records.size() > horizon_) {
      got->records.resize(first < horizon_ ? horizon_ - first : 0);
    }
    return got;
  }

 private:
  const std::uint64_t horizon_;
};

/// Rewrites one record in flight (decodes, perturbs the payload,
/// re-encodes — still a valid LogEntry, wrong Merkle leaf).
class BitFlippingPeer final : public LoopbackPeer {
 public:
  BitFlippingPeer(const proto::LogServer& server, std::uint64_t victim)
      : LoopbackPeer(server), victim_(victim) {}
  std::optional<proto::SyncRecords> FetchRecords(std::uint64_t first,
                                                 std::uint64_t count) override {
    auto got = LoopbackPeer::FetchRecords(first, count);
    if (got && victim_ >= first && victim_ < first + got->records.size()) {
      proto::LogEntry entry =
          proto::DeserializeLogEntry(got->records[victim_ - first]);
      entry.data.push_back(0x5a);
      got->records[victim_ - first] = proto::SerializeLogEntry(entry);
    }
    return got;
  }

 private:
  const std::uint64_t victim_;
};

/// Replaces one record with bytes that do not decode at all.
class GarblingPeer final : public LoopbackPeer {
 public:
  GarblingPeer(const proto::LogServer& server, std::uint64_t victim)
      : LoopbackPeer(server), victim_(victim) {}
  std::optional<proto::SyncRecords> FetchRecords(std::uint64_t first,
                                                 std::uint64_t count) override {
    auto got = LoopbackPeer::FetchRecords(first, count);
    if (got && victim_ >= first && victim_ < first + got->records.size()) {
      got->records[victim_ - first] = Bytes{0xde, 0xad};
    }
    return got;
  }

 private:
  const std::uint64_t victim_;
};

/// Honest records, lying proof service: inclusion proofs are corrupted so
/// they verify against nothing.
class BadProofPeer final : public LoopbackPeer {
 public:
  explicit BadProofPeer(const proto::LogServer& server)
      : LoopbackPeer(server) {}
  std::optional<std::vector<crypto::Digest>> FetchInclusionProof(
      std::uint64_t index, std::uint64_t tree_size) override {
    auto proof = LoopbackPeer::FetchInclusionProof(index, tree_size);
    if (proof) {
      if (proof->empty()) {
        proof->push_back(crypto::Digest{});
      } else {
        (*proof)[0][0] ^= 0xff;
      }
    }
    return proof;
  }
};

/// Replays the full seal chain from epoch 0 no matter what frontier the
/// repairing replica asked to extend.
class StaleFrontierPeer final : public LoopbackPeer {
 public:
  explicit StaleFrontierPeer(const proto::LogServer& server)
      : LoopbackPeer(server) {}
  std::optional<std::vector<proto::EpochRoot>> FetchRootsSince(
      std::uint64_t /*since*/) override {
    return LoopbackPeer::FetchRootsSince(0);
  }
};

/// Breaks the internal hash link of the advertised chain (the second
/// fetched seal no longer links to the first — a spliced advertisement).
class ChainBreakingPeer final : public LoopbackPeer {
 public:
  explicit ChainBreakingPeer(const proto::LogServer& server)
      : LoopbackPeer(server) {}
  std::optional<std::vector<proto::EpochRoot>> FetchRootsSince(
      std::uint64_t since) override {
    auto roots = LoopbackPeer::FetchRootsSince(since);
    if (roots && roots->size() > 1) (*roots)[1].prev_root_hash[0] ^= 0xff;
    return roots;
  }
};

/// Corrupts the seal signature (the chain still links).
class ForgedSealPeer final : public LoopbackPeer {
 public:
  explicit ForgedSealPeer(const proto::LogServer& server)
      : LoopbackPeer(server) {}
  std::optional<std::vector<proto::EpochRoot>> FetchRootsSince(
      std::uint64_t since) override {
    auto roots = LoopbackPeer::FetchRootsSince(since);
    if (roots && !roots->empty() && !(*roots)[0].signature.empty()) {
      (*roots)[0].signature[0] ^= 0xff;
    }
    return roots;
  }
};

template <typename Peer, typename... Args>
proto::RepairPeer HostilePeer(std::string name, const proto::LogServer& source,
                              Args... args) {
  proto::RepairPeer peer;
  peer.name = std::move(name);
  peer.connect = [&source, args...]() -> std::unique_ptr<proto::PeerSync> {
    return std::make_unique<Peer>(source, args...);
  };
  return peer;
}

TEST(RepairAdversaryTest, TruncatedRangeRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 8);
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(
      HostilePeer<TruncatingPeer>("truncator", source, std::uint64_t{5}));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kRangeTruncated);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, BitFlippedRecordRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 8);
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(
      HostilePeer<BitFlippingPeer>("flipper", source, std::uint64_t{2}));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kRangeMismatch);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, UndecodableRecordRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 8);
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(
      HostilePeer<GarblingPeer>("garbler", source, std::uint64_t{2}));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kRecordUndecodable);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, LyingProofServiceRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 8);
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(HostilePeer<BadProofPeer>("proof-liar", source));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kProofInvalid);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, StaleFrontierRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 4);

  // Local is already level with the source; the stale peer replays the
  // whole chain from epoch 0 as if it were news.
  proto::LogServer local;
  {
    proto::RepairAgentOptions honest = AgentOptions(source);
    honest.peers.push_back(LoopbackRepairPeer(source));
    proto::RepairAgent bootstrap(local, honest);
    ASSERT_EQ(bootstrap.RunOnce(), 8u);
  }

  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(HostilePeer<StaleFrontierPeer>("stale", source));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kStaleFrontier);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, BrokenChainLinkRejected) {
  proto::LogServer source;
  SeedSource(source, 8, 4);  // two epochs, so there is an internal link
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(HostilePeer<ChainBreakingPeer>("splicer", source));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kChainMismatch);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, ForgedSealSignatureRejected) {
  proto::LogServer source;
  SeedSource(source, 4, 4);
  proto::LogServer local;
  proto::RepairAgentOptions options = AgentOptions(source);
  options.peers.push_back(HostilePeer<ForgedSealPeer>("forger", source));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kBadSeal);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, ForkedHistoryRejectedByConsistencyGate) {
  // A fork: shares the first two records with the true history, then
  // diverges, seals, and tries to get a replica holding FOUR true records
  // to append its tail. The consistency gate must refuse before a single
  // record is fetched.
  proto::LogServer fork;
  FeedTagged(fork, "fleet-sink", 2);
  for (std::uint64_t seq = 3; seq <= 6; ++seq) {
    proto::LogEntry entry = MakeEntry(seq);
    entry.data = BytesOf("forked");
    ASSERT_EQ(fork.ApplyTaggedEntry("fleet-sink", seq, entry),
              proto::LogServer::UploadSeqOutcome::kFresh);
  }
  ASSERT_TRUE(fork.SealEpoch().has_value());

  proto::LogServer local;
  FeedTagged(local, "fleet-sink", 4);  // true history, no seals yet

  proto::RepairAgentOptions options = AgentOptions(fork);
  options.peers.push_back(LoopbackRepairPeer(fork));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kForkDetected);
  before.ExpectUnchanged(local);
}

TEST(RepairAdversaryTest, DivergentSealOverHeldRecordsRejected) {
  // The peer's seal covers exactly as many records as the local log holds,
  // but over DIFFERENT records: the adopt path must verify the root
  // against the local tree and refuse.
  proto::LogServer fork;
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    proto::LogEntry entry = MakeEntry(seq);
    entry.data = BytesOf("forked");
    ASSERT_EQ(fork.ApplyTaggedEntry("fleet-sink", seq, entry),
              proto::LogServer::UploadSeqOutcome::kFresh);
  }
  ASSERT_TRUE(fork.SealEpoch().has_value());

  proto::LogServer local;
  FeedTagged(local, "fleet-sink", 4);

  proto::RepairAgentOptions options = AgentOptions(fork);
  options.peers.push_back(LoopbackRepairPeer(fork));
  proto::RepairAgent agent(local, options);

  const StoreSnapshot before(local);
  EXPECT_EQ(agent.RunOnce(), 0u);
  ExpectSingleFinding(agent, proto::RepairFinding::kForkDetected);
  before.ExpectUnchanged(local);
}

}  // namespace
}  // namespace adlp
