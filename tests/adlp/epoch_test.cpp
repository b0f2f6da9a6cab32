// Epoch sealing: wire round-trip, signature binding, chain verification,
// LogServer auto-seal triggers, and log-file persistence of sealed roots.
#include "adlp/epoch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "adlp/log_file.h"
#include "adlp/log_server.h"
#include "common/rng.h"
#include "wire/wire.h"

namespace adlp::proto {
namespace {

LogEntry MakeEntry(const crypto::ComponentId& component, std::uint64_t seq) {
  LogEntry e;
  e.component = component;
  e.topic = "topic";
  e.seq = seq;
  e.timestamp = static_cast<Timestamp>(1000 + seq);
  e.data = BytesOf("payload-" + std::to_string(seq));
  return e;
}

EpochRoot MakeRoot(const crypto::SigKeyPair& keys, std::uint64_t epoch,
                   std::uint64_t tree_size, const crypto::Digest& prev) {
  EpochRoot r;
  r.epoch = epoch;
  r.tree_size = tree_size;
  r.root = crypto::Sha256Digest(BytesOf("root-" + std::to_string(epoch)));
  r.prev_root_hash = prev;
  r.sealed_at = static_cast<Timestamp>(42 + epoch);
  r.logger = "logger-a";
  r.signature = crypto::SignDigest(keys.priv, EpochRootDigest(r));
  return r;
}

crypto::SigKeyPair TestKeys() {
  Rng rng(0xEB0C);
  return crypto::GenerateSigKeyPair(rng, crypto::SigAlgorithm::kEd25519);
}

TEST(EpochRootTest, SerializeParseRoundTrip) {
  const auto keys = TestKeys();
  const EpochRoot root = MakeRoot(keys, 3, 17, EpochGenesis());
  const EpochRoot back = ParseEpochRoot(SerializeEpochRoot(root));
  EXPECT_EQ(back, root);
}

TEST(EpochRootTest, ParseRejectsHostileDigestLengths) {
  const auto keys = TestKeys();
  const EpochRoot root = MakeRoot(keys, 0, 5, EpochGenesis());
  // Re-encode with a truncated root digest: field 3 carrying 31 bytes.
  wire::Writer w;
  w.PutU64(1, root.epoch);
  w.PutU64(2, root.tree_size);
  w.PutBytes(3, BytesView(root.root.data(), root.root.size() - 1));
  w.PutBytes(4, BytesView(root.prev_root_hash.data(),
                          root.prev_root_hash.size()));
  w.PutI64(5, root.sealed_at);
  w.PutString(6, root.logger);
  w.PutBytes(7, root.signature);
  EXPECT_THROW(ParseEpochRoot(w.Data()), wire::WireError);
}

TEST(EpochRootTest, ParseRejectsMissingFields) {
  wire::Writer w;
  w.PutU64(1, 0);
  EXPECT_THROW(ParseEpochRoot(w.Data()), wire::WireError);
}

TEST(EpochRootTest, SignatureBindsEveryField) {
  const auto keys = TestKeys();
  EpochRoot root = MakeRoot(keys, 2, 9, EpochGenesis());
  ASSERT_TRUE(VerifyEpochRootSignature(root, keys.pub));

  auto mutate = [&](auto fn) {
    EpochRoot m = root;
    fn(m);
    EXPECT_FALSE(VerifyEpochRootSignature(m, keys.pub));
  };
  mutate([](EpochRoot& m) { m.epoch += 1; });
  mutate([](EpochRoot& m) { m.tree_size += 1; });
  mutate([](EpochRoot& m) { m.root[0] ^= 1; });
  mutate([](EpochRoot& m) { m.prev_root_hash[0] ^= 1; });
  mutate([](EpochRoot& m) { m.sealed_at += 1; });
  mutate([](EpochRoot& m) { m.logger = "logger-b"; });
  mutate([](EpochRoot& m) { m.signature[0] ^= 1; });

  Rng other_rng(0xBAD);
  const auto other =
      crypto::GenerateSigKeyPair(other_rng, crypto::SigAlgorithm::kEd25519);
  EXPECT_FALSE(VerifyEpochRootSignature(root, other.pub));
}

TEST(EpochRootTest, ChainVerifiesAndLocalizesFirstBreak) {
  const auto keys = TestKeys();
  std::vector<EpochRoot> roots;
  crypto::Digest prev = EpochGenesis();
  for (std::uint64_t i = 0; i < 5; ++i) {
    roots.push_back(MakeRoot(keys, i, 3 * (i + 1), prev));
    prev = EpochRootDigest(roots.back());
  }
  EXPECT_EQ(VerifyEpochChain(roots, keys.pub), roots.size());

  auto broken = roots;
  broken[2].prev_root_hash[0] ^= 1;  // break the link into epoch 2
  broken[2].signature =
      crypto::SignDigest(keys.priv, EpochRootDigest(broken[2]));
  EXPECT_EQ(VerifyEpochChain(broken, keys.pub), 2u);

  auto unsigned_tail = roots;
  unsigned_tail[4].tree_size += 1;  // signature no longer matches
  EXPECT_EQ(VerifyEpochChain(unsigned_tail, keys.pub), 4u);

  auto shrunk = roots;
  shrunk[3].tree_size = shrunk[2].tree_size;  // not strictly increasing
  shrunk[3].signature =
      crypto::SignDigest(keys.priv, EpochRootDigest(shrunk[3]));
  EXPECT_EQ(VerifyEpochChain(shrunk, keys.pub), 3u);
}

TEST(LogServerSealTest, SealsEveryKAppends) {
  LogServerOptions options;
  options.seal_every = 4;
  options.logger_id = "replica-0";
  SimClock clock;
  options.clock = &clock;
  LogServer server(options);
  for (std::uint64_t i = 0; i < 10; ++i) server.Append(MakeEntry("pub", i));

  const auto roots = server.EpochRoots();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].epoch, 0u);
  EXPECT_EQ(roots[0].tree_size, 4u);
  EXPECT_EQ(roots[0].prev_root_hash, EpochGenesis());
  EXPECT_EQ(roots[1].epoch, 1u);
  EXPECT_EQ(roots[1].tree_size, 8u);
  EXPECT_EQ(roots[1].prev_root_hash, EpochRootDigest(roots[0]));
  EXPECT_EQ(roots[0].logger, "replica-0");
  EXPECT_EQ(VerifyEpochChain(roots, server.SealKey()), roots.size());
}

TEST(LogServerSealTest, TimeTriggeredSealOnNextAppend) {
  LogServerOptions options;
  options.seal_interval_ms = 10;
  SimClock clock(0, 0);  // only Advance() moves time
  options.clock = &clock;
  LogServer server(options);

  server.Append(MakeEntry("pub", 0));
  EXPECT_TRUE(server.EpochRoots().empty());
  clock.Advance(11 * 1'000'000);
  server.Append(MakeEntry("pub", 1));
  const auto roots = server.EpochRoots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].tree_size, 2u);
}

TEST(LogServerSealTest, IntervalMeasuredFromConstructionNotClockEpoch) {
  // Regression: with only seal_interval_ms configured and a clock that does
  // not start at zero (i.e. any wall clock), the first append must not seal
  // a 1-record epoch immediately — the interval runs from construction.
  LogServerOptions options;
  options.seal_interval_ms = 10;
  SimClock clock(5'000'000'000, 0);  // only Advance() moves time
  options.clock = &clock;
  LogServer server(options);

  server.Append(MakeEntry("pub", 0));
  EXPECT_TRUE(server.EpochRoots().empty())
      << "first append sealed immediately despite a fresh interval";
  clock.Advance(11 * 1'000'000);
  server.Append(MakeEntry("pub", 1));
  ASSERT_EQ(server.EpochRoots().size(), 1u);
  EXPECT_EQ(server.EpochRoots()[0].tree_size, 2u);
}

TEST(LogServerSealTest, ManualSealAndEmptyEpochSuppression) {
  LogServer server;  // sealing disabled by default
  EXPECT_FALSE(server.SealEpoch().has_value());  // nothing appended
  server.Append(MakeEntry("pub", 0));
  EXPECT_TRUE(server.EpochRoots().empty());  // no auto-seal
  const auto sealed = server.SealEpoch();
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->tree_size, 1u);
  // Nothing new: a second seal would repeat the tree size; refused.
  EXPECT_FALSE(server.SealEpoch().has_value());
  EXPECT_EQ(server.EpochRoots().size(), 1u);
}

TEST(LogServerSealTest, SealedRootMatchesMerkleTreeAndProofsVerify) {
  LogServer server;
  for (std::uint64_t i = 0; i < 7; ++i) server.Append(MakeEntry("pub", i));
  const auto sealed = server.SealEpoch();
  ASSERT_TRUE(sealed.has_value());

  const auto records = server.SerializedRecords();
  crypto::MerkleTree reference;
  for (const auto& r : records) reference.Append(r);
  EXPECT_EQ(sealed->root, reference.Root());

  for (std::uint64_t i = 0; i < records.size(); ++i) {
    const auto proof = server.InclusionProof(i, sealed->tree_size);
    EXPECT_TRUE(crypto::MerkleTree::VerifyInclusion(
        records[i], i, sealed->tree_size, proof, sealed->root));
  }
}

TEST(LogServerSealTest, UploadWatermarkDedupsRetransmissions) {
  LogServer server;
  EXPECT_EQ(server.UploadWatermark("sink-a"), 0u);
  using Outcome = LogServer::UploadSeqOutcome;
  EXPECT_EQ(server.NoteUploadSeqGapChecked("sink-a", 1), Outcome::kFresh);
  EXPECT_EQ(server.NoteUploadSeqGapChecked("sink-a", 2), Outcome::kFresh);
  // Retransmissions.
  EXPECT_EQ(server.NoteUploadSeqGapChecked("sink-a", 2), Outcome::kDuplicate);
  EXPECT_EQ(server.NoteUploadSeqGapChecked("sink-a", 1), Outcome::kDuplicate);
  // Independent per sink.
  EXPECT_EQ(server.NoteUploadSeqGapChecked("sink-b", 1), Outcome::kFresh);
  EXPECT_EQ(server.UploadWatermark("sink-a"), 2u);
}

TEST(LogFileEpochTest, EpochRootsRoundTripThroughLogFile) {
  LogServerOptions options;
  options.seal_every = 3;
  LogServer server(options);
  for (std::uint64_t i = 0; i < 9; ++i) server.Append(MakeEntry("pub", i));
  ASSERT_EQ(server.EpochRoots().size(), 3u);

  const std::string path = ::testing::TempDir() + "epoch_roundtrip.log";
  WriteLogFile(path, server);
  const LoadedLog loaded = ReadLogFile(path);
  EXPECT_TRUE(loaded.verified);
  EXPECT_EQ(loaded.entries.size(), 9u);
  EXPECT_EQ(loaded.epoch_roots, server.EpochRoots());
  std::remove(path.c_str());
}

TEST(LogFileEpochTest, FilesWithoutEpochFramesStillLoad) {
  LogServer server;
  for (std::uint64_t i = 0; i < 4; ++i) server.Append(MakeEntry("pub", i));
  const std::string path = ::testing::TempDir() + "epoch_none.log";
  WriteLogRecords(path, server.SerializedRecords(), server.MerkleRoot());
  const LoadedLog loaded = ReadLogFile(path);
  EXPECT_TRUE(loaded.verified);
  EXPECT_TRUE(loaded.epoch_roots.empty());
  std::remove(path.c_str());
}

TEST(LogFileEpochTest, TapPublishesSealEventsInline) {
  LogTapQueue tap(64, TapOverflowPolicy::kBlock);
  LogServerOptions options;
  options.seal_every = 2;
  LogServer server(options);
  server.AttachTap(&tap);
  for (std::uint64_t i = 0; i < 4; ++i) server.Append(MakeEntry("pub", i));
  tap.Close();

  std::vector<TapEvent::Kind> kinds;
  while (auto event = tap.Pop(std::chrono::milliseconds(0))) {
    kinds.push_back(event->kind);
    if (event->kind == TapEvent::Kind::kEpochRoot) {
      ASSERT_TRUE(event->epoch_root.has_value());
    }
  }
  const std::vector<TapEvent::Kind> want = {
      TapEvent::Kind::kEntry, TapEvent::Kind::kEntry,
      TapEvent::Kind::kEpochRoot, TapEvent::Kind::kEntry,
      TapEvent::Kind::kEntry, TapEvent::Kind::kEpochRoot};
  EXPECT_EQ(kinds, want);
}

}  // namespace
}  // namespace adlp::proto
