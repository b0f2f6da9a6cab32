#include "adlp/log_server.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"

namespace adlp::proto {
namespace {

LogEntry MakeEntry(const std::string& component, std::uint64_t seq) {
  LogEntry e;
  e.scheme = LogScheme::kAdlp;
  e.component = component;
  e.topic = "t";
  e.seq = seq;
  e.data = {1, 2, 3};
  return e;
}

TEST(LogServerTest, AppendAndQuery) {
  LogServer server;
  server.Append(MakeEntry("a", 1));
  server.Append(MakeEntry("b", 2));
  server.Append(MakeEntry("a", 3));

  EXPECT_EQ(server.EntryCount(), 3u);
  EXPECT_EQ(server.Entries().size(), 3u);
  EXPECT_EQ(server.EntriesFor("a").size(), 2u);
  EXPECT_EQ(server.EntriesFor("b").size(), 1u);
  EXPECT_TRUE(server.EntriesFor("c").empty());
}

TEST(LogServerTest, ByteAccounting) {
  LogServer server;
  const LogEntry e = MakeEntry("a", 1);
  const std::size_t record_size = SerializeLogEntry(e).size();
  server.Append(e);
  server.Append(e);
  EXPECT_EQ(server.TotalBytes(), 2 * record_size);
  EXPECT_EQ(server.BytesFor("a"), 2 * record_size);
  EXPECT_EQ(server.BytesFor("b"), 0u);
}

TEST(LogServerTest, ChainVerifiesWhenUntampered) {
  LogServer server;
  for (int i = 0; i < 10; ++i) server.Append(MakeEntry("a", i));
  EXPECT_TRUE(server.VerifyRecords());
}

TEST(LogServerTest, TamperDetected) {
  LogServer server;
  for (int i = 0; i < 10; ++i) server.Append(MakeEntry("a", i));
  ASSERT_TRUE(server.CorruptRecordForTest(4));
  EXPECT_FALSE(server.VerifyRecords());
}

TEST(LogServerTest, CorruptOutOfRangeFails) {
  LogServer server;
  EXPECT_FALSE(server.CorruptRecordForTest(0));
}

TEST(LogServerTest, MerkleRootAdvances) {
  LogServer server;
  const auto r0 = server.MerkleRoot();
  EXPECT_EQ(r0, crypto::MerkleTree::EmptyRoot());
  server.Append(MakeEntry("a", 1));
  const auto r1 = server.MerkleRoot();
  EXPECT_NE(r0, r1);
  server.Append(MakeEntry("a", 2));
  EXPECT_NE(server.MerkleRoot(), r1);
  // The same entry appended again is a new leaf, not a no-op.
  const auto r2 = server.MerkleRoot();
  server.Append(MakeEntry("a", 2));
  EXPECT_NE(server.MerkleRoot(), r2);
}

TEST(LogServerTest, KeyRegistration) {
  LogServer server;
  Rng rng(1);
  const auto kp = crypto::GenerateSigKeyPair(rng, crypto::SigAlgorithm::kRsaPkcs1Sha256, 256);
  server.RegisterKey("camera", kp.pub);
  EXPECT_TRUE(server.Keys().Contains("camera"));
  EXPECT_EQ(server.Keys().Find("camera"), kp.pub);
}

TEST(LogServerTest, SerializedRecordsMatchEntries) {
  LogServer server;
  const LogEntry e = MakeEntry("a", 1);
  server.Append(e);
  const auto records = server.SerializedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(DeserializeLogEntry(records[0]), e);
}

TEST(LogServerTest, ConcurrentAppendsAllStored) {
  LogServer server;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&server, t] {
      for (int i = 0; i < 100; ++i) {
        server.Append(MakeEntry("c" + std::to_string(t), i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.EntryCount(), 800u);
  EXPECT_TRUE(server.VerifyRecords());
}

}  // namespace
}  // namespace adlp::proto
