#include "adlp/log_server.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "adlp/record_store.h"
#include "common/rng.h"

// ASan, TSan and MSan replace glibc malloc, so its arenas do not exist there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ADLP_TEST_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ADLP_TEST_MALLOC_REPLACED 1
#endif
#endif

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

// --- Record store boundaries ----------------------------------------------
//
// Records live in mappings ASan cannot see into, so a record written past
// its bounds would go unreported; these cases pin the boundaries instead.

constexpr std::size_t kChunk = RecordStore::kChunkBytes;

Bytes Filled(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return b;
}

bool SameBytes(BytesView a, BytesView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool PageAligned(BytesView v) {
  return reinterpret_cast<std::uintptr_t>(v.data()) % 4096 == 0;
}

TEST(RecordStoreTest, EmptyRecord) {
  RecordStore store;
  const Bytes a = Filled(10, 1);
  store.Append(Bytes{});
  store.Append(a);
  store.Append(Bytes{});
  ASSERT_EQ(store.Size(), 3u);
  EXPECT_TRUE(store[0].empty());
  EXPECT_TRUE(SameBytes(store[1], a));
  EXPECT_TRUE(store[2].empty());
}

TEST(RecordStoreTest, RecordFillingAChunkExactly) {
  RecordStore store;
  const Bytes small = Filled(100, 2);
  const Bytes full = Filled(kChunk, 3);
  store.Append(small);
  store.Append(full);   // does not fit behind `small`: a fresh chunk
  store.Append(small);  // the full chunk has no room left: another
  ASSERT_EQ(store.Size(), 3u);
  EXPECT_TRUE(SameBytes(store[0], small));
  EXPECT_TRUE(SameBytes(store[1], full));
  EXPECT_TRUE(SameBytes(store[2], small));
  EXPECT_TRUE(PageAligned(store[1]));
  EXPECT_TRUE(PageAligned(store[2]));
}

TEST(RecordStoreTest, RecordLargerThanAChunk) {
  RecordStore store;
  const Bytes a = Filled(1000, 4);
  const Bytes big = Filled(kChunk + 1, 5);
  const Bytes b = Filled(2000, 6);
  store.Append(a);
  store.Append(big);
  store.Append(b);
  ASSERT_EQ(store.Size(), 3u);
  EXPECT_TRUE(SameBytes(store[1], big));
  EXPECT_TRUE(PageAligned(store[1]));
  // The oversized record has a mapping of its own; the chunk keeps filling.
  EXPECT_EQ(store[2].data(), store[0].data() + a.size());
  EXPECT_TRUE(SameBytes(store[0], a));
  EXPECT_TRUE(SameBytes(store[2], b));
}

/// A server holding Image-sized records, 4 to a chunk.
std::vector<Bytes> FillWithImages(LogServer& server, int count) {
  std::vector<Bytes> records;
  for (int i = 0; i < count; ++i) {
    LogEntry e = MakeEntry("camera", i);
    e.data = Filled(921'641, static_cast<std::uint8_t>(i));
    records.push_back(SerializeLogEntry(e));
    server.Append(e);
  }
  return records;
}

TEST(LogServerTest, RecordRangeAcrossChunkBoundary) {
  LogServer server;
  const std::vector<Bytes> records = FillWithImages(server, 6);
  ASSERT_GT(5 * records[0].size(), kChunk);  // records 4 and 5 sit in chunk 2
  const std::vector<Bytes> range = server.RecordRange(2, 3);
  ASSERT_EQ(range.size(), 3u);
  for (std::size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i], records[2 + i]) << "record " << 2 + i;
  }
  EXPECT_EQ(server.SerializedRecords(), records);
  EXPECT_TRUE(server.VerifyRecords());
}

TEST(LogServerTest, CorruptRecordInLaterChunk) {
  LogServer server;
  const std::vector<Bytes> records = FillWithImages(server, 6);
  ASSERT_TRUE(server.CorruptRecordForTest(5));
  EXPECT_FALSE(server.VerifyRecords());
  const std::vector<Bytes> stored = server.SerializedRecords();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(stored[i], records[i]);
  Bytes flipped = records[5];
  flipped[0] ^= 0x01;
  EXPECT_EQ(stored[5], flipped);
}

#if defined(__GLIBC__)

long VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

void* volatile g_large_block = nullptr;

// Records a reactor loop appended must leave with the server. Heap blocks
// would be freed into that loop's malloc arena, where malloc_trim(0) can
// merge them into the arena's top chunk; glibc trims only the main
// arena's top, so those pages would stay resident.
TEST(LogServerTest, RecordsAppendedOnAnotherThreadLeaveWithTheServer) {
#if defined(ADLP_TEST_MALLOC_REPLACED)
  GTEST_SKIP() << "a sanitizer replaces glibc malloc; no arenas to test";
#endif
  // Free one 8 MiB block, as ReadLogFile's read buffer does: glibc then
  // raises its dynamic mmap threshold to 8 MiB and its trim threshold to
  // 16 MiB for the rest of the process.
  g_large_block = std::malloc(std::size_t{8} << 20);
  std::free(g_large_block);
  malloc_trim(0);
  const long before_kb = VmRssKb();

  auto server = std::make_unique<LogServer>();
  std::mutex mu;
  std::condition_variable cv;
  bool filled = false;
  bool release = false;
  std::thread loop([&] {
    LogEntry e = MakeEntry("lidar", 0);
    e.data = Filled(8705, 9);  // a Scan
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
      e.seq = seq;
      server->Append(e);
    }
    std::unique_lock lock(mu);
    filled = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });  // stays alive, as a loop does
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return filled; });
  }
  const long filled_kb = VmRssKb();
  server.reset();
  malloc_trim(0);
  const long after_kb = VmRssKb();
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  loop.join();

  ASSERT_GT(filled_kb - before_kb, 8 * 1024);  // ~8.7 MB of records
  EXPECT_LE(after_kb - before_kb, 1024)
      << "VmRSS " << before_kb << " kB before, " << filled_kb
      << " kB filled, " << after_kb << " kB after teardown";
}

#endif  // __GLIBC__

}  // namespace
}  // namespace adlp::proto
