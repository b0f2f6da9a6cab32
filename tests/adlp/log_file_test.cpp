#include "adlp/log_file.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/rng.h"
#include "test_util/hostile_mutations.h"
#include "wire/wire.h"

namespace adlp::proto {
namespace {

class LogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("adlp_log_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void FillServer(LogServer& server, int entries, std::size_t data_size = 100,
                  std::size_t sig_size = 128) {
    Rng rng(1);
    for (int i = 0; i < entries; ++i) {
      LogEntry e;
      e.scheme = LogScheme::kAdlp;
      e.component = "comp" + std::to_string(i % 3);
      e.topic = "topic";
      e.seq = static_cast<std::uint64_t>(i);
      e.data = rng.RandomBytes(data_size);
      e.self_signature = rng.RandomBytes(sig_size);
      server.Append(e);
    }
  }

  void WriteBytes(BytesView bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  Bytes ReadBytes() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    Bytes bytes(std::filesystem::file_size(path_));
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  /// Loads `bytes` as a log file: nullopt when the reader rejects it as
  /// unreadable. Any exception other than std::runtime_error fails the
  /// test by escaping.
  std::optional<LoadedLog> Load(BytesView bytes) {
    WriteBytes(bytes);
    try {
      return ReadLogFile(path_);
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  }

  std::string path_;
};

TEST_F(LogFileTest, RoundTripPreservesEntriesAndChain) {
  LogServer server;
  FillServer(server, 10);
  WriteLogFile(path_, server);
  const LoadedLog loaded = ReadLogFile(path_);
  EXPECT_TRUE(loaded.verified);
  EXPECT_EQ(loaded.entries.size(), 10u);
  EXPECT_EQ(loaded.root, server.MerkleRoot());
  EXPECT_EQ(loaded.records, server.SerializedRecords());
  EXPECT_EQ(loaded.entries, server.Entries());
}

TEST_F(LogFileTest, EmptyLogRoundTrips) {
  LogServer server;
  WriteLogFile(path_, server);
  const LoadedLog loaded = ReadLogFile(path_);
  EXPECT_TRUE(loaded.verified);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST_F(LogFileTest, ContentTamperBreaksChainButLoads) {
  LogServer server;
  FillServer(server, 5);
  auto records = server.SerializedRecords();
  records[2][10] ^= 0x01;  // flip one byte of one record
  WriteLogRecords(path_, records, server.MerkleRoot());
  const LoadedLog loaded = ReadLogFile(path_);
  EXPECT_FALSE(loaded.verified);
  EXPECT_EQ(loaded.records.size(), 5u);
  // The flipped byte may or may not keep the record parseable; either way
  // every record is preserved as evidence.
  EXPECT_EQ(loaded.entries.size() + loaded.malformed_records, 5u);
}

TEST_F(LogFileTest, DeletedRecordBreaksChain) {
  LogServer server;
  FillServer(server, 5);
  auto records = server.SerializedRecords();
  records.erase(records.begin() + 1);
  WriteLogRecords(path_, records, server.MerkleRoot());
  EXPECT_FALSE(ReadLogFile(path_).verified);
}

TEST_F(LogFileTest, InsertedRecordBreaksRoot) {
  LogServer server;
  FillServer(server, 5);
  auto records = server.SerializedRecords();
  records.insert(records.begin() + 2, records[4]);
  WriteLogRecords(path_, records, server.MerkleRoot());
  EXPECT_FALSE(ReadLogFile(path_).verified);
}

TEST_F(LogFileTest, ReorderedRecordsBreakChain) {
  LogServer server;
  FillServer(server, 5);
  auto records = server.SerializedRecords();
  std::swap(records[0], records[1]);
  WriteLogRecords(path_, records, server.MerkleRoot());
  EXPECT_FALSE(ReadLogFile(path_).verified);
}

TEST_F(LogFileTest, ShiftedRecordBoundaryBreaksRoot) {
  // The same bytes in the same order, split differently: the last byte of
  // record 1 moves to the front of record 2.
  LogServer server;
  FillServer(server, 5);
  auto records = server.SerializedRecords();
  records[2].insert(records[2].begin(), records[1].back());
  records[1].pop_back();
  WriteLogRecords(path_, records, server.MerkleRoot());
  EXPECT_FALSE(ReadLogFile(path_).verified);
}

TEST_F(LogFileTest, TruncatedFileRejected) {
  LogServer server;
  FillServer(server, 5);
  WriteLogFile(path_, server);
  // Chop off the trailer.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  EXPECT_THROW(ReadLogFile(path_), std::runtime_error);
}

TEST_F(LogFileTest, OldTrailerFormatIsUnreadable) {
  // The trailer format before the Merkle root: "HEAD" || 32-byte digest.
  // Such a file has no root trailer, so it is rejected rather than read as
  // a tampered log.
  LogServer server;
  FillServer(server, 3);
  Bytes file = wire::FramePayload(BytesOf("ADLPLOG1"));
  for (const Bytes& record : server.SerializedRecords()) {
    Append(file, wire::FramePayload(record));
  }
  Bytes trailer = BytesOf("HEAD");
  trailer.resize(4 + crypto::kSha256DigestSize, 0xab);
  Append(file, wire::FramePayload(trailer));
  WriteBytes(file);
  EXPECT_THROW(ReadLogFile(path_), std::runtime_error);
}

TEST_F(LogFileTest, LengthBombRejectedBeforeAllocating) {
  // A 4-byte file whose only frame claims 4 GiB.
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  WriteBytes(Bytes(4, 0xff));
  EXPECT_THROW(ReadLogFile(path_), std::runtime_error);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);  // KiB
}

TEST_F(LogFileTest, HostileMutationsNeverVerifyATamperedRecord) {
  LogServerOptions options;
  options.seal_every = 2;
  LogServer server(options);
  FillServer(server, 4, /*data_size=*/24, /*sig_size=*/16);
  ASSERT_EQ(server.EpochRoots().size(), 2u);
  WriteLogFile(path_, server);
  const Bytes file = ReadBytes();

  // Byte ranges: the magic frame, the record frames, then the trailer and
  // the epoch frames.
  const std::size_t records_begin = wire::kFramePreambleSize + 8;
  std::size_t records_end = records_begin;
  for (const Bytes& record : server.SerializedRecords()) {
    records_end += wire::kFramePreambleSize + record.size();
  }
  const std::size_t trailer_end =
      records_end + wire::kFramePreambleSize + 4 + crypto::kSha256DigestSize;
  ASSERT_LT(trailer_end, file.size());
  // Tampering inside [records_begin, records_end) must never verify.
  const auto in_records = [&](const Bytes& mutated) {
    for (std::size_t i = records_begin; i < records_end; ++i) {
      if (mutated[i] != file[i]) return true;
    }
    return false;
  };

  const auto untouched = Load(file);
  ASSERT_TRUE(untouched.has_value());
  EXPECT_TRUE(untouched->verified);

  test::ForEveryTruncation(file, [&](BytesView cut) {
    const auto loaded = Load(cut);
    // Cut before the end of the trailer: structurally unreadable. Cut
    // later: the file loads, possibly without its last epoch frames.
    if (cut.size() < trailer_end) {
      EXPECT_FALSE(loaded.has_value()) << "cut at " << cut.size();
    }
  });

  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const Bytes flipped = test::BitFlipped(rng, file, 1 + i % 3);
    const auto loaded = Load(flipped);
    if (loaded.has_value() && in_records(flipped)) {
      EXPECT_FALSE(loaded->verified) << "bit-flip case " << i;
    }
  }
  for (int i = 0; i < 400; ++i) {
    const Bytes bombed = test::LengthBombed(rng, file, 1 + i % 8);
    const auto loaded = Load(bombed);
    if (loaded.has_value() && in_records(bombed)) {
      EXPECT_FALSE(loaded->verified) << "length-bomb case " << i;
    }
  }
}

TEST_F(LogFileTest, GarbageFileRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a log file at all", f);
  std::fclose(f);
  EXPECT_THROW(ReadLogFile(path_), std::runtime_error);
}

TEST_F(LogFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadLogFile("/nonexistent/nowhere.adlplog"),
               std::system_error);
}

}  // namespace
}  // namespace adlp::proto
