#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "common/bytes.h"
#include "crypto/sha256_compress.h"

namespace adlp::crypto {
namespace {

std::string HexDigest(const Digest& d) {
  return ToHex(BytesView(d.data(), d.size()));
}

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(HexDigest(Sha256Digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexDigest(Sha256Digest(BytesOf("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexDigest(Sha256Digest(BytesOf(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Bytes input(1'000'000, 'a');
  EXPECT_EQ(HexDigest(Sha256Digest(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding path that appends a full new block.
  Bytes input(64, 'x');
  const Digest one_shot = Sha256Digest(input);
  Sha256 h;
  h.Update(BytesView(input.data(), 32));
  h.Update(BytesView(input.data() + 32, 32));
  EXPECT_EQ(one_shot, h.Finish());
}

TEST(Sha256Test, IncrementalMatchesOneShotAcrossSplits) {
  Bytes input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::uint8_t>(i));
  const Digest expected = Sha256Digest(input);
  for (std::size_t split : {1u, 7u, 63u, 64u, 65u, 128u, 999u}) {
    Sha256 h;
    std::size_t pos = 0;
    while (pos < input.size()) {
      const std::size_t take = std::min(split, input.size() - pos);
      h.Update(BytesView(input.data() + pos, take));
      pos += take;
    }
    EXPECT_EQ(h.Finish(), expected) << "split=" << split;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(BytesOf("first"));
  (void)h.Finish();
  h.Reset();
  h.Update(BytesOf("abc"));
  EXPECT_EQ(HexDigest(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Digest2MatchesConcatenation) {
  const Bytes a = BytesOf("hello ");
  const Bytes b = BytesOf("world");
  EXPECT_EQ(Sha256Digest2(a, b), Sha256Digest(Concat(a, b)));
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256Digest(BytesOf("a")), Sha256Digest(BytesOf("b")));
  Bytes x(100, 0);
  Bytes y(100, 0);
  y[99] = 1;
  EXPECT_NE(Sha256Digest(x), Sha256Digest(y));
}

TEST(Sha256Test, DigestBytesCopiesAll32) {
  const Digest d = Sha256Digest(BytesOf("abc"));
  const Bytes b = DigestBytes(d);
  ASSERT_EQ(b.size(), kSha256DigestSize);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

// --- Differential test of the two compression functions ------------------
//
// `Sha256` uses one compression function per process, so the tests above
// cover only the one this CPU selects. These call both directly, through
// the same padding, and require identical results.

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

constexpr std::uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                            0xa54ff53a, 0x510e527f, 0x9b05688c,
                                            0x1f83d9ab, 0x5be0cd19};

/// SHA-256 of `message`, padded here and compressed by `compress` in one
/// run of blocks.
std::string DigestWith(CompressFn compress, BytesView message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof(state));
  compress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return HexDigest(out);
}

class Sha256CompressTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(ADLP_SHA256_SHANI)
    if (!internal::CpuHasShaNi()) {
      GTEST_SKIP() << "CPU lacks sha_ni (or ssse3/sse4_1): the SHA-NI "
                      "compression function cannot run; Sha256Test still "
                      "covers the scalar one";
    }
#else
    GTEST_SKIP() << "SHA-NI compression is not compiled for this "
                    "architecture (x86-64 only)";
#endif
  }

#if defined(ADLP_SHA256_SHANI)
  static constexpr CompressFn kFast = internal::Sha256CompressShaNi;
#else
  static constexpr CompressFn kFast = internal::Sha256CompressScalar;
#endif
  static constexpr CompressFn kScalar = internal::Sha256CompressScalar;
};

TEST_F(Sha256CompressTest, NistVectors) {
  const struct {
    Bytes message;
    const char* hex;
  } kVectors[] = {
      {Bytes{},
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {BytesOf("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(DigestWith(kScalar, v.message), v.hex);
    EXPECT_EQ(DigestWith(kFast, v.message), v.hex);
  }
}

TEST_F(Sha256CompressTest, RandomLengthsWholeAndSplit) {
  std::mt19937_64 rng(20190707);
  std::uniform_int_distribution<std::size_t> length(0, 70'000);
  // Pieces of 0-1000 B: partial blocks that wait in the buffer and runs of
  // up to 15 whole blocks, interleaved.
  std::uniform_int_distribution<std::size_t> piece(0, 1000);
  for (int round = 0; round < 2000; ++round) {
    Bytes message(length(rng));
    for (auto& b : message) b = static_cast<std::uint8_t>(rng());
    const std::string expected = DigestWith(kScalar, message);
    ASSERT_EQ(DigestWith(kFast, message), expected) << "len=" << message.size();
    // Through the public API (the selected function) in random splits.
    Sha256 h;
    std::size_t pos = 0;
    while (pos < message.size()) {
      const std::size_t take = std::min(message.size() - pos, piece(rng));
      h.Update(BytesView(message.data() + pos, take));
      pos += take;
    }
    ASSERT_EQ(HexDigest(h.Finish()), expected) << "len=" << message.size();
    ASSERT_EQ(HexDigest(Sha256Digest(message)), expected);
  }
}

TEST_F(Sha256CompressTest, OneRunEqualsBlockByBlock) {
  std::mt19937_64 rng(1);
  Bytes data(64 * 64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t n = 1; n <= 64; ++n) {
    for (CompressFn compress : {kScalar, kFast}) {
      std::uint32_t run[8];
      std::uint32_t stepped[8];
      std::memcpy(run, kInitialState, sizeof(run));
      std::memcpy(stepped, kInitialState, sizeof(stepped));
      compress(run, data.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        compress(stepped, data.data() + 64 * i, 1);
      }
      ASSERT_EQ(0, std::memcmp(run, stepped, sizeof(run))) << "n=" << n;
    }
    std::uint32_t scalar[8];
    std::uint32_t fast[8];
    std::memcpy(scalar, kInitialState, sizeof(scalar));
    std::memcpy(fast, kInitialState, sizeof(fast));
    kScalar(scalar, data.data(), n);
    kFast(fast, data.data(), n);
    ASSERT_EQ(0, std::memcmp(scalar, fast, sizeof(scalar))) << "n=" << n;
  }
}

}  // namespace
}  // namespace adlp::crypto
