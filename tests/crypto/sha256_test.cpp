#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

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

}  // namespace
}  // namespace adlp::crypto
