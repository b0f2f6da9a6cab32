#include "crypto/pkcs1.h"

#include <gtest/gtest.h>

namespace adlp::crypto {
namespace {

const RsaKeyPair& KeyA() {
  static const RsaKeyPair kp = [] {
    Rng rng(11);
    return GenerateRsaKeyPair(rng, 512);
  }();
  return kp;
}

const RsaKeyPair& KeyB() {
  static const RsaKeyPair kp = [] {
    Rng rng(22);
    return GenerateRsaKeyPair(rng, 512);
  }();
  return kp;
}

TEST(EmsaPkcs1Test, EncodingStructure) {
  const Digest d = Sha256Digest(BytesOf("data"));
  const Bytes em = EmsaPkcs1V15Encode(d, 64);
  ASSERT_EQ(em.size(), 64u);
  EXPECT_EQ(em[0], 0x00);
  EXPECT_EQ(em[1], 0x01);
  // Padding of 0xff until the 0x00 separator.
  const std::size_t t_len = 19 + 32;  // DigestInfo + digest
  for (std::size_t i = 2; i < 64 - t_len - 1; ++i) EXPECT_EQ(em[i], 0xff);
  EXPECT_EQ(em[64 - t_len - 1], 0x00);
  // Digest occupies the last 32 bytes.
  EXPECT_TRUE(std::equal(d.begin(), d.end(), em.end() - 32));
}

TEST(EmsaPkcs1Test, TooShortThrows) {
  const Digest d = Sha256Digest(BytesOf("data"));
  EXPECT_THROW(EmsaPkcs1V15Encode(d, 32), std::length_error);
  EXPECT_NO_THROW(EmsaPkcs1V15Encode(d, 62));  // minimum: tLen + 11
}

TEST(Pkcs1Test, SignVerifyRoundTrip) {
  const Bytes msg = BytesOf("the quick brown fox");
  const Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  EXPECT_EQ(sig.size(), KeyA().pub.ModulusBytes());
  EXPECT_TRUE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), sig));
}

TEST(Pkcs1Test, SignatureIsDeterministic) {
  const Bytes msg = BytesOf("deterministic");
  EXPECT_EQ(Pkcs1Sign(KeyA().priv, Sha256Digest(msg)),
            Pkcs1Sign(KeyA().priv, Sha256Digest(msg)));
}

TEST(Pkcs1Test, TamperedMessageRejected) {
  Bytes msg = BytesOf("important payload");
  const Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  msg[0] ^= 1;
  EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), sig));
}

TEST(Pkcs1Test, TamperedSignatureRejected) {
  const Bytes msg = BytesOf("payload");
  Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  for (std::size_t pos : {0u, 31u, 63u}) {
    Bytes bad = sig;
    bad[pos] ^= 0x80;
    EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), bad))
        << "pos " << pos;
  }
}

TEST(Pkcs1Test, WrongKeyRejected) {
  const Bytes msg = BytesOf("payload");
  const Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  EXPECT_FALSE(Pkcs1Verify(KeyB().pub, Sha256Digest(msg), sig));
}

TEST(Pkcs1Test, WrongLengthSignatureRejected) {
  const Bytes msg = BytesOf("payload");
  Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  sig.pop_back();
  EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), sig));
  EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), Bytes{}));
}

TEST(Pkcs1Test, SignatureRepresentativeAboveModulusRejected) {
  const Bytes msg = BytesOf("payload");
  // All-0xff signature encodes a value >= n.
  const Bytes huge(KeyA().pub.ModulusBytes(), 0xff);
  EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), huge));
}

TEST(Pkcs1Test, RandomSignatureRejected) {
  Rng rng(9);
  const Bytes msg = BytesOf("payload");
  for (int i = 0; i < 10; ++i) {
    Bytes random_sig = rng.RandomBytes(KeyA().pub.ModulusBytes());
    random_sig[0] = 0;  // keep the representative below n
    EXPECT_FALSE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), random_sig));
  }
}

TEST(Pkcs1Test, EmptyMessageSignable) {
  const Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest({}));
  EXPECT_TRUE(Pkcs1Verify(KeyA().pub, Sha256Digest({}), sig));
}

TEST(Pkcs1Test, LargeMessageSignable) {
  Rng rng(10);
  const Bytes msg = rng.RandomBytes(1 << 20);  // 1 MiB (Image-scale)
  const Bytes sig = Pkcs1Sign(KeyA().priv, Sha256Digest(msg));
  EXPECT_TRUE(Pkcs1Verify(KeyA().pub, Sha256Digest(msg), sig));
}

}  // namespace
}  // namespace adlp::crypto
