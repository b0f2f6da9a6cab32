#include <map>
// Parameterized RSA properties across modulus sizes: the protocol is
// key-size agnostic; every invariant must hold at every size.
#include <gtest/gtest.h>

#include "crypto/pkcs1.h"
#include "crypto/prime.h"

namespace adlp::crypto {
namespace {

class RsaParamTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const RsaKeyPair& Key(std::size_t bits) {
    static std::map<std::size_t, RsaKeyPair> cache;
    auto it = cache.find(bits);
    if (it == cache.end()) {
      Rng rng(9000 + bits);
      it = cache.emplace(bits, GenerateRsaKeyPair(rng, bits)).first;
    }
    return it->second;
  }
};

TEST_P(RsaParamTest, ModulusWidth) {
  const auto& kp = Key(GetParam());
  EXPECT_EQ(kp.pub.n.BitLength(), GetParam());
  EXPECT_EQ(kp.pub.ModulusBytes(), GetParam() / 8);
}

TEST_P(RsaParamTest, SignVerifyRoundTrip) {
  const auto& kp = Key(GetParam());
  Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    const Bytes msg = rng.RandomBytes(64 + i * 100);
    const Bytes sig = Pkcs1Sign(kp.priv, Sha256Digest(msg));
    EXPECT_EQ(sig.size(), kp.pub.ModulusBytes());
    EXPECT_TRUE(Pkcs1Verify(kp.pub, Sha256Digest(msg), sig));
  }
}

TEST_P(RsaParamTest, TamperDetected) {
  const auto& kp = Key(GetParam());
  Rng rng(2);
  Bytes msg = rng.RandomBytes(128);
  Bytes sig = Pkcs1Sign(kp.priv, Sha256Digest(msg));
  msg[17] ^= 1;
  EXPECT_FALSE(Pkcs1Verify(kp.pub, Sha256Digest(msg), sig));
}

TEST_P(RsaParamTest, CrtConsistency) {
  const auto& kp = Key(GetParam());
  Rng rng(3);
  const BigInt c = BigInt::RandomBelow(rng, kp.pub.n);
  EXPECT_EQ(RsaPrivateOp(kp.priv, c), BigInt::ModExp(c, kp.priv.d, kp.pub.n));
}

TEST_P(RsaParamTest, PrimesArePrime) {
  const auto& kp = Key(GetParam());
  Rng rng(4);
  EXPECT_TRUE(IsProbablePrime(kp.priv.p, rng));
  EXPECT_TRUE(IsProbablePrime(kp.priv.q, rng));
  EXPECT_NE(kp.priv.p, kp.priv.q);
}

TEST_P(RsaParamTest, CrossSizeSignaturesRejected) {
  // A signature from a different key (here 1536-bit vs the param size, or
  // 512-bit when the param is 1536) never verifies.
  const auto& kp = Key(GetParam());
  const std::size_t other_bits = GetParam() == 1536 ? 512 : 1536;
  const auto& other = Key(other_bits);
  const Bytes msg = BytesOf("cross");
  const Bytes sig = Pkcs1Sign(other.priv, Sha256Digest(msg));
  EXPECT_FALSE(Pkcs1Verify(kp.pub, Sha256Digest(msg), sig));
}

TEST_P(RsaParamTest, TooSmallModulusCannotHoldTheEncoding) {
  // EMSA-PKCS1-v1_5 with SHA-256 needs at least 62 bytes; a 256-bit (32-
  // byte) modulus must be rejected at signing time, not truncated.
  Rng rng(6);
  const RsaKeyPair tiny = GenerateRsaKeyPair(rng, 256);
  EXPECT_THROW(Pkcs1Sign(tiny.priv, Sha256Digest(BytesOf("x"))),
               std::length_error);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaParamTest,
                         ::testing::Values(512, 768, 1024, 1536),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "rsa" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace adlp::crypto
