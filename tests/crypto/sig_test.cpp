// The pluggable signature layer: both algorithms satisfy the same contract,
// keys round-trip the wire encoding, and cross-algorithm confusion is
// rejected.
#include "crypto/sig.h"

#include <gtest/gtest.h>
#include <map>
#include <vector>

#include "wire/wire.h"

namespace adlp::crypto {
namespace {

class SigTest : public ::testing::TestWithParam<SigAlgorithm> {
 protected:
  static const SigKeyPair& Key(SigAlgorithm alg) {
    static std::map<SigAlgorithm, SigKeyPair> cache;
    auto it = cache.find(alg);
    if (it == cache.end()) {
      Rng rng(777 + static_cast<int>(alg));
      it = cache.emplace(alg, GenerateSigKeyPair(rng, alg, 512)).first;
    }
    return it->second;
  }
};

TEST_P(SigTest, SignVerifyRoundTrip) {
  const auto& kp = Key(GetParam());
  const Digest digest = Sha256Digest(BytesOf("adlp"));
  const Bytes sig = SignDigest(kp.priv, digest);
  EXPECT_EQ(sig.size(), kp.pub.SignatureSize());
  EXPECT_TRUE(VerifyDigest(kp.pub, digest, sig));
}

TEST_P(SigTest, DifferentDigestRejected) {
  const auto& kp = Key(GetParam());
  const Bytes sig = SignDigest(kp.priv, Sha256Digest(BytesOf("one")));
  EXPECT_FALSE(VerifyDigest(kp.pub, Sha256Digest(BytesOf("two")), sig));
}

TEST_P(SigTest, PublicKeyWireRoundTrip) {
  const auto& kp = Key(GetParam());
  const PublicKey parsed = ParsePublicKey(SerializePublicKey(kp.pub));
  EXPECT_EQ(parsed, kp.pub);
  // The parsed key still verifies real signatures.
  const Digest digest = Sha256Digest(BytesOf("roundtrip"));
  EXPECT_TRUE(VerifyDigest(parsed, digest, SignDigest(kp.priv, digest)));
}

TEST_P(SigTest, EmptySignatureRejected) {
  const auto& kp = Key(GetParam());
  EXPECT_FALSE(VerifyDigest(kp.pub, Sha256Digest(BytesOf("x")), Bytes{}));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SigTest,
    ::testing::Values(SigAlgorithm::kRsaPkcs1Sha256, SigAlgorithm::kEd25519),
    [](const ::testing::TestParamInfo<SigAlgorithm>& info) {
      return info.param == SigAlgorithm::kEd25519 ? "ed25519" : "rsa";
    });

TEST(SigCrossTest, AlgorithmsDoNotVerifyEachOther) {
  Rng rng(1);
  const SigKeyPair rsa = GenerateSigKeyPair(rng, SigAlgorithm::kRsaPkcs1Sha256, 512);
  const SigKeyPair ed = GenerateSigKeyPair(rng, SigAlgorithm::kEd25519);
  const Digest digest = Sha256Digest(BytesOf("cross"));
  EXPECT_FALSE(VerifyDigest(rsa.pub, digest, SignDigest(ed.priv, digest)));
  EXPECT_FALSE(VerifyDigest(ed.pub, digest, SignDigest(rsa.priv, digest)));
}

TEST(SigCrossTest, SignatureSizes) {
  Rng rng(2);
  EXPECT_EQ(GenerateSigKeyPair(rng, SigAlgorithm::kRsaPkcs1Sha256, 1024)
                .pub.SignatureSize(),
            128u);  // the paper's RSA-1024
  EXPECT_EQ(GenerateSigKeyPair(rng, SigAlgorithm::kEd25519).pub.SignatureSize(),
            64u);  // the lightweight alternative
}

TEST(SigCrossTest, ParseRejectsBadEd25519Length) {
  wire::Writer w;
  w.PutU64(1, static_cast<std::uint64_t>(SigAlgorithm::kEd25519));
  w.PutBytes(4, Bytes(31, 1));  // one byte short
  EXPECT_THROW(ParsePublicKey(w.Data()), wire::WireError);
}

TEST(SigCrossTest, ParseRejectsUnknownAlgorithm) {
  // The alg field is attacker-controlled wire input; any value outside the
  // enum must throw instead of being cast into a SigAlgorithm nothing
  // handles.
  for (const std::uint64_t bad :
       {std::uint64_t{2}, std::uint64_t{255}, ~std::uint64_t{0}}) {
    wire::Writer w;
    w.PutU64(1, bad);
    w.PutBytes(4, Bytes(32, 1));
    EXPECT_THROW(ParsePublicKey(w.Data()), wire::WireError) << bad;
  }
  // The known values still parse.
  for (const SigAlgorithm good :
       {SigAlgorithm::kRsaPkcs1Sha256, SigAlgorithm::kEd25519}) {
    wire::Writer w;
    w.PutU64(1, static_cast<std::uint64_t>(good));
    EXPECT_EQ(ParsePublicKey(w.Data()).alg, good);
  }
}

TEST(SigCrossTest, AlgorithmNames) {
  EXPECT_EQ(SigAlgorithmName(SigAlgorithm::kRsaPkcs1Sha256),
            "rsa-pkcs1-sha256");
  EXPECT_EQ(SigAlgorithmName(SigAlgorithm::kEd25519), "ed25519");
}

TEST(VerifyBatchTest, MatchesIndividualVerification) {
  Rng rng(6);
  const SigKeyPair kp =
      GenerateSigKeyPair(rng, SigAlgorithm::kRsaPkcs1Sha256, 512);
  const Digest d1 = Sha256Digest(BytesOf("b1"));
  const Digest d2 = Sha256Digest(BytesOf("b2"));
  const Bytes s1 = SignDigest(kp.priv, d1);
  Bytes forged = s1;
  forged.back() ^= 0x80;

  std::vector<VerifyRequest> requests;
  requests.push_back({&kp.pub, d1, s1});                    // valid
  requests.push_back({&kp.pub, d2, s1});                    // wrong digest
  requests.push_back({&kp.pub, d1, forged});                // forged
  requests.push_back({&kp.pub, d1, s1});                    // duplicate of [0]
  requests.push_back({nullptr, d1, s1});                    // no key
  requests.push_back({&kp.pub, d1, BytesView{}});           // empty signature

  const std::vector<std::uint8_t> results = VerifyDigestBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  EXPECT_EQ(results[0], 1);
  EXPECT_EQ(results[1], 0);
  EXPECT_EQ(results[2], 0);
  EXPECT_EQ(results[3], 1);
  EXPECT_EQ(results[4], 0);
  EXPECT_EQ(results[5], 0);
}

TEST(VerifyBatchTest, MixedAlgorithmBatchGroupsCorrectly) {
  // RSA and Ed25519 requests in one batch: the Ed25519 group runs through
  // the combined-equation kernel, RSA stays per-signature, and every
  // verdict matches VerifyDigest.
  Rng rng(8);
  const SigKeyPair rsa =
      GenerateSigKeyPair(rng, SigAlgorithm::kRsaPkcs1Sha256, 512);
  const SigKeyPair ed = GenerateSigKeyPair(rng, SigAlgorithm::kEd25519);
  const Digest d1 = Sha256Digest(BytesOf("m1"));
  const Digest d2 = Sha256Digest(BytesOf("m2"));
  const Bytes rsa_sig = SignDigest(rsa.priv, d1);
  const Bytes ed_sig1 = SignDigest(ed.priv, d1);
  const Bytes ed_sig2 = SignDigest(ed.priv, d2);
  Bytes ed_forged = ed_sig2;
  ed_forged[10] ^= 0x04;

  std::vector<VerifyRequest> requests;
  requests.push_back({&rsa.pub, d1, rsa_sig});    // valid RSA
  requests.push_back({&ed.pub, d1, ed_sig1});     // valid Ed25519
  requests.push_back({&rsa.pub, d2, rsa_sig});    // RSA wrong digest
  requests.push_back({&ed.pub, d2, ed_forged});   // forged Ed25519
  requests.push_back({&ed.pub, d2, ed_sig2});     // valid Ed25519
  requests.push_back({&ed.pub, d1, ed_sig1});     // duplicate of [1]

  const std::vector<std::uint8_t> results = VerifyDigestBatch(requests);
  const std::vector<std::uint8_t> expected{1, 1, 0, 0, 1, 1};
  EXPECT_EQ(results, expected);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(results[i] != 0,
              VerifyDigest(*requests[i].key, requests[i].digest,
                           requests[i].signature))
        << i;
  }
}

TEST(VerifyBatchTest, DedupKeySeparatesAlgorithm) {
  // Regression guard for the in-batch dedup key: two key objects equal in
  // every byte of key material but differing in `alg` are two keys. An
  // Ed25519 "valid" may never answer for the same bytes reinterpreted
  // under another algorithm.
  Rng rng(9);
  const SigKeyPair ed = GenerateSigKeyPair(rng, SigAlgorithm::kEd25519);
  const Digest digest = Sha256Digest(BytesOf("alg-domain"));
  const Bytes sig = SignDigest(ed.priv, digest);

  PublicKey cross = ed.pub;
  cross.alg = SigAlgorithm::kRsaPkcs1Sha256;  // same key bytes, other alg

  const std::vector<VerifyRequest> requests{{&ed.pub, digest, sig},
                                            {&cross, digest, sig}};
  EXPECT_EQ(VerifyDigestBatch(requests), (std::vector<std::uint8_t>{1, 0}))
      << "a verdict crossed algorithms";
}

TEST(VerifyBatchTest, SignatureVerifiesOnlyUnderItsOwnKey) {
  // One signature checked under two keys in one batch is two triples: the
  // other key's check must not borrow the signer's verdict.
  for (const SigAlgorithm alg :
       {SigAlgorithm::kRsaPkcs1Sha256, SigAlgorithm::kEd25519}) {
    Rng rng(4);
    const SigKeyPair a = GenerateSigKeyPair(rng, alg, 512);
    const SigKeyPair b = GenerateSigKeyPair(rng, alg, 512);
    const Digest digest = Sha256Digest(BytesOf("own-key"));
    const Bytes sig = SignDigest(a.priv, digest);

    const std::vector<VerifyRequest> requests{{&a.pub, digest, sig},
                                              {&b.pub, digest, sig}};
    EXPECT_EQ(VerifyDigestBatch(requests), (std::vector<std::uint8_t>{1, 0}))
        << SigAlgorithmName(alg);
  }
}

TEST(VerifyBatchTest, EqualKeysInDistinctObjectsBothVerify) {
  // The dedup key is the key object's identity, so two equal keys held in
  // two objects may be verified separately. Both must still get the right
  // verdicts.
  for (const SigAlgorithm alg :
       {SigAlgorithm::kRsaPkcs1Sha256, SigAlgorithm::kEd25519}) {
    Rng rng(10);
    const SigKeyPair kp = GenerateSigKeyPair(rng, alg, 512);
    const PublicKey copy = kp.pub;
    const Digest digest = Sha256Digest(BytesOf("equal-keys"));
    const Bytes sig = SignDigest(kp.priv, digest);
    Bytes forged = sig;
    forged[0] ^= 0x01;

    const std::vector<VerifyRequest> requests{{&kp.pub, digest, sig},
                                              {&copy, digest, sig},
                                              {&copy, digest, forged}};
    EXPECT_EQ(VerifyDigestBatch(requests),
              (std::vector<std::uint8_t>{1, 1, 0}))
        << SigAlgorithmName(alg);
  }
}

}  // namespace
}  // namespace adlp::crypto
