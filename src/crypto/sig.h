// Pluggable signature algorithms.
//
// The paper's prototype is fixed to RSA-1024 + PKCS#1 v1.5; its future-work
// section proposes "lightweight crypto functions" to improve scalability.
// This layer abstracts sign_i(.) / verify_i(.) over the algorithm so the
// whole protocol stack (components, log entries, auditor, manifests) runs
// unchanged on either:
//
//   * kRsaPkcs1Sha256 — the paper's scheme (default, 128-byte signatures
//     at 1024 bits);
//   * kEd25519        — the lightweight alternative (64-byte signatures,
//     faster signing).
//
// All signatures are over the protocol's 32-byte message digest
// h(header || h(D)).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace adlp::crypto {

enum class SigAlgorithm : std::uint8_t {
  kRsaPkcs1Sha256 = 0,
  kEd25519 = 1,
};

std::string_view SigAlgorithmName(SigAlgorithm alg);

struct PublicKey {
  SigAlgorithm alg = SigAlgorithm::kRsaPkcs1Sha256;
  RsaPublicKey rsa;            // valid when alg == kRsaPkcs1Sha256
  Ed25519PublicKey ed25519;    // valid when alg == kEd25519

  bool operator==(const PublicKey&) const = default;

  /// Signature size in bytes (128 for RSA-1024, 64 for Ed25519).
  std::size_t SignatureSize() const;
};

struct PrivateKey {
  SigAlgorithm alg = SigAlgorithm::kRsaPkcs1Sha256;
  RsaPrivateKey rsa;
  Ed25519PrivateKey ed25519;
};

struct SigKeyPair {
  PublicKey pub;
  PrivateKey priv;
};

/// Generates a key pair of the requested algorithm. `rsa_bits` applies only
/// to RSA (the paper's 1024 by default).
SigKeyPair GenerateSigKeyPair(Rng& rng,
                              SigAlgorithm alg = SigAlgorithm::kRsaPkcs1Sha256,
                              std::size_t rsa_bits = 1024);

/// sign_i(digest). Throws for RSA moduli too small for the encoding.
Bytes SignDigest(const PrivateKey& key, const Digest& digest);

/// verify_i(digest, sig): malformed signatures return false.
bool VerifyDigest(const PublicKey& key, const Digest& digest,
                  BytesView signature);

/// Wire encoding of a public key (manifest / remote key registration).
Bytes SerializePublicKey(const PublicKey& key);
PublicKey ParsePublicKey(BytesView data);  // throws wire::WireError

/// One verification for VerifyDigestBatch. `key == nullptr` (unregistered
/// component) fails verification, mirroring the auditor's treatment of
/// missing keys.
struct VerifyRequest {
  const PublicKey* key = nullptr;
  Digest digest{};
  BytesView signature;
};

/// Verifies a batch of requests. A (key, digest, signature) triple repeated
/// inside the batch is verified once and its verdict goes to every copy —
/// with RSA-1024 that turns the auditor's two checks of every
/// acknowledgement signature (once in the publisher's entry, once in the
/// subscriber's) into one modexp. Triples match by key identity: the same
/// `key` pointer plus equal digest and signature bytes. A caller that wants
/// repeats verified once passes one PublicKey object per signer; two
/// distinct key objects are never merged, even with equal contents.
///
/// The distinct triples are grouped by algorithm: Ed25519 requests go
/// through Ed25519VerifyBatch (one combined linear-combination equation for
/// the whole group, with per-signature fallback on rejection), while RSA
/// keeps the per-signature path for parity with the paper's prototype.
/// Results are identical to calling VerifyDigest on every request.
std::vector<std::uint8_t> VerifyDigestBatch(
    const std::vector<VerifyRequest>& requests);

}  // namespace adlp::crypto
