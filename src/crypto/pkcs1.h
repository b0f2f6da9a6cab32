// RSASSA-PKCS1-v1_5 with SHA-256 (RFC 8017), the signature scheme the paper
// uses: sign_i(.) / verify_i(.) over 32-byte digests, producing
// `ModulusBytes()`-sized signatures (128 bytes for RSA-1024).
#pragma once

#include "common/bytes.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace adlp::crypto {

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `em_len` bytes:
/// 0x00 0x01 0xFF...0xFF 0x00 || DigestInfo(SHA-256) || digest.
/// Throws std::length_error if em_len is too small (minimum 62 bytes).
Bytes EmsaPkcs1V15Encode(const Digest& digest, std::size_t em_len);

/// Signs a precomputed SHA-256 digest. Returns a signature of exactly
/// `key.ModulusBytes()` via the CRT private operation.
Bytes Pkcs1Sign(const RsaPrivateKey& key, const Digest& digest);

/// Verifies `signature` over `digest` (encode-then-compare; no ASN.1
/// parsing, immune to Bleichenbacher-style forgery). Malformed signatures
/// return false rather than throwing.
bool Pkcs1Verify(const RsaPublicKey& key, const Digest& digest,
                 BytesView signature);

}  // namespace adlp::crypto
