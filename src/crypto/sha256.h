// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash `h(.)` of the paper: preimage- and collision-resistant,
// 32-byte digest. Used for message digests, PKCS#1 v1.5 signatures, the
// subscriber's stored `h(I_y)`, and the trusted logger's Merkle tree.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace adlp::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Typical use:
///   Sha256 h; h.Update(a); h.Update(b); Digest d = h.Finish();
/// `Finish()` may be called once; the object can be `Reset()` for reuse.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(BytesView data);
  Digest Finish();

 private:
  void Compress(const std::uint8_t block[64]);

  std::uint32_t state_[8];
  std::uint64_t bit_count_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot digest of `data`.
Digest Sha256Digest(BytesView data);

/// One-shot digest of `a || b` (used for h(seq || D) without materializing the
/// concatenation).
Digest Sha256Digest2(BytesView a, BytesView b);

/// Digest as an owning byte vector (convenience for wire/log code).
Bytes DigestBytes(const Digest& d);

}  // namespace adlp::crypto
