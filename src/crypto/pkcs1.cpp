#include "crypto/pkcs1.h"

#include <stdexcept>

namespace adlp::crypto {

namespace {

// DER DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 note 1).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

}  // namespace

Bytes EmsaPkcs1V15Encode(const Digest& digest, std::size_t em_len) {
  const std::size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  if (em_len < t_len + 11) {
    throw std::length_error("EmsaPkcs1V15Encode: intended length too short");
  }
  Bytes em(em_len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::size_t pos = em_len - t_len;
  for (std::uint8_t b : kSha256DigestInfo) em[pos++] = b;
  for (std::uint8_t b : digest) em[pos++] = b;
  return em;
}

Bytes Pkcs1Sign(const RsaPrivateKey& key, const Digest& digest) {
  const std::size_t k = (key.n.BitLength() + 7) / 8;
  const Bytes em = EmsaPkcs1V15Encode(digest, k);
  const BigInt m = BigInt::FromBytesBE(em);
  const BigInt s = RsaPrivateOp(key, m);
  return s.ToBytesBEPadded(k);
}

bool Pkcs1Verify(const RsaPublicKey& key, const Digest& digest,
                 BytesView signature) {
  const std::size_t k = key.ModulusBytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::FromBytesBE(signature);
  if (s >= key.n) return false;
  const BigInt m = RsaPublicOp(key, s);
  Bytes em;
  try {
    em = EmsaPkcs1V15Encode(digest, k);
  } catch (const std::length_error&) {
    return false;
  }
  return ConstantTimeEqual(m.ToBytesBEPadded(k), em);
}

}  // namespace adlp::crypto
