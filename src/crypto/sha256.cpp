#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/sha256_compress.h"

#if defined(ADLP_SHA256_SHANI)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace adlp::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t Load32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void Store32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

namespace internal {

void Sha256CompressScalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = Load32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(ADLP_SHA256_SHANI)

// The SHA-NI round instruction keeps the working variables as two vectors,
// ABEF and CDGH, and takes two rounds per call with W[i] + K[i] in the low
// 64 bits of its message operand. Each 4-round group i uses message vector
// m[i % 4] (W[4i..4i+3]); sha256msg1/msg2 extend the schedule four words at
// a time, as FIPS 180-4's sigma0/sigma1 recurrence does one word at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256CompressShaNi(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  // Big-endian message words to little-endian lanes.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
    // Fully unrolled, m[] indices are constants and m[] stays in registers
    // (GCC leaves the loop rolled otherwise: 25 % slower per Image).
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 16
#endif
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        m[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      }
      const __m128i wk = _mm_add_epi32(
          m[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i <= 14) {
        // W[4(i+1)..]: finish the schedule msg1 started three groups ago.
        __m128i& next = m[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(m[i % 4], m[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[i % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 1 && i <= 12) {
        m[(i + 3) % 4] = _mm_sha256msg1_epu32(m[(i + 3) % 4], m[i % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool CpuHasShaNi() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
    const bool ssse3 = (c & bit_SSSE3) != 0;
    const bool sse41 = (c & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    return ssse3 && sse41 && (b & bit_SHA) != 0;
  }();
  return has;
}

#else

bool CpuHasShaNi() { return false; }

#endif

}  // namespace internal

namespace {

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn SelectCompress() {
#if defined(ADLP_SHA256_SHANI)
  if (internal::CpuHasShaNi()) return internal::Sha256CompressShaNi;
#endif
  return internal::Sha256CompressScalar;
}

}  // namespace

void Sha256::Compress(const std::uint8_t* blocks, std::size_t count) {
  static const CompressFn compress = SelectCompress();
  compress(state_, blocks, count);
}

void Sha256::Update(BytesView data) {
  // An empty view may carry data() == nullptr; memcpy(_, nullptr, 0) is UB.
  if (data.empty()) return;
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      Compress(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    Compress(data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::Finish() {
  const std::uint64_t bits = bit_count_;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  while ((buffer_len_ + pad_len) % 64 != 56) pad[pad_len++] = 0x00;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  Update(BytesView(pad, pad_len));

  Digest out;
  for (int i = 0; i < 8; ++i) Store32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest Sha256Digest(BytesView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest Sha256Digest2(BytesView a, BytesView b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

Bytes DigestBytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace adlp::crypto
