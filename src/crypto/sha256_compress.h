// SHA-256 block compression functions behind `crypto::Sha256` (internal).
//
// `Sha256` picks one of these once per process: the SHA-NI function when
// the CPU has the x86 SHA extensions, otherwise the portable one. Both are
// declared here so tests can call each directly and compare them; library
// code reaches SHA-256 only through sha256.h.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ADLP_SHA256_SHANI 1
#endif

namespace adlp::crypto::internal {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
/// (portable C++; the reference and the fallback).
void Sha256CompressScalar(std::uint32_t state[8], const std::uint8_t* data,
                          std::size_t blocks);

#if defined(ADLP_SHA256_SHANI)
/// Same contract, with the SHA-NI instructions. Call only when
/// `CpuHasShaNi()` is true.
void Sha256CompressShaNi(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t blocks);
#endif

/// True when CPUID reports SHA (leaf 7 EBX bit 29), SSSE3 and SSE4.1, and
/// the SHA-NI function is compiled in. Queried once per process.
bool CpuHasShaNi();

}  // namespace adlp::crypto::internal
