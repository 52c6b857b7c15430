// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// The resilience layer checksums everything that crosses a failure
// boundary: checkpoint files on disk and halo-exchange payloads in flight.
// One shared implementation keeps the two formats honest with each other
// (a checkpoint written here validates against the same polynomial the
// halo frames use).
//
// crc32 runs slicing-by-8: eight derived tables fold one 64-bit word per
// step instead of one byte, several times the throughput of the bytewise
// table loop on the same polynomial. On x86-64 CPUs with carry-less
// multiply, runs of 64 bytes and more fold 16 bytes per instruction
// instead (crc32_clmul), several times faster again: a halo gather frame
// of a few tens of KB is checksummed on every send and receive.
// crc32_bytewise is the bytewise loop, kept as the reference the fast
// paths are tested against and as their tail.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COLUMBIA_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define COLUMBIA_CRC32_CLMUL 0
#endif

namespace columbia::resil {

#if COLUMBIA_CRC32_CLMUL
#define COLUMBIA_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// One folding step: x * k (high and low 64-bit halves, carry-less) plus
/// the next 16 input bytes.
COLUMBIA_CLMUL_TARGET inline __m128i crc32_fold(__m128i x, __m128i k,
                                                __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

COLUMBIA_CLMUL_TARGET inline __m128i crc32_load(const unsigned char* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

/// Carry-less-multiply folding for the reflected IEEE polynomial (Gopal
/// et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ", Intel 2009): four 128-bit lanes fold 64 bytes per step,
/// then fold into one lane, then 128 -> 64 bits, then a Barrett reduction
/// to 32. `crc` is the raw (inverted) register; `n` is a multiple of 16
/// and at least 64.
COLUMBIA_CLMUL_TARGET inline std::uint32_t crc32_clmul(
    const unsigned char* p, std::size_t n, std::uint32_t crc) {
  // x^(4*128+32), x^(4*128-32), x^(128+32), x^(128-32), x^64 mod P (bit
  // reflected, shifted), then P' and mu for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  __m128i x1 = _mm_xor_si128(crc32_load(p), _mm_cvtsi32_si128(int(crc)));
  __m128i x2 = crc32_load(p + 16), x3 = crc32_load(p + 32), x4 = crc32_load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; n -= 64, p += 64) {
    x1 = crc32_fold(x1, k1k2, crc32_load(p));
    x2 = crc32_fold(x2, k1k2, crc32_load(p + 16));
    x3 = crc32_fold(x3, k1k2, crc32_load(p + 32));
    x4 = crc32_fold(x4, k1k2, crc32_load(p + 48));
  }
  x1 = crc32_fold(x1, k3k4, x2);
  x1 = crc32_fold(x1, k3k4, x3);
  x1 = crc32_fold(x1, k3k4, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = crc32_fold(x1, k3k4, crc32_load(p));

  // 128 -> 64 bits, then Barrett reduction to the 32-bit remainder.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2r);
  x2r = _mm_and_si128(x1, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
  x2r = _mm_and_si128(x2r, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return std::uint32_t(_mm_extract_epi32(x1, 1));
}

inline bool crc32_clmul_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}
#undef COLUMBIA_CLMUL_TARGET
#endif

/// table[0] is the classic bytewise table; table[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight lookups fold eight input bytes.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][std::size_t(i)] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

/// Reference bytewise loop: same result as crc32, one table step per byte.
inline std::uint32_t crc32_bytewise(const void* data, std::size_t n,
                                    std::uint32_t crc = 0) {
  const auto& t0 = crc32_tables()[0];
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i)
    crc = t0[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

/// Checksum of `n` bytes. Pass a previous result as `crc` to extend a
/// running checksum over multiple buffers (streaming use).
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t crc = 0) {
  // The word folding below reads little-endian words.
  if constexpr (std::endian::native != std::endian::little)
    return crc32_bytewise(data, n, crc);
  const auto& t = crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
#if COLUMBIA_CRC32_CLMUL
  if (n >= 64 && crc32_clmul_supported()) {
    const std::size_t whole = n & ~std::size_t(15);
    crc = crc32_clmul(p, whole, crc);
    p += whole;
    n -= whole;
  }
#endif
  for (; n >= 8; n -= 8, p += 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  return crc32_bytewise(p, n, ~crc);
}

}  // namespace columbia::resil
