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
// table loop on the same polynomial. crc32_bytewise is that loop, kept as
// the reference the sliced path is tested against and as its tail.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace columbia::resil {

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
