#ifndef CSCE_UTIL_CRC32_H_
#define CSCE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace csce {
namespace util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8:
/// eight 256-entry tables fold eight input bytes per step, with a
/// byte-at-a-time tail. It checksums every shard wire frame and the CCSR
/// v2 cluster directory on each open, so the byte loop's ~3 ns a byte
/// showed up in index set-up. Same polynomial and values as the
/// byte-wise form. Header-only so the ccsr layer can use it without
/// depending on the shard library.
inline uint32_t Crc32(std::string_view bytes) {
  struct Tables {
    uint32_t t[8][256];
    Tables() {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
      }
      // t[k][i]: the CRC of byte i followed by k zero bytes.
      for (int k = 1; k < 8; ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
          t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
      }
    }
  };
  static const Tables tables;
  const auto& t = tables.t;
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  size_t n = bytes.size();
  // Little-endian word assembly; compilers fold it into one load.
  auto load32 = [](const uint8_t* q) {
    return uint32_t{q[0]} | uint32_t{q[1]} << 8 | uint32_t{q[2]} << 16 |
           uint32_t{q[3]} << 24;
  };
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = load32(p) ^ crc;
    const uint32_t hi = load32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace util
}  // namespace csce

#endif  // CSCE_UTIL_CRC32_H_
