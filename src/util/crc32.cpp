#include "util/crc32.h"

#include <array>

namespace rlz {
namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

// Little-endian u32 load, independent of host byte order (compiles to a
// single load on little-endian targets).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Tables kT = BuildTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^
        kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^
        kT[2][(hi >> 8) & 0xFF] ^ kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace rlz
