#ifndef RLZ_UTIL_COMMON_PREFIX_H_
#define RLZ_UTIL_COMMON_PREFIX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rlz {

/// Length of the common prefix of `a` and `b`, given that their first
/// `from` bytes already match and comparing no further than `limit`
/// (from <= limit; both buffers hold at least `limit` bytes). The
/// longest-match searches of the factorizer and of gzipx spend their
/// time here, so it compares eight bytes at a time: on a little-endian
/// machine the lowest set bit of the XOR marks the first differing byte.
inline size_t CommonPrefixLength(const uint8_t* a, const uint8_t* b,
                                 size_t from, size_t limit) {
  size_t l = from;
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (l + 8 <= limit) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + l, 8);
    std::memcpy(&y, b + l, 8);
    if (x != y) return l + (__builtin_ctzll(x ^ y) >> 3);
    l += 8;
  }
#endif
  while (l < limit && a[l] == b[l]) ++l;
  return l;
}

}  // namespace rlz

#endif  // RLZ_UTIL_COMMON_PREFIX_H_
