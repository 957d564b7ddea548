#ifndef RLZ_UTIL_BITIO_H_
#define RLZ_UTIL_BITIO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/logging.h"

namespace rlz {

/// Appends bit fields to a byte buffer, LSB-first within each byte (the
/// deflate convention). Used by the Huffman and range-coder back ends.
/// Bits collect in a 64-bit accumulator and reach the buffer as whole
/// bytes, several at a time, so the buffer holds the stream only after
/// Finish.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `nbits` bits of `bits` (0 <= nbits <= 57).
  void WriteBits(uint64_t bits, int nbits) {
    RLZ_DCHECK(nbits >= 0 && nbits <= 57);
    RLZ_DCHECK(nbits == 64 || (bits >> nbits) == 0);
    // After a flush at most 7 bits are pending, so the field fits.
    if (filled_ + nbits >= 64) FlushBytes();
    acc_ |= bits << filled_;
    filled_ += nbits;
  }

  /// Flushes any partial byte (zero-padded). Must be called exactly once,
  /// at the end of the stream.
  void Finish() {
    FlushBytes();
    if (filled_ > 0) {
      out_->push_back(static_cast<char>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Total bits written so far (excluding padding).
  size_t bit_count() const { return out_->size() * 8 + filled_; }

 private:
  // Moves every whole pending byte to the buffer, leaving < 8 bits.
  void FlushBytes() {
    const int bytes = filled_ >> 3;
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(acc_ >> (8 * i));
    out_->append(buf, static_cast<size_t>(bytes));
    acc_ = bytes == 8 ? 0 : acc_ >> (8 * bytes);
    filled_ -= 8 * bytes;
  }

  std::string* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

/// Reads bit fields written by BitWriter. Past the end of the stream the
/// reader supplies zero bits, so a decoder may peek beyond the last real
/// bit (a table lookup wider than the final code) without harm.
/// overflowed() reports whether more bits were *consumed* than the stream
/// holds: a well-formed stream never does, so callers treat it as
/// corruption rather than aborting, since inputs may be corrupt files.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BitReader(const std::string& s)
      : BitReader(reinterpret_cast<const uint8_t*>(s.data()), s.size()) {}

  /// Reads `nbits` bits (0 <= nbits <= 57).
  uint64_t ReadBits(int nbits) {
    RLZ_DCHECK(nbits >= 0 && nbits <= 57);
    if (filled_ < nbits) Refill(nbits);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    const uint64_t v = acc_ & mask;
    acc_ >>= nbits;
    filled_ -= nbits;
    return v;
  }

  /// Peeks at the next `nbits` bits without consuming them.
  uint64_t PeekBits(int nbits) {
    if (filled_ < nbits) Refill(nbits);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    return acc_ & mask;
  }

  /// Tops the accumulator up to at least `nbits` buffered bits (0 <=
  /// nbits <= 57; zero-padded past the stream end). A decode loop that
  /// knows its worst-case bits-per-iteration calls this once and then
  /// uses the NoRefill variants below, hoisting the refill branch out of
  /// every symbol (DESIGN.md §9).
  void EnsureBits(int nbits) {
    if (filled_ < nbits) Refill(nbits);
  }

  /// PeekBits for callers that already guaranteed `nbits` buffered bits
  /// via EnsureBits.
  uint64_t PeekBitsNoRefill(int nbits) const {
    RLZ_DCHECK_LE(nbits, filled_);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    return acc_ & mask;
  }

  /// ReadBits for callers that already guaranteed `nbits` buffered bits
  /// via EnsureBits.
  uint64_t ReadBitsNoRefill(int nbits) {
    RLZ_DCHECK_LE(nbits, filled_);
    const uint64_t mask = (nbits == 64) ? ~0ULL : ((1ULL << nbits) - 1);
    const uint64_t v = acc_ & mask;
    acc_ >>= nbits;
    filled_ -= nbits;
    return v;
  }

  /// Discards `nbits` previously peeked bits.
  void SkipBits(int nbits) {
    RLZ_DCHECK_LE(nbits, filled_);
    acc_ >>= nbits;
    filled_ -= nbits;
  }

  /// True once more bits have been consumed (read or skipped) than the
  /// stream holds. Zero bits merely peeked past the end do not count.
  bool overflowed() const {
    return padded_bits_ > static_cast<uint64_t>(filled_);
  }

  /// Byte position of the next unread byte.
  size_t byte_pos() const { return pos_; }

 private:
  // Tops up the accumulator until it holds at least `nbits` bits. Away
  // from the stream tail this is one unaligned 64-bit load instead of a
  // byte-at-a-time loop — bit-heavy decodes (Huffman symbol streams) are
  // refill-bound, so this is the serving hot path's single most executed
  // memory access (DESIGN.md §9).
  void Refill(int nbits) {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (pos_ + 8 <= size_) {
      uint64_t chunk;
      std::memcpy(&chunk, data_ + pos_, 8);
      const int take = (64 - filled_) >> 3;  // whole bytes that fit
      if (take == 8) {  // filled_ == 0, so acc_ is empty
        acc_ = chunk;
        filled_ = 64;
      } else {
        chunk &= (1ULL << (take * 8)) - 1;
        acc_ |= chunk << filled_;
        filled_ += take * 8;
      }
      pos_ += static_cast<size_t>(take);
      return;  // filled_ >= 57 >= nbits
    }
#endif
    while (filled_ < nbits) {
      uint64_t byte = 0;
      if (pos_ < size_) {
        byte = data_[pos_++];
      } else {
        padded_bits_ += 8;
      }
      acc_ |= byte << filled_;
      filled_ += 8;
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  uint64_t padded_bits_ = 0;  // zero bits supplied past the stream end
  int filled_ = 0;
};

}  // namespace rlz

#endif  // RLZ_UTIL_BITIO_H_
