#ifndef RLZ_ZIP_HUFFMAN_H_
#define RLZ_ZIP_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "util/bitio.h"
#include "util/status.h"

namespace rlz {

/// Maximum Huffman code length supported by the encoder/decoder tables.
inline constexpr int kMaxHuffmanBits = 15;

/// Computes length-limited Huffman code lengths for `freqs` (0 for unused
/// symbols; their total must fit in 64 bits). Builds the tree with a
/// two-queue merge that takes nodes in a binary heap's (frequency, node)
/// order, then applies the zlib/miniz Kraft-repair pass to enforce
/// `max_bits`. Symbols with nonzero frequency always receive a length in
/// [1, max_bits]; equal frequencies get lengths in symbol order. If only
/// one symbol is used it gets length 1. The lengths are part of every
/// gzipx stream, so they are pinned against the heap build in
/// tests/zip_test.cpp.
std::vector<uint8_t> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                             int max_bits = kMaxHuffmanBits);

/// Canonical Huffman encoder: assigns canonical codes from lengths and
/// writes bit-reversed codes through a BitWriter (LSB-first stream, the
/// deflate convention).
class HuffmanEncoder {
 public:
  /// `lengths[s]` is the code length of symbol s (0 = unused).
  explicit HuffmanEncoder(const std::vector<uint8_t>& lengths);

  void Write(BitWriter* bw, uint32_t symbol) const {
    RLZ_DCHECK_LT(symbol, codes_.size());
    RLZ_DCHECK(lengths_[symbol] > 0);
    bw->WriteBits(codes_[symbol], lengths_[symbol]);
  }

  uint8_t length(uint32_t symbol) const { return lengths_[symbol]; }
  /// Bit-reversed canonical code of `symbol`, ready for BitWriter.
  uint16_t code(uint32_t symbol) const { return codes_[symbol]; }

 private:
  std::vector<uint16_t> codes_;  // bit-reversed canonical codes
  std::vector<uint8_t> lengths_;
};

/// Table-driven canonical Huffman decoder. Codes of up to kRootBits bits
/// resolve through a single root-table lookup; longer (rare) codes fall
/// back to a canonical first-code walk. Capping the table at 2^kRootBits
/// entries keeps Init cheap — the serving hot path builds fresh tables
/// for every per-document factor stream, where a full 2^15-entry table
/// fill would dwarf the decode itself (DESIGN.md §9).
///
/// Init is re-callable: a reused decoder (GzipxDecodeScratch) keeps its
/// table capacity across streams, so steady-state decoding allocates
/// nothing.
class HuffmanDecoder {
 public:
  /// Root-table width in bits: codes at most this long decode with one
  /// table lookup (the overwhelming majority by construction — canonical
  /// codes this long cover symbols of probability down to ~2^-10).
  static constexpr int kRootBits = 10;

  /// Builds the decode table. Returns Corruption if the lengths do not
  /// describe a prefix-complete (or under-full) code.
  Status Init(const std::vector<uint8_t>& lengths);

  /// Decodes one symbol. Returns a negative value on malformed input.
  int32_t Decode(BitReader* br) const {
    const uint32_t window =
        static_cast<uint32_t>(br->PeekBits(root_bits_));
    const uint32_t entry = table_[window];
    if (entry != kInvalidEntry) {
      br->SkipBits(static_cast<int>(entry & 0xF) + 1);
      return static_cast<int32_t>(entry >> 4);
    }
    return DecodeSlow(br, window);
  }

  /// Decode for callers that already guaranteed kRootBits buffered bits
  /// via BitReader::EnsureBits — the refill branch is hoisted out of the
  /// symbol. (The rare long-code fallback may still refill.)
  int32_t DecodeNoRefill(BitReader* br) const {
    const uint32_t window =
        static_cast<uint32_t>(br->PeekBitsNoRefill(root_bits_));
    const uint32_t entry = table_[window];
    if (entry != kInvalidEntry) {
      br->SkipBits(static_cast<int>(entry & 0xF) + 1);
      return static_cast<int32_t>(entry >> 4);
    }
    return DecodeSlow(br, window);
  }

 private:
  static constexpr uint32_t kInvalidEntry = 0xFFFFFFFFU;

  // Resolves a code longer than root_bits_ (or reports corruption) by
  // walking the canonical first-code boundaries one bit at a time.
  int32_t DecodeSlow(BitReader* br, uint32_t window) const;

  std::vector<uint32_t> table_;  // (symbol << 4) | (len - 1)
  int root_bits_ = 0;            // min(max_len_, kRootBits)
  int max_len_ = 0;
  // Canonical walk state for codes longer than root_bits_: per length,
  // the first canonical code, the number of codes, and the offset of the
  // first symbol in perm_ (symbols in canonical order).
  uint32_t first_code_[kMaxHuffmanBits + 1] = {};
  uint32_t code_count_[kMaxHuffmanBits + 1] = {};
  uint32_t perm_offset_[kMaxHuffmanBits + 1] = {};
  std::vector<uint16_t> perm_;
};

}  // namespace rlz

#endif  // RLZ_ZIP_HUFFMAN_H_
