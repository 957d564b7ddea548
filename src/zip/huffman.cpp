#include "zip/huffman.h"

#include <algorithm>
#include <array>

namespace rlz {
namespace {

// Every byte with its bit order reversed.
constexpr std::array<uint8_t, 256> kReversedByte = [] {
  std::array<uint8_t, 256> table{};
  for (int v = 0; v < 256; ++v) {
    int r = 0;
    for (int b = 0; b < 8; ++b) r |= ((v >> b) & 1) << (7 - b);
    table[v] = static_cast<uint8_t>(r);
  }
  return table;
}();

// Reverses the low `nbits` bits of `v` (nbits <= 16) two bytes at a time.
uint32_t ReverseBits(uint32_t v, int nbits) {
  const uint32_t r16 = (static_cast<uint32_t>(kReversedByte[v & 0xFF]) << 8) |
                       kReversedByte[(v >> 8) & 0xFF];
  return r16 >> (16 - nbits);
}

}  // namespace

std::vector<uint8_t> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                             int max_bits) {
  const size_t n = freqs.size();
  std::vector<uint8_t> lengths(n, 0);

  // Used symbols, sorted by (frequency, symbol).
  struct Leaf {
    uint64_t freq;
    uint32_t symbol;
  };
  std::vector<Leaf> leaves;
  uint64_t max_freq = 0;
  for (size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) {
      leaves.push_back({freqs[s], static_cast<uint32_t>(s)});
      max_freq = std::max(max_freq, freqs[s]);
    }
  }
  const size_t u = leaves.size();
  if (u == 0) return lengths;
  if (u == 1) {
    lengths[leaves[0].symbol] = 1;
    return lengths;
  }
  // LSD radix sort on the frequency bytes in use: stable, so equal
  // frequencies stay in symbol order, and free of the data-dependent
  // branches a comparison sort mispredicts on real frequency tables.
  {
    std::vector<Leaf> sorted(u);
    for (int shift = 0; shift < 64 && (max_freq >> shift) != 0; shift += 8) {
      size_t start[257] = {};
      for (const Leaf& leaf : leaves) {
        ++start[((leaf.freq >> shift) & 0xFF) + 1];
      }
      for (int b = 0; b < 256; ++b) start[b + 1] += start[b];
      for (const Leaf& leaf : leaves) {
        sorted[start[(leaf.freq >> shift) & 0xFF]++] = leaf;
      }
      leaves.swap(sorted);
    }
  }

  // Huffman's merge with two queues instead of a heap: the sorted leaves,
  // and the internal nodes, which are created in (frequency, creation)
  // order. Popping the smaller front, a leaf on a frequency tie, takes
  // nodes in exactly the (frequency, node index) order of a min-heap that
  // numbers leaves by symbol and internal nodes after them, so the tree —
  // and every depth — is the heap's.
  std::vector<uint64_t> node_freq(u - 1);
  // Parent of each node: leaves 0..u-1 in sorted order, then the internal
  // nodes u..2u-2 in creation order; the root is the last.
  std::vector<uint32_t> parent(2 * u - 1);
  size_t next_leaf = 0;
  size_t next_node = 0;
  size_t created = 0;
  auto take = [&]() -> uint32_t {
    if (next_leaf < u && (next_node == created ||
                          leaves[next_leaf].freq <= node_freq[next_node])) {
      return static_cast<uint32_t>(next_leaf++);
    }
    return static_cast<uint32_t>(u + next_node++);
  };
  auto freq_of = [&](uint32_t node) {
    return node < u ? leaves[node].freq : node_freq[node - u];
  };
  for (size_t k = 0; k + 1 < u; ++k) {
    const uint32_t a = take();
    const uint32_t b = take();
    node_freq[k] = freq_of(a) + freq_of(b);
    parent[a] = parent[b] = static_cast<uint32_t>(u + k);
    ++created;
  }

  // Depths top-down: every parent was created after its children.
  std::vector<int> depth(2 * u - 1, 0);
  for (size_t v = 2 * u - 2; v-- > 0;) depth[v] = depth[parent[v]] + 1;

  // Histogram of code lengths, clamped to max_bits.
  std::vector<int> num_codes(max_bits + 1, 0);
  for (size_t i = 0; i < u; ++i) ++num_codes[std::min(depth[i], max_bits)];

  // Kraft repair (the miniz "enforce max code size" pass): while the
  // scaled Kraft sum exceeds 2^max_bits, demote one max-length code by
  // splitting a shorter one.
  uint64_t total = 0;
  for (int i = 1; i <= max_bits; ++i) {
    total += static_cast<uint64_t>(num_codes[i]) << (max_bits - i);
  }
  while (total > (1ULL << max_bits)) {
    RLZ_CHECK(num_codes[max_bits] > 0);
    --num_codes[max_bits];
    for (int i = max_bits - 1; i >= 1; --i) {
      if (num_codes[i] > 0) {
        --num_codes[i];
        num_codes[i + 1] += 2;
        break;
      }
    }
    --total;
  }

  // Assign lengths: most frequent symbol gets the shortest length, and
  // equal frequencies go in symbol order — the leaves walked from the
  // most frequent run down, each run front to back.
  int len = 1;
  int left = num_codes[1];
  auto assign = [&](uint32_t symbol) {
    while (left == 0) {
      ++len;
      RLZ_CHECK_LE(len, max_bits);
      left = num_codes[len];
    }
    --left;
    lengths[symbol] = static_cast<uint8_t>(len);
  };
  for (size_t hi = u; hi > 0;) {
    size_t lo = hi - 1;
    while (lo > 0 && leaves[lo - 1].freq == leaves[hi - 1].freq) --lo;
    for (size_t i = lo; i < hi; ++i) assign(leaves[i].symbol);
    hi = lo;
  }
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t>& lengths)
    : lengths_(lengths) {
  const size_t n = lengths.size();
  codes_.assign(n, 0);
  // Canonical code assignment: codes of equal length are consecutive,
  // ordered by symbol.
  std::vector<int> count(kMaxHuffmanBits + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::vector<uint32_t> next(kMaxHuffmanBits + 2, 0);
  uint32_t code = 0;
  for (int l = 1; l <= kMaxHuffmanBits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  for (size_t s = 0; s < n; ++s) {
    if (lengths[s] == 0) continue;
    codes_[s] =
        static_cast<uint16_t>(ReverseBits(next[lengths[s]]++, lengths[s]));
  }
}

Status HuffmanDecoder::Init(const std::vector<uint8_t>& lengths) {
  // One pass over the lengths builds the per-length counts; the maximum
  // length and the Kraft sum then come from the 16 counts alone.
  uint32_t count[kMaxHuffmanBits + 1] = {};
  bool too_long = false;
  for (uint8_t l : lengths) {
    too_long |= l > kMaxHuffmanBits;
    ++count[l & kMaxHuffmanBits];
  }
  max_len_ = kMaxHuffmanBits;
  while (max_len_ > 0 && count[max_len_] == 0) --max_len_;
  if (too_long) {
    return Status::Corruption("huffman: code length too large");
  }
  if (max_len_ == 0) {
    return Status::Corruption("huffman: no symbols");
  }
  // Validate the Kraft inequality before filling the table.
  uint64_t kraft = 0;
  for (int l = 1; l <= max_len_; ++l) {
    kraft += static_cast<uint64_t>(count[l]) << (max_len_ - l);
  }
  if (kraft > (1ULL << max_len_)) {
    return Status::Corruption("huffman: over-subscribed code");
  }

  // The root table covers codes up to root_bits_; longer codes resolve
  // through the canonical walk (DecodeSlow). Capping the table keeps Init
  // O(2^kRootBits + symbols) instead of O(2^max_len) — the difference
  // between 4 KB and 128 KB of table fill per decoded stream. A complete
  // code with no code longer than the table fills every entry itself, so
  // only the other codes pay for marking the unused entries invalid.
  root_bits_ = std::min(max_len_, kRootBits);
  if (max_len_ <= kRootBits && kraft == (1ULL << max_len_)) {
    table_.resize(1ULL << root_bits_);
  } else {
    table_.assign(1ULL << root_bits_, kInvalidEntry);
  }

  uint32_t next[kMaxHuffmanBits + 2] = {};
  uint32_t code = 0;
  count[0] = 0;  // unused symbols take no code space
  for (int l = 1; l <= kMaxHuffmanBits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
    first_code_[l] = code;
    code_count_[l] = count[l];
  }

  // Symbols with codes longer than the root table, in canonical order.
  uint32_t slow_symbols = 0;
  for (int l = root_bits_ + 1; l <= max_len_; ++l) {
    perm_offset_[l] = slow_symbols;
    slow_symbols += count[l];
  }
  perm_.resize(slow_symbols);

  const size_t table_size = table_.size();
  for (size_t s = 0; s < lengths.size(); ++s) {
    const int l = lengths[s];
    if (l == 0) continue;
    const uint32_t canon = next[l]++;
    if (l <= root_bits_) {
      const uint32_t entry =
          (static_cast<uint32_t>(s) << 4) | static_cast<uint32_t>(l - 1);
      for (size_t fill = ReverseBits(canon, l); fill < table_size;
           fill += size_t{1} << l) {
        table_[fill] = entry;
      }
    } else {
      perm_[perm_offset_[l] + (canon - first_code_[l])] =
          static_cast<uint16_t>(s);
    }
  }
  return Status::OK();
}

int32_t HuffmanDecoder::DecodeSlow(BitReader* br, uint32_t window) const {
  if (max_len_ <= root_bits_) return -1;  // no longer codes exist
  // The stream is LSB-first with bit-reversed codes, so the first bit
  // read is the canonical code's most significant bit: the canonical
  // prefix is the bit-reverse of the peeked window.
  uint32_t code = 0;
  uint32_t w = window;
  for (int i = 0; i < root_bits_; ++i) {
    code = (code << 1) | (w & 1);
    w >>= 1;
  }
  br->SkipBits(root_bits_);
  for (int l = root_bits_ + 1; l <= max_len_; ++l) {
    code = (code << 1) | static_cast<uint32_t>(br->ReadBits(1));
    if (code >= first_code_[l] && code - first_code_[l] < code_count_[l]) {
      return perm_[perm_offset_[l] + (code - first_code_[l])];
    }
  }
  return -1;
}

}  // namespace rlz
