#include "zip/huffman.h"

#include <algorithm>
#include <array>
#include <queue>

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

  std::vector<size_t> used;
  for (size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) used.push_back(s);
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }

  // Standard Huffman tree construction over the used symbols.
  struct Node {
    uint64_t freq;
    int32_t left;   // node index or -1
    int32_t right;  // node index, or symbol index when left == -1
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * used.size());
  using QEntry = std::pair<uint64_t, int32_t>;  // (freq, node index)
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  for (size_t i = 0; i < used.size(); ++i) {
    nodes.push_back({freqs[used[i]], -1, static_cast<int32_t>(i)});
    pq.emplace(nodes.back().freq, static_cast<int32_t>(nodes.size() - 1));
  }
  while (pq.size() > 1) {
    const auto [fa, a] = pq.top();
    pq.pop();
    const auto [fb, b] = pq.top();
    pq.pop();
    nodes.push_back({fa + fb, a, b});
    pq.emplace(fa + fb, static_cast<int32_t>(nodes.size() - 1));
  }

  // Depth-first traversal to collect raw depths per used symbol.
  std::vector<int> depth(used.size(), 0);
  {
    std::vector<std::pair<int32_t, int>> stack;  // (node, depth)
    stack.emplace_back(static_cast<int32_t>(nodes.size() - 1), 0);
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      const Node& nd = nodes[idx];
      if (nd.left == -1) {
        depth[nd.right] = std::max(d, 1);
      } else {
        stack.emplace_back(nd.left, d + 1);
        stack.emplace_back(nd.right, d + 1);
      }
    }
  }

  // Histogram of code lengths, clamped to max_bits.
  std::vector<int> num_codes(max_bits + 1, 0);
  for (int d : depth) ++num_codes[std::min(d, max_bits)];

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

  // Assign lengths: most frequent symbol gets the shortest length.
  std::vector<size_t> order(used.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return freqs[used[a]] > freqs[used[b]];
  });
  size_t k = 0;
  for (int len = 1; len <= max_bits; ++len) {
    for (int c = 0; c < num_codes[len]; ++c) {
      RLZ_CHECK_LT(k, order.size());
      lengths[used[order[k++]]] = static_cast<uint8_t>(len);
    }
  }
  RLZ_CHECK_EQ(k, order.size());
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
