#include "zip/gzipx.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "codecs/int_codecs.h"
#include "util/bitio.h"
#include "util/common_prefix.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "zip/huffman.h"

namespace rlz {
namespace {

constexpr uint8_t kMagic = 0xC7;
constexpr int kHashBits = 16;
constexpr uint32_t kHashMul = 2654435761U;
constexpr size_t kTokensPerBlock = 1 << 15;

constexpr int kNumLitLen = 286;  // 0..255 literals, 256 unused, 257..285 len
constexpr int kNumDist = 30;

// Deflate length slot tables (symbol 257 + i).
constexpr std::array<int, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10,  11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<int, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};

// Deflate distance slot tables.
constexpr std::array<int, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<int, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3, 3,
                                            4, 4, 5,  5,  6,  6,  7,  7,  8, 8,
                                            9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Slot of every match length, indexed by len - kMinMatch.
constexpr std::array<uint8_t, 256> kLenSlot = [] {
  std::array<uint8_t, 256> table{};
  int slot = 0;
  for (int len = 3; len <= 258; ++len) {
    while (slot < 28 && len >= kLenBase[slot + 1]) ++slot;
    table[len - 3] = static_cast<uint8_t>(slot);
  }
  return table;
}();

// Slot of every distance, deflate style: indexed by dist - 1 below 256,
// and by 256 + ((dist - 1) >> 7) above, where every slot base is a
// multiple of 128 plus one.
constexpr std::array<uint8_t, 512> kDistSlot = [] {
  std::array<uint8_t, 512> table{};
  int slot = 0;
  for (int dist = 1; dist <= 256; ++dist) {
    while (slot < 29 && dist >= kDistBase[slot + 1]) ++slot;
    table[dist - 1] = static_cast<uint8_t>(slot);
  }
  for (int hi = 2; hi < 256; ++hi) {
    const int dist = hi * 128 + 1;
    while (slot < 29 && dist >= kDistBase[slot + 1]) ++slot;
    table[256 + hi] = static_cast<uint8_t>(slot);
  }
  return table;
}();

int LengthSlot(int len) {
  RLZ_DCHECK(len >= GzipxCompressor::kMinMatch &&
             len <= GzipxCompressor::kMaxMatch);
  return kLenSlot[len - GzipxCompressor::kMinMatch];
}

int DistSlot(int dist) {
  RLZ_DCHECK(dist >= 1 && dist <= GzipxCompressor::kWindowSize);
  const int slot =
      dist <= 256 ? kDistSlot[dist - 1] : kDistSlot[256 + ((dist - 1) >> 7)];
  RLZ_DCHECK(dist >= kDistBase[slot] &&
             (slot == 29 || dist < kDistBase[slot + 1]));
  return slot;
}

struct Token {
  uint16_t len_or_lit;  // literal byte if dist == 0, else match length
  uint16_t dist;        // 0 for a literal, else the match distance
                        // (1..32768)
};

uint32_t HashAt(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16) |
                     (static_cast<uint32_t>(p[3]) << 24);
  return (v * kHashMul) >> (32 - kHashBits);
}

// Per-thread encoder state that survives calls: the hash heads (all -1
// between calls; each call resets only the slots it may have set), the
// chain links (written before they are read, so never cleared), the
// token list and the block buffer. Per-document factor streams are
// mostly a few KB, where building fresh tables dominated the encode.
struct EncodeScratch {
  std::vector<int32_t> head = std::vector<int32_t>(1 << kHashBits, -1);
  std::vector<int32_t> prev;
  std::vector<Token> tokens;
  std::string block;
};

// After an input above this many bytes, the chain links and tokens are
// released, so a thread does not keep a huge one-off input's tables
// alive.
constexpr size_t kMaxScratchInput = 1 << 20;

EncodeScratch& ThreadScratch() {
  thread_local EncodeScratch scratch;
  return scratch;
}

// LZ77 tokenizer with hash chains and optional one-step lazy matching.
// `head` must hold -1 in every slot, and does again on return.
void Tokenize(std::string_view in, const GzipxOptions& options,
              std::vector<int32_t>* head_table,
              std::vector<int32_t>* prev_links,
              std::vector<Token>* tokens) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(in.data());
  const size_t n = in.size();
  tokens->reserve(n / 4);
  int32_t* head = head_table->data();
  if (prev_links->size() < n) prev_links->resize(n);
  int32_t* prev = prev_links->data();

  auto insert = [&](size_t pos) {
    if (pos + 4 > n) return;
    const uint32_t h = HashAt(data + pos);
    prev[pos] = head[h];
    head[h] = static_cast<int32_t>(pos);
  };

  auto find_match = [&](size_t pos) -> std::pair<int, int> {
    // Returns (len, dist); len < kMinMatch means none.
    if (pos + 4 > n) return {0, 0};
    const uint32_t h = HashAt(data + pos);
    int32_t cand = head[h];
    const size_t max_len = std::min<size_t>(GzipxCompressor::kMaxMatch,
                                            n - pos);
    int best_len = 0;
    int best_dist = 0;
    int chain = options.max_chain;
    while (cand >= 0 && chain-- > 0) {
      const size_t dist = pos - static_cast<size_t>(cand);
      if (dist > GzipxCompressor::kWindowSize) break;
      // Quick reject: check the byte one past the current best.
      if (best_len > 0 &&
          data[cand + best_len] != data[pos + best_len]) {
        cand = prev[cand];
        continue;
      }
      const size_t l =
          CommonPrefixLength(data + cand, data + pos, 0, max_len);
      if (static_cast<int>(l) > best_len) {
        best_len = static_cast<int>(l);
        best_dist = static_cast<int>(dist);
        if (best_len >= options.nice_length ||
            l == max_len) {
          break;
        }
      }
      cand = prev[cand];
    }
    return {best_len, best_dist};
  };

  size_t pos = 0;
  while (pos < n) {
    auto [len, dist] = find_match(pos);
    if (len >= GzipxCompressor::kMinMatch && options.lazy && pos + 1 < n) {
      // One-step lazy evaluation: if the next position has a strictly
      // longer match, emit a literal here instead.
      insert(pos);
      auto [len2, dist2] = find_match(pos + 1);
      if (len2 > len) {
        tokens->push_back({static_cast<uint16_t>(data[pos]), 0});
        ++pos;
        len = len2;
        dist = dist2;
      }
      tokens->push_back({static_cast<uint16_t>(len),
                         static_cast<uint16_t>(dist)});
      // Insert hash entries for the covered positions (pos itself was
      // already inserted above).
      for (size_t k = 1; k < static_cast<size_t>(len); ++k) {
        insert(pos + k);
      }
      pos += len;
    } else if (len >= GzipxCompressor::kMinMatch) {
      tokens->push_back({static_cast<uint16_t>(len),
                         static_cast<uint16_t>(dist)});
      for (size_t k = 0; k < static_cast<size_t>(len); ++k) {
        insert(pos + k);
      }
      pos += len;
    } else {
      insert(pos);
      tokens->push_back({static_cast<uint16_t>(data[pos]), 0});
      ++pos;
    }
  }

  // Leave every head slot at -1 again. Rehashing the positions that may
  // have been inserted beats refilling the whole table for small inputs,
  // which are most of the factor coder's streams.
  if (n < 4) return;
  if (n - 3 <= head_table->size() / 4) {
    for (size_t p = 0; p + 4 <= n; ++p) head[HashAt(data + p)] = -1;
  } else {
    std::fill(head_table->begin(), head_table->end(), -1);
  }
}

}  // namespace

GzipxCompressor::GzipxCompressor(GzipxOptions options) : options_(options) {}

void GzipxCompressor::Compress(std::string_view in, std::string* out) const {
  out->push_back(static_cast<char>(kMagic));
  VByteCodec::Put(static_cast<uint32_t>(in.size()), out);

  EncodeScratch& scratch = ThreadScratch();
  std::vector<Token>& tokens = scratch.tokens;
  tokens.clear();
  Tokenize(in, options_, &scratch.head, &scratch.prev, &tokens);

  std::string& block = scratch.block;
  std::vector<uint64_t> lit_freq(kNumLitLen);
  std::vector<uint64_t> dist_freq(kNumDist);
  size_t tok_i = 0;
  size_t in_off = 0;
  while (tok_i < tokens.size()) {
    const size_t tok_end = std::min(tokens.size(), tok_i + kTokensPerBlock);
    // Uncompressed span covered by this token chunk.
    size_t span = 0;
    for (size_t t = tok_i; t < tok_end; ++t) {
      span += tokens[t].dist == 0 ? 1 : tokens[t].len_or_lit;
    }

    // Huffman-encode the chunk into a scratch buffer.
    block.clear();
    {
      std::fill(lit_freq.begin(), lit_freq.end(), 0);
      std::fill(dist_freq.begin(), dist_freq.end(), 0);
      for (size_t t = tok_i; t < tok_end; ++t) {
        const Token& tk = tokens[t];
        if (tk.dist == 0) {
          ++lit_freq[tk.len_or_lit];
        } else {
          ++lit_freq[257 + LengthSlot(tk.len_or_lit)];
          ++dist_freq[DistSlot(tk.dist)];
        }
      }
      const std::vector<uint8_t> lit_lens = BuildHuffmanCodeLengths(lit_freq);
      std::vector<uint8_t> dist_lens = BuildHuffmanCodeLengths(dist_freq);
      // The decoder requires at least one distance symbol to build a table;
      // pad with a dummy if the block is all literals.
      if (std::all_of(dist_lens.begin(), dist_lens.end(),
                      [](uint8_t l) { return l == 0; })) {
        dist_lens[0] = 1;
      }
      HuffmanEncoder lit_enc(lit_lens);
      HuffmanEncoder dist_enc(dist_lens);

      // At most 48 bits per token (see Decompress) plus the length tables.
      block.reserve((tok_end - tok_i) * 6 + (kNumLitLen + kNumDist) / 2 + 8);
      BitWriter bw(&block);
      for (uint8_t l : lit_lens) bw.WriteBits(l, 4);
      for (uint8_t l : dist_lens) bw.WriteBits(l, 4);
      for (size_t t = tok_i; t < tok_end; ++t) {
        const Token& tk = tokens[t];
        if (tk.dist == 0) {
          lit_enc.Write(&bw, tk.len_or_lit);
        } else {
          // The four fields of a match (<= 48 bits) in one write.
          const int ls = LengthSlot(tk.len_or_lit);
          const int ds = DistSlot(tk.dist);
          const int lit_bits = lit_enc.length(257 + ls);
          const int len_bits = lit_bits + kLenExtra[ls];
          const int dist_bits = len_bits + dist_enc.length(ds);
          RLZ_DCHECK(lit_bits > 0 && dist_bits > len_bits);
          const uint64_t len_extra = tk.len_or_lit - kLenBase[ls];
          const uint64_t dist_extra = tk.dist - kDistBase[ds];
          const uint64_t fields =
              lit_enc.code(257 + ls) | (len_extra << lit_bits) |
              (static_cast<uint64_t>(dist_enc.code(ds)) << len_bits) |
              (dist_extra << dist_bits);
          bw.WriteBits(fields, dist_bits + kDistExtra[ds]);
        }
      }
      bw.Finish();
    }

    // Stored fallback for incompressible chunks.
    VByteCodec::Put(static_cast<uint32_t>(span), out);
    VByteCodec::Put(static_cast<uint32_t>(tok_end - tok_i), out);
    if (block.size() >= span) {
      out->push_back(1);  // stored
      out->append(in.substr(in_off, span));
    } else {
      out->push_back(0);  // huffman
      VByteCodec::Put(static_cast<uint32_t>(block.size()), out);
      out->append(block);
    }
    in_off += span;
    tok_i = tok_end;
  }
  if (in.size() > kMaxScratchInput) {
    std::vector<int32_t>().swap(scratch.prev);
    std::vector<Token>().swap(scratch.tokens);
  }

  const uint32_t crc = Crc32(in);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
}

Status GzipxCompressor::Decompress(std::string_view in, std::string* out,
                                   GzipxDecodeScratch* scratch,
                                   size_t limit) const {
  size_t pos = 0;
  if (in.empty() || static_cast<uint8_t>(in[0]) != kMagic) {
    return Status::Corruption("gzipx: bad magic");
  }
  ++pos;
  uint32_t total = 0;
  RLZ_RETURN_IF_ERROR(VByteCodec::Get(in, &pos, &total));
  // Reject implausible expansion before sizing the output: a corrupt
  // header must not make us allocate gigabytes (max real ratio here is
  // ~1000:1).
  if (static_cast<uint64_t>(total) >
      in.size() * 1024ull + (1ull << 16)) {
    return Status::Corruption("gzipx: implausible uncompressed size");
  }

  GzipxDecodeScratch local_scratch;
  GzipxDecodeScratch* s = scratch != nullptr ? scratch : &local_scratch;

  // The header records the exact uncompressed size, so the output is
  // sized once (to the prefix in prefix-stop mode) and written through
  // raw pointers; the historical per-byte push_back dominated decode
  // time. Every write below is bounds-checked against `want` before it
  // happens, and every token against `total`. On any error the output is
  // rolled back to its input length.
  const size_t want = std::min<size_t>(total, limit);
  const size_t out_base = out->size();
  out->resize(out_base + want);
  char* const base = out->data() + out_base;
  const size_t stop = want < total ? want : kWholeStream;
  size_t produced = 0;
  auto fail = [&](Status status) {
    out->resize(out_base);
    return status;
  };

  while (produced < want) {
    uint32_t span = 0;
    uint32_t num_tokens = 0;
    Status st;
    if (!(st = VByteCodec::Get(in, &pos, &span)).ok()) return fail(st);
    if (!(st = VByteCodec::Get(in, &pos, &num_tokens)).ok()) return fail(st);
    if (pos >= in.size()) {
      return fail(Status::Corruption("gzipx: truncated block"));
    }
    const uint8_t type = static_cast<uint8_t>(in[pos++]);
    if (span > total - produced) {
      return fail(Status::Corruption("gzipx: block overruns stream size"));
    }
    if (type == 1) {
      if (pos + span > in.size()) {
        return fail(Status::Corruption("gzipx: truncated stored block"));
      }
      const size_t n = std::min<size_t>(span, want - produced);
      std::memcpy(base + produced, in.data() + pos, n);
      produced += n;
      pos += span;
      continue;
    }
    if (type != 0) return fail(Status::Corruption("gzipx: bad block type"));

    uint32_t bits_size = 0;
    if (!(st = VByteCodec::Get(in, &pos, &bits_size)).ok()) return fail(st);
    if (pos + bits_size > in.size()) {
      return fail(Status::Corruption("gzipx: truncated huffman block"));
    }
    BitReader br(reinterpret_cast<const uint8_t*>(in.data()) + pos, bits_size);
    pos += bits_size;

    s->lit_lens.resize(kNumLitLen);
    s->dist_lens.resize(kNumDist);
    for (auto& l : s->lit_lens) l = static_cast<uint8_t>(br.ReadBits(4));
    for (auto& l : s->dist_lens) l = static_cast<uint8_t>(br.ReadBits(4));
    if (!(st = s->lit.Init(s->lit_lens)).ok()) return fail(st);
    if (!(st = s->dist.Init(s->dist_lens)).ok()) return fail(st);

    // A whole-stream decode runs every token of the block (a token past
    // the recorded size is an overrun); a prefix stops at `want`.
    for (uint32_t t = 0; t < num_tokens && produced < stop; ++t) {
      // One refill covers the whole token: literal/length code (<= 15) +
      // length extra (<= 5) + distance code (<= 15) + distance extra
      // (<= 13) = 48 bits, so the per-symbol decodes skip the refill
      // branch. The refill may peek zero bits past the block's end while
      // the final symbols decode; only bits actually consumed past it
      // make the block corrupt (checked after the loop).
      br.EnsureBits(48);
      const int32_t sym = s->lit.DecodeNoRefill(&br);
      if (sym < 0 || sym == 256 || sym >= kNumLitLen) {
        return fail(Status::Corruption("gzipx: bad literal/length symbol"));
      }
      if (sym < 256) {
        if (produced >= want) {
          return fail(Status::Corruption("gzipx: output overrun"));
        }
        base[produced++] = static_cast<char>(sym);
        continue;
      }
      const int ls = sym - 257;
      const int len =
          kLenBase[ls] + static_cast<int>(br.ReadBitsNoRefill(kLenExtra[ls]));
      const int32_t dsym = s->dist.DecodeNoRefill(&br);
      if (dsym < 0 || dsym >= kNumDist) {
        return fail(Status::Corruption("gzipx: bad distance symbol"));
      }
      const int dist =
          kDistBase[dsym] +
          static_cast<int>(br.ReadBitsNoRefill(kDistExtra[dsym]));
      if (static_cast<size_t>(dist) > produced) {
        return fail(Status::Corruption("gzipx: distance before stream start"));
      }
      if (static_cast<size_t>(len) > total - produced) {
        return fail(Status::Corruption("gzipx: output overrun"));
      }
      // Overlap-aware copy, clipped at the prefix end: a distance at
      // least the length is a plain memcpy; distance 1 is a byte run;
      // short distances replay bytes.
      const size_t n = std::min<size_t>(static_cast<size_t>(len),
                                        want - produced);
      char* dst = base + produced;
      const char* src = dst - dist;
      if (static_cast<size_t>(dist) >= n) {
        std::memcpy(dst, src, n);
      } else if (dist == 1) {
        std::memset(dst, *src, n);
      } else {
        for (size_t k = 0; k < n; ++k) dst[k] = src[k];
      }
      produced += n;
    }
    if (br.overflowed()) {
      return fail(Status::Corruption("gzipx: huffman block overrun"));
    }
  }

  // A stopped prefix skips the CRC: it covers bytes never inflated.
  if (want < total) return Status::OK();
  if (pos + 4 > in.size()) {
    return fail(Status::Corruption("gzipx: missing crc"));
  }
  uint32_t want_crc = 0;
  for (int i = 0; i < 4; ++i) {
    want_crc |= static_cast<uint32_t>(static_cast<uint8_t>(in[pos + i]))
                << (8 * i);
  }
  const uint32_t got = Crc32(base, static_cast<size_t>(total));
  if (want_crc != got) return fail(Status::Corruption("gzipx: crc mismatch"));
  return Status::OK();
}

}  // namespace rlz
