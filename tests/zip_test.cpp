#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "zip/compressor.h"
#include "zip/gzipx.h"
#include "zip/huffman.h"
#include "zip/lzmax.h"
#include "zip/range_coder.h"

namespace rlz {
namespace {

// ---------------------------------------------------------------------------
// Huffman
// ---------------------------------------------------------------------------

TEST(HuffmanTest, LengthsSatisfyKraft) {
  Rng rng(1);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<uint64_t> freqs(286, 0);
    const int used = 2 + static_cast<int>(rng.Uniform(284));
    for (int i = 0; i < used; ++i) {
      freqs[rng.Uniform(freqs.size())] = 1 + rng.Uniform(100000);
    }
    const auto lengths = BuildHuffmanCodeLengths(freqs);
    double kraft = 0.0;
    for (size_t s = 0; s < freqs.size(); ++s) {
      EXPECT_EQ(lengths[s] > 0, freqs[s] > 0);
      if (lengths[s] > 0) {
        EXPECT_LE(lengths[s], kMaxHuffmanBits);
        kraft += 1.0 / static_cast<double>(1u << lengths[s]);
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
  }
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<uint64_t> freqs(10, 0);
  freqs[3] = 42;
  const auto lengths = BuildHuffmanCodeLengths(freqs);
  EXPECT_EQ(lengths[3], 1);
}

TEST(HuffmanTest, SkewedFrequenciesGetShortCodes) {
  std::vector<uint64_t> freqs = {1000000, 10, 10, 10, 10, 1};
  const auto lengths = BuildHuffmanCodeLengths(freqs);
  for (size_t s = 1; s < freqs.size(); ++s) {
    EXPECT_LE(lengths[0], lengths[s]);
  }
}

TEST(HuffmanTest, LengthLimitEnforcedOnPathologicalInput) {
  // Fibonacci-like frequencies produce deep Huffman trees.
  std::vector<uint64_t> freqs;
  uint64_t a = 1;
  uint64_t b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = BuildHuffmanCodeLengths(freqs, 15);
  double kraft = 0.0;
  for (uint8_t l : lengths) {
    ASSERT_GT(l, 0);
    ASSERT_LE(l, 15);
    kraft += 1.0 / static_cast<double>(1u << l);
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(2);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<uint64_t> freqs(64, 0);
    for (auto& f : freqs) f = rng.Uniform(1000);
    freqs[0] = 1;  // ensure at least one symbol
    const auto lengths = BuildHuffmanCodeLengths(freqs);
    HuffmanEncoder enc(lengths);
    HuffmanDecoder dec;
    ASSERT_TRUE(dec.Init(lengths).ok());

    std::vector<uint32_t> symbols;
    for (int i = 0; i < 5000; ++i) {
      uint32_t s = static_cast<uint32_t>(rng.Uniform(freqs.size()));
      while (freqs[s] == 0) s = static_cast<uint32_t>(rng.Uniform(freqs.size()));
      symbols.push_back(s);
    }
    std::string buf;
    BitWriter bw(&buf);
    for (uint32_t s : symbols) enc.Write(&bw, s);
    bw.Finish();
    BitReader br(buf);
    for (uint32_t s : symbols) {
      ASSERT_EQ(dec.Decode(&br), static_cast<int32_t>(s));
    }
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribedCode) {
  // Three codes of length 1 violate Kraft.
  HuffmanDecoder dec;
  EXPECT_EQ(dec.Init({1, 1, 1}).code(), StatusCode::kCorruption);
}

// A bit-serial canonical Huffman decoder, the textbook reference for
// HuffmanDecoder: it accepts exactly the length sets with at least one
// code, no length above kMaxHuffmanBits and a Kraft sum of at most one,
// and decodes by reading one bit at a time (LSB-first stream, codes
// stored bit-reversed, so each bit read extends the canonical code)
// until the code matches a length's canonical range.
class ReferenceHuffman {
 public:
  bool Init(const std::vector<uint8_t>& lengths) {
    max_len_ = 0;
    for (uint8_t l : lengths) {
      if (l > kMaxHuffmanBits) return false;
      max_len_ = std::max<int>(max_len_, l);
    }
    if (max_len_ == 0) return false;
    double kraft = 0;
    for (uint8_t l : lengths) {
      if (l > 0) kraft += 1.0 / static_cast<double>(1u << l);
    }
    if (kraft > 1.0) return false;
    // Symbols of each length in symbol order are that length's
    // consecutive canonical codes, starting at first_[len].
    by_len_.assign(kMaxHuffmanBits + 1, {});
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) by_len_[lengths[s]].push_back(static_cast<int>(s));
    }
    uint32_t code = 0;
    first_.assign(kMaxHuffmanBits + 1, 0);
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      code = (code + static_cast<uint32_t>(by_len_[len - 1].size())) << 1;
      first_[len] = code;
    }
    return true;
  }

  // Decodes one symbol starting at bit `*bit` of `data`, or -1 if no code
  // of up to max_len bits matches. Bits past the end read as zero.
  int Decode(const std::string& data, size_t* bit) const {
    uint32_t code = 0;
    for (int len = 1; len <= max_len_; ++len) {
      const size_t b = (*bit)++;
      const uint32_t v =
          b / 8 < data.size()
              ? (static_cast<uint8_t>(data[b / 8]) >> (b % 8)) & 1u
              : 0u;
      code = (code << 1) | v;
      if (code >= first_[len] && code - first_[len] < by_len_[len].size()) {
        return by_len_[len][code - first_[len]];
      }
    }
    return -1;
  }

 private:
  int max_len_ = 0;
  std::vector<uint32_t> first_;
  std::vector<std::vector<int>> by_len_;
};

// HuffmanDecoder against the bit-serial reference over random complete,
// under-full and over-subscribed length sets, codes reaching length 15
// (past the root table), single-symbol codes and lengths out of range:
// both must accept and reject the same sets and decode the same symbol
// sequence from the same random bits, failing at the same symbol.
TEST(HuffmanTest, DecoderMatchesBitSerialReference) {
  Rng rng(20260);
  std::vector<std::vector<uint8_t>> sets;
  for (int iter = 0; iter < 60; ++iter) {
    // Complete codes from real frequency tables; the skewed ones (each
    // frequency ~1.6x the last) hit the 15-bit length limit.
    const size_t n = 2 + rng.Uniform(iter % 3 == 0 ? 286 : 40);
    std::vector<uint64_t> freqs(n, 0);
    uint64_t f = 1;
    for (auto& x : freqs) {
      if (iter % 4 == 1) {
        x = f;
        f = f + f / 2 + 1;
      } else {
        x = rng.Uniform(3) == 0 ? 0 : 1 + rng.Uniform(1000);
      }
    }
    freqs[rng.Uniform(n)] += 1;  // at least one used symbol
    const std::vector<uint8_t> complete = BuildHuffmanCodeLengths(freqs);
    sets.push_back(complete);
    // Under-full: drop a used symbol (if two or more remain).
    std::vector<uint8_t> under = complete;
    for (size_t k = 0; k < under.size(); ++k) {
      if (under[k] > 0) {
        under[k] = 0;
        break;
      }
    }
    sets.push_back(under);
    // Over-subscribed: shorten one code, or add a symbol.
    std::vector<uint8_t> over = complete;
    for (auto& l : over) {
      if (l > 1) {
        --l;
        break;
      }
    }
    over.push_back(1);
    sets.push_back(over);
  }
  std::vector<uint8_t> deep(16, 0);  // lengths 1..15 plus a second 15
  for (int l = 1; l <= 15; ++l) deep[l - 1] = static_cast<uint8_t>(l);
  deep[15] = 15;
  sets.push_back(deep);
  deep.pop_back();  // under-full at length 15
  sets.push_back(deep);
  sets.push_back({1});                // single symbol, length 1
  sets.push_back({0, 0, 4, 0});       // single symbol, longer code
  sets.push_back({0, 0, 0});          // no symbols
  sets.push_back({});                 // empty
  sets.push_back({1, 16});            // length above the limit
  sets.push_back({2, 2, 2, 2, 255});  // ... far above
  sets.push_back({1, 1, 1});          // over-subscribed by a third code

  for (size_t k = 0; k < sets.size(); ++k) {
    SCOPED_TRACE("length set " + std::to_string(k));
    const std::vector<uint8_t>& lengths = sets[k];
    ReferenceHuffman ref;
    HuffmanDecoder dec;
    const bool ref_ok = ref.Init(lengths);
    const Status status = dec.Init(lengths);
    ASSERT_EQ(status.ok(), ref_ok) << status.ToString();
    if (!ref_ok) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
      continue;
    }
    std::string bits(512, '\0');
    for (auto& c : bits) c = static_cast<char>(rng.Uniform(256));
    BitReader br(bits);
    size_t ref_bit = 0;
    for (int i = 0; i < 1000; ++i) {
      const int want = ref.Decode(bits, &ref_bit);
      const int32_t got = dec.Decode(&br);
      ASSERT_EQ(got < 0 ? -1 : got, want) << "symbol " << i;
      if (want < 0) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Range coder
// ---------------------------------------------------------------------------

TEST(RangeCoderTest, BitRoundTrip) {
  Rng rng(3);
  std::vector<int> bits;
  for (int i = 0; i < 20000; ++i) bits.push_back(rng.Bernoulli(0.2) ? 1 : 0);

  std::string buf;
  {
    RangeEncoder enc(&buf);
    BitProb prob = kProbInit;
    for (int b : bits) enc.EncodeBit(&prob, b);
    enc.Flush();
  }
  {
    RangeDecoder dec(buf);
    BitProb prob = kProbInit;
    for (int b : bits) ASSERT_EQ(dec.DecodeBit(&prob), b);
    EXPECT_FALSE(dec.overflowed());
  }
  // Adaptive coding of a skewed stream must beat 1 bit per symbol.
  EXPECT_LT(buf.size() * 8, bits.size());
}

TEST(RangeCoderTest, DirectBitsRoundTrip) {
  Rng rng(4);
  std::vector<std::pair<uint32_t, int>> fields;
  for (int i = 0; i < 3000; ++i) {
    const int nbits = 1 + static_cast<int>(rng.Uniform(30));
    fields.emplace_back(static_cast<uint32_t>(rng.Next()) &
                            ((nbits == 32) ? ~0u : ((1u << nbits) - 1)),
                        nbits);
  }
  std::string buf;
  {
    RangeEncoder enc(&buf);
    for (auto [v, n] : fields) enc.EncodeDirect(v, n);
    enc.Flush();
  }
  RangeDecoder dec(buf);
  for (auto [v, n] : fields) ASSERT_EQ(dec.DecodeDirect(n), v);
}

TEST(RangeCoderTest, BitTreeRoundTrip) {
  Rng rng(5);
  std::vector<uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<uint32_t>(rng.Uniform(256)));
  }
  std::string buf;
  {
    RangeEncoder enc(&buf);
    std::vector<BitProb> probs(256, kProbInit);
    for (uint32_t s : symbols) EncodeBitTree(&enc, probs.data(), 8, s);
    enc.Flush();
  }
  RangeDecoder dec(buf);
  std::vector<BitProb> probs(256, kProbInit);
  for (uint32_t s : symbols) {
    ASSERT_EQ(DecodeBitTree(&dec, probs.data(), 8), s);
  }
}

// ---------------------------------------------------------------------------
// Compressors (shared behaviour, parameterized)
// ---------------------------------------------------------------------------

class CompressorTest : public ::testing::TestWithParam<CompressorId> {
 protected:
  const Compressor* compressor() const { return GetCompressor(GetParam()); }

  void ExpectRoundTrip(const std::string& input) {
    std::string compressed;
    compressor()->Compress(input, &compressed);
    std::string output;
    const Status s = compressor()->Decompress(compressed, &output);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(output, input);
  }
};

TEST_P(CompressorTest, Empty) { ExpectRoundTrip(""); }

TEST_P(CompressorTest, SingleByte) { ExpectRoundTrip("x"); }

TEST_P(CompressorTest, ShortAscii) {
  ExpectRoundTrip("hello, hello, hello world!");
}

TEST_P(CompressorTest, AllSameByte) { ExpectRoundTrip(std::string(100000, 'a')); }

TEST_P(CompressorTest, RandomIncompressible) {
  Rng rng(6);
  std::string input(50000, '\0');
  for (auto& c : input) c = static_cast<char>(rng.Uniform(256));
  ExpectRoundTrip(input);
}

TEST_P(CompressorTest, RepetitiveText) {
  std::string input;
  Rng rng(7);
  const std::string phrase = "the quick brown fox jumps over the lazy dog. ";
  while (input.size() < 200000) {
    input += phrase;
    if (rng.Bernoulli(0.1)) input += std::to_string(rng.Next() % 1000);
  }
  std::string compressed;
  compressor()->Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 5);
  std::string output;
  ASSERT_TRUE(compressor()->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST_P(CompressorTest, BinaryWithNulBytes) {
  Rng rng(8);
  std::string input;
  for (int i = 0; i < 30000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(4)));
  }
  ExpectRoundTrip(input);
}

TEST_P(CompressorTest, ManySmallInputsIndependent) {
  // Factor streams are compressed per document; make sure small inputs are
  // handled standalone.
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    std::string input;
    const size_t len = rng.Uniform(200);
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    ExpectRoundTrip(input);
  }
}

TEST_P(CompressorTest, DetectsTruncation) {
  std::string input(10000, 'q');
  for (size_t i = 0; i < input.size(); i += 17) input[i] = 'z';
  std::string compressed;
  compressor()->Compress(input, &compressed);
  std::string output;
  EXPECT_FALSE(compressor()
                   ->Decompress(std::string_view(compressed)
                                    .substr(0, compressed.size() / 2),
                                &output)
                   .ok());
}

TEST_P(CompressorTest, DetectsBitFlip) {
  std::string input = "some moderately compressible payload ";
  for (int i = 0; i < 8; ++i) input += input;
  std::string compressed;
  compressor()->Compress(input, &compressed);
  // Flip a byte in the middle of the payload (not the header).
  std::string corrupted = compressed;
  corrupted[corrupted.size() / 2] ^= 0x40;
  std::string output;
  EXPECT_FALSE(compressor()->Decompress(corrupted, &output).ok());
}

TEST_P(CompressorTest, DetectsBadMagic) {
  std::string compressed;
  compressor()->Compress("abc", &compressed);
  compressed[0] = '\x00';
  std::string output;
  EXPECT_EQ(compressor()->Decompress(compressed, &output).code(),
            StatusCode::kCorruption);
}

TEST_P(CompressorTest, AppendsToExistingOutput) {
  std::string compressed;
  compressor()->Compress("payload", &compressed);
  std::string output = "prefix-";
  ASSERT_TRUE(compressor()->Decompress(compressed, &output).ok());
  EXPECT_EQ(output, "prefix-payload");
}

INSTANTIATE_TEST_SUITE_P(Both, CompressorTest,
                         ::testing::Values(CompressorId::kGzipx,
                                           CompressorId::kLzmax),
                         [](const auto& info) {
                           return info.param == CompressorId::kGzipx ? "Gzipx"
                                                                     : "Lzmax";
                         });

// ---------------------------------------------------------------------------
// Family-shape expectations (DESIGN.md §4): lzmax compresses redundant data
// with long-range repetition better than gzipx, because its window is not
// limited to 32 KB.
// ---------------------------------------------------------------------------

TEST(CompressorShapeTest, LzmaxBeatsGzipxOnLongRangeRedundancy) {
  Rng rng(10);
  // A 64 KB "template" repeated with small edits at ~100 KB intervals:
  // out of reach for a 32 KB window, trivial for a large one.
  std::string page(64 * 1024, '\0');
  for (auto& c : page) c = static_cast<char>('a' + rng.Uniform(26));
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += page;
    std::string filler(40 * 1024, '\0');
    for (auto& c : filler) c = static_cast<char>(rng.Uniform(256));
    input += filler;
  }
  std::string gz;
  GetCompressor(CompressorId::kGzipx)->Compress(input, &gz);
  std::string lz;
  GetCompressor(CompressorId::kLzmax)->Compress(input, &lz);
  EXPECT_LT(lz.size(), gz.size() * 0.8);
}

TEST(GzipxTest, WindowLimitRespected) {
  // Repetition at a distance beyond 32 KB must still round-trip (as
  // literals / local matches), just with less compression.
  std::string block(40 * 1024, '\0');
  Rng rng(11);
  for (auto& c : block) c = static_cast<char>('a' + rng.Uniform(26));
  const std::string input = block + block;
  const GzipxCompressor gz;
  std::string compressed;
  gz.Compress(input, &compressed);
  std::string output;
  ASSERT_TRUE(gz.Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

// Prefix-stop mode: any `limit` inflates exactly the first `limit` bytes
// (appended after existing output), stopping inside blocks and matches;
// the trailing CRC is checked only when the whole stream is inflated, and
// damage inside the inflated prefix is still Corruption.
TEST(GzipxTest, PrefixStopInflatesExactlyThePrefix) {
  Rng rng(13);
  std::string input;
  for (int i = 0; i < 300; ++i) {  // matches, runs and literals
    input += "position " + std::to_string(rng.Uniform(50)) + "; ";
    if (i % 40 == 0) input += std::string(100, 'z');
  }
  for (int i = 0; i < 3000; ++i) input += static_cast<char>(rng.Uniform(256));
  const GzipxCompressor gz;
  std::string compressed;
  gz.Compress(input, &compressed);
  GzipxDecodeScratch scratch;
  for (size_t limit = 0; limit <= input.size() + 1; ++limit) {
    std::string out = "pre";
    ASSERT_TRUE(gz.Decompress(compressed, &out, &scratch, limit).ok())
        << "limit " << limit;
    ASSERT_EQ(out, "pre" + input.substr(0, limit)) << "limit " << limit;
  }

  // A bad CRC fails the whole stream but not a stopped prefix.
  std::string bad_crc = compressed;
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 1);
  std::string out;
  EXPECT_EQ(gz.Decompress(bad_crc, &out, &scratch).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(gz.Decompress(bad_crc, &out, &scratch, 100).ok());
  EXPECT_EQ(out, input.substr(0, 100));

  // Every truncation fails whenever the prefix asked for needs bytes that
  // were cut, and never writes past the prefix.
  for (size_t cut = 0; cut + 4 < compressed.size(); ++cut) {
    const std::string_view in = std::string_view(compressed).substr(0, cut);
    out = "keep";
    const Status st = gz.Decompress(in, &out, &scratch, input.size());
    ASSERT_FALSE(st.ok()) << "cut " << cut;
    ASSERT_EQ(out, "keep") << "cut " << cut;
    out.clear();
    if (gz.Decompress(in, &out, &scratch, 64).ok()) {
      ASSERT_EQ(out, input.substr(0, 64)) << "cut " << cut;
    }
  }
}

TEST(LzmaxTest, RepMatchesExploitStructuredData) {
  // Records with a fixed stride: rep0 distances should kick in.
  std::string input;
  Rng rng(12);
  std::string record = "field1=AAAA|field2=BBBB|field3=CCCC|";
  for (int i = 0; i < 3000; ++i) {
    input += record;
    input += std::to_string(i % 7);
  }
  const LzmaxCompressor lz;
  std::string compressed;
  lz.Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 20);
  std::string output;
  ASSERT_TRUE(lz.Decompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

}  // namespace
}  // namespace rlz
