// Hot-path regression suite (DESIGN.md §9): scratch-reuse decode must be
// byte-identical to fresh-allocation decode across every position/length
// coding pair and every archive format; the fused no-vector decode must
// agree with the general stream decode; and the per-document allocation
// guards (decoded-size limit, z-stream framing limits) must hold.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "core/rlz_archive.h"
#include "corpus/generator.h"
#include "semistatic/semistatic_archive.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "store/decode_scratch.h"
#include "util/random.h"
#include "zip/compressor.h"
#include "zip/gzipx.h"

// Global allocation counter: this binary replaces the global allocator so
// SteadyStateScratchDecodeIsAllocationFree can assert DESIGN.md §9's
// allocation budget instead of trusting it. Counting is a relaxed atomic
// increment; allocation behavior is otherwise unchanged.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC's -Wmismatched-new-delete cannot see that the replaced operator
// new below allocates with malloc, so free() in the matching deletes is
// correct; silence the false positive for these definitions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, an ASan build would pair its own nothrow new with
// the free() below and abort on an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace rlz {
namespace {

Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return GenerateCorpus(options).collection;
}

// Every position coding x every length coding, the paper's pairs first.
std::vector<PairCoding> AllCodings() {
  std::vector<PairCoding> codings;
  for (PosCoding pos :
       {PosCoding::kU32, PosCoding::kZlib, PosCoding::kPFD}) {
    for (LenCoding len : {LenCoding::kVByte, LenCoding::kZlib,
                          LenCoding::kS9, LenCoding::kPFD}) {
      codings.push_back(PairCoding{pos, len});
    }
  }
  return codings;
}

// ---------------------------------------------------------------------------
// FactorCoder: scratch decode == fresh decode == source text, all codings.

TEST(HotPathTest, ScratchDecodeIsByteIdenticalAcrossAllCodings) {
  const Collection collection = TestCollection(1 << 18, 51);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    factorizer.Factorize(collection.doc(i), &docs[i]);
  }

  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;  // one scratch reused across every document
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(docs[i], &encoded).ok());
      std::string fresh;
      std::string reused;
      ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &fresh).ok());
      ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &reused, &scratch).ok());
      ASSERT_EQ(fresh, collection.doc(i)) << "doc " << i;
      ASSERT_EQ(reused, fresh) << "doc " << i;
    }
  }
}

TEST(HotPathTest, ScratchDecodeRangeIsByteIdenticalAcrossAllCodings) {
  const Collection collection = TestCollection(1 << 17, 52);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  Rng rng(77);
  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;
    for (size_t i = 0; i < collection.num_docs(); i += 3) {
      const std::string_view doc = collection.doc(i);
      std::vector<Factor> factors;
      factorizer.Factorize(doc, &factors);
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
      const size_t offset = rng.Next() % (doc.size() + 1);
      const size_t length = rng.Next() % 200;
      std::string fresh;
      std::string reused;
      ASSERT_TRUE(
          coder.DecodeRange(encoded, *dict, offset, length, &fresh).ok());
      ASSERT_TRUE(coder.DecodeRange(encoded, *dict, offset, length, &reused,
                                    &scratch)
                      .ok());
      const std::string_view expect =
          offset < doc.size() ? doc.substr(offset, length)
                              : std::string_view();
      ASSERT_EQ(fresh, expect);
      ASSERT_EQ(reused, fresh);
    }
  }
}

// A window together with the bytes it must decode to: the `Get` slice.
struct EdgeWindow {
  size_t offset;
  size_t length;
  const char* what;
};

// The windows a range walker gets wrong first, for one document given
// its factor list: the document's start, a window ending exactly on a
// factor boundary, a window starting inside a multi-byte factor and one
// starting on a literal, the last byte, offsets at and past the end, an
// empty window, and lengths running past the end (SIZE_MAX included).
std::vector<EdgeWindow> EdgeWindows(const std::vector<Factor>& factors,
                                    size_t size) {
  std::vector<EdgeWindow> windows = {
      {0, 400, "offset 0"},
      {0, 1, "first byte"},
      {size == 0 ? 0 : size - 1, 1, "last byte"},
      {size, 10, "offset == size"},
      {size + 1, 10, "offset > size"},
      {size + 1000, 0, "offset > size, length 0"},
      {size / 2, 0, "length 0"},
      {size > 7 ? size - 7 : 0, 400, "length past the end"},
      {size / 3, ~size_t{0}, "length SIZE_MAX"},
  };
  size_t at = 0;
  bool boundary = false;
  bool inside = false;
  bool literal = false;
  for (size_t k = 0; k < factors.size(); ++k) {
    const size_t flen = factors[k].len == 0 ? 1 : factors[k].len;
    if (!boundary && k >= factors.size() / 2 && at >= 30) {
      windows.push_back({at - 30, 30, "ends on a factor boundary"});
      boundary = true;
    }
    if (!inside && factors[k].len > 2 && k > 0) {
      windows.push_back({at + 1, 50, "starts inside a factor"});
      windows.push_back({at + 1, factors[k].len - 2, "inside one factor"});
      inside = true;
    }
    if (!literal && factors[k].len == 0 && k > 0) {
      windows.push_back({at, 40, "starts on a literal"});
      windows.push_back({at, 1, "the literal alone"});
      literal = true;
    }
    at += flen;
  }
  return windows;
}

// The range gate of the decode layer: GetRange bytes equal the Get slice
// for every PairCoding over the edge windows, through the archive with
// and without scratch and through FactorCoder::DecodeRange appending to a
// non-empty output.
TEST(HotPathTest, GetRangeEqualsGetSliceOnEdgeWindowsAllCodings) {
  CorpusOptions options;
  options.target_bytes = 1 << 17;
  options.seed = 58;
  const Collection collection = GenerateCorpus(options).collection;
  // A small dictionary forces literals into the factor lists.
  std::shared_ptr<const Dictionary> dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 200, 256);
  Factorizer factorizer(dict.get());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    factorizer.Factorize(collection.doc(i), &docs[i]);
  }
  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const auto archive = RlzArchive::BuildFromFactors(dict, docs, coding);
    const FactorCoder coder(coding);
    DecodeScratch scratch;
    for (size_t i = 0; i < collection.num_docs(); i += 4) {
      std::string whole;
      ASSERT_TRUE(archive->Get(i, &whole).ok());
      ASSERT_EQ(whole, collection.doc(i));
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(docs[i], &encoded).ok());
      for (const EdgeWindow& w : EdgeWindows(docs[i], whole.size())) {
        SCOPED_TRACE(std::string(w.what) + " doc " + std::to_string(i) +
                     " offset " + std::to_string(w.offset));
        const std::string expect =
            w.offset < whole.size() ? whole.substr(w.offset, w.length)
                                    : std::string();
        std::string fresh;
        std::string reused;
        ASSERT_TRUE(archive->GetRange(i, w.offset, w.length, &fresh).ok());
        ASSERT_TRUE(archive
                        ->GetRange(i, w.offset, w.length, &reused, nullptr,
                                   &scratch)
                        .ok());
        ASSERT_EQ(fresh, expect);
        ASSERT_EQ(reused, expect);
        std::string appended = "prefix";
        ASSERT_TRUE(coder
                        .DecodeRange(encoded, *dict, w.offset, w.length,
                                     &appended, &scratch)
                        .ok());
        ASSERT_EQ(appended, "prefix" + expect);
      }
    }
  }
}

// Corrupt factor streams: every truncation prefix and every single-byte
// flip of sample encoded documents, for every PairCoding, through
// DecodeDoc and DecodeRange over several windows. Each call must either
// fail (leaving the output exactly as it was) or succeed with in-bounds
// bytes: a range no longer than asked for, appended after the existing
// output. Run under the Sanitize build this is the memory-safety check
// of the early-stopping walker, which no longer sees gzipx's CRC over
// the whole position stream (DESIGN.md §8).
TEST(HotPathTest, CorruptStreamsFailOrStayInBoundsAllCodings) {
  CorpusOptions options;
  options.target_bytes = 1 << 16;
  options.seed = 59;
  const Collection collection = GenerateCorpus(options).collection;
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 10, 256);
  Factorizer factorizer(dict.get());
  // Two 600-byte texts (a mix of dictionary factors and literals) keep
  // the sweep (encoded bytes x flips x calls, quadratic in the stream
  // size for truncations) fast under the sanitizers.
  const std::string texts[] = {
      std::string(collection.doc(0).substr(0, 600)),
      std::string(collection.doc(1).substr(1000, 600))};

  for (const PairCoding coding : AllCodings()) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    DecodeScratch scratch;
    for (const std::string& doc : texts) {
      std::vector<Factor> factors;
      factorizer.Factorize(doc, &factors);
      std::string encoded;
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
      const EdgeWindow windows[] = {{0, 400, "first"},
                                    {doc.size() / 2, 100, "middle"},
                                    {doc.size() - 50, 400, "tail"},
                                    {7, 0, "empty"}};
      auto check = [&](std::string_view in) {
        std::string out = "keep";
        if (coder.DecodeDoc(in, *dict, &out, &scratch).ok()) {
          ASSERT_EQ(out.compare(0, 4, "keep"), 0);
        } else {
          ASSERT_EQ(out, "keep");
        }
        for (const EdgeWindow& w : windows) {
          out = "keep";
          if (coder.DecodeRange(in, *dict, w.offset, w.length, &out, &scratch)
                  .ok()) {
            ASSERT_EQ(out.compare(0, 4, "keep"), 0) << w.what;
            ASSERT_LE(out.size(), 4 + w.length) << w.what;
          } else {
            ASSERT_EQ(out, "keep") << w.what;
          }
        }
      };
      for (size_t cut = 0; cut < encoded.size(); ++cut) {
        check(std::string_view(encoded).substr(0, cut));
      }
      std::string flipped = encoded;
      for (size_t at = 0; at < encoded.size(); ++at) {
        for (const uint8_t mask : {0x01, 0x80, 0xFF}) {
          flipped[at] = static_cast<char>(encoded[at] ^ mask);
          check(flipped);
        }
        flipped[at] = encoded[at];
      }
    }
  }
}

// The decode output must append (not clobber) and be identical whether the
// same scratch was previously used on a larger document — stale scratch
// contents must never leak into a later decode.
TEST(HotPathTest, ScratchReuseAfterLargerDocumentIsClean) {
  const Collection collection = TestCollection(1 << 17, 53);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  const FactorCoder coder(kZV);
  // Largest document first, then every other document through the same
  // scratch.
  size_t largest = 0;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    if (collection.doc_size(i) > collection.doc_size(largest)) largest = i;
  }
  DecodeScratch scratch;
  std::vector<Factor> factors;
  std::string encoded;
  std::string out;
  factorizer.Factorize(collection.doc(largest), &factors);
  ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
  ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &out, &scratch).ok());
  ASSERT_EQ(out, collection.doc(largest));
  for (size_t i = 0; i < collection.num_docs(); i += 5) {
    factors.clear();
    encoded.clear();
    out.clear();
    factorizer.Factorize(collection.doc(i), &factors);
    ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
    ASSERT_TRUE(coder.DecodeDoc(encoded, *dict, &out, &scratch).ok());
    ASSERT_EQ(out, collection.doc(i)) << "doc " << i;
  }
}

// ---------------------------------------------------------------------------
// Archive formats: the scratch-aware virtuals agree with the plain ones.

TEST(HotPathTest, EveryArchiveFormatServesIdenticalBytesWithScratch) {
  const Collection collection = TestCollection(1 << 18, 54);
  std::vector<std::unique_ptr<Archive>> archives;
  archives.push_back(std::make_unique<AsciiArchive>(collection));
  archives.push_back(std::make_unique<BlockedArchive>(
      collection, GetCompressor(CompressorId::kGzipx), 64 << 10));
  archives.push_back(
      SemiStaticArchive::Build(collection, SemiStaticScheme::kEtdc));
  RlzBuildOptions rlz_options;
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  archives.push_back(RlzArchive::Build(collection, std::move(dict)));
  ShardedStoreOptions store_options;
  store_options.num_shards = 3;
  archives.push_back(ShardedStore::Build(collection, store_options));

  for (const auto& archive : archives) {
    SCOPED_TRACE(archive->name());
    DecodeScratch scratch;
    std::string fresh;
    std::string reused;
    for (size_t i = 0; i < archive->num_docs(); ++i) {
      ASSERT_TRUE(archive->Get(i, &fresh).ok());
      ASSERT_TRUE(archive->Get(i, &reused, nullptr, &scratch).ok());
      ASSERT_EQ(fresh, collection.doc(i)) << "doc " << i;
      ASSERT_EQ(reused, fresh) << "doc " << i;
      std::string fresh_range;
      std::string reused_range;
      ASSERT_TRUE(archive->GetRange(i, 7, 64, &fresh_range).ok());
      ASSERT_TRUE(
          archive->GetRange(i, 7, 64, &reused_range, nullptr, &scratch).ok());
      ASSERT_EQ(reused_range, fresh_range) << "doc " << i;
    }
  }
}

// Zero-copy reopen: an archive loaded from disk aliases the file bytes
// instead of re-copying them; everything it serves must still match.
TEST(HotPathTest, ZeroCopyReopenServesIdenticalBytes) {
  const Collection collection = TestCollection(1 << 18, 55);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  const auto built = RlzArchive::Build(collection, std::move(dict));
  const std::string path =
      testing::TempDir() + "/hot_path_zero_copy.rlz";
  ASSERT_TRUE(built->Save(path).ok());
  OpenOptions options;
  options.build_suffix_array = false;
  auto loaded = RlzArchive::Load(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->payload_bytes(), built->payload_bytes());
  ASSERT_EQ((*loaded)->stored_bytes(), built->stored_bytes());
  DecodeScratch scratch;
  std::string doc;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    ASSERT_TRUE((*loaded)->Get(i, &doc, nullptr, &scratch).ok());
    ASSERT_EQ(doc, collection.doc(i)) << "doc " << i;
  }
}

// ---------------------------------------------------------------------------
// Allocation guards.

TEST(HotPathTest, DecodedDocumentSizeLimitRejectsCraftedStreams) {
  // A small dictionary and a factor list whose lengths sum past the
  // per-document limit: the decode must fail before sizing the output.
  const std::string text(1 << 20, 'a');
  Dictionary dict(text, /*build_suffix_array=*/false);
  std::vector<Factor> factors(
      2048, Factor{0, 1 << 20});  // 2 GiB claimed from 2048 factors
  std::string out;
  const Status direct = Factorizer::Decode(factors, dict, &out);
  EXPECT_FALSE(direct.ok());
  EXPECT_TRUE(out.empty());

  // The four fused pairs plus a non-fused extension pair, so both decode
  // paths enforce the limit.
  for (const PairCoding coding :
       {kUV, kZV, kZZ, kUZ, PairCoding{PosCoding::kU32, LenCoding::kPFD}}) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    std::string encoded;
    ASSERT_TRUE(coder.EncodeDoc(factors, &encoded).ok());
    std::string decoded;
    const Status status = coder.DecodeDoc(encoded, dict, &decoded);
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(decoded.empty());
  }
}

TEST(HotPathTest, ZStreamLimitsGuardAgainstFormatTruncation) {
  EXPECT_TRUE(FactorCoder::CheckZStreamLimits(0, 0).ok());
  EXPECT_TRUE(FactorCoder::CheckZStreamLimits(
                  FactorCoder::kMaxZStreamBytes - 1,
                  FactorCoder::kMaxZStreamBytes - 1)
                  .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(FactorCoder::kMaxZStreamBytes, 0)
          .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(0, FactorCoder::kMaxZStreamBytes)
          .ok());
  EXPECT_FALSE(
      FactorCoder::CheckZStreamLimits(1ull << 40, 1ull << 40).ok());
}

// The headline property of DESIGN.md §9, asserted rather than trusted:
// once a scratch (and the reused output buffer) have reached steady-state
// capacity, decoding performs zero heap allocations — for the fused pairs
// and the z-coded pairs alike. The global operator new above counts every
// allocation in the process; the measured section runs single-threaded.
TEST(HotPathTest, SteadyStateScratchDecodeIsAllocationFree) {
  const Collection collection = TestCollection(1 << 18, 56);
  auto dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 50, 1024);
  Factorizer factorizer(dict.get());
  for (const PairCoding coding : {kUV, kZV, kZZ, kUZ}) {
    SCOPED_TRACE(coding.name());
    const FactorCoder coder(coding);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      std::vector<Factor> factors;
      factorizer.Factorize(collection.doc(i), &factors);
      ASSERT_TRUE(coder.EncodeDoc(factors, &encoded[i]).ok());
    }
    DecodeScratch scratch;
    std::string out;
    // Two warm-up passes grow every buffer to its steady-state capacity.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < collection.num_docs(); ++i) {
        out.clear();
        ASSERT_TRUE(coder.DecodeDoc(encoded[i], *dict, &out, &scratch).ok());
      }
    }
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      out.clear();
      const Status status = coder.DecodeDoc(encoded[i], *dict, &out, &scratch);
      if (!status.ok()) FAIL() << status.ToString();
    }
    const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "steady-state decode allocated";
  }
}

// The serving-layer counterpart (DESIGN.md §10): once a ServeBatch's
// buffers are warm and the working set is cache-resident, the batched
// request path — SubmitBatch routing, per-worker queue rings, completion
// countdown, result delivery — performs zero heap allocations end to end.
// Worker threads run inside the measured window (Wait() bounds them), so
// a stray per-request allocation anywhere in the path fails the count.
TEST(HotPathTest, SteadyStateBatchedServingIsAllocationFree) {
  const Collection collection = TestCollection(1 << 17, 57);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions options;
  options.num_threads = 2;
  options.cache_bytes = 64 << 20;  // whole corpus stays resident
  DocService service(store.get(), options);

  std::vector<size_t> ids(48);
  Rng rng(4242);
  for (auto& id : ids) id = rng.Next() % collection.num_docs();
  ServeBatch batch;
  // Warm-up: populate the cache and grow the batch's buffers to capacity.
  for (int pass = 0; pass < 3; ++pass) {
    service.SubmitBatch(ids, &batch);
    for (const GetResult& r : batch.Wait()) ASSERT_TRUE(r.ok());
  }
  ASSERT_GE(service.Stats().cache.hits, ids.size());

  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    service.SubmitBatch(ids, &batch);
    const std::vector<GetResult>& results = batch.Wait();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!results[i].ok()) FAIL() << results[i].status.ToString();
    }
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state batched serving allocated";

  // The counted rounds really went through the full request path.
  service.Drain();
  EXPECT_EQ(service.Stats().requests, 13u * ids.size());
}

// ---------------------------------------------------------------------------
// Gzipx decode scratch.

TEST(HotPathTest, GzipxScratchDecompressIsByteIdentical) {
  const GzipxCompressor gz;
  GzipxDecodeScratch scratch;
  Rng rng(99);
  // A mix of shapes: empty, tiny, repetitive (match-heavy), random
  // (stored-block fallback), decoded through one reused scratch.
  std::vector<std::string> inputs;
  inputs.emplace_back();
  inputs.emplace_back("abc");
  inputs.emplace_back(std::string(100000, 'x'));
  std::string rep;
  for (int i = 0; i < 5000; ++i) rep += "the quick brown fox ";
  inputs.push_back(rep);
  std::string rnd(65536, '\0');
  for (auto& c : rnd) c = static_cast<char>(rng.Next() & 0xFF);
  inputs.push_back(rnd);

  for (const std::string& input : inputs) {
    std::string compressed;
    gz.Compress(input, &compressed);
    std::string fresh;
    std::string reused;
    ASSERT_TRUE(gz.Decompress(compressed, &fresh).ok());
    ASSERT_TRUE(gz.Decompress(compressed, &reused, &scratch).ok());
    ASSERT_EQ(fresh, input);
    ASSERT_EQ(reused, input);
  }
}

}  // namespace
}  // namespace rlz
