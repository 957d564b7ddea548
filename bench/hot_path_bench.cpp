// Serving hot-path benchmark (DESIGN.md §9): measures decode throughput
// (MB/s, docs/s, p50/p99 per-document latency) for three decode
// configurations —
//
//   legacy  — a faithful replica of the pre-scratch decode path: fresh
//             position/length vectors and inflate buffer per call, then
//             per-factor append expansion with geometric output growth.
//             This is the "before" of the perf trajectory and the
//             fresh-allocation baseline of the smoke gate.
//   fresh   — the current decoder without scratch: per-call stream
//             buffers, but exact-size output + memcpy expansion.
//   scratch — the current decoder with a reused DecodeScratch: the
//             serving configuration (zero decode-side allocations).
//
// All three run over the same per-document encoded factor streams, so the
// comparison isolates the decode kernel. The range rows then time, for
// each of the paper's four pairs, a cache-miss decode (reused scratch, no
// decode cache) of a random 400-byte window, of the first 400 bytes, and
// of the whole document, over the same documents. The bench also reports
// factorize throughput. Results are printed and written as
// machine-readable JSON (default BENCH_hot_path.json in the working
// directory, stamped with host, nproc, CPU model, compiler and commit) so
// the repo's perf trajectory is recorded and regression-gated. Serving
// throughput through DocService is serve_load_bench's job.
//
//   ./build/bench/hot_path_bench                full run
//   ./build/bench/hot_path_bench --smoke       small corpus + two gates,
//         exit 1 if either fails (run by the perf-smoke CI job):
//         on the UV pair (where decode is allocation-bound; ZV is
//         entropy-coder-bound) the scratch path must beat the
//         fresh-allocation (legacy) baseline by kSmokeMinRatio on decode
//         MB/s, and a ZV random-window decode must cost at most
//         kMaxRangeToWholeRatio of a whole-document decode (p50)
//   ./build/bench/hot_path_bench --out FILE    JSON destination
//   ./build/bench/hot_path_bench --commit SHA  commit to stamp (default:
//         git rev-parse HEAD in the working directory)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "bench_common.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gate: reused-scratch decode must beat the
// fresh-allocation (legacy) baseline by at least this factor on the UV
// pair. UV is the paper's fastest-decode coding and the configuration
// where decode is allocation-bound, so it is what the gate protects; ZV
// decode is dominated by the gzipx entropy coder (which both paths share)
// and is reported ungated.
constexpr double kSmokeMinRatio = 1.5;

// The range gate: on ZV, the p50 cache-miss decode of a random 400-byte
// window must cost at most this fraction of the p50 whole-document decode
// of the same documents — a range read pays only for its range
// (DESIGN.md §9).
constexpr double kMaxRangeToWholeRatio = 0.7;

// Window length of the range rows (perfbench's snippet size).
constexpr size_t kRangeBytes = 400;

// Faithful replica of the pre-scratch FactorCoder::DecodeDoc: decode the
// factor streams with fresh per-call buffers (DecodeFactors), then expand
// with per-factor appends and no output reservation. Kept here (not in
// the library) purely as the benchmark baseline.
Status LegacyDecodeDoc(const FactorCoder& coder, std::string_view in,
                       const Dictionary& dict, std::string* text) {
  std::vector<Factor> factors;
  RLZ_RETURN_IF_ERROR(coder.DecodeFactors(in, &factors, nullptr));
  const std::string_view d = dict.text();
  for (const Factor& f : factors) {
    if (f.len == 0) {
      if (f.pos > 0xFF) return Status::Corruption("literal out of range");
      text->push_back(static_cast<char>(f.pos));
    } else {
      if (static_cast<size_t>(f.pos) + f.len > d.size()) {
        return Status::Corruption("factor outside dictionary");
      }
      text->append(d.substr(f.pos, f.len));
    }
  }
  return Status::OK();
}

enum class DecodeMode { kLegacy, kFresh, kScratch };

struct DecodeResult {
  double mb_per_s = 0.0;
  double docs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Runs `repeats` full decode passes over the encoded documents in one
// configuration; throughput is best-of-repeats (the standard microbench
// convention), latency percentiles come from the last pass. Every decoded
// document is byte-compared against the source collection.
DecodeResult RunDecodePass(const FactorCoder& coder, const Dictionary& dict,
                           const std::vector<std::string>& encoded,
                           const Collection& collection, DecodeMode mode,
                           int repeats) {
  const size_t n = encoded.size();
  DecodeScratch scratch;
  std::vector<double> latencies_us(n);
  double best_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer pass;
    for (size_t i = 0; i < n; ++i) {
      Timer one;
      std::string doc;  // serving allocates the output per request
      Status status;
      switch (mode) {
        case DecodeMode::kLegacy:
          status = LegacyDecodeDoc(coder, encoded[i], dict, &doc);
          break;
        case DecodeMode::kFresh:
          status = coder.DecodeDoc(encoded[i], dict, &doc);
          break;
        case DecodeMode::kScratch:
          status = coder.DecodeDoc(encoded[i], dict, &doc, &scratch);
          break;
      }
      latencies_us[i] = 1e6 * one.ElapsedSeconds();
      RLZ_CHECK(status.ok()) << status.ToString();
      RLZ_CHECK(doc == collection.doc(i)) << "decode mismatch at doc " << i;
    }
    const double seconds = pass.ElapsedSeconds();
    if (best_seconds == 0.0 || seconds < best_seconds) best_seconds = seconds;
  }
  DecodeResult result;
  result.mb_per_s =
      collection.size_bytes() / (1024.0 * 1024.0) / best_seconds;
  result.docs_per_s = static_cast<double>(n) / best_seconds;
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = latencies_us[n / 2];
  result.p99_us = latencies_us[std::min(n - 1, n * 99 / 100)];
  return result;
}

enum class Window { kWhole, kRandom, kFirst };

struct LatencyResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Times one cache-miss decode per document per repeat — the whole
// document, a random kRangeBytes window, or the first kRangeBytes — with
// a reused scratch, and returns p50/p99 over every sample. The random
// windows come from a fixed seed, so every pair decodes the same windows.
// Every result is byte-compared against the source collection.
LatencyResult RunWindowPass(const FactorCoder& coder, const Dictionary& dict,
                            const std::vector<std::string>& encoded,
                            const Collection& collection, Window window,
                            int repeats) {
  const size_t n = encoded.size();
  std::vector<size_t> offsets(n, 0);
  if (window == Window::kRandom) {
    Rng rng(0x5eed400);
    for (size_t i = 0; i < n; ++i) {
      const size_t size = collection.doc_size(i);
      offsets[i] = size > kRangeBytes ? rng.Uniform(size - kRangeBytes + 1)
                                      : 0;
    }
  }
  DecodeScratch scratch;
  std::vector<double> latencies_us;
  latencies_us.reserve(n * repeats);
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < n; ++i) {
      std::string out;  // serving allocates the output per request
      Timer one;
      const Status status =
          window == Window::kWhole
              ? coder.DecodeDoc(encoded[i], dict, &out, &scratch)
              : coder.DecodeRange(encoded[i], dict, offsets[i], kRangeBytes,
                                  &out, &scratch);
      latencies_us.push_back(1e6 * one.ElapsedSeconds());
      RLZ_CHECK(status.ok()) << status.ToString();
      const std::string_view doc = collection.doc(i);
      RLZ_CHECK(out == (window == Window::kWhole
                            ? doc
                            : doc.substr(offsets[i], kRangeBytes)))
          << "window decode mismatch at doc " << i;
    }
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t m = latencies_us.size();
  return LatencyResult{latencies_us[m / 2],
                       latencies_us[std::min(m - 1, m * 99 / 100)]};
}

void AppendJsonLatency(const char* name, const LatencyResult& r,
                       std::string* out) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"p50_us\": %.2f, \"p99_us\": %.2f}", name,
                r.p50_us, r.p99_us);
  out->append(buf);
}

void AppendJsonDecode(const char* name, const DecodeResult& r,
                      std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "      \"%s\": {\"mb_per_s\": %.1f, \"docs_per_s\": %.0f, "
                "\"p50_us\": %.2f, \"p99_us\": %.2f}",
                name, r.mb_per_s, r.docs_per_s, r.p50_us, r.p99_us);
  out->append(buf);
}

bool Run(bool smoke, const std::string& out_path,
         const std::string& commit) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;
  const double corpus_mb = collection.size_bytes() / (1024.0 * 1024.0);
  const int repeats = smoke ? 3 : 5;

  std::printf("hot_path_bench (%s): %zu docs, %.1f MB\n",
              smoke ? "smoke" : "full", collection.num_docs(), corpus_mb);

  // Dictionary + one factorization pass, shared by every coding (also the
  // factorize-throughput measurement).
  std::shared_ptr<const Dictionary> dict = DictionaryBuilder::BuildSampled(
      collection.data(), collection.size_bytes() / 100, 1024);
  Factorizer factorizer(dict.get());
  std::vector<std::vector<Factor>> docs(collection.num_docs());
  Timer factorize_timer;
  for (size_t i = 0; i < collection.num_docs(); ++i) {
    factorizer.Factorize(collection.doc(i), &docs[i]);
  }
  const double factorize_seconds = factorize_timer.ElapsedSeconds();
  const double factorize_mb_per_s = corpus_mb / factorize_seconds;
  std::printf("factorize: %.1f MB/s (%.2fs, avg factor %.1f)\n",
              factorize_mb_per_s, factorize_seconds,
              factorizer.stats().avg_factor_length());

  std::string json;
  json.append("{\n  \"bench\": \"hot_path\",\n");
  json.append(smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n");
  json.append("  \"provenance\": " + ProvenanceJson(commit) + ",\n");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"corpus\": {\"docs\": %zu, \"bytes\": %llu, "
                "\"dict_bytes\": %zu, \"seed\": %llu},\n",
                collection.num_docs(),
                static_cast<unsigned long long>(collection.size_bytes()),
                dict->size(),
                static_cast<unsigned long long>(corpus_options.seed));
  json.append(buf);
  std::snprintf(buf, sizeof(buf),
                "  \"factorize\": {\"mb_per_s\": %.1f, \"seconds\": %.3f},\n",
                factorize_mb_per_s, factorize_seconds);
  json.append(buf);
  // The one-time "before" record: the real pre-scratch FactorCoder
  // measured from a pristine build of commit d02bb1b on the reference
  // host (full 16 MB corpus). Emitted as constants so regenerating the
  // checked-in BENCH_hot_path.json cannot lose the trajectory's origin;
  // the re-measurable stand-in on the current host is
  // decode.*.legacy_baseline.
  json.append(
      "  \"pre_pr_baseline\": {\n"
      "    \"comment\": \"Measured once at PR 5 from a pristine build of "
      "commit d02bb1b (the pre-PR tree) on the reference host, full 16 MB "
      "corpus, via the real pre-PR FactorCoder::DecodeDoc. Constants "
      "emitted by hot_path_bench; the re-measurable stand-in is "
      "decode.*.legacy_baseline.\",\n"
      "    \"factorize_mb_per_s\": 50.7,\n"
      "    \"decode\": {\n"
      "      \"ZV\": {\"mb_per_s\": 445.1, \"docs_per_s\": 24840, "
      "\"p50_us\": 36.78, \"p99_us\": 77.11},\n"
      "      \"UV\": {\"mb_per_s\": 1536.2, \"docs_per_s\": 85731, "
      "\"p50_us\": 9.72, \"p99_us\": 25.77}\n"
      "    }\n"
      "  },\n");
  json.append("  \"decode\": {\n");

  // The decode sweep: the paper's recommended pair (ZV) and the
  // fastest-decode pair (UV), legacy vs fresh vs scratch.
  double gate_ratio = 0.0;  // UV scratch vs legacy (see kSmokeMinRatio)
  const PairCoding codings[] = {kZV, kUV};
  std::printf("\n%-7s %-8s %10s %12s %9s %9s %8s\n", "coding", "path",
              "MB/s", "docs/s", "p50 us", "p99 us", "vs base");
  for (size_t c = 0; c < 2; ++c) {
    const FactorCoder coder(codings[c]);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      RLZ_CHECK(coder.EncodeDoc(docs[i], &encoded[i]).ok());
    }
    const DecodeResult legacy = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kLegacy, repeats);
    const DecodeResult fresh = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kFresh, repeats);
    const DecodeResult scratch = RunDecodePass(
        coder, *dict, encoded, collection, DecodeMode::kScratch, repeats);
    const double vs_legacy = scratch.mb_per_s / legacy.mb_per_s;
    const double fresh_vs_legacy = fresh.mb_per_s / legacy.mb_per_s;
    const std::string name = coder.coding().name();
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %8s\n", name.c_str(),
                "legacy", legacy.mb_per_s, legacy.docs_per_s, legacy.p50_us,
                legacy.p99_us, "1.00x");
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %7.2fx\n", name.c_str(),
                "fresh", fresh.mb_per_s, fresh.docs_per_s, fresh.p50_us,
                fresh.p99_us, fresh_vs_legacy);
    std::printf("%-7s %-8s %10.1f %12.0f %9.2f %9.2f %7.2fx\n", name.c_str(),
                "scratch", scratch.mb_per_s, scratch.docs_per_s,
                scratch.p50_us, scratch.p99_us, vs_legacy);

    json.append("    \"" + name + "\": {\n");
    AppendJsonDecode("legacy_baseline", legacy, &json);
    json.append(",\n");
    AppendJsonDecode("fresh", fresh, &json);
    json.append(",\n");
    AppendJsonDecode("scratch", scratch, &json);
    json.append(",\n");
    std::snprintf(buf, sizeof(buf),
                  "      \"scratch_vs_legacy\": %.2f,\n"
                  "      \"fresh_vs_legacy\": %.2f\n    }%s\n",
                  vs_legacy, fresh_vs_legacy, c + 1 < 2 ? "," : "");
    json.append(buf);

    if (name == "UV") gate_ratio = vs_legacy;
  }
  json.append("  },\n");

  // Range rows: every paper pair, cache-miss decode of a random window,
  // the first window, and the whole document, over the same documents.
  double range_gate_ratio = 0.0;  // ZV random / whole, gated
  std::printf("\n%-7s %12s %12s %12s %12s %12s %9s   (%zu B windows)\n",
              "coding", "whole p50", "random p50", "random p99", "first p50",
              "first p99", "rnd/whole", kRangeBytes);
  json.append("  \"range\": {\n");
  std::snprintf(buf, sizeof(buf), "    \"window_bytes\": %zu,\n",
                kRangeBytes);
  json.append(buf);
  const PairCoding paper_pairs[] = {kZZ, kZV, kUZ, kUV};
  for (size_t c = 0; c < 4; ++c) {
    const FactorCoder coder(paper_pairs[c]);
    std::vector<std::string> encoded(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      RLZ_CHECK(coder.EncodeDoc(docs[i], &encoded[i]).ok());
    }
    const LatencyResult whole = RunWindowPass(
        coder, *dict, encoded, collection, Window::kWhole, repeats);
    const LatencyResult random = RunWindowPass(
        coder, *dict, encoded, collection, Window::kRandom, repeats);
    const LatencyResult first = RunWindowPass(
        coder, *dict, encoded, collection, Window::kFirst, repeats);
    const double ratio = random.p50_us / whole.p50_us;
    const std::string name = coder.coding().name();
    std::printf("%-7s %12.2f %12.2f %12.2f %12.2f %12.2f %9.2f\n",
                name.c_str(), whole.p50_us, random.p50_us, random.p99_us,
                first.p50_us, first.p99_us, ratio);
    json.append("    \"" + name + "\": {");
    AppendJsonLatency("whole", whole, &json);
    json.append(", ");
    AppendJsonLatency("random", random, &json);
    json.append(", ");
    AppendJsonLatency("first", first, &json);
    std::snprintf(buf, sizeof(buf), ", \"random_to_whole\": %.3f}%s\n",
                  ratio, c + 1 < 4 ? "," : "");
    json.append(buf);
    if (name == "ZV") range_gate_ratio = ratio;
  }
  json.append("  },\n");

  const bool gate_pass = gate_ratio >= kSmokeMinRatio;
  std::snprintf(buf, sizeof(buf),
                "  \"gate\": {\"coding\": \"UV\", "
                "\"min_ratio_required\": %.2f, "
                "\"scratch_vs_legacy\": %.2f, \"pass\": %s},\n",
                kSmokeMinRatio, gate_ratio, gate_pass ? "true" : "false");
  json.append(buf);
  const bool range_gate_pass = range_gate_ratio <= kMaxRangeToWholeRatio;
  std::snprintf(buf, sizeof(buf),
                "  \"range_gate\": {\"coding\": \"ZV\", "
                "\"max_random_to_whole\": %.2f, "
                "\"random_to_whole\": %.3f, \"pass\": %s}\n}\n",
                kMaxRangeToWholeRatio, range_gate_ratio,
                range_gate_pass ? "true" : "false");
  json.append(buf);

  const Status write_status = WriteFile(out_path, json);
  RLZ_CHECK(write_status.ok()) << write_status.ToString();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!smoke) return true;
  std::printf("smoke gate: UV scratch >= %.2fx legacy: %s (%.2fx)\n",
              kSmokeMinRatio, gate_pass ? "PASS" : "FAIL", gate_ratio);
  std::printf("smoke gate: ZV random %zu B window <= %.2fx whole document "
              "(p50): %s (%.3fx)\n",
              kRangeBytes, kMaxRangeToWholeRatio,
              range_gate_pass ? "PASS" : "FAIL", range_gate_ratio);
  return gate_pass && range_gate_pass;
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hot_path.json";
  std::string commit;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--commit") == 0 && i + 1 < argc) {
      commit = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out FILE] [--commit SHA]\n",
                   argv[0]);
      return 2;
    }
  }
  return rlz::bench::Run(smoke, out_path, commit) ? 0 : 1;
}
