#include "bench_common.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "core/rlz.h"
#include "search/inverted_index.h"
#include "search/query_log.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("RLZ_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

size_t Gov2Bytes() { return static_cast<size_t>(24.0 * BenchScale() * (1 << 20)); }
size_t WikiBytes() { return static_cast<size_t>(16.0 * BenchScale() * (1 << 20)); }

const Corpus& Gov2Crawl() {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.style = CorpusStyle::kWeb;
    options.target_bytes = Gov2Bytes();
    options.seed = 426;
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

const Corpus& Gov2Url() {
  static const Corpus* corpus = new Corpus(SortByUrl(Gov2Crawl()));
  return *corpus;
}

const Corpus& WikiCrawl() {
  static const Corpus* corpus = [] {
    CorpusOptions options;
    options.style = CorpusStyle::kWiki;
    options.target_bytes = WikiBytes();
    options.seed = 256;
    return new Corpus(GenerateCorpus(options));
  }();
  return *corpus;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string GitHead() {
  std::string head;
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) head += buf;
    pclose(pipe);
  }
  while (!head.empty() && (head.back() == '\n' || head.back() == '\r')) {
    head.pop_back();
  }
  return head.empty() ? "unknown" : head;
}

// Escapes the characters JSON strings cannot hold raw.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

unsigned UsableThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string ProvenanceJson(const std::string& commit) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
#ifdef NDEBUG
  const char* build = "optimized (NDEBUG)";
#else
  const char* build = "assertions on";
#endif
  return "{\"host\": \"" + JsonEscape(host) + "\", \"nproc\": " +
         std::to_string(UsableThreads()) +
         ", \"cpu_model\": \"" + JsonEscape(CpuModel()) +
         "\", \"compiler\": \"" + JsonEscape(compiler) +
         "\", \"build\": \"" + build + "\", \"commit\": \"" +
         JsonEscape(commit.empty() ? GitHead() : commit) + "\"}";
}

AccessPatterns MakePatterns(const Corpus& corpus) {
  AccessPatterns patterns;
  const size_t n = corpus.collection.num_docs();
  patterns.sequential = BuildSequentialPattern(n, n);

  const InvertedIndex index = InvertedIndex::Build(corpus.collection);
  QueryLogOptions qopts;
  qopts.num_queries = 400;
  qopts.top_k = 20;
  qopts.cap = 2000;
  qopts.seed = 20009;  // "topics 20,001-60,000" homage
  const auto queries = GenerateQueries(index, qopts);
  patterns.query_log = BuildQueryLogPattern(index, queries, qopts);
  RLZ_CHECK(!patterns.query_log.empty());
  return patterns;
}

namespace {

double ReplayPattern(const Archive& archive,
                     const std::vector<uint32_t>& pattern) {
  SimDisk disk;
  std::string doc;
  Timer timer;
  for (uint32_t id : pattern) {
    const Status s = archive.Get(id, &doc, &disk);
    RLZ_CHECK(s.ok()) << archive.name() << ": " << s.ToString();
  }
  const double cpu_seconds = timer.ElapsedSeconds();
  const double total = cpu_seconds + disk.total_seconds();
  return static_cast<double>(pattern.size()) / total;
}

}  // namespace

Measurement MeasureArchive(const Archive& archive,
                           const Collection& collection,
                           const AccessPatterns& patterns) {
  Measurement m;
  m.enc_pct = 100.0 * static_cast<double>(archive.stored_bytes()) /
              static_cast<double>(collection.size_bytes());
  m.sequential_dps = ReplayPattern(archive, patterns.sequential);
  m.query_log_dps = ReplayPattern(archive, patterns.query_log);
  return m;
}

void PrintTableTitle(const std::string& title, const Collection& collection) {
  std::printf("\n%s\n", title.c_str());
  std::printf("collection: %.1f MB, %zu docs, avg doc %.1f KB\n",
              collection.size_bytes() / 1048576.0, collection.num_docs(),
              collection.avg_doc_bytes() / 1024.0);
}

void PrintRlzHeader() {
  std::printf("%-10s %-8s %9s %12s %10s\n", "Size(GB~)", "Pos-Len", "Enc.(%)",
              "Sequential", "QueryLog");
}

void PrintRlzRow(const char* dict_label, const std::string& coding,
                 const Measurement& m) {
  std::printf("%-10s %-8s %9.2f %12.0f %10.0f\n", dict_label, coding.c_str(),
              m.enc_pct, m.sequential_dps, m.query_log_dps);
}

void PrintBaselineHeader() {
  std::printf("%-8s %-10s %9s %12s %10s\n", "Alg.", "Block(MB~)", "Enc.(%)",
              "Sequential", "QueryLog");
}

void PrintBaselineRow(const std::string& alg, const char* block_label,
                      const Measurement& m) {
  std::printf("%-8s %-10s %9.2f %12.0f %10.0f\n", alg.c_str(), block_label,
              m.enc_pct, m.sequential_dps, m.query_log_dps);
}

void RunRlzTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  const AccessPatterns patterns = MakePatterns(corpus);

  // Factorize once per dictionary; encode under each coding.
  struct DictData {
    std::shared_ptr<const Dictionary> dict;
    std::vector<std::vector<Factor>> factors;
  };
  std::vector<DictData> dicts;
  for (const DictRow& row : kDictRows) {
    DictData data;
    data.dict = DictionaryBuilder::BuildSampled(
        collection.data(),
        static_cast<size_t>(row.fraction * collection.size_bytes()), 1024);
    Factorizer factorizer(data.dict.get());
    data.factors.resize(collection.num_docs());
    for (size_t i = 0; i < collection.num_docs(); ++i) {
      factorizer.Factorize(collection.doc(i), &data.factors[i]);
    }
    dicts.push_back(std::move(data));
  }

  PrintRlzHeader();
  for (const PairCoding coding : {kZZ, kZV, kUZ, kUV}) {
    for (size_t d = 0; d < dicts.size(); ++d) {
      auto archive = RlzArchive::BuildFromFactors(dicts[d].dict,
                                                  dicts[d].factors, coding);
      const Measurement m = MeasureArchive(*archive, collection, patterns);
      PrintRlzRow(kDictRows[d].label, coding.name(), m);
    }
  }
}

void RunBaselineTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  const AccessPatterns patterns = MakePatterns(corpus);

  PrintBaselineHeader();
  {
    const AsciiArchive ascii(collection);
    PrintBaselineRow("ascii", "-", MeasureArchive(ascii, collection, patterns));
  }
  for (const CompressorId id : {CompressorId::kGzipx, CompressorId::kLzmax}) {
    const Compressor* compressor = GetCompressor(id);
    for (const BlockRow& row : kBlockRows) {
      const BlockedArchive archive(collection, compressor, row.bytes);
      PrintBaselineRow(compressor->name(), row.label,
                       MeasureArchive(archive, collection, patterns));
    }
  }
}

void RunFactorStatsTable(const std::string& title, const Corpus& corpus) {
  const Collection& collection = corpus.collection;
  PrintTableTitle(title, collection);
  std::printf("%-10s %-10s %10s %10s\n", "Size(GB~)", "Samp.(KB)", "Avg.Fact.",
              "Unused(%)");
  for (const DictRow& row : kDictRows) {
    for (const double sample_kb : {0.5, 1.0, 2.0, 5.0}) {
      auto dict = DictionaryBuilder::BuildSampled(
          collection.data(),
          static_cast<size_t>(row.fraction * collection.size_bytes()),
          static_cast<size_t>(sample_kb * 1024));
      Factorizer factorizer(dict.get(), /*track_coverage=*/true);
      std::vector<Factor> factors;
      for (size_t i = 0; i < collection.num_docs(); ++i) {
        factors.clear();
        factorizer.Factorize(collection.doc(i), &factors);
      }
      std::printf("%-10s %-10.1f %10.2f %10.2f\n", row.label, sample_kb,
                  factorizer.stats().avg_factor_length(),
                  100.0 * factorizer.UnusedFraction());
    }
  }
}

}  // namespace bench
}  // namespace rlz
