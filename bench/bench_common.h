#ifndef RLZ_BENCH_BENCH_COMMON_H_
#define RLZ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "store/archive.h"

namespace rlz {
namespace bench {

/// Scaled-down stand-ins for the paper's corpora (DESIGN.md §3/§4):
/// gov2s ~ 24 MB web crawl (GOV2 426 GB), wikis ~ 16 MB encyclopedia
/// (Wikipedia 256 GB). Override the scale with RLZ_BENCH_SCALE (e.g. 4.0
/// grows both 4x). Generated once per process and cached.
double BenchScale();
size_t Gov2Bytes();
size_t WikiBytes();

const Corpus& Gov2Crawl();
const Corpus& Gov2Url();
const Corpus& WikiCrawl();

/// Dictionary sizes standing in for the paper's 2.0 / 1.0 / 0.5 GB rows:
/// 2%, 1%, 0.5% of the collection (the paper's ratios are 0.47%/0.23%/0.12%
/// of 426 GB; at megabyte scale the ratio is doubled so absolute dictionary
/// sizes stay meaningful — see EXPERIMENTS.md "Scaling").
struct DictRow {
  const char* label;  // "2.0", "1.0", "0.5" (paper's GB labels)
  double fraction;    // of collection size
};
inline constexpr DictRow kDictRows[] = {
    {"2.0", 0.02}, {"1.0", 0.01}, {"0.5", 0.005}};

/// Paper block-size rows 0.0/0.1/0.2/0.5/1.0 MB, used verbatim: document
/// sizes are unscaled (18/45 KB averages as in the paper), so the
/// docs-per-block ratios match the paper exactly.
struct BlockRow {
  const char* label;  // paper MB label
  uint64_t bytes;     // 0 = one doc per block
};
inline constexpr BlockRow kBlockRows[] = {{"0.0", 0},
                                          {"0.1", 100 << 10},
                                          {"0.2", 200 << 10},
                                          {"0.5", 500 << 10},
                                          {"1.0", 1 << 20}};

/// The two access patterns of §4 "Method".
struct AccessPatterns {
  std::vector<uint32_t> sequential;
  std::vector<uint32_t> query_log;
};

/// Builds both patterns for `corpus`: a full sequential scan and a
/// BM25-ranked query-log pattern (top-20 per query, capped).
AccessPatterns MakePatterns(const Corpus& corpus);

/// One measured archive configuration (a row of Tables 4-9).
struct Measurement {
  double enc_pct = 0.0;       // stored bytes / collection bytes * 100
  double sequential_dps = 0;  // docs/sec in simulated wall time
  double query_log_dps = 0;
};

/// Replays both patterns against `archive`, charging reads to a fresh
/// SimDisk per pattern and adding measured CPU time (see DESIGN.md §4).
Measurement MeasureArchive(const Archive& archive,
                           const Collection& collection,
                           const AccessPatterns& patterns);

/// Hardware threads this process may run on: its CPU affinity mask, which
/// taskset or a container can narrow below hardware_concurrency().
unsigned UsableThreads();

/// A JSON object recording where a bench result was measured: host name,
/// usable CPUs (nproc, from UsableThreads), CPU model, compiler, build
/// type and commit.
/// `commit` is stamped as given; an empty one is read from
/// `git rev-parse HEAD` in the working directory, or "unknown".
std::string ProvenanceJson(const std::string& commit);

/// Table-row printing helpers (fixed-width, paper-like).
void PrintTableTitle(const std::string& title, const Collection& collection);
void PrintRlzHeader();
void PrintRlzRow(const char* dict_label, const std::string& coding,
                 const Measurement& m);
void PrintBaselineHeader();
void PrintBaselineRow(const std::string& alg, const char* block_label,
                      const Measurement& m);

/// Runs a full RLZ table (Tables 4/5/8): {2.0,1.0,0.5} dictionary rows x
/// {ZZ,ZV,UZ,UV} codings, one factorization pass per dictionary.
void RunRlzTable(const std::string& title, const Corpus& corpus);

/// Runs a full baseline table (Tables 6/7/9): ascii plus gzipx/lzmax at
/// every block-size row.
void RunBaselineTable(const std::string& title, const Corpus& corpus);

/// Runs a factor-statistics grid (Tables 2/3): dictionary size x sample
/// size -> average factor length and unused-dictionary percentage.
void RunFactorStatsTable(const std::string& title, const Corpus& corpus);

}  // namespace bench
}  // namespace rlz

#endif  // RLZ_BENCH_BENCH_COMMON_H_
