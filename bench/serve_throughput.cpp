// Serving-layer throughput sweep (DESIGN.md §6): threads x shards x cache
// size against query-log traffic, reporting docs/sec.
//
// Two throughput columns are printed per configuration:
//   wall    — requests / elapsed wall time on THIS host. Only meaningful
//             on a multi-core machine; on a 1-core CI container every
//             thread count collapses to the same number.
//   modeled — requests / critical-path service time, where each worker is
//             charged its own thread-CPU time plus its private SimDisk
//             time (one core + one spindle per worker). This is the same
//             simulated-wall-time doctrine as Tables 4-9 (DESIGN.md §4)
//             and is what EXPERIMENTS.md quotes for thread scaling.
//             Cache hits are answered at admission by the submitting
//             thread (DESIGN.md §14), which is charged as one more lane,
//             so the cached rows model the submitter, not a worker.
//
// A restart-cost table follows the sweep: every container format is saved
// to disk, reopened cold through OpenArchive, and timed (open latency plus
// the first Get) — the failover path of DESIGN.md §8. The rlz-family rows
// are measured both with the default open and the serving-only open
// (OpenOptions::build_suffix_array = false), which is what a restarting
// front-end uses.
//
//   ./build/bench/serve_throughput            (RLZ_BENCH_SCALE shrinks/grows)

#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_common.h"
#include "core/rlz.h"
#include "semistatic/semistatic_archive.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "store/ascii_archive.h"
#include "store/blocked_archive.h"
#include "store/open_archive.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// Query-log ids replayed enough times to give the pool real work.
std::vector<size_t> MakeRequests(const AccessPatterns& patterns,
                                 size_t min_requests) {
  std::vector<size_t> requests;
  requests.reserve(min_requests + patterns.query_log.size());
  while (requests.size() < min_requests) {
    for (uint32_t id : patterns.query_log) requests.push_back(id);
  }
  return requests;
}

struct SweepResult {
  double wall_dps = 0.0;
  double modeled_dps = 0.0;
  double hit_rate = 0.0;
};

SweepResult RunOne(const ShardedStore& store,
                   const std::vector<size_t>& requests, int threads,
                   uint64_t cache_bytes) {
  DocServiceOptions options;
  options.num_threads = threads;
  options.cache_bytes = cache_bytes;
  DocService service(&store, options);
  std::vector<std::future<GetResult>> futures;
  futures.reserve(requests.size());
  Timer wall;
  for (size_t id : requests) futures.push_back(service.Get(id));
  service.Drain();
  const double wall_seconds = wall.ElapsedSeconds();
  for (auto& f : futures) {
    const GetResult result = f.get();
    RLZ_CHECK(result.ok()) << result.status.ToString();
  }
  const ServiceStats stats = service.Stats();
  RLZ_CHECK_EQ(stats.requests, requests.size());
  SweepResult r;
  r.wall_dps = requests.size() / wall_seconds;
  r.modeled_dps = stats.critical_path_seconds > 0.0
                      ? requests.size() / stats.critical_path_seconds
                      : 0.0;
  r.hit_rate = stats.cache.hit_rate();
  return r;
}

// Saves `archive`, drops it, and times the cold reopen plus the first
// document fetch — the restart cost a serving process pays per format.
void ReportColdOpen(const char* label, const Archive& archive,
                    const std::filesystem::path& dir,
                    const OpenOptions& options) {
  const std::string path = (dir / label).string();
  RLZ_CHECK(archive.Save(path).ok()) << label;

  Timer open_timer;
  auto reopened = OpenArchive(path, options);
  const double open_ms = 1e3 * open_timer.ElapsedSeconds();
  RLZ_CHECK(reopened.ok()) << label << ": " << reopened.status().ToString();

  std::string doc;
  Timer get_timer;
  RLZ_CHECK((*reopened)->Get((*reopened)->num_docs() / 2, &doc).ok());
  const double get_us = 1e6 * get_timer.ElapsedSeconds();

  std::printf("%-18s %-14s %10.1f %14.1f\n", label,
              (*reopened)->name().c_str(), open_ms, get_us);
}

void RestartCost(const Collection& collection) {
  std::printf(
      "\nrestart cost (save -> cold OpenArchive -> first Get), %zu docs:\n",
      collection.num_docs());
  std::printf("%-18s %-14s %10s %14s\n", "file", "format", "open ms",
              "first-get us");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rlz_restart_cost";
  std::filesystem::create_directories(dir);

  OpenOptions with_sa;     // default: rebuild suffix arrays (build path)
  OpenOptions serving;     // serving-only reopen: no suffix arrays
  serving.build_suffix_array = false;

  ReportColdOpen("ascii", AsciiArchive(collection), dir, serving);
  ReportColdOpen(
      "blocked",
      BlockedArchive(collection, GetCompressor(CompressorId::kGzipx),
                     64 << 10),
      dir, serving);
  ReportColdOpen("semistatic",
                 *SemiStaticArchive::Build(collection, SemiStaticScheme::kEtdc),
                 dir, serving);

  RlzOptions rlz_options;
  rlz_options.dict_bytes = collection.size_bytes() / 100;
  const auto rlz = CompressCollection(collection, rlz_options);
  ReportColdOpen("rlz.sa", *rlz, dir, with_sa);
  ReportColdOpen("rlz.serve", *rlz, dir, serving);

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  const auto store = ShardedStore::Build(collection, store_options);
  ReportColdOpen("sharded.sa", *store, dir, with_sa);
  ReportColdOpen("sharded.serve", *store, dir, serving);

  std::filesystem::remove_all(dir);
}

void Run() {
  const Corpus& corpus = Gov2Crawl();
  const Collection& collection = corpus.collection;
  const AccessPatterns patterns = MakePatterns(corpus);
  const std::vector<size_t> requests = MakeRequests(patterns, 20000);

  std::printf("serve_throughput: %zu docs, %.1f MB, %zu query-log requests\n",
              collection.num_docs(),
              collection.size_bytes() / (1024.0 * 1024.0), requests.size());
  std::printf("%-7s %-8s %-9s %12s %14s %9s\n", "shards", "threads",
              "cache", "wall dps", "modeled dps", "hit%");

  const uint64_t cache_rows[] = {0, 16ull << 20};
  double modeled_1thread = 0.0;
  double modeled_4thread = 0.0;
  for (const int num_shards : {1, 4}) {
    ShardedStoreOptions store_options;
    store_options.num_shards = num_shards;
    store_options.dict_bytes = collection.size_bytes() / 100;
    const auto store = ShardedStore::Build(collection, store_options);
    for (const int threads : {1, 2, 4, 8}) {
      for (const uint64_t cache_bytes : cache_rows) {
        const SweepResult r = RunOne(*store, requests, threads, cache_bytes);
        char cache_label[16];
        std::snprintf(cache_label, sizeof(cache_label), "%lluM",
                      static_cast<unsigned long long>(cache_bytes >> 20));
        std::printf("%-7d %-8d %-9s %12.0f %14.0f %8.1f%%\n", num_shards,
                    threads, cache_bytes == 0 ? "off" : cache_label,
                    r.wall_dps, r.modeled_dps, 100.0 * r.hit_rate);
        if (num_shards == 4 && cache_bytes == 0) {
          if (threads == 1) modeled_1thread = r.modeled_dps;
          if (threads == 4) modeled_4thread = r.modeled_dps;
        }
      }
    }
  }
  if (modeled_1thread > 0.0) {
    std::printf("\n4-shard cache-off modeled scaling 1->4 threads: %.2fx\n",
                modeled_4thread / modeled_1thread);
  }

  RestartCost(collection);
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main() {
  rlz::bench::Run();
  return 0;
}
