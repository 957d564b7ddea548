// Build-throughput sweep (DESIGN.md §7): threads x chunk-size against the
// synthetic web crawl, reporting encode MB/s and speedup vs the serial
// build.
//
// Two speed columns are printed per configuration:
//   wall MB/s — collection bytes / elapsed wall time on THIS host. Only
//               meaningful on a multi-core machine; on a 1-core CI
//               container every thread count collapses to the same number.
//   modeled   — serial build CPU / the busiest worker's thread-CPU time
//               (the pipeline's critical path). This is the speedup of a
//               machine with one core per worker — the simulated-wall-time
//               doctrine of DESIGN.md §4/§6 applied to the build path,
//               and what EXPERIMENTS.md quotes for build scaling.
//
// Every configuration is checked against the serial baseline (payload
// bytes and factor counts must match exactly; full byte-identity is
// property-tested in tests/build_test.cpp).
//
// First, one row per build stage for a single shard of a default
// 4-shard ShardedStore (a quarter of the corpus, with a dictionary of 1/32
// of the shard, the perfbench cold-pages ratio of 256 KB per 8 MB shard),
// serial: dictionary (sample + suffix array), factorize
// (Factorizer::Factorize) and Z-stream encode (FactorCoder::EncodeDoc with
// ZV), each the median of three runs in ms and as MB/s of shard text.
// These name the layer a build-speed change moved (EXPERIMENTS.md
// "Encode kernels").
//
//   ./build/bench/build_throughput            (RLZ_BENCH_SCALE shrinks/grows)
//   ./build/bench/build_throughput --smoke    (tiny corpus; CI smoke test)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dictionary.h"
#include "core/factor_coder.h"
#include "core/factorizer.h"
#include "core/rlz.h"
#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

struct BuildRun {
  double wall_mbps = 0.0;
  double modeled_speedup = 0.0;
  size_t chunks = 0;
  uint64_t payload_bytes = 0;
  uint64_t num_factors = 0;
};

BuildRun RunOne(const Collection& collection,
                const std::shared_ptr<const Dictionary>& dict, int threads,
                size_t chunk_docs, double serial_cpu_seconds) {
  RlzBuildOptions options;
  options.coding = kZV;
  options.num_threads = threads;
  options.chunk_docs = chunk_docs;
  RlzBuildInfo info;
  Timer wall;
  const auto archive = RlzArchive::Build(collection, dict, options, &info);
  const double wall_seconds = wall.ElapsedSeconds();
  BuildRun run;
  run.wall_mbps = collection.size_bytes() / (1024.0 * 1024.0) / wall_seconds;
  run.modeled_speedup =
      info.build_critical_path_seconds > 0.0
          ? serial_cpu_seconds / info.build_critical_path_seconds
          : 0.0;
  run.chunks = info.build_chunks;
  run.payload_bytes = archive->payload_bytes();
  run.num_factors = info.stats.num_factors;
  return run;
}

// Median of three timings of `stage`, in seconds.
template <typename Stage>
double MedianOfThree(Stage stage) {
  double seconds[3];
  for (double& s : seconds) {
    Timer timer;
    stage();
    s = timer.ElapsedSeconds();
  }
  std::sort(seconds, seconds + 3);
  return seconds[1];
}

// The per-stage rows for one shard: the first quarter of the collection's
// documents by bytes, encoded the way ShardedStore::EncodeShard does.
void PrintStageRows(const Collection& collection) {
  const ShardedStoreOptions store_defaults;
  const uint64_t target = collection.size_bytes() /
                          static_cast<uint64_t>(store_defaults.num_shards);
  size_t end = 0;
  while (end < collection.num_docs() && collection.doc_offset(end) < target) {
    ++end;
  }
  const std::string_view shard_text =
      collection.data().substr(0, collection.doc_offset(end));
  const size_t dict_bytes = std::max<size_t>(1, shard_text.size() / 32);
  const double shard_mb = shard_text.size() / (1024.0 * 1024.0);

  std::unique_ptr<Dictionary> dict;
  const double dict_s = MedianOfThree([&] {
    dict = DictionaryBuilder::BuildSampled(shard_text, dict_bytes,
                                           store_defaults.sample_bytes);
  });
  std::vector<std::vector<Factor>> factors(end);
  const double factorize_s = MedianOfThree([&] {
    Factorizer factorizer(dict.get(), /*track_coverage=*/true);
    for (size_t i = 0; i < end; ++i) {
      factors[i].clear();
      factorizer.Factorize(collection.doc(i), &factors[i]);
    }
  });
  size_t num_factors = 0;
  for (const auto& f : factors) num_factors += f.size();
  const FactorCoder coder(kZV);
  std::string encoded;
  const double encode_s = MedianOfThree([&] {
    encoded.clear();
    for (size_t i = 0; i < end; ++i) {
      RLZ_CHECK(coder.EncodeDoc(factors[i], &encoded).ok());
    }
  });

  std::printf("one shard: %zu docs, %.1f MB, dict %zu KB, %zu factors, "
              "ZV %.1f KB (median of 3, serial)\n",
              end, shard_mb, dict_bytes / 1024, num_factors,
              encoded.size() / 1024.0);
  std::printf("%-16s %10s %10s\n", "stage", "ms", "MB/s");
  const struct {
    const char* name;
    double seconds;
  } rows[] = {{"dictionary", dict_s},
              {"factorize", factorize_s},
              {"z-stream encode", encode_s}};
  for (const auto& row : rows) {
    std::printf("%-16s %10.1f %10.1f\n", row.name, row.seconds * 1e3,
                shard_mb / row.seconds);
  }
  std::printf("\n");
}

int Run(bool smoke) {
  Collection smoke_collection;
  const Collection* collection = nullptr;
  if (smoke) {
    CorpusOptions options;
    options.target_bytes = 2 << 20;
    options.seed = 20110613;
    smoke_collection = GenerateCorpus(options).collection;
    collection = &smoke_collection;
  } else {
    collection = &Gov2Crawl().collection;
  }

  std::printf("build_throughput%s: %zu docs, %.1f MB, ZV, dict 1%%\n",
              smoke ? " (smoke)" : "", collection->num_docs(),
              collection->size_bytes() / (1024.0 * 1024.0));
  PrintStageRows(*collection);

  const std::shared_ptr<const Dictionary> dict =
      DictionaryBuilder::BuildSampled(collection->data(),
                                      collection->size_bytes() / 100, 1024);

  // Serial baseline: its CPU time is the numerator of every modeled
  // speedup, and its stats are the identity reference.
  RlzBuildOptions serial_options;
  serial_options.coding = kZV;
  Timer serial_wall;
  RlzBuildInfo serial_info;
  auto serial_archive =
      RlzArchive::Build(*collection, dict, serial_options, &serial_info);
  const double serial_seconds = serial_wall.ElapsedSeconds();
  const double serial_cpu = serial_info.build_cpu_seconds;
  const uint64_t serial_payload = serial_archive->payload_bytes();
  serial_archive.reset();
  std::printf("serial baseline: %.2fs wall, %.2fs cpu, %.1f MB/s\n\n",
              serial_seconds, serial_cpu,
              collection->size_bytes() / (1024.0 * 1024.0) / serial_seconds);
  std::printf("%-8s %-11s %8s %12s %10s %10s\n", "threads", "chunk_docs",
              "chunks", "wall MB/s", "modeled", "payload=");

  const int thread_rows_full[] = {1, 2, 4, 8};
  const int thread_rows_smoke[] = {1, 2, 4};
  // Smoke corpora have ~100 docs, so the smoke chunk must be small enough
  // to give every worker several chunks.
  const size_t chunk_rows_full[] = {16, 64, 256};
  const size_t chunk_rows_smoke[] = {8};
  const int* thread_rows = smoke ? thread_rows_smoke : thread_rows_full;
  const size_t num_thread_rows = smoke ? 3 : 4;
  const size_t* chunk_rows = smoke ? chunk_rows_smoke : chunk_rows_full;
  const size_t num_chunk_rows = smoke ? 1 : 3;

  double speedup_at_4 = 0.0;
  bool all_identical = true;
  for (size_t t = 0; t < num_thread_rows; ++t) {
    for (size_t c = 0; c < num_chunk_rows; ++c) {
      const BuildRun run = RunOne(*collection, dict, thread_rows[t],
                                  chunk_rows[c], serial_cpu);
      const bool identical = run.payload_bytes == serial_payload &&
                             run.num_factors == serial_info.stats.num_factors;
      all_identical = all_identical && identical;
      std::printf("%-8d %-11zu %8zu %12.1f %9.2fx %10s\n", thread_rows[t],
                  chunk_rows[c], run.chunks, run.wall_mbps,
                  run.modeled_speedup, identical ? "yes" : "NO");
      if (thread_rows[t] == 4 && chunk_rows[c] == (smoke ? 8u : 64u)) {
        speedup_at_4 = run.modeled_speedup;
      }
    }
  }

  std::printf("\nmodeled speedup at 4 threads (chunk %u): %.2fx\n",
              smoke ? 8u : 64u, speedup_at_4);
  RLZ_CHECK(all_identical) << "a parallel build diverged from serial";
  if (speedup_at_4 < 2.5) {
    std::printf("WARNING: modeled 4-thread speedup below 2.5x\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return rlz::bench::Run(smoke);
}
