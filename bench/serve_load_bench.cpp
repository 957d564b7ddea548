// Closed-loop serving load bench (DESIGN.md §10): N producer threads, each
// keeping K requests in flight through DocService::SubmitBatch over a
// 4-shard ShardedStore (rlz-ZV, cache off, so every request decodes), under
// uniform and Zipfian(theta=0.99) document popularity. Reports wall-clock
// docs/s plus p50/p99/p999 request latency per row, and writes
// machine-readable JSON (default BENCH_serve.json) stamped with the host's
// provenance.
//
// Throughput is wall clock only (DESIGN.md §10): the gates compare
// 4-worker against 1-worker rows, which needs a host that can run four
// workers at once. --smoke therefore refuses (exit 1, with the reason)
// when the process may run on fewer than 4 hardware threads (its CPU
// affinity, so taskset and container limits count) rather than gate on
// numbers that cannot show scaling.
//
// Ingest mode (--ingest) measures the live-corpus story instead
// (DESIGN.md §11): Zipfian readers through DocService while a writer
// thread Appends fresh documents into the store's open tail (sealing into
// new shards as it crosses the seal threshold). The row pair is read-only
// vs mixed; the gate asserts that sustained ingest costs at most 30% of
// read throughput (median read docs/s under ingest >= kMinReadRetention x
// the median read-only baseline, kIngestGateRuns runs each). Writes
// BENCH_ingest.json.
//
//   ./build/bench/serve_load_bench              full run
//   ./build/bench/serve_load_bench --smoke      small corpus + gate:
//         4-worker docs/s must be >= kMinScaleRatio x 1-worker docs/s on
//         the uniform rows (best of kGateRepeats measurements each), else
//         exit 1 (run by the perf-smoke CI job)
//   ./build/bench/serve_load_bench --ingest     mixed read/append mode
//         (with --smoke: small corpus + the read-retention gate; default
//         output BENCH_ingest.json)
//   ./build/bench/serve_load_bench --ingest-fraction F   appends per read
//         request issued in mixed mode (default 0.10)
//   ./build/bench/serve_load_bench --out FILE   JSON destination
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gate: 4 workers must beat 1 worker by this factor on
// wall docs/s (uniform skew).
constexpr double kMinScaleRatio = 2.5;
// Gated scaling rows are measured this many times; the best run gates
// (absorbs scheduler noise on shared CI runners).
constexpr int kGateRepeats = 2;
// The ingest gate compares the medians of this many ~1 s runs per row
// (EXPERIMENTS.md "Encode kernels" reports how often it still fails).
constexpr int kIngestGateRuns = 5;
// In-flight window per producer (the K of the closed loop).
constexpr size_t kInFlight = 64;
constexpr double kZipfTheta = 0.99;
// Ingest-mode gate: read wall docs/s under mixed read/append load must
// retain at least this fraction of the read-only baseline.
constexpr double kMinReadRetention = 0.70;
// Hardware threads the gated 4-worker rows need to run 4-wide.
constexpr unsigned kMinGateThreads = 4;

struct LoadResult {
  double wall_dps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t steals = 0;
  uint64_t requests = 0;
};

// One closed-loop run: `producers` threads, each submitting kInFlight-id
// batches and waiting for completion, until `total_rounds` batches have
// been issued service-wide. Document ids are uniform or Zipfian(theta)
// ranks over the collection, drawn from per-producer generators.
LoadResult RunLoad(const Archive& archive, int workers, int producers,
                   bool zipfian, size_t total_rounds) {
  DocServiceOptions options;
  options.num_threads = workers;
  options.cache_bytes = 0;  // every request decodes
  LoadResult result;
  const size_t ndocs = archive.num_docs();
  const ZipfSampler zipf(ndocs, kZipfTheta);
  {
    DocService service(&archive, options);
    std::atomic<size_t> rounds{0};
    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(0x5eed5eed + 977 * static_cast<uint64_t>(p));
        std::vector<size_t> ids(kInFlight);
        ServeBatch batch;
        while (rounds.fetch_add(1) < total_rounds) {
          for (size_t i = 0; i < kInFlight; ++i) {
            ids[i] = zipfian ? zipf.Sample(rng)
                             : static_cast<size_t>(rng.Uniform(ndocs));
          }
          service.SubmitBatch(ids, &batch);
          for (const GetResult& r : batch.Wait()) {
            RLZ_CHECK(r.ok()) << r.status.ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    service.Drain();
    const double wall_seconds = wall.ElapsedSeconds();
    const ServiceStats stats = service.Stats();
    result.requests = stats.requests;
    result.wall_dps = stats.requests / wall_seconds;
    result.p50_us = stats.latency_p50_us;
    result.p99_us = stats.latency_p99_us;
    result.p999_us = stats.latency_p999_us;
    result.steals = stats.steals;
  }
  return result;
}

// What the ingest writer accomplished during one mixed run.
struct IngestStats {
  uint64_t docs = 0;
  uint64_t bytes = 0;
  double mb_per_s = 0.0;
};

// One mixed read/append run: `producers` reader threads drive the same
// closed Zipfian loop as RunLoad over the store's *initial* `read_docs`
// documents, while a single writer thread Appends documents from `fresh`
// into the open tail, paced so the store has absorbed ~`fraction` appends
// per completed read request (the configurable ingest fraction). The
// writer cycles through `fresh` if readers outlast it, and stops when the
// readers finish. Read throughput/latency land in the returned
// LoadResult; writer volume and MB/s land in `ingest`.
LoadResult RunMixed(ShardedStore* store, int workers, int producers,
                    size_t read_docs, size_t total_rounds,
                    const Collection& fresh, double fraction,
                    IngestStats* ingest) {
  DocServiceOptions options;
  options.num_threads = workers;
  options.cache_bytes = 0;  // every request decodes
  LoadResult result;
  const ZipfSampler zipf(read_docs, kZipfTheta);
  {
    DocService service(store, options);
    std::atomic<size_t> rounds{0};
    std::atomic<size_t> rounds_done{0};
    std::atomic<bool> readers_done{false};
    Timer wall;
    std::thread writer([&] {
      Timer ingest_wall;
      size_t next = 0;
      uint64_t appended = 0;
      uint64_t bytes = 0;
      while (!readers_done.load(std::memory_order_acquire)) {
        const uint64_t budget = static_cast<uint64_t>(
            fraction *
            static_cast<double>(
                rounds_done.load(std::memory_order_relaxed) * kInFlight));
        if (appended >= budget) {
          std::this_thread::yield();
          continue;
        }
        const std::string_view doc = fresh.doc(next);
        next = (next + 1) % fresh.num_docs();
        const auto id = store->Append(doc);
        RLZ_CHECK(id.ok()) << id.status().ToString();
        ++appended;
        bytes += doc.size();
      }
      const double seconds = ingest_wall.ElapsedSeconds();
      ingest->docs = appended;
      ingest->bytes = bytes;
      ingest->mb_per_s =
          seconds > 0 ? bytes / (1048576.0 * seconds) : 0.0;
    });
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        Rng rng(0x1275e5ed + 977 * static_cast<uint64_t>(p));
        std::vector<size_t> ids(kInFlight);
        ServeBatch batch;
        while (rounds.fetch_add(1) < total_rounds) {
          for (size_t i = 0; i < kInFlight; ++i) ids[i] = zipf.Sample(rng);
          service.SubmitBatch(ids, &batch);
          for (const GetResult& r : batch.Wait()) {
            RLZ_CHECK(r.ok()) << r.status.ToString();
          }
          rounds_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    readers_done.store(true, std::memory_order_release);
    writer.join();
    service.Drain();
    const double wall_seconds = wall.ElapsedSeconds();
    const ServiceStats stats = service.Stats();
    result.requests = stats.requests;
    result.wall_dps = stats.requests / wall_seconds;
    result.p50_us = stats.latency_p50_us;
    result.p99_us = stats.latency_p99_us;
    result.p999_us = stats.latency_p999_us;
    result.steals = stats.steals;
  }
  return result;
}

void AppendJsonRow(int workers, int producers, const char* skew,
                   const LoadResult& r, bool last, std::string* json) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"workers\": %d, \"producers\": %d, \"skew\": \"%s\", "
      "\"requests\": %llu, \"wall_dps\": %.0f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
      "\"steals\": %llu}%s\n",
      workers, producers, skew,
      static_cast<unsigned long long>(r.requests), r.wall_dps, r.p50_us,
      r.p99_us, r.p999_us,
      static_cast<unsigned long long>(r.steals), last ? "" : ",");
  json->append(buf);
}

void PrintRow(int workers, int producers, const char* skew,
              const LoadResult& r) {
  std::printf("%-8d %-10d %-8s %12.0f %9.1f %9.1f %9.1f %8llu\n",
              workers, producers, skew, r.wall_dps, r.p50_us, r.p99_us,
              r.p999_us, static_cast<unsigned long long>(r.steals));
}

void Run(bool smoke, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  const auto store = ShardedStore::Build(collection, store_options);

  const unsigned hw = UsableThreads();
  const size_t total_requests = smoke ? 16000 : 64000;
  const size_t total_rounds = total_requests / kInFlight;

  std::printf("serve_load_bench (%s): %zu docs, %.1f MB, %s, hw=%u\n",
              smoke ? "smoke" : "full", collection.num_docs(),
              collection.size_bytes() / (1024.0 * 1024.0),
              store->name().c_str(), hw);
  std::printf("%-8s %-10s %-8s %12s %9s %9s %9s %8s\n", "workers",
              "producers", "skew", "wall dps", "p50 us", "p99 us", "p999 us",
              "steals");

  std::string json;
  char buf[512];
  json.append("{\n  \"bench\": \"serve_load\",\n");
  json.append(smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n");
  std::snprintf(buf, sizeof(buf),
                "  \"corpus\": {\"docs\": %zu, \"bytes\": %llu, "
                "\"seed\": %llu},\n",
                collection.num_docs(),
                static_cast<unsigned long long>(collection.size_bytes()),
                static_cast<unsigned long long>(corpus_options.seed));
  json.append(buf);
  json.append("  \"store\": \"" + store->name() + "\",\n");
  json.append("  \"provenance\": " + ProvenanceJson("") + ",\n");
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"in_flight_per_producer\": %zu, "
                "\"zipf_theta\": %.2f, \"requests_per_row\": %zu},\n",
                kInFlight, kZipfTheta, total_rounds * kInFlight);
  json.append(buf);
  // The one-time "before" record: the pre-PR DocService (single
  // mutex/deque funnel, promise-per-request) measured once from a
  // pristine build of commit 6be0460 (rlz-ZV, cache off, 20k MultiGet
  // requests) on a 1-core host — not the host the rows below ran on.
  // Emitted as constants so regenerating this file cannot lose the
  // trajectory's origin.
  json.append(
      "  \"pre_pr_baseline\": {\n"
      "    \"comment\": \"Pre-PR funnel DocService measured once at commit "
      "6be0460 on a 1-core host (rlz-ZV, cache off; not this file's "
      "host). Wall scaling 1->4 threads was 1.02x through the single-queue "
      "funnel.\",\n"
      "    \"threads_1\": {\"wall_dps\": 24098},\n"
      "    \"threads_4\": {\"wall_dps\": 24513}\n"
      "  },\n");
  json.append("  \"rows\": [\n");

  // The gated pair: uniform skew, 4 producers, 1 worker vs 4 workers;
  // best of kGateRepeats runs each.
  LoadResult one;
  LoadResult four;
  for (int rep = 0; rep < (smoke ? kGateRepeats : 1); ++rep) {
    const LoadResult r1 = RunLoad(*store, 1, 4, /*zipfian=*/false,
                                  total_rounds);
    const LoadResult r4 = RunLoad(*store, 4, 4, /*zipfian=*/false,
                                  total_rounds);
    if (r1.wall_dps > one.wall_dps) one = r1;
    if (r4.wall_dps > four.wall_dps) four = r4;
  }
  PrintRow(1, 4, "uniform", one);
  AppendJsonRow(1, 4, "uniform", one, /*last=*/false, &json);
  PrintRow(4, 4, "uniform", four);
  AppendJsonRow(4, 4, "uniform", four, /*last=*/false, &json);

  // Ungated context rows: producer scaling and Zipfian skew (where the
  // router concentrates hot documents on few workers and stealing levels
  // the load).
  const struct {
    int workers;
    int producers;
    bool zipfian;
  } extra_rows[] = {
      {4, 1, false}, {1, 4, true}, {4, 4, true}};
  constexpr size_t kNumExtra = sizeof(extra_rows) / sizeof(extra_rows[0]);
  for (size_t i = 0; i < kNumExtra; ++i) {
    const auto& row = extra_rows[i];
    const LoadResult r = RunLoad(*store, row.workers, row.producers,
                                 row.zipfian, total_rounds);
    const char* skew = row.zipfian ? "zipfian" : "uniform";
    PrintRow(row.workers, row.producers, skew, r);
    AppendJsonRow(row.workers, row.producers, skew, r,
                  /*last=*/i + 1 == kNumExtra, &json);
  }
  json.append("  ],\n");

  const double ratio = one.wall_dps > 0 ? four.wall_dps / one.wall_dps : 0.0;
  const bool gate_pass = ratio >= kMinScaleRatio;
  std::snprintf(buf, sizeof(buf),
                "  \"gate\": {\"min_ratio_required\": %.2f, "
                "\"workers_1_dps\": %.0f, \"workers_4_dps\": %.0f, "
                "\"ratio\": %.2f, \"pass\": %s}\n"
                "}\n",
                kMinScaleRatio, one.wall_dps, four.wall_dps, ratio,
                gate_pass ? "true" : "false");
  json.append(buf);

  const Status write_status = WriteFile(out_path, json);
  RLZ_CHECK(write_status.ok()) << write_status.ToString();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (smoke) {
    std::printf("smoke gate: 4 workers >= %.2fx 1 worker: %s (%.2fx)\n",
                kMinScaleRatio, gate_pass ? "PASS" : "FAIL", ratio);
    if (!gate_pass) std::exit(1);
  }
}

// Like AppendJsonRow but with a row label ("read_only" / "mixed") instead
// of a worker/producer/skew triple — the ingest-mode rows share every
// other knob, so the label is the only thing that varies.
void AppendLabeledJsonRow(const char* label, const LoadResult& r, bool last,
                          std::string* json) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"row\": \"%s\", \"requests\": %llu, \"wall_dps\": %.0f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
      "\"steals\": %llu}%s\n",
      label, static_cast<unsigned long long>(r.requests), r.wall_dps,
      r.p50_us, r.p99_us, r.p999_us,
      static_cast<unsigned long long>(r.steals), last ? "" : ",");
  json->append(buf);
}

// The --ingest mode: sustained ingest vs serving (DESIGN.md §11,
// EXPERIMENTS.md). Builds a *live* 4-shard store, measures a read-only
// Zipfian baseline (4 workers, 4 producers), then the same read load with
// a writer appending `fraction` documents per read request from a
// fresh-content corpus (different seed — the §3.6 drift setting), tail
// auto-sealing as it fills. In smoke mode each row runs kIngestGateRuns
// times and reports its median-throughput run. The gate: mixed-row read
// wall docs/s must retain kMinReadRetention of the read-only row.
void RunIngest(bool smoke, const std::string& out_path, double fraction) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (16u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  store_options.live.tail_seal_bytes = 1 << 20;
  auto store = ShardedStore::Build(collection, store_options);

  // Fresh content the writer streams in (drifted seed: appended documents
  // encode against the build-time append dictionary, as in §3.6).
  CorpusOptions fresh_options;
  fresh_options.target_bytes = smoke ? (2u << 20) : (8u << 20);
  fresh_options.seed = 40227;
  const Collection fresh = GenerateCorpus(fresh_options).collection;

  const unsigned hw = UsableThreads();
  const size_t read_docs = collection.num_docs();
  const size_t total_requests = smoke ? 16000 : 64000;
  const size_t total_rounds = total_requests / kInFlight;
  const int shards_before = store->num_shards();

  std::printf(
      "serve_load_bench --ingest (%s): %zu docs, %.1f MB, %s, hw=%u, "
      "ingest fraction %.2f\n",
      smoke ? "smoke" : "full", collection.num_docs(),
      collection.size_bytes() / (1024.0 * 1024.0), store->name().c_str(), hw,
      fraction);
  std::printf("%-8s %-10s %-8s %12s %9s %9s %9s %8s\n", "workers",
              "producers", "skew", "wall dps", "p50 us", "p99 us", "p999 us",
              "steals");

  const int runs = smoke ? kIngestGateRuns : 1;
  // Index of the median-throughput run of `results` (runs is odd).
  auto median_run = [](const std::vector<LoadResult>& results) {
    std::vector<size_t> order(results.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return results[a].wall_dps < results[b].wall_dps;
    });
    return order[order.size() / 2];
  };

  // Read-only baseline first (repeats before any append mutates the
  // store, so every baseline run reads the same frozen corpus).
  std::vector<LoadResult> read_only_runs;
  for (int rep = 0; rep < runs; ++rep) {
    read_only_runs.push_back(
        RunLoad(*store, 4, 4, /*zipfian=*/true, total_rounds));
  }
  const LoadResult read_only = read_only_runs[median_run(read_only_runs)];
  PrintRow(4, 4, "zipfian", read_only);

  // Mixed rows: the store keeps growing across repeats (appends are
  // permanent), but readers always sample the initial `read_docs` range,
  // so the read workload stays identical.
  std::vector<LoadResult> mixed_runs;
  std::vector<IngestStats> ingest_runs;
  for (int rep = 0; rep < runs; ++rep) {
    IngestStats stats;
    mixed_runs.push_back(RunMixed(store.get(), 4, 4, read_docs, total_rounds,
                                  fresh, fraction, &stats));
    ingest_runs.push_back(stats);
  }
  const size_t mixed_median = median_run(mixed_runs);
  const LoadResult mixed = mixed_runs[mixed_median];
  const IngestStats ingest = ingest_runs[mixed_median];
  PrintRow(4, 4, "zipfian", mixed);
  std::printf(
      "ingest: %llu docs, %.1f MB appended at %.1f MB/s; shards %d -> %d, "
      "epoch %llu\n",
      static_cast<unsigned long long>(ingest.docs),
      ingest.bytes / 1048576.0, ingest.mb_per_s, shards_before,
      store->num_shards(),
      static_cast<unsigned long long>(store->epoch_sequence()));

  std::string json;
  char buf[512];
  json.append("{\n  \"bench\": \"serve_ingest\",\n");
  json.append(smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n");
  std::snprintf(buf, sizeof(buf),
                "  \"corpus\": {\"docs\": %zu, \"bytes\": %llu, "
                "\"seed\": %llu},\n",
                collection.num_docs(),
                static_cast<unsigned long long>(collection.size_bytes()),
                static_cast<unsigned long long>(corpus_options.seed));
  json.append(buf);
  json.append("  \"store\": \"" + store->name() + "\",\n");
  json.append("  \"provenance\": " + ProvenanceJson("") + ",\n");
  std::snprintf(
      buf, sizeof(buf),
      "  \"config\": {\"in_flight_per_producer\": %zu, "
      "\"zipf_theta\": %.2f, \"requests_per_row\": %zu, "
      "\"ingest_fraction\": %.2f, \"tail_seal_bytes\": %llu, "
      "\"fresh_seed\": %llu},\n",
      kInFlight, kZipfTheta, total_rounds * kInFlight, fraction,
      static_cast<unsigned long long>(store_options.live.tail_seal_bytes),
      static_cast<unsigned long long>(fresh_options.seed));
  json.append(buf);
  json.append("  \"rows\": [\n");
  AppendLabeledJsonRow("read_only", read_only, /*last=*/false, &json);
  AppendLabeledJsonRow("mixed", mixed, /*last=*/true, &json);
  json.append("  ],\n");
  std::snprintf(
      buf, sizeof(buf),
      "  \"ingest\": {\"docs\": %llu, \"bytes\": %llu, "
      "\"mb_per_s\": %.1f, \"shards_before\": %d, \"shards_after\": %d, "
      "\"final_epoch\": %llu},\n",
      static_cast<unsigned long long>(ingest.docs),
      static_cast<unsigned long long>(ingest.bytes), ingest.mb_per_s,
      shards_before, store->num_shards(),
      static_cast<unsigned long long>(store->epoch_sequence()));
  json.append(buf);

  const double retention =
      read_only.wall_dps > 0 ? mixed.wall_dps / read_only.wall_dps : 0.0;
  const bool gate_pass = retention >= kMinReadRetention;
  std::snprintf(
      buf, sizeof(buf),
      "  \"gate\": {\"min_read_retention\": %.2f, \"runs_per_row\": %d, "
      "\"read_only_dps\": %.0f, \"mixed_dps\": %.0f, \"retention\": %.2f, "
      "\"pass\": %s}\n}\n",
      kMinReadRetention, runs, read_only.wall_dps, mixed.wall_dps, retention,
      gate_pass ? "true" : "false");
  json.append(buf);

  const Status write_status = WriteFile(out_path, json);
  RLZ_CHECK(write_status.ok()) << write_status.ToString();
  std::printf("\nwrote %s\n", out_path.c_str());

  if (smoke) {
    std::printf(
        "smoke gate: median mixed reads >= %.0f%% of median read-only "
        "(%d runs each): %s (%.0f%%)\n",
        100.0 * kMinReadRetention, runs, gate_pass ? "PASS" : "FAIL",
        100.0 * retention);
    if (!gate_pass) std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  bool ingest = false;
  double ingest_fraction = 0.10;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      ingest = true;
    } else if (std::strcmp(argv[i], "--ingest-fraction") == 0 &&
               i + 1 < argc) {
      ingest_fraction = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--ingest] [--ingest-fraction F] "
                   "[--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path = ingest ? "BENCH_ingest.json" : "BENCH_serve.json";
  }
  const unsigned threads = rlz::bench::UsableThreads();
  if (smoke && threads < rlz::bench::kMinGateThreads) {
    std::fprintf(stderr,
                 "serve_load_bench --smoke: this process can run on %u "
                 "hardware threads; the wall-clock gates compare 4 workers "
                 "against 1 and need at least %u to mean anything\n",
                 threads, rlz::bench::kMinGateThreads);
    return 1;
  }
  if (ingest) {
    rlz::bench::RunIngest(smoke, out_path, ingest_fraction);
  } else {
    rlz::bench::Run(smoke, out_path);
  }
  return 0;
}
