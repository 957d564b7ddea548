#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "counting_fs.h"
#include "load_gen.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

using rlz::Status;
using rlz::net::WireCode;

constexpr int kShards = 4;
constexpr int kServiceWorkers = 2;  // + loop, batcher, generator ~ nproc 4
constexpr uint64_t kSnippetBytes = 400;
// Per-read p99 limit behind slo_rps: a result page fans out ~10 snippet
// reads, so 10 ms per read keeps the page p90 near 10 ms (0.99^10 ~ 0.90).
constexpr double kSloUs = 10'000.0;
constexpr int kSetupRepeats = 5;
// Nominal rate of both read workloads, requests/s: 1/4 of the read
// capacity this benchmark measured, the median slo_rps of cold-pages
// (32000/s in two sets of ten seeds on a 4-vCPU Xeon VM; hot-snippets
// passed every rung up to 128000/s). A quarter of capacity keeps the
// request path loaded enough for queueing to show, with the headroom to
// run the nominal phase without sheds.
constexpr double kReadRate = 8000.0;
// Latency at the nominal rate is measured over many short sub-runs, each
// holding enough ranges for a p99 with ten samples beyond it, and
// reported as the median over the quieter half of them (QuietHalf).
constexpr double kNominalShare = 0.75;  // of --seconds; the ladder gets the rest
constexpr size_t kRangesPerSubRun = 1000;
constexpr double kLadderBase = 1000.0;  // requests/s, doubled per rung
constexpr int kLadderRungs = 8;         // up to 128000 requests/s
// Requests replayed through the three entry points in the traced run.
constexpr size_t kReplayRequests = 400;
// ingest-recover: WAL group commit (same on both sides of a comparison).
constexpr int kFsyncEveryN = 8;
constexpr int kDeleteEvery = 4;
// 1/32 of the measured read capacity: a light foreground load, so the
// reads show what the writer, seals and compactions cost them rather than
// load of their own.
constexpr double kIngestReadRate = 1000.0;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// The highest quantile that leaves at least ten samples beyond it
// (capped at p99); the median when there are fewer than twenty.
double TailQuantile(size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.2f", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

// Indices of the half of the sub-runs (at least one) during which the
// hypervisor stole the least CPU time, in sub-run order. Latency on a
// shared host comes in episodes when another tenant takes the CPU; those
// episodes are the host's, not the code's, and they made run-to-run
// medians swing by 2-10x at the tail. Reporting over the quieter half
// keeps a slow episode from deciding the result, while every sub-run's
// values and steal are still written to the result file.
std::vector<size_t> QuietHalf(const std::vector<double>& steal_pct) {
  std::vector<size_t> order(steal_pct.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_pct[a] < steal_pct[b];
  });
  order.resize(std::max<size_t>(1, (order.size() + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> Pick(const std::vector<double>& v,
                         const std::vector<size_t>& idx) {
  std::vector<double> out;
  for (size_t i : idx) out.push_back(v[i]);
  return out;
}

struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// Share of CPU time the hypervisor took from this machine since the last
// call (from /proc/stat); the host's contribution to latency noise.
struct StealClock {
  uint64_t steal = 0, total = 0;
  static StealClock Now() {
    StealClock c;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    uint64_t v = 0;
    for (int field = 0; field < 8 && (in >> v); ++field) {
      c.total += v;
      if (field == 7) c.steal = v;
    }
    return c;
  }
  double PercentSince(const StealClock& start) const {
    return total == start.total
               ? 0.0
               : 100.0 * static_cast<double>(steal - start.steal) /
                     static_cast<double>(total - start.total);
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

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

void StampProvenance(const RunConfig& config, Report* report) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  report->Note("host", host);
  report->Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Note("cpu_model", CpuModel());
#ifdef __clang__
  report->Note("compiler", std::string("clang ") + __clang_version__);
#else
  report->Note("compiler", std::string("gcc ") + __VERSION__);
#endif
  report->Note("build_type", PERFBENCH_BUILD_TYPE);
  report->Note("git_commit", config.commit);
  report->Note("workload", config.workload);
  report->Note("seed", std::to_string(config.seed));
  report->Note("seconds", std::to_string(config.seconds));
  report->Note("scale", std::to_string(config.scale));
  report->Note("trace", config.trace ? "1" : "0");
  report->Note("slo_limit_us", std::to_string(kSloUs));
  report->Note("service_workers", std::to_string(kServiceWorkers));
  report->Note("connections", std::to_string(kConnections));
}

rlz::ShardedStoreOptions StoreOptions() {
  rlz::ShardedStoreOptions options;
  options.num_shards = kShards;
  options.coding = rlz::kZV;
  return options;
}

rlz::Corpus MakeCorpus(uint64_t seed, size_t bytes) {
  rlz::CorpusOptions options;
  options.seed = seed;
  options.target_bytes = bytes;
  options.style = rlz::CorpusStyle::kWeb;
  return rlz::GenerateCorpus(options);
}

double AvgFactorLen(const rlz::ShardedStore& store) {
  rlz::FactorStats total;
  for (int s = 0; s < store.num_shards(); ++s) {
    total.Merge(store.shard_health(s).stats);
  }
  return total.avg_factor_length();
}

std::string_view Slice(std::string_view doc, const ReadOp& op) {
  if (!op.is_range) return doc;
  if (op.offset >= doc.size()) return {};
  return doc.substr(op.offset, std::min<uint64_t>(op.length,
                                                  doc.size() - op.offset));
}

ReadOp MakeOp(bool is_range, uint64_t id, uint64_t doc_size, rlz::Rng* rng) {
  ReadOp op;
  op.is_range = is_range;
  op.id = id;
  if (is_range) {
    const uint64_t span = doc_size > kSnippetBytes ? doc_size - kSnippetBytes
                                                   : 0;
    op.offset = span == 0 ? 0 : rng->Uniform(span + 1);
    op.length = kSnippetBytes;
  }
  return op;
}

// A DocService and a DocServer in front of one store, started fresh for
// each measured phase (ServiceStats latency and cache counters are
// cumulative since the service started).
class Serving {
 public:
  Serving(const rlz::ShardedStore* store, uint64_t cache_bytes,
          int cache_shards) {
    rlz::DocServiceOptions options;
    options.num_threads = kServiceWorkers;
    options.cache_bytes = cache_bytes;
    options.cache_shards = cache_shards;
    service_ = std::make_unique<rlz::DocService>(store, options);
    server_ = std::make_unique<rlz::net::DocServer>(service_.get());
  }
  ~Serving() { Stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  Status Start() { return server_->Start(); }
  void Stop() {
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    service_.reset();
  }
  uint16_t port() const { return server_->port(); }
  rlz::DocService* service() { return service_.get(); }
  rlz::net::DocServer* server() { return server_.get(); }

 private:
  std::unique_ptr<rlz::DocService> service_;
  std::unique_ptr<rlz::net::DocServer> server_;  // destroyed first
};

struct WarmUp {
  size_t requests = 0;
  double slowest_us = 0;  // timed from outside, so at least its queue time
};

// Reads `ids` through the service one at a time, so that no warm-up
// request waits in the service's queue. ServiceStats latency counts every
// request since the service started; a burst of queued warm-up requests
// would set the serve.queue_* tail of the measured traffic after it.
WarmUp WarmOneByOne(const std::vector<size_t>& ids, rlz::DocService* service) {
  WarmUp warm;
  for (size_t id : ids) {
    const uint64_t t0 = NowNs();
    service->Get(id).get();
    warm.slowest_us = std::max(warm.slowest_us, Micros(NowNs() - t0));
  }
  warm.requests = ids.size();
  return warm;
}

// What the traced run's replay measured: the same request issued through
// the wire, DocService and ShardedStore entry points.
struct ReplayStats {
  std::vector<double> net_self_us;
  std::vector<double> serve_self_us;
  std::vector<double> range_decode_us;
  std::vector<double> get_decode_us;        // every replayed id
  std::vector<double> get_decode_range_us;  // ids of range requests only
  uint64_t core_bytes = 0;
  uint64_t core_ns = 0;
  uint64_t failures = 0;
  uint64_t cache_mismatched = 0;  // wire and service saw different states
};

// Sets *doc to the expected bytes of document `id`; false when the oracle
// knows the id was deleted.
using ExpectFn = std::function<bool(uint64_t id, std::string_view* doc)>;

Status Replay(const std::vector<ReadOp>& ops, Serving* serving,
              const rlz::ShardedStore& store, const ExpectFn& expect,
              Tracer* tracer, uint64_t request_base, ReplayStats* out) {
  RLZ_ASSIGN_OR_RETURN(std::unique_ptr<rlz::net::NetClient> client,
                       rlz::net::NetClient::Connect(serving->port()));
  rlz::DocService* service = serving->service();
  rlz::DecodeScratch scratch;
  std::string range_text;
  std::string doc_text;
  std::string core_text;
  for (size_t i = 0; i < ops.size(); ++i) {
    const ReadOp& op = ops[i];
    const uint64_t request = request_base + i;
    std::string_view doc;
    if (!expect(op.id, &doc)) continue;  // deleted: nothing to compare
    const std::string_view want = Slice(doc, op);

    const uint64_t hits0 = service->Stats().cache.hits;
    const uint64_t t0 = NowNs();
    rlz::StatusOr<std::string> wire =
        op.is_range ? client->GetRange(op.id, op.offset, op.length)
                    : client->Get(op.id);
    const uint64_t t1 = NowNs();
    const uint64_t hits1 = service->Stats().cache.hits;
    const uint64_t t2 = NowNs();
    rlz::GetResult served =
        op.is_range ? service->GetRange(op.id, op.offset, op.length).get()
                    : service->Get(op.id).get();
    const uint64_t t3 = NowNs();
    const uint64_t hits2 = service->Stats().cache.hits;
    const bool wire_hit = hits1 > hits0;
    const bool serve_hit = hits2 > hits1;

    const uint64_t t4 = NowNs();
    const Status range_status =
        op.is_range ? store.GetRange(op.id, op.offset, op.length, &range_text,
                                     nullptr, &scratch)
                    : Status::OK();
    const uint64_t t5 = NowNs();
    const Status get_status = store.Get(op.id, &doc_text, nullptr, &scratch);
    const uint64_t t6 = NowNs();

    // The sealed shard's own RlzArchive::Get, on a pinned epoch.
    uint64_t t7 = t6;
    uint64_t t8 = t6;
    std::shared_ptr<const rlz::CorpusEpoch> epoch = store.epoch();
    Status core_status = Status::OK();
    if (op.id < epoch->sealed_docs()) {
      const size_t s = epoch->router().shard_of(op.id);
      const size_t local = op.id - epoch->router().start(s);
      t7 = NowNs();
      core_status = epoch->shard(static_cast<int>(s))
                        .Get(local, &core_text, nullptr, &scratch);
      t8 = NowNs();
      out->core_bytes += core_text.size();
      out->core_ns += t8 - t7;
      if (!core_status.ok() || core_text != doc) ++out->failures;
    }

    if (!wire.ok() || *wire != want) ++out->failures;
    if (!served.ok() || *served.text != want) ++out->failures;
    if (op.is_range && (!range_status.ok() || range_text != want)) {
      ++out->failures;
    }
    if (!get_status.ok() || doc_text != doc) ++out->failures;

    if (tracer->enabled()) {
      const uint64_t root = tracer->Record("replay", request, 0, t0, t8);
      tracer->Record("net.wire", request, root, t0, t1);
      tracer->Record("serve.service", request, root, t2, t3);
      if (op.is_range) tracer->Record("store.range", request, root, t4, t5);
      tracer->Record("store.get", request, root, t5, t6);
      if (t8 > t7) tracer->Record("core.archive_get", request, root, t7, t8);
    }

    const uint64_t store_ns = op.is_range ? t5 - t4 : t6 - t5;
    if (wire_hit == serve_hit) {
      out->net_self_us.push_back(Micros(t1 - t0) - Micros(t3 - t2));
    } else {
      ++out->cache_mismatched;
    }
    // On a cache hit DocService never calls the store: all of its span is
    // its own. On a miss the store call is its child.
    out->serve_self_us.push_back(serve_hit ? Micros(t3 - t2)
                                           : Micros(t3 - t2) -
                                                 Micros(store_ns));
    out->get_decode_us.push_back(Micros(t6 - t5));
    if (op.is_range) {
      out->range_decode_us.push_back(Micros(t5 - t4));
      out->get_decode_range_us.push_back(Micros(t6 - t5));
    }
  }
  return Status::OK();
}

void ReportReplay(const ReplayStats& r, Report* report) {
  report->Set("net.self_p50_us", Median(r.net_self_us));
  report->Set("net.self_p99_us",
              Quantile(r.net_self_us, TailQuantile(r.net_self_us.size())));
  report->Set("serve.self_p50_us", Median(r.serve_self_us));
  report->Set("store.range_decode_p50_us", Median(r.range_decode_us));
  report->Set("store.range_decode_p99_us",
              Quantile(r.range_decode_us,
                       TailQuantile(r.range_decode_us.size())));
  report->Set("store.get_decode_p50_us", Median(r.get_decode_us));
  const double get_on_range_ids = Median(r.get_decode_range_us);
  report->Set("store.range_to_get_ratio",
              get_on_range_ids > 0
                  ? Median(r.range_decode_us) / get_on_range_ids
                  : 0.0);
  report->Set("core.decode_mb_s",
              r.core_ns == 0 ? 0.0
                             : static_cast<double>(r.core_bytes) / 1e6 /
                                   Seconds(r.core_ns));
  report->Samples("replay.requests", r.serve_self_us.size());
  report->Samples("replay.net_pairs", r.net_self_us.size());
  report->Samples("replay.cache_mismatched", r.cache_mismatched);
  report->Samples("replay.range_requests", r.range_decode_us.size());
}

// Writes the traced run's spans next to the results.
Status WriteTrace(const RunConfig& config, const Tracer& tracer,
                  Report* report) {
  report->Set("trace.spans", static_cast<double>(tracer.size()));
  if (!config.trace) return Status::OK();
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  report->Note("trace_file", path);
  return tracer.WriteJsonLines(path);
}

// Per-layer counters of one measured read phase: NetServerStats and
// ServiceStats deltas around it.
struct PhaseCounters {
  rlz::net::NetServerStats net0, net1;
  rlz::ServiceStats svc0, svc1;
};

void ReportPhaseCounters(const std::vector<PhaseCounters>& phases,
                         Report* report) {
  uint64_t batches = 0, coalesced = 0, paused = 0, sheds = 0, proto = 0;
  uint64_t requests = 0, steals = 0, shed = 0, expired = 0, failures = 0;
  uint64_t hits = 0, misses = 0, evictions = 0;
  double cpu = 0;
  std::vector<double> q50, q99;
  for (const PhaseCounters& p : phases) {
    batches += p.net1.batches - p.net0.batches;
    coalesced += p.net1.coalesced_requests - p.net0.coalesced_requests;
    paused += p.net1.reads_paused - p.net0.reads_paused;
    sheds += p.net1.sheds - p.net0.sheds;
    proto += p.net1.protocol_errors - p.net0.protocol_errors;
    requests += p.svc1.requests - p.svc0.requests;
    steals += p.svc1.steals - p.svc0.steals;
    shed += p.svc1.shed - p.svc0.shed;
    expired += p.svc1.expired - p.svc0.expired;
    failures += p.svc1.failures - p.svc0.failures;
    hits += p.svc1.cache.hits - p.svc0.cache.hits;
    misses += p.svc1.cache.misses - p.svc0.cache.misses;
    evictions += p.svc1.cache.evictions - p.svc0.cache.evictions;
    cpu += p.svc1.cpu_seconds - p.svc0.cpu_seconds;
    q50.push_back(p.svc1.latency_p50_us);
    q99.push_back(p.svc1.latency_p99_us);
  }
  report->Set("net.coalesce_ratio",
              batches == 0 ? 0.0
                           : static_cast<double>(coalesced) /
                                 static_cast<double>(batches));
  report->Set("net.reads_paused", static_cast<double>(paused));
  report->Set("net.sheds", static_cast<double>(sheds));
  report->Set("net.protocol_errors", static_cast<double>(proto));
  report->Set("serve.requests", static_cast<double>(requests));
  report->Set("serve.steals", static_cast<double>(steals));
  report->Set("serve.shed", static_cast<double>(shed));
  report->Set("serve.expired", static_cast<double>(expired));
  report->Set("serve.failures", static_cast<double>(failures));
  report->Set("serve.cache_hit_ratio",
              hits + misses == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(hits + misses));
  report->Set("serve.cache_evictions", static_cast<double>(evictions));
  report->Set("serve.cpu_us_per_req",
              requests == 0 ? 0.0 : cpu * 1e6 / static_cast<double>(requests));
  // Enqueue-to-completion percentiles are cumulative per service; each
  // phase has its own service, warmed one request at a time, and the
  // median across phases is reported.
  report->Set("serve.queue_p50_us", Median(q50));
  report->Set("serve.queue_p99_us", Median(q99));
}

// Metrics of the write path that a read-only workload does not exercise:
// genuinely zero there.
void ReportNoWrites(Report* report) {
  for (const char* name :
       {"store.seals", "store.compactions", "store.compact_bytes_rewritten",
        "wal.fsyncs", "io.bytes_written", "recovery.replayed_records",
        "recovery.read_mb"}) {
    report->Set(name, 0.0);
  }
}

// ---------------------------------------------------------------------------
// hot-snippets and cold-pages

struct ReadSpec {
  size_t corpus_bytes;
  double cache_fraction;  // decode cache / collection bytes
  int cache_shards;
  bool zipf;              // Zipf(0.99) ids, else uniform
  double range_share;     // the rest are whole-document Gets
};

ReadSpec SpecFor(const std::string& workload) {
  if (workload == "hot-snippets") {
    // Four cache stripes: every document fits in one stripe's share.
    return ReadSpec{8u << 20, 2.0, 4, true, 1.0};
  }
  return ReadSpec{32u << 20, 1.0 / 16.0, 16, false, 0.8};
}

uint64_t CacheBytes(const ReadSpec& spec, const rlz::Collection& collection) {
  return static_cast<uint64_t>(spec.cache_fraction *
                               static_cast<double>(collection.size_bytes()));
}

// Generates the read request stream: a pure function of (seed, stream).
class OpSource {
 public:
  OpSource(const ReadSpec& spec, const rlz::Collection& collection,
           uint64_t seed)
      : spec_(spec), collection_(collection), seed_(seed) {
    const size_t n = collection.num_docs();
    if (spec.zipf) {
      zipf_ = std::make_unique<rlz::ZipfSampler>(n, 0.99);
      // Hot ranks land on scattered ids, not on the first shard.
      rank_to_id_.resize(n);
      for (size_t i = 0; i < n; ++i) rank_to_id_[i] = i;
      rlz::Rng rng(seed ^ 0x7065726d75746521ull);
      for (size_t i = n; i > 1; --i) {
        std::swap(rank_to_id_[i - 1], rank_to_id_[rng.Uniform(i)]);
      }
    }
  }

  std::vector<ReadOp> Stream(uint64_t stream, size_t count) const {
    rlz::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + stream + 1);
    std::vector<ReadOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t id =
          zipf_ != nullptr ? rank_to_id_[zipf_->Sample(rng)]
                           : rng.Uniform(collection_.num_docs());
      const bool is_range =
          static_cast<double>(rng.Uniform(1u << 20)) <
          spec_.range_share * static_cast<double>(1u << 20);
      ops.push_back(MakeOp(is_range, id, collection_.doc_size(id), &rng));
    }
    return ops;
  }

 private:
  const ReadSpec spec_;
  const rlz::Collection& collection_;
  const uint64_t seed_;
  std::unique_ptr<rlz::ZipfSampler> zipf_;
  std::vector<uint64_t> rank_to_id_;
};

WarmUp Warm(const ReadSpec& spec, const rlz::Collection& collection,
            uint64_t seed, rlz::DocService* service) {
  std::vector<size_t> ids;
  if (spec.cache_fraction >= 1.0) {
    for (size_t i = 0; i < collection.num_docs(); ++i) ids.push_back(i);
  } else {
    // Twice the documents the cache can hold, drawn uniformly.
    const double fit = spec.cache_fraction *
                       static_cast<double>(collection.num_docs());
    rlz::Rng rng(seed ^ 0x7761726d7570ull);
    for (size_t i = 0; i < static_cast<size_t>(2 * fit) + 1; ++i) {
      ids.push_back(rng.Uniform(collection.num_docs()));
    }
  }
  return WarmOneByOne(ids, service);
}

// Declared so that destruction runs serving, store, corpus.
struct Setup {
  rlz::Corpus corpus;
  std::unique_ptr<rlz::ShardedStore> store;
  std::unique_ptr<Serving> serving;
};

Status RunReadWorkload(const RunConfig& config, RunOutcome* outcome) {
  Report& report = outcome->report;
  const ReadSpec spec = SpecFor(config.workload);
  const size_t corpus_bytes =
      static_cast<size_t>(static_cast<double>(spec.corpus_bytes) *
                          config.scale);

  // Set-up, repeated; the last repetition is kept and measured.
  std::vector<double> setup_s, corpus_s, build_s, warm_s;
  Setup setup;
  WarmUp warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // The service refers to the store: release it first.
    setup.serving.reset();
    setup.store.reset();
    const uint64_t t0 = NowNs();
    setup.corpus = MakeCorpus(config.seed, corpus_bytes);
    const uint64_t t1 = NowNs();
    setup.store = rlz::ShardedStore::Build(setup.corpus.collection,
                                           StoreOptions());
    const uint64_t t2 = NowNs();
    setup.serving = std::make_unique<Serving>(
        setup.store.get(), CacheBytes(spec, setup.corpus.collection),
        spec.cache_shards);
    RLZ_RETURN_IF_ERROR(setup.serving->Start());
    warm = Warm(spec, setup.corpus.collection, config.seed,
                setup.serving->service());
    const uint64_t t3 = NowNs();
    corpus_s.push_back(Seconds(t1 - t0));
    build_s.push_back(Seconds(t2 - t1));
    warm_s.push_back(Seconds(t3 - t2));
    setup_s.push_back(Seconds(t3 - t0));
  }
  const rlz::Collection& collection = setup.corpus.collection;
  rlz::ShardedStore& store = *setup.store;
  report.Set("setup_s", Median(setup_s));
  report.Set("setup.corpus_s", Median(corpus_s));
  report.Set("setup.build_s", Median(build_s));
  report.Set("setup.warm_s", Median(warm_s));
  report.Samples("setup.repeats", kSetupRepeats);
  report.Note("corpus_bytes", std::to_string(collection.size_bytes()));
  report.Note("corpus_docs", std::to_string(collection.num_docs()));
  report.Note("store", store.name());
  report.Note("flush_policy", "none (read-only, in-memory store)");
  report.Note("cache_bytes", std::to_string(CacheBytes(spec, collection)));
  report.Note("nominal_rate", std::to_string(kReadRate));
  report.Note("schedule", "open loop, fixed spacing 1/rate");
  report.Set("space_ratio", static_cast<double>(store.stored_bytes()) /
                                static_cast<double>(collection.size_bytes()));
  report.Set("core.avg_factor_len", AvgFactorLen(store));
  ReportNoWrites(&report);

  const OpSource source(spec, collection, config.seed);
  bool corrupt_armed = config.corrupt_request >= 0;
  auto make_check = [&](bool allow_corrupt) {
    return [&collection, &config, allow_corrupt](
               size_t i, const ReadOp& op, WireCode code,
               std::string_view payload) {
      if (code != WireCode::kOk) return Verdict::kFailed;
      const std::string_view want = Slice(collection.doc(op.id), op);
      if (allow_corrupt && static_cast<int64_t>(i) == config.corrupt_request) {
        std::string bad(want);
        if (bad.empty()) bad.push_back('\0');
        bad[0] = static_cast<char>(bad[0] ^ 0x20);
        return payload == bad ? Verdict::kOk : Verdict::kWrongBytes;
      }
      return payload == want ? Verdict::kOk : Verdict::kWrongBytes;
    };
  };
  Tracer tracer(config.trace);
  Digest digest;

  // Nominal rate: the end-to-end latencies. Sub-runs share one service;
  // the traced run traces every other sub-run so the tracing overhead is
  // measured inside the same process.
  const size_t sub_count = static_cast<size_t>(
      static_cast<double>(kRangesPerSubRun) / spec.range_share);
  const int sub_runs = std::max(
      2, static_cast<int>(config.seconds * kNominalShare * kReadRate /
                          static_cast<double>(sub_count)));
  std::vector<double> p50s, p99s, steal;
  std::vector<std::vector<double>> gets;
  std::vector<bool> traced_sub;
  std::vector<double> late_all;
  uint64_t backlog_max = 0, range_n = 0, nominal_attempted = 0,
           nominal_bad = 0;
  PhaseCounters counters;
  counters.net0 = setup.serving->server()->stats();
  counters.svc0 = setup.serving->service()->Stats();
  for (int sub = 0; sub < sub_runs; ++sub) {
    const std::vector<ReadOp> ops =
        source.Stream(static_cast<uint64_t>(sub), sub_count);
    for (const ReadOp& op : ops) {
      digest.Add(op.id);
      digest.Add(op.offset);
      digest.Add(op.is_range);
    }
    const bool traced = config.trace && sub % 2 == 1;
    OpenLoopConfig lc;
    lc.port = setup.serving->port();
    lc.rate = kReadRate;
    lc.count = ops.size();
    lc.next_op = [&ops](size_t i) { return ops[i]; };
    lc.check = make_check(sub == 0 && corrupt_armed);
    lc.tracer = traced ? &tracer : nullptr;
    lc.request_base = static_cast<uint64_t>(sub) * sub_count;
    OpenLoopResult r;
    const StealClock steal0 = StealClock::Now();
    RLZ_RETURN_IF_ERROR(RunOpenLoop(lc, &r));
    steal.push_back(StealClock::Now().PercentSince(steal0));
    p50s.push_back(Median(r.range_us));
    p99s.push_back(Quantile(r.range_us, TailQuantile(r.range_us.size())));
    traced_sub.push_back(traced);
    gets.push_back(std::move(r.get_us));
    late_all.insert(late_all.end(), r.late_us.begin(), r.late_us.end());
    backlog_max = std::max(backlog_max, r.backlog_max);
    range_n += r.range_us.size();
    nominal_attempted += r.attempted;
    nominal_bad += r.bad();
  }
  setup.serving->service()->Drain();
  counters.net1 = setup.serving->server()->stats();
  counters.svc1 = setup.serving->service()->Stats();
  ReportPhaseCounters({counters}, &report);
  report.Samples("serve.queue_warm_requests", warm.requests);
  report.Note("serve.queue_warm_max_us", std::to_string(warm.slowest_us));
  outcome->attempted += nominal_attempted;
  outcome->failed += nominal_bad;
  const std::vector<size_t> quiet = QuietHalf(steal);
  report.Set("range_p50_us", Median(Pick(p50s, quiet)));
  report.Set("range_p99_us", Median(Pick(p99s, quiet)));
  report.Set("gen.steal_pct", Median(steal));
  report.Note("range.subrun_p50_us", JoinNumbers(p50s));
  report.Note("range.subrun_p99_us", JoinNumbers(p99s));
  report.Note("range.subrun_steal_pct", JoinNumbers(steal));
  report.Note("range.all_subruns_p50_us", std::to_string(Median(p50s)));
  report.Note("range.all_subruns_p99_us", std::to_string(Median(p99s)));
  report.Samples("range.samples", range_n);
  report.Samples("range.subruns", p50s.size());
  report.Samples("range.quiet_subruns", quiet.size());
  if (spec.range_share < 1.0) {
    std::vector<double> get_all;
    for (size_t i : quiet) {
      get_all.insert(get_all.end(), gets[i].begin(), gets[i].end());
    }
    report.Set("get_p50_us", Median(get_all));
    report.Set("get_p99_us", Quantile(get_all, TailQuantile(get_all.size())));
    report.Samples("get.samples", get_all.size());
    report.Note("get_p99_us.quantile",
                std::to_string(TailQuantile(get_all.size())));
  }
  report.Set("failed_frac", nominal_attempted == 0
                                ? 0.0
                                : static_cast<double>(nominal_bad) /
                                      static_cast<double>(nominal_attempted));
  report.Set("gen.late_p99_us", Quantile(late_all, 0.99));
  report.Set("gen.backlog_max", static_cast<double>(backlog_max));
  std::vector<double> traced_p50, untraced_p50;
  for (size_t i = 0; i < p50s.size(); ++i) {
    (traced_sub[i] ? traced_p50 : untraced_p50).push_back(p50s[i]);
  }
  report.Set("trace.overhead_us",
             config.trace ? Median(traced_p50) - Median(untraced_p50) : 0.0);

  // The traced run's replay through the three entry points.
  if (config.trace) {
    ReplayStats replay;
    const std::vector<ReadOp> ops = source.Stream(0, kReplayRequests);
    auto expect = [&collection](uint64_t id, std::string_view* doc) {
      *doc = collection.doc(id);
      return true;
    };
    RLZ_RETURN_IF_ERROR(Replay(ops, setup.serving.get(), store, expect,
                               &tracer, 1ull << 40, &replay));
    ReportReplay(replay, &report);
    outcome->attempted += ops.size();
    outcome->failed += replay.failures;
  }
  setup.serving.reset();
  // Peak memory of serving at the nominal rate. The ladder's overloaded
  // rungs buffer responses in proportion to how far past capacity they
  // go, which says nothing about the system's footprint.
  report.Set("rss_mb", PeakRssMb());

  // The rate ladder: a fresh service and server per rung.
  double slo_rps = 0.0;
  const int max_rungs = config.seconds >= 4.0 ? kLadderRungs : 2;
  for (int rung = 0; rung < max_rungs; ++rung) {
    const double rate = kLadderBase * std::pow(2.0, rung);
    const double rung_seconds =
        std::max(0.5, static_cast<double>(kRangesPerSubRun) /
                          (rate * spec.range_share));
    Serving serving(&store, CacheBytes(spec, collection), spec.cache_shards);
    RLZ_RETURN_IF_ERROR(serving.Start());
    Warm(spec, collection, config.seed, serving.service());
    const std::vector<ReadOp> ops = source.Stream(
        1000 + static_cast<uint64_t>(rung),
        static_cast<size_t>(rate * rung_seconds));
    OpenLoopConfig lc;
    lc.port = serving.port();
    lc.rate = rate;
    lc.count = ops.size();
    lc.next_op = [&ops](size_t i) { return ops[i]; };
    lc.check = make_check(false);
    OpenLoopResult r;
    RLZ_RETURN_IF_ERROR(RunOpenLoop(lc, &r));
    outcome->attempted += r.attempted;
    // Above capacity requests may fail; wrong bytes never may.
    outcome->failed += r.wrong_bytes;
    const double range_p99 =
        Quantile(r.range_us, TailQuantile(r.range_us.size()));
    const double get_p99 = Quantile(r.get_us, TailQuantile(r.get_us.size()));
    const bool backlog_ok = static_cast<double>(r.backlog_at_end) <=
                            std::max(4.0, rate * kSloUs / 1e6);
    const bool pass = r.bad() == 0 && range_p99 <= kSloUs &&
                      get_p99 <= kSloUs && backlog_ok;
    char key[64];
    std::snprintf(key, sizeof(key), "ladder.%05.0f.range_p99_us", rate);
    report.Note(key, std::to_string(range_p99));
    std::snprintf(key, sizeof(key), "ladder.%05.0f.pass", rate);
    report.Note(key, pass ? "1" : "0");
    if (!pass) break;
    slo_rps = rate;
  }
  report.Set("slo_rps", slo_rps);
  if (slo_rps == 0.0) {
    report.Note("slo_rps.note", "the lowest rung missed the 10 ms p99 limit");
  }
  RLZ_RETURN_IF_ERROR(WriteTrace(config, tracer, &report));
  outcome->input_digest = digest.h;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ingest-recover

struct IngestModel {
  std::vector<std::string_view> content;  // id -> bytes
  std::unique_ptr<std::atomic<uint8_t>[]> deleted;
  std::atomic<size_t> num_ids{0};  // ids readers may pick

  bool Expect(uint64_t id, std::string_view* doc) const {
    if (id >= content.size() || deleted[id].load(std::memory_order_acquire)) {
      return false;
    }
    *doc = content[id];
    return true;
  }
};

void AddReads(const OpenLoopResult& r, OpenLoopResult* into) {
  into->range_us.insert(into->range_us.end(), r.range_us.begin(),
                        r.range_us.end());
  into->late_us.insert(into->late_us.end(), r.late_us.begin(),
                       r.late_us.end());
  into->attempted += r.attempted;
  into->not_found += r.not_found;
  into->wrong_bytes += r.wrong_bytes;
  into->failed += r.failed;
  into->backlog_max = std::max(into->backlog_max, r.backlog_max);
}

// One ingest cycle's measurements.
struct CycleResult {
  std::string store_name;
  uint64_t base_bytes = 0, base_docs = 0;
  double setup_s = 0, corpus_s = 0, build_s = 0, durable_s = 0, warm_s = 0;
  WarmUp warm;
  std::vector<double> append_us, append_noseal_us, append_seal_us;
  double appends_per_s = 0;
  double write_amp = 0;
  double space_ratio = 0;
  double avg_factor_len = 0;
  uint64_t seals = 0, compactions = 0, compact_bytes = 0;
  std::vector<double> compact_ms;
  double checkpoint_ms = 0;
  uint64_t wal_fsyncs = 0;
  double wal_sync_s = 0;
  std::vector<double> wal_sync_us;
  uint64_t bytes_written = 0;
  double recover_s = 0, recovery_read_s = 0, recovery_read_mb = 0;
  uint64_t replayed = 0;
  OpenLoopResult reads;  // every window's reads together
  std::vector<double> window_p50, window_p99, window_steal;
  double steal_pct = 0;  // during the writer phase
  PhaseCounters counters;
  uint64_t failures = 0;
  uint64_t attempted = 0;
};

// Runs one ingest cycle. Every cycle replays the same writer script, so
// only the first adds it to `digest` (null for the others): the number of
// cycles depends on time.
Status RunIngestCycle(const RunConfig& config, int cycle,
                      const rlz::Collection& fresh, Tracer* tracer,
                      bool traced, CycleResult* out,
                      ReplayStats* replay_out, Digest* digest) {
  const std::string dir =
      config.out_dir + "/store-" + std::to_string(cycle);
  std::filesystem::remove_all(dir);

  // Set-up: base corpus, build, MakeDurable, warm the newest ids.
  const uint64_t t0 = NowNs();
  rlz::Corpus base = MakeCorpus(
      config.seed,
      static_cast<size_t>(static_cast<double>(8u << 20) * config.scale));
  const uint64_t t1 = NowNs();
  std::unique_ptr<rlz::ShardedStore> store =
      rlz::ShardedStore::Build(base.collection, StoreOptions());
  const uint64_t t2 = NowNs();
  auto fs = std::make_shared<CountingFileSystem>(rlz::DefaultFileSystem());
  rlz::wal::WalWriterOptions wal_options;
  wal_options.fsync_every_n = kFsyncEveryN;
  RLZ_RETURN_IF_ERROR(store->MakeDurable(dir, wal_options, fs));
  const uint64_t t3 = NowNs();
  const size_t base_docs = base.collection.num_docs();
  out->store_name = store->name();
  out->base_bytes = base.collection.size_bytes();
  out->base_docs = base_docs;
  // A decode cache of 1/4 of the base: the reads on the newest ids mostly
  // miss it, since they land on freshly appended documents.
  auto serving = std::make_unique<Serving>(
      store.get(), base.collection.size_bytes() / 4, 16);
  RLZ_RETURN_IF_ERROR(serving->Start());
  {
    std::vector<size_t> newest;
    for (size_t i = base_docs - std::max<size_t>(1, base_docs / 10);
         i < base_docs; ++i) {
      newest.push_back(i);
    }
    out->warm = WarmOneByOne(newest, serving->service());
  }
  const uint64_t t4 = NowNs();
  out->corpus_s = Seconds(t1 - t0);
  out->build_s = Seconds(t2 - t1);
  out->durable_s = Seconds(t3 - t2);
  out->warm_s = Seconds(t4 - t3);
  out->setup_s = Seconds(t4 - t0);

  IngestModel model;
  const size_t total_ids = base_docs + fresh.num_docs();
  model.content.reserve(total_ids);
  for (size_t i = 0; i < base_docs; ++i) {
    model.content.push_back(base.collection.doc(i));
  }
  for (size_t i = 0; i < fresh.num_docs(); ++i) {
    model.content.push_back(fresh.doc(i));
  }
  model.deleted = std::make_unique<std::atomic<uint8_t>[]>(total_ids);
  for (size_t i = 0; i < total_ids; ++i) model.deleted[i].store(0);
  model.num_ids.store(base_docs);
  // The last 1/16 of the fresh documents are appended after the checkpoint.
  const size_t main_appends = fresh.num_docs() - fresh.num_docs() / 16;

  const FsCounters fs_start = fs->counters();
  out->counters.net0 = serving->server()->stats();
  out->counters.svc0 = serving->service()->Stats();

  // Maintenance: CompactOnce after each seal.
  std::mutex maint_mu;
  std::condition_variable maint_cv;
  int pending_seals = 0;      // guarded by maint_mu
  bool writer_done = false;   // guarded by maint_mu
  std::atomic<uint64_t> maint_failures{0};
  std::vector<double> compact_ms;  // maintenance thread only until join
  uint64_t compactions = 0, compact_bytes = 0;
  std::thread maintenance([&] {
    std::unique_lock<std::mutex> lock(maint_mu);
    for (;;) {
      maint_cv.wait(lock, [&] { return pending_seals > 0 || writer_done; });
      if (pending_seals == 0) return;
      --pending_seals;
      lock.unlock();
      const uint64_t c0 = NowNs();
      rlz::StatusOr<rlz::CompactionReport> rep = store->CompactOnce();
      const uint64_t c1 = NowNs();
      if (!rep.ok()) {
        maint_failures.fetch_add(1);
      } else if (rep->compacted) {
        ++compactions;
        compact_bytes += rep->bytes_after;
        compact_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
      }
      lock.lock();
    }
  });

  // Open-loop snippet reads beside the writer; half on the newest 10%.
  std::atomic<bool> stop_reads{false};
  Status reader_status = Status::OK();
  rlz::Rng read_rng(config.seed * 31 + static_cast<uint64_t>(cycle));
  OpenLoopConfig lc;
  lc.port = serving->port();
  lc.rate = kIngestReadRate;
  lc.count = kRangesPerSubRun;  // per window; windows until the writer is done
  lc.stop = &stop_reads;
  lc.tracer = traced ? tracer : nullptr;
  lc.next_op = [&](size_t) {
    const size_t n = model.num_ids.load(std::memory_order_acquire);
    uint64_t id = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      id = read_rng.Uniform(2) == 0
               ? n - 1 - read_rng.Uniform(std::max<size_t>(1, n / 10))
               : read_rng.Uniform(n);
      if (!model.deleted[id].load(std::memory_order_acquire)) break;
    }
    return MakeOp(true, id, model.content[id].size(), &read_rng);
  };
  int64_t corrupt = cycle == 0 ? config.corrupt_request : -1;  // window 0
  lc.check = [&](size_t i, const ReadOp& op, WireCode code,
                 std::string_view payload) {
    if (code == WireCode::kNotFound &&
        model.deleted[op.id].load(std::memory_order_acquire)) {
      return Verdict::kNotFound;
    }
    if (code != WireCode::kOk) return Verdict::kFailed;
    std::string want(Slice(model.content[op.id], op));
    if (static_cast<int64_t>(i) == corrupt) {
      if (want.empty()) want.push_back('\0');
      want[0] = static_cast<char>(want[0] ^ 0x20);
    }
    return payload == want ? Verdict::kOk : Verdict::kWrongBytes;
  };
  const StealClock steal0 = StealClock::Now();
  std::thread reader([&] {
    // Windows of kRangesPerSubRun reads, each with its own steal reading,
    // so the quieter half is picked at the grain of the read workloads'
    // sub-runs rather than of whole cycles (see QuietHalf).
    for (uint64_t w = 0; !stop_reads.load(std::memory_order_acquire); ++w) {
      lc.request_base = (static_cast<uint64_t>(cycle) << 32) +
                        w * kRangesPerSubRun;
      OpenLoopResult r;
      const StealClock window0 = StealClock::Now();
      reader_status = RunOpenLoop(lc, &r);
      if (!reader_status.ok()) return;
      // The window cut short by the writer's end counts only when it is
      // the cycle's first.
      if (w == 0 || r.range_us.size() >= kRangesPerSubRun / 2) {
        out->window_steal.push_back(StealClock::Now().PercentSince(window0));
        out->window_p50.push_back(Median(r.range_us));
        out->window_p99.push_back(
            Quantile(r.range_us, TailQuantile(r.range_us.size())));
      }
      AddReads(r, &out->reads);
      corrupt = -1;
    }
  });

  // The closed-loop writer.
  rlz::Rng writer_rng(config.seed ^ 0x777269746572ull);
  uint64_t user_bytes = 0;
  Status writer_status = Status::OK();
  const uint64_t w0 = NowNs();
  for (size_t k = 0; k < main_appends && writer_status.ok(); ++k) {
    const std::string_view doc = fresh.doc(k);
    const int shards_before = store->num_shards();
    const uint64_t a0 = NowNs();
    rlz::StatusOr<size_t> id = store->Append(doc);
    const uint64_t a1 = NowNs();
    if (!id.ok() || *id != base_docs + k) {
      writer_status = id.ok() ? Status::Internal("unexpected append id")
                              : id.status();
      break;
    }
    user_bytes += doc.size();
    model.num_ids.store(*id + 1, std::memory_order_release);
    const bool sealed = store->num_shards() > shards_before;
    out->append_us.push_back(Micros(a1 - a0));
    (sealed ? out->append_seal_us : out->append_noseal_us)
        .push_back(Micros(a1 - a0));
    if (digest != nullptr) digest->Add(*id);
    if (sealed) {
      ++out->seals;
      std::lock_guard<std::mutex> lock(maint_mu);
      ++pending_seals;
      maint_cv.notify_one();
    }
    if ((k + 1) % kDeleteEvery == 0) {
      uint64_t victim = 0;
      bool found = false;
      for (int attempt = 0; attempt < 64 && !found; ++attempt) {
        victim = writer_rng.Uniform(*id);
        found = model.deleted[victim].load() == 0;
      }
      if (found) {
        // Marked before the call: a read racing the delete may see either
        // the bytes or NotFound, and the oracle accepts both.
        model.deleted[victim].store(1, std::memory_order_release);
        writer_status = store->Delete(victim);
        if (digest != nullptr) digest->Add(victim);
      }
    }
  }
  const uint64_t w1 = NowNs();
  {
    std::lock_guard<std::mutex> lock(maint_mu);
    writer_done = true;
  }
  maint_cv.notify_one();
  maintenance.join();
  stop_reads.store(true, std::memory_order_release);
  reader.join();
  out->steal_pct = StealClock::Now().PercentSince(steal0);
  RLZ_RETURN_IF_ERROR(writer_status);
  RLZ_RETURN_IF_ERROR(reader_status);
  out->appends_per_s = static_cast<double>(main_appends) /
                       Seconds(std::max<uint64_t>(1, w1 - w0));
  out->compactions = compactions;
  out->compact_bytes = compact_bytes;
  out->compact_ms = compact_ms;
  out->failures += maint_failures.load() + out->reads.bad();
  out->attempted += main_appends + out->reads.attempted;

  serving->service()->Drain();
  out->counters.net1 = serving->server()->stats();
  out->counters.svc1 = serving->service()->Stats();

  if (replay_out != nullptr) {
    // The traced run's replay, on the final live state.
    std::vector<ReadOp> ops;
    rlz::Rng rng(config.seed ^ 0x7265706c6179ull);
    const size_t n = model.num_ids.load();
    while (ops.size() < kReplayRequests) {
      const uint64_t id = rng.Uniform(n);
      if (model.deleted[id].load()) continue;
      ops.push_back(MakeOp(true, id, model.content[id].size(), &rng));
    }
    auto expect = [&model](uint64_t id, std::string_view* doc) {
      return model.Expect(id, doc);
    };
    RLZ_RETURN_IF_ERROR(Replay(ops, serving.get(), *store, expect, tracer,
                               1ull << 40, replay_out));
    out->attempted += ops.size();
    out->failures += replay_out->failures;
  }
  serving.reset();

  // Checkpoint, K more appends, SyncWal, drop, timed OpenDurable.
  const uint64_t k0 = NowNs();
  RLZ_RETURN_IF_ERROR(store->Checkpoint());
  out->checkpoint_ms = static_cast<double>(NowNs() - k0) / 1e6;
  for (size_t k = main_appends; k < fresh.num_docs(); ++k) {
    RLZ_ASSIGN_OR_RETURN(size_t id, store->Append(fresh.doc(k)));
    if (id != base_docs + k) return Status::Internal("unexpected append id");
    user_bytes += fresh.doc(k).size();
    model.num_ids.store(id + 1);
  }
  RLZ_RETURN_IF_ERROR(store->SyncWal());
  const FsCounters written = fs->counters() - fs_start;
  out->bytes_written = written.bytes_written;
  out->write_amp = static_cast<double>(written.bytes_written) /
                   static_cast<double>(std::max<uint64_t>(1, user_bytes));
  out->wal_fsyncs = written.wal_syncs;
  out->wal_sync_s = Seconds(written.wal_sync_ns);
  out->wal_sync_us = fs->wal_sync_us();
  uint64_t live_bytes = 0;
  for (size_t id = 0; id < total_ids; ++id) {
    if (!model.deleted[id].load()) live_bytes += model.content[id].size();
  }
  out->space_ratio = static_cast<double>(store->stored_bytes()) /
                     static_cast<double>(live_bytes);
  out->avg_factor_len = AvgFactorLen(*store);
  store.reset();

  const FsCounters before = fs->counters();
  rlz::ShardedStore::RecoveryReport recovery;
  const uint64_t r0 = NowNs();
  rlz::StatusOr<std::unique_ptr<rlz::ShardedStore>> recovered =
      rlz::ShardedStore::OpenDurable(dir, rlz::OpenOptions{}, wal_options, fs,
                                     &recovery);
  const uint64_t r1 = NowNs();
  RLZ_RETURN_IF_ERROR(recovered.status());
  const FsCounters read = fs->counters() - before;
  out->recover_s = Seconds(r1 - r0);
  out->recovery_read_s = Seconds(read.read_ns);
  out->recovery_read_mb = static_cast<double>(read.bytes_read) / 1e6;
  out->replayed = recovery.replayed_records;

  // Every synced append reads back identical; every deleted id is gone.
  std::string text;
  for (size_t id = 0; id < total_ids; ++id) {
    const Status status = (*recovered)->Get(id, &text);
    const bool ok = model.deleted[id].load()
                        ? status.code() == rlz::StatusCode::kNotFound
                        : status.ok() && text == model.content[id];
    if (!ok) ++out->failures;
    ++out->attempted;
  }
  recovered->reset();
  std::filesystem::remove_all(dir);
  return Status::OK();
}

Status RunIngestWorkload(const RunConfig& config, RunOutcome* outcome) {
  Report& report = outcome->report;
  // Fresh documents come from a different seed than the base.
  const rlz::Corpus fresh = MakeCorpus(
      config.seed ^ 0x6672657368ull,
      static_cast<size_t>(static_cast<double>(10u << 20) * config.scale));
  if (fresh.collection.num_docs() < 16) {
    return Status::InvalidArgument("fresh corpus too small");
  }
  Tracer tracer(config.trace);
  Digest digest;
  for (size_t i = 0; i < fresh.collection.num_docs(); ++i) {
    digest.Add(fresh.collection.doc_size(i));
  }
  std::vector<CycleResult> cycles;
  ReplayStats replay;
  const uint64_t start = NowNs();
  const int min_cycles = config.seconds >= 4.0 ? 3 : 1;
  while (static_cast<int>(cycles.size()) < min_cycles ||
         Seconds(NowNs() - start) < config.seconds) {
    const int c = static_cast<int>(cycles.size());
    cycles.emplace_back();
    const bool traced = config.trace && c % 2 == 1;
    RLZ_RETURN_IF_ERROR(RunIngestCycle(
        config, c, fresh.collection, &tracer, traced, &cycles.back(),
        config.trace && c == 0 ? &replay : nullptr,
        c == 0 ? &digest : nullptr));
    if (c >= 50) break;
  }

  // Counts: median over every cycle. Timings: over the quieter half of
  // the cycles by steal (see QuietHalf); read latency over the quieter
  // half of the read windows.
  std::vector<double> steal;
  for (const CycleResult& c : cycles) steal.push_back(c.steal_pct);
  const std::vector<size_t> quiet = QuietHalf(steal);
  std::vector<size_t> every(cycles.size());
  for (size_t i = 0; i < every.size(); ++i) every[i] = i;
  auto median_over = [&](const std::vector<size_t>& idx, auto field) {
    std::vector<double> v;
    for (size_t i : idx) v.push_back(field(cycles[i]));
    return Median(v);
  };
  auto median_of = [&](auto field) { return median_over(every, field); };
  auto quiet_median_of = [&](auto field) { return median_over(quiet, field); };
  std::vector<double> append_us, noseal_us, seal_us, compact_ms, late_us,
      traced_p50, untraced_p50, checkpoint_ms, cycle_p50, window_p50,
      window_p99, window_steal, wal_sync_us;
  uint64_t backlog_max = 0, attempted = 0, failures = 0, reads = 0,
           reads_bad = 0, reads_not_found = 0, range_n = 0;
  double warm_max_us = 0;
  std::vector<PhaseCounters> counters;
  for (size_t i = 0; i < cycles.size(); ++i) {
    const CycleResult& c = cycles[i];
    late_us.insert(late_us.end(), c.reads.late_us.begin(),
                   c.reads.late_us.end());
    cycle_p50.push_back(Median(c.reads.range_us));
    window_p50.insert(window_p50.end(), c.window_p50.begin(),
                      c.window_p50.end());
    window_p99.insert(window_p99.end(), c.window_p99.begin(),
                      c.window_p99.end());
    window_steal.insert(window_steal.end(), c.window_steal.begin(),
                        c.window_steal.end());
    range_n += c.reads.range_us.size();
    (config.trace && i % 2 == 1 ? traced_p50 : untraced_p50)
        .push_back(cycle_p50.back());
    backlog_max = std::max(backlog_max, c.reads.backlog_max);
    attempted += c.attempted;
    failures += c.failures;
    reads += c.reads.attempted;
    reads_bad += c.reads.bad();
    reads_not_found += c.reads.not_found;
    counters.push_back(c.counters);
    warm_max_us = std::max(warm_max_us, c.warm.slowest_us);
  }
  for (size_t i : quiet) {
    const CycleResult& c = cycles[i];
    append_us.insert(append_us.end(), c.append_us.begin(), c.append_us.end());
    noseal_us.insert(noseal_us.end(), c.append_noseal_us.begin(),
                     c.append_noseal_us.end());
    seal_us.insert(seal_us.end(), c.append_seal_us.begin(),
                   c.append_seal_us.end());
    compact_ms.insert(compact_ms.end(), c.compact_ms.begin(),
                      c.compact_ms.end());
    checkpoint_ms.push_back(c.checkpoint_ms);
    wal_sync_us.insert(wal_sync_us.end(), c.wal_sync_us.begin(),
                       c.wal_sync_us.end());
  }
  outcome->attempted = attempted;
  outcome->failed = failures;
  if (config.trace) {
    ReportReplay(replay, &report);
  }

  report.Set("setup_s",
             median_of([](const CycleResult& c) { return c.setup_s; }));
  report.Set("setup.corpus_s",
             median_of([](const CycleResult& c) { return c.corpus_s; }));
  report.Set("setup.build_s",
             median_of([](const CycleResult& c) { return c.build_s; }));
  report.Set("setup.durable_s",
             median_of([](const CycleResult& c) { return c.durable_s; }));
  report.Set("setup.warm_s",
             median_of([](const CycleResult& c) { return c.warm_s; }));
  report.Set("space_ratio",
             median_of([](const CycleResult& c) { return c.space_ratio; }));
  report.Set("core.avg_factor_len",
             median_of([](const CycleResult& c) { return c.avg_factor_len; }));
  report.Set("failed_frac", reads == 0 ? 0.0
                                       : static_cast<double>(reads_bad) /
                                             static_cast<double>(reads));
  // Read latency: over the quieter half of the read windows of all cycles.
  const std::vector<size_t> quiet_windows = QuietHalf(window_steal);
  report.Set("range_p50_us", Median(Pick(window_p50, quiet_windows)));
  report.Set("range_p99_us", Median(Pick(window_p99, quiet_windows)));
  report.Set("gen.steal_pct", Median(steal));
  report.Note("cycle_steal_pct", JoinNumbers(steal));
  report.Note("range.cycle_p50_us", JoinNumbers(cycle_p50));
  report.Note("range.window_p50_us", JoinNumbers(window_p50));
  report.Note("range.window_p99_us", JoinNumbers(window_p99));
  report.Note("range.window_steal_pct", JoinNumbers(window_steal));
  report.Samples("range.samples", range_n);
  report.Samples("range.windows", window_p50.size());
  report.Samples("range.quiet_windows", quiet_windows.size());
  report.Samples("quiet_cycles", quiet.size());
  report.Samples("reads.not_found_deleted", reads_not_found);
  report.Set("append_p50_us", Median(append_us));
  report.Set("append_p99_us",
             Quantile(append_us, TailQuantile(append_us.size())));
  report.Samples("append.samples", append_us.size());
  report.Set("appends_per_s", quiet_median_of([](const CycleResult& c) {
               return c.appends_per_s;
             }));
  report.Set("write_amp",
             median_of([](const CycleResult& c) { return c.write_amp; }));
  report.Set("recover_s",
             quiet_median_of([](const CycleResult& c) { return c.recover_s; }));
  report.Set("store.append_noseal_p99_us",
             Quantile(noseal_us, TailQuantile(noseal_us.size())));
  report.Set("store.append_seal_p99_us",
             Quantile(seal_us, TailQuantile(seal_us.size())));
  report.Samples("append.seal_samples", seal_us.size());
  report.Note("store.append_seal_p99_us.quantile",
              std::to_string(TailQuantile(seal_us.size())));
  report.Set("store.seals", median_of([](const CycleResult& c) {
               return static_cast<double>(c.seals);
             }));
  report.Set("store.compactions", median_of([](const CycleResult& c) {
               return static_cast<double>(c.compactions);
             }));
  report.Set("store.compact_ms_p50", Median(compact_ms));
  report.Samples("compact.samples", compact_ms.size());
  report.Set("store.compact_bytes_rewritten", median_of([](const CycleResult& c) {
               return static_cast<double>(c.compact_bytes);
             }));
  report.Set("store.checkpoint_ms_p50", Median(checkpoint_ms));
  report.Set("wal.fsyncs", median_of([](const CycleResult& c) {
               return static_cast<double>(c.wal_fsyncs);
             }));
  report.Set("wal.sync_s",
             quiet_median_of([](const CycleResult& c) { return c.wal_sync_s; }));
  report.Set("wal.sync_p50_us", Median(wal_sync_us));
  report.Samples("wal.sync_samples", wal_sync_us.size());
  report.Set("io.bytes_written", median_of([](const CycleResult& c) {
               return static_cast<double>(c.bytes_written);
             }));
  report.Set("recovery.replayed_records", median_of([](const CycleResult& c) {
               return static_cast<double>(c.replayed);
             }));
  report.Set("recovery.read_s", quiet_median_of([](const CycleResult& c) {
               return c.recovery_read_s;
             }));
  report.Set("recovery.read_mb",
             median_of([](const CycleResult& c) { return c.recovery_read_mb; }));
  report.Set("recovery.cpu_s", quiet_median_of([](const CycleResult& c) {
               return c.recover_s - c.recovery_read_s;
             }));
  ReportPhaseCounters(counters, &report);
  report.Samples("serve.queue_warm_requests", cycles.front().warm.requests);
  report.Note("serve.queue_warm_max_us", std::to_string(warm_max_us));
  report.Set("gen.late_p99_us", Quantile(late_us, 0.99));
  report.Set("gen.backlog_max", static_cast<double>(backlog_max));
  report.Set("trace.overhead_us",
             config.trace && !traced_p50.empty()
                 ? Median(traced_p50) - Median(untraced_p50)
                 : 0.0);
  report.Samples("cycles", cycles.size());
  report.Note("flush_policy",
              "WAL fsync_every_n=" + std::to_string(kFsyncEveryN) +
                  ", SyncWal before the crash");
  report.Note("store", cycles.front().store_name + " (durable)");
  report.Note("corpus_bytes", std::to_string(cycles.front().base_bytes));
  report.Note("corpus_docs", std::to_string(cycles.front().base_docs));
  report.Note("fresh_docs", std::to_string(fresh.collection.num_docs()));
  report.Note("fresh_bytes", std::to_string(fresh.collection.size_bytes()));
  report.Note("read_rate", std::to_string(kIngestReadRate));
  RLZ_RETURN_IF_ERROR(WriteTrace(config, tracer, &report));
  outcome->input_digest = digest.h;
  report.Set("rss_mb", PeakRssMb());
  return Status::OK();
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "hot-snippets" || name == "cold-pages" ||
         name == "ingest-recover";
}

Status RunWorkload(const RunConfig& config, RunOutcome* outcome) {
  if (!IsWorkload(config.workload)) {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  StampProvenance(config, &outcome->report);
  std::filesystem::create_directories(config.out_dir);
  return config.workload == "ingest-recover"
             ? RunIngestWorkload(config, outcome)
             : RunReadWorkload(config, outcome);
}

}  // namespace perfbench
