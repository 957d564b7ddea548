// Network serving load bench (DESIGN.md §13): N client connections, each
// keeping a pipeline of K requests in flight against one epoll DocServer
// over loopback TCP, sweeping connections x pipelining depth. The decode
// cache is large and warmed so rows measure the network front end
// (framing, the event loop and its per-round coalescing, the completion
// wakeup), not RLZ decode speed.
//
// Two request shapes, matching the two serving stories:
//  - snippet: GetRange of a 400-byte query-biased window (the paper's
//    snippet path). Tiny payloads make per-request overhead — syscalls,
//    loopback round trips, frame headers — the dominant cost, which is
//    exactly what pipelining and request coalescing amortize. These rows
//    form the sweep and the gate.
//  - bulk: MultiGet of a 4-document result page (~70 KB of payload).
//    Throughput here is memcpy/bandwidth-bound, so pipelining buys little
//    and deep pipelines mostly add queueing; the pair is recorded
//    ungated to document that boundary honestly.
//
// Reports wall-clock requests/s plus client-observed round-trip latency
// percentiles per row (at depth > 1 latency includes pipeline queueing,
// which is the point), and writes machine-readable JSON (default
// BENCH_net.json, stamped with the host's provenance).
//
// The smoke gate asserts the subsystem's reason to exist: at 4
// connections, snippet depth-16 requests/s must be at least
// kMinPipelineRatio x depth-1 (best of kGateRepeats runs each). The gate
// is wall-clock on every host — pipelining amortizes per-request
// overhead, not cores, so it holds on 1-vCPU runners.
//
// The --overload phase (DESIGN.md §14) measures the overload-protection
// story on a dedicated overload-tuned server (one worker, small queues,
// tight per-connection best-effort budget): a best-effort flood drives
// sustained shedding while paced high-priority traffic measures accepted
// latency. Two gates: shed responses fail fast (client-observed median
// under 1 ms — rejection must be cheaper than service), and accepted
// high-priority p99 stays within 2x the unsaturated p99 measured on the
// same server without the flood (overload must not leak into the classes
// admission protects). The p99 gate reads the median of
// kOverloadRepeats ratios, each repeat measured against its own
// unsaturated basis: one p99 of a short run is too noisy to gate alone.
//
//   ./build/bench/net_load_bench              full sweep
//   ./build/bench/net_load_bench --smoke      small corpus, gated subset
//         (run by the perf-smoke CI job; exit 1 on gate failure)
//   ./build/bench/net_load_bench --overload   add the overload phase +
//         its gates (exit 1 on failure; CI runs --smoke --overload)
//   ./build/bench/net_load_bench --out FILE   JSON destination

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "corpus/generator.h"
#include "io/file.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gate: at 4 connections, snippet depth-16 must beat
// depth-1 by this factor on requests/s.
constexpr double kMinPipelineRatio = 1.3;
// Gated rows are measured this many times; the best run gates (absorbs
// scheduler noise on shared CI runners).
constexpr int kGateRepeats = 2;
// Snippet window length (the example's query-biased window).
constexpr size_t kSnippetBytes = 400;
// Documents per bulk MultiGet request (a search result page).
constexpr size_t kPageDocs = 4;
// Overload gates (DESIGN.md §14): a shed must come back faster than this
// (median, client-observed), and accepted high-priority p99 under the
// flood must stay within this factor of the unsaturated p99 (the basis
// has a floor so a too-lucky baseline cannot make the gate unmeetable:
// on a 1-vCPU runner the unsaturated p99 can land under 100 us while
// scheduler timeslicing alone adds ~0.5 ms tail spikes under any
// concurrent load, so sub-ms baselines are not resolvable beyond noise).
constexpr double kMaxShedP50Us = 1000.0;
constexpr double kMaxOverloadP99Ratio = 2.0;
constexpr double kOverloadBasisFloorUs = 500.0;
// Overload repeats; both overload gates read medians over them.
constexpr int kOverloadRepeats = 5;

enum class Shape { kSnippet, kBulk };

struct NetLoadResult {
  double wall_rps = 0.0;  // requests (response frames) per second
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t requests = 0;
  uint64_t payload_bytes = 0;
  uint64_t batches = 0;    // server-side coalescing window count (delta)
  uint64_t coalesced = 0;  // doc requests in those windows (delta)
};

// One closed-loop row: `connections` client threads, each keeping `depth`
// requests in flight until it has received `requests_per_conn` responses.
// Latencies are per-response round trips measured at the client. The
// server (and its warm cache) is shared across rows; coalescing
// counters are reported as deltas.
NetLoadResult RunRow(net::DocServer& server, size_t num_docs, Shape shape,
                     int connections, size_t depth,
                     size_t requests_per_conn) {
  const net::NetServerStats before = server.stats();
  std::vector<std::vector<double>> latencies(connections);
  std::vector<uint64_t> bytes(connections, 0);
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client_or = net::NetClient::Connect(server.port());
      RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();
      Rng rng(0xbe7c0de + 31 * static_cast<uint64_t>(c));
      std::vector<uint64_t> ids(kPageDocs);
      std::vector<double> sent_at(depth);  // ring of in-flight send times
      Timer timer;
      size_t issued = 0;
      size_t received = 0;
      auto& lat = latencies[c];
      lat.reserve(requests_per_conn);
      const auto send_one = [&] {
        if (shape == Shape::kSnippet) {
          client->SendGetRange(rng.Uniform(num_docs), rng.Uniform(1024),
                               kSnippetBytes);
        } else {
          for (auto& id : ids) id = rng.Uniform(num_docs);
          client->SendMultiGet(ids);
        }
        sent_at[issued % depth] = timer.ElapsedSeconds();
        ++issued;
      };
      while (issued < depth && issued < requests_per_conn) send_one();
      while (received < requests_per_conn) {
        auto response = client->Receive();
        RLZ_CHECK(response.ok()) << response.status().ToString();
        RLZ_CHECK(response->ok()) << response->payload;
        if (shape == Shape::kSnippet) {
          RLZ_CHECK(response->payload.size() <= kSnippetBytes);
          bytes[c] += response->payload.size();
        } else {
          RLZ_CHECK(response->elements.size() == kPageDocs);
          for (const auto& elem : response->elements) {
            RLZ_CHECK(elem.code == net::WireCode::kOk);
            bytes[c] += elem.bytes.size();
          }
        }
        lat.push_back(timer.ElapsedSeconds() - sent_at[received % depth]);
        ++received;
        if (issued < requests_per_conn) send_one();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  const net::NetServerStats after = server.stats();

  NetLoadResult result;
  std::vector<double> merged;
  for (auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  std::sort(merged.begin(), merged.end());
  const auto pct = [&](double p) {
    return merged.empty()
               ? 0.0
               : 1e6 * merged[std::min(merged.size() - 1,
                                       static_cast<size_t>(p * merged.size()))];
  };
  result.requests = merged.size();
  for (uint64_t b : bytes) result.payload_bytes += b;
  result.wall_rps = result.requests / wall_seconds;
  result.p50_us = pct(0.50);
  result.p99_us = pct(0.99);
  result.p999_us = pct(0.999);
  result.batches = after.batches - before.batches;
  result.coalesced = after.coalesced_requests - before.coalesced_requests;
  return result;
}

void PrintRow(const char* shape, int connections, size_t depth,
              const NetLoadResult& r) {
  std::printf("%-8s %-12d %-8zu %10.0f %9.1f %9.1f %9.1f %8.1f\n", shape,
              connections, depth, r.wall_rps, r.p50_us, r.p99_us, r.p999_us,
              r.batches > 0 ? static_cast<double>(r.coalesced) / r.batches
                            : 0.0);
}

void AppendJsonRow(const char* shape, int connections, size_t depth,
                   const NetLoadResult& r, bool last, std::string* json) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"shape\": \"%s\", \"connections\": %d, \"depth\": %zu, "
      "\"requests\": %llu, \"wall_rps\": %.0f, \"p50_us\": %.1f, "
      "\"p99_us\": %.1f, \"p999_us\": %.1f, \"payload_bytes\": %llu, "
      "\"batches\": %llu, \"coalesced\": %llu}%s\n",
      shape, connections, depth,
      static_cast<unsigned long long>(r.requests), r.wall_rps, r.p50_us,
      r.p99_us, r.p999_us,
      static_cast<unsigned long long>(r.payload_bytes),
      static_cast<unsigned long long>(r.batches),
      static_cast<unsigned long long>(r.coalesced), last ? "" : ",");
  json->append(buf);
}

// Percentile (µs) over a vector of latencies in seconds (copies + sorts;
// overload-phase vectors are small).
double PercentileUs(std::vector<double> latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  return 1e6 * latencies[std::min(latencies.size() - 1,
                                  static_cast<size_t>(p * latencies.size()))];
}

// The overload phase's measured load: `connections` paced (depth-1)
// high-priority snippet clients, each running `requests_per_conn` round
// trips. Returns the merged client-observed latencies in seconds. Every
// response must be served — high priority is the class admission
// protects, so a shed here is a bench failure, not a data point.
std::vector<double> RunPacedHigh(uint16_t port, size_t num_docs,
                                 int connections,
                                 size_t requests_per_conn) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::NetClientOptions copts;
      copts.priority = RequestPriority::kHigh;
      auto client_or = net::NetClient::Connect(port, copts);
      RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();
      Rng rng(0x0f00d + 17 * static_cast<uint64_t>(c));
      Timer timer;
      auto& lat = latencies[c];
      lat.reserve(requests_per_conn);
      for (size_t i = 0; i < requests_per_conn; ++i) {
        const double t0 = timer.ElapsedSeconds();
        auto r = client->GetRange(rng.Uniform(num_docs), rng.Uniform(1024),
                                  kSnippetBytes);
        RLZ_CHECK(r.ok()) << "high-priority request failed under load: "
                          << r.status().ToString();
        lat.push_back(timer.ElapsedSeconds() - t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> merged;
  for (auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  return merged;
}

// One best-effort flood connection: bursts of `depth` pipelined Get
// requests until `stop`. With depth > the server's per-connection
// best-effort budget, every burst sheds the excess at parse time —
// sustained overload by construction. Between bursts the client sleeps
// a short think time, modeling shed clients that honor backoff instead
// of busy-looping (NetClient's retry policy); without it, flood threads
// spinning on fast sheds would measure host CPU contention, not the
// server's overload behavior. Records client-observed round-trip
// latency of each shed (the fail-fast path the gate measures) and
// counts served vs shed responses.
void FloodBestEffort(uint16_t port, size_t num_docs, size_t depth,
                     const std::atomic<bool>* stop,
                     std::vector<double>* shed_latencies, uint64_t* served,
                     uint64_t* sheds) {
  net::NetClientOptions copts;
  copts.priority = RequestPriority::kBestEffort;
  auto client_or = net::NetClient::Connect(port, copts);
  RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  Rng rng(0xf100d + 41 * static_cast<uint64_t>(port));
  Timer timer;
  std::vector<double> sent_at(depth);
  while (!stop->load(std::memory_order_relaxed)) {
    for (size_t i = 0; i < depth; ++i) {
      client->SendGet(rng.Uniform(num_docs));
      sent_at[i] = timer.ElapsedSeconds();
    }
    for (size_t i = 0; i < depth; ++i) {
      auto response = client->Receive();
      RLZ_CHECK(response.ok()) << response.status().ToString();
      const double rtt = timer.ElapsedSeconds() - sent_at[i];
      if (response->code == net::WireCode::kOk) {
        ++*served;
      } else {
        RLZ_CHECK(response->code == net::WireCode::kUnavailable)
            << "unexpected flood response code "
            << net::WireCodeToString(response->code);
        shed_latencies->push_back(rtt);
        ++*sheds;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// One overload repeat's numbers.
struct OverloadPhase {
  double unsat_p50_us = 0.0;
  double unsat_p99_us = 0.0;
  double accepted_p50_us = 0.0;
  double accepted_p99_us = 0.0;
  double shed_p50_us = 0.0;
  double shed_p99_us = 0.0;
  uint64_t unsat_requests = 0;
  uint64_t accepted = 0;
  uint64_t sheds = 0;
  uint64_t flood_served = 0;

  // Accepted p99 over this repeat's own unsaturated basis (floored).
  double p99_ratio() const {
    return accepted_p99_us / std::max(unsat_p99_us, kOverloadBasisFloorUs);
  }
};

// The overload phase (DESIGN.md §14): a dedicated overload-tuned server
// (one worker, small admission queue, best-effort budget of 4 per
// connection — overload must be reachable on any host) serving two
// loads at once: a 4-connection depth-16 best-effort flood that sheds
// by construction, and paced high-priority clients measuring accepted
// latency. The unsaturated baseline is the same paced load on the same
// server without the flood, measured afresh before each of the
// kOverloadRepeats repeats returned.
std::vector<OverloadPhase> RunOverload(ShardedStore* store, size_t num_docs,
                                       bool smoke) {
  DocServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_depth = 64;
  service_options.cache_bytes = 64u << 20;
  DocService service(store, service_options);
  net::DocServerOptions server_options;
  server_options.max_best_effort_per_conn = 4;
  net::DocServer server(&service, server_options);
  const Status started = server.Start();
  RLZ_CHECK(started.ok()) << started.ToString();
  {
    // Warm this service's cache too: the phase measures admission and
    // shedding, not decode speed.
    ServeBatch batch;
    std::vector<size_t> ids(num_docs);
    for (size_t i = 0; i < num_docs; ++i) ids[i] = i;
    service.SubmitBatch(ids, &batch);
    for (const GetResult& r : batch.Wait()) {
      RLZ_CHECK(r.ok()) << r.status.ToString();
    }
  }

  const int measured_conns = 2;
  const size_t measured_requests = smoke ? 1500 : 4000;
  const int flood_conns = 4;
  const size_t flood_depth = 16;

  std::vector<OverloadPhase> repeats;
  for (int rep = 0; rep < kOverloadRepeats; ++rep) {
    OverloadPhase r;
    std::vector<double> unsat =
        RunPacedHigh(server.port(), num_docs, measured_conns,
                     measured_requests);
    r.unsat_requests = unsat.size();
    r.unsat_p50_us = PercentileUs(unsat, 0.50);
    r.unsat_p99_us = PercentileUs(unsat, 0.99);

    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> shed_latencies(flood_conns);
    std::vector<uint64_t> served(flood_conns, 0);
    std::vector<uint64_t> sheds(flood_conns, 0);
    std::vector<std::thread> flood;
    flood.reserve(flood_conns);
    for (int f = 0; f < flood_conns; ++f) {
      flood.emplace_back([&, f] {
        FloodBestEffort(server.port(), num_docs, flood_depth, &stop,
                        &shed_latencies[f], &served[f], &sheds[f]);
      });
    }
    // Let the flood saturate before measuring.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<double> accepted =
        RunPacedHigh(server.port(), num_docs, measured_conns,
                     measured_requests);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : flood) t.join();

    r.accepted = accepted.size();
    r.accepted_p50_us = PercentileUs(accepted, 0.50);
    r.accepted_p99_us = PercentileUs(accepted, 0.99);
    std::vector<double> shed_merged;
    for (int f = 0; f < flood_conns; ++f) {
      shed_merged.insert(shed_merged.end(), shed_latencies[f].begin(),
                         shed_latencies[f].end());
      r.sheds += sheds[f];
      r.flood_served += served[f];
    }
    RLZ_CHECK(r.sheds > 0) << "overload phase produced no sheds";
    r.shed_p50_us = PercentileUs(shed_merged, 0.50);
    r.shed_p99_us = PercentileUs(shed_merged, 0.99);
    repeats.push_back(r);
  }
  server.Shutdown();
  service.Shutdown();
  return repeats;
}

// The median of `values` (an odd count picks the middle one).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Run(bool smoke, bool overload, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (8u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  const auto store = ShardedStore::Build(collection, store_options);
  const size_t num_docs = collection.num_docs();

  // One service + server for every row: the decode cache holds the whole
  // collection after warmup, so rows measure the wire, not the decoder.
  DocServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache_bytes = 64u << 20;
  DocService service(store.get(), service_options);
  net::DocServer server(&service);
  const Status started = server.Start();
  RLZ_CHECK(started.ok()) << started.ToString();

  // Correctness spot check before any timing: wire bytes == direct bytes.
  {
    auto client_or = net::NetClient::Connect(server.port());
    RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
    auto client = std::move(client_or).value();
    Rng rng(7);
    for (int i = 0; i < 16; ++i) {
      const size_t id = rng.Uniform(num_docs);
      auto wire = client->Get(id);
      RLZ_CHECK(wire.ok()) << wire.status().ToString();
      const GetResult direct = service.Get(id).get();
      RLZ_CHECK(direct.ok()) << direct.status.ToString();
      RLZ_CHECK(*wire == *direct.text) << "wire/direct mismatch doc " << id;
    }
  }
  // Cache warmup: touch every document once.
  {
    ServeBatch batch;
    std::vector<size_t> ids(num_docs);
    for (size_t i = 0; i < num_docs; ++i) ids[i] = i;
    service.SubmitBatch(ids, &batch);
    for (const GetResult& r : batch.Wait()) {
      RLZ_CHECK(r.ok()) << r.status.ToString();
    }
  }

  const unsigned hw = UsableThreads();
  const size_t snippet_requests = smoke ? 3000 : 10000;
  const size_t bulk_requests = smoke ? 400 : 1500;
  std::printf("net_load_bench (%s): %zu docs, %.1f MB, %s, hw=%u, "
              "snippet=%zu B, page=%zu docs\n",
              smoke ? "smoke" : "full", num_docs,
              collection.size_bytes() / (1024.0 * 1024.0),
              store->name().c_str(), hw, kSnippetBytes, kPageDocs);
  std::printf("%-8s %-12s %-8s %10s %9s %9s %9s %8s\n", "shape",
              "connections", "depth", "req/s", "p50 us", "p99 us",
              "p999 us", "avg/bat");

  std::string json;
  char buf[512];
  json.append("{\n  \"bench\": \"net_load\",\n");
  json.append(smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n");
  std::snprintf(buf, sizeof(buf),
                "  \"corpus\": {\"docs\": %zu, \"bytes\": %llu, "
                "\"seed\": %llu},\n",
                num_docs,
                static_cast<unsigned long long>(collection.size_bytes()),
                static_cast<unsigned long long>(corpus_options.seed));
  json.append(buf);
  json.append("  \"store\": \"" + store->name() + "\",\n");
  json.append("  \"provenance\": " + ProvenanceJson("") + ",\n");
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"snippet_bytes\": %zu, \"page_docs\": %zu, "
                "\"snippet_requests_per_conn\": %zu, "
                "\"bulk_requests_per_conn\": %zu, \"cache_warm\": true},\n",
                kSnippetBytes, kPageDocs, snippet_requests, bulk_requests);
  json.append(buf);
  json.append("  \"rows\": [\n");

  // The snippet sweep. The gated pair (4 connections, depth 1 vs 16) is
  // measured kGateRepeats times in smoke mode; the best run is recorded
  // and gates.
  const std::vector<int> conn_sweep = smoke ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4, 8};
  const std::vector<size_t> depth_sweep =
      smoke ? std::vector<size_t>{1, 16} : std::vector<size_t>{1, 4, 16};
  NetLoadResult gate_shallow, gate_deep;
  for (const int conns : conn_sweep) {
    for (const size_t depth : depth_sweep) {
      const bool gated = conns == 4 && (depth == 1 || depth == 16);
      NetLoadResult best;
      const int repeats = (smoke && gated) ? kGateRepeats : 1;
      for (int rep = 0; rep < repeats; ++rep) {
        const NetLoadResult r = RunRow(server, num_docs, Shape::kSnippet,
                                       conns, depth, snippet_requests);
        if (rep == 0 || r.wall_rps > best.wall_rps) best = r;
      }
      if (conns == 4 && depth == 1) gate_shallow = best;
      if (conns == 4 && depth == 16) gate_deep = best;
      PrintRow("snippet", conns, depth, best);
      AppendJsonRow("snippet", conns, depth, best, /*last=*/false, &json);
    }
  }
  // The bulk pair: bandwidth-bound result pages, recorded ungated.
  for (const size_t depth : {size_t{1}, size_t{16}}) {
    const NetLoadResult r =
        RunRow(server, num_docs, Shape::kBulk, 4, depth, bulk_requests);
    PrintRow("bulk", 4, depth, r);
    AppendJsonRow("bulk", 4, depth, r, /*last=*/depth == 16, &json);
  }
  json.append("  ],\n");

  const net::NetServerStats net_stats = server.stats();
  std::snprintf(
      buf, sizeof(buf),
      "  \"server\": {\"connections_accepted\": %llu, "
      "\"frames_received\": %llu, \"bytes_sent\": %llu, "
      "\"reads_paused\": %llu, \"protocol_errors\": %llu},\n",
      static_cast<unsigned long long>(net_stats.connections_accepted),
      static_cast<unsigned long long>(net_stats.frames_received),
      static_cast<unsigned long long>(net_stats.bytes_sent),
      static_cast<unsigned long long>(net_stats.reads_paused),
      static_cast<unsigned long long>(net_stats.protocol_errors));
  json.append(buf);

  bool overload_pass = true;
  if (overload) {
    std::vector<OverloadPhase> repeats =
        RunOverload(store.get(), num_docs, smoke);
    std::vector<double> shed_p50s;
    for (const OverloadPhase& r : repeats) shed_p50s.push_back(r.shed_p50_us);
    const double shed_p50 = Median(shed_p50s);
    std::string ratios_json;
    for (const OverloadPhase& r : repeats) {
      std::snprintf(buf, sizeof(buf), "%s%.2f",
                    ratios_json.empty() ? "" : ", ", r.p99_ratio());
      ratios_json += buf;
    }
    // The repeat with the median p99 ratio is the one printed and gated.
    std::sort(repeats.begin(), repeats.end(),
              [](const OverloadPhase& a, const OverloadPhase& b) {
                return a.p99_ratio() < b.p99_ratio();
              });
    const OverloadPhase& o = repeats[repeats.size() / 2];
    const double basis = std::max(o.unsat_p99_us, kOverloadBasisFloorUs);
    const double p99_ratio = o.p99_ratio();
    const bool shed_pass = shed_p50 < kMaxShedP50Us;
    const bool p99_pass = p99_ratio <= kMaxOverloadP99Ratio;
    overload_pass = shed_pass && p99_pass;
    std::printf(
        "overload: 4x16 best-effort flood (budget 4/conn) vs 2x depth-1 "
        "high, median-ratio repeat of %d\n"
        "  unsaturated  p50 %8.1f us  p99 %8.1f us  (%llu requests)\n"
        "  accepted     p50 %8.1f us  p99 %8.1f us  (%llu requests)\n"
        "  shed         p50 %8.1f us  p99 %8.1f us  (%llu sheds, %llu "
        "flood served)\n",
        kOverloadRepeats, o.unsat_p50_us, o.unsat_p99_us,
        static_cast<unsigned long long>(o.unsat_requests), o.accepted_p50_us,
        o.accepted_p99_us, static_cast<unsigned long long>(o.accepted),
        o.shed_p50_us, o.shed_p99_us,
        static_cast<unsigned long long>(o.sheds),
        static_cast<unsigned long long>(o.flood_served));
    std::printf(
        "overload gate: median shed p50 < %.0f us: %s (%.1f us); median "
        "accepted p99 <= %.1fx its basis: %s (%.2fx; all: %s)\n",
        kMaxShedP50Us, shed_pass ? "PASS" : "FAIL", shed_p50,
        kMaxOverloadP99Ratio, p99_pass ? "PASS" : "FAIL", p99_ratio,
        ratios_json.c_str());
    std::snprintf(
        buf, sizeof(buf),
        "  \"overload\": {\"unsat_p50_us\": %.1f, \"unsat_p99_us\": %.1f, "
        "\"unsat_requests\": %llu, \"accepted_p50_us\": %.1f, "
        "\"accepted_p99_us\": %.1f, \"accepted\": %llu,\n",
        o.unsat_p50_us, o.unsat_p99_us,
        static_cast<unsigned long long>(o.unsat_requests), o.accepted_p50_us,
        o.accepted_p99_us, static_cast<unsigned long long>(o.accepted));
    json.append(buf);
    std::snprintf(
        buf, sizeof(buf),
        "    \"shed_p50_us\": %.1f, \"shed_p99_us\": %.1f, \"sheds\": %llu, "
        "\"flood_served\": %llu, \"max_shed_p50_us\": %.0f, "
        "\"median_shed_p50_us\": %.1f, "
        "\"max_p99_ratio\": %.1f, \"p99_basis_us\": %.1f, "
        "\"p99_ratio\": %.2f, \"pass\": %s,\n",
        o.shed_p50_us, o.shed_p99_us,
        static_cast<unsigned long long>(o.sheds),
        static_cast<unsigned long long>(o.flood_served), kMaxShedP50Us,
        shed_p50, kMaxOverloadP99Ratio, basis, p99_ratio,
        overload_pass ? "true" : "false");
    json.append(buf);
    json.append("    \"repeats\": " + std::to_string(kOverloadRepeats) +
                ", \"p99_ratios\": [" + ratios_json + "]},\n");
  }

  const double ratio = gate_shallow.wall_rps > 0
                           ? gate_deep.wall_rps / gate_shallow.wall_rps
                           : 0.0;
  const bool gate_pass = ratio >= kMinPipelineRatio;
  std::snprintf(
      buf, sizeof(buf),
      "  \"gate\": {\"basis\": \"wall\", \"shape\": \"snippet\", "
      "\"min_pipeline_ratio\": %.2f, \"depth1_rps\": %.0f, "
      "\"depth16_rps\": %.0f, \"ratio\": %.2f, \"pass\": %s}\n}\n",
      kMinPipelineRatio, gate_shallow.wall_rps, gate_deep.wall_rps, ratio,
      gate_pass ? "true" : "false");
  json.append(buf);

  const Status write_status = WriteFile(out_path, json);
  RLZ_CHECK(write_status.ok()) << write_status.ToString();
  std::printf("wrote %s\n", out_path.c_str());

  server.Shutdown();
  service.Shutdown();
  if (smoke) {
    std::printf("smoke gate (wall basis, snippet): 4-conn depth-16 >= "
                "%.2fx depth-1: %s (%.2fx)\n",
                kMinPipelineRatio, gate_pass ? "PASS" : "FAIL", ratio);
    if (!gate_pass) return 1;
  }
  if (!overload_pass) return 1;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  bool overload = false;
  std::string out_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--overload] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  return rlz::bench::Run(smoke, overload, out_path);
}
