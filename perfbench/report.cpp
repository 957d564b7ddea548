#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// Predictions: the end-to-end metric each per-layer metric should move,
// and on which workload. On every other workload the prediction is no
// change.
const std::vector<MetricSpec>& Catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // End to end.
      {"setup_s", "s", "e2e", "all", "", ""},
      {"rss_mb", "MB", "e2e", "all", "", ""},
      {"space_ratio", "ratio", "e2e", "all", "", ""},
      {"failed_frac", "ratio", "e2e", "all", "", ""},
      {"range_p50_us", "us", "e2e", "all", "", ""},
      {"range_p99_us", "us", "e2e", "all", "", ""},
      {"get_p50_us", "us", "e2e", "cold", "", ""},
      {"get_p99_us", "us", "e2e", "cold", "", ""},
      {"slo_rps", "1/s", "e2e", "read", "", ""},
      {"append_p50_us", "us", "e2e", "ingest", "", ""},
      {"append_p99_us", "us", "e2e", "ingest", "", ""},
      {"appends_per_s", "docs/s", "e2e", "ingest", "", ""},
      {"write_amp", "ratio", "e2e", "ingest", "", ""},
      {"recover_s", "s", "e2e", "ingest", "", ""},
      // net: DocServer, protocol, poller.
      {"net.self_p50_us", "us", "net", "all", "range_p50_us", "hot-snippets"},
      {"net.self_p99_us", "us", "net", "all", "range_p99_us", "hot-snippets"},
      {"net.coalesce_ratio", "ratio", "net", "all", "slo_rps",
       "hot-snippets"},
      {"net.reads_paused", "count", "net", "all", "failed_frac", "all"},
      {"net.sheds", "count", "net", "all", "failed_frac", "all"},
      {"net.protocol_errors", "count", "net", "all", "failed_frac", "all"},
      // serve: DocService, request queues, decode cache.
      {"serve.queue_p50_us", "us", "serve", "all", "range_p99_us",
       "hot-snippets"},
      {"serve.queue_p99_us", "us", "serve", "all", "range_p99_us",
       "hot-snippets"},
      {"serve.self_p50_us", "us", "serve", "all", "range_p50_us",
       "hot-snippets"},
      {"serve.cache_hit_ratio", "ratio", "serve", "all",
       "get_p50_us,range_p50_us", "cold-pages"},
      {"serve.cache_evictions", "count", "serve", "all",
       "get_p50_us,range_p50_us", "cold-pages"},
      {"serve.cpu_us_per_req", "us", "serve", "all", "slo_rps", "cold-pages"},
      {"serve.requests", "count", "serve", "all", "", ""},
      {"serve.steals", "count", "serve", "all", "failed_frac", "all"},
      {"serve.shed", "count", "serve", "all", "failed_frac", "all"},
      {"serve.expired", "count", "serve", "all", "failed_frac", "all"},
      {"serve.failures", "count", "serve", "all", "failed_frac", "all"},
      // store (ShardedStore) and core (factor coder, archive, Huffman).
      {"store.range_decode_p50_us", "us", "store", "all", "range_p50_us",
       "cold-pages"},
      {"store.range_decode_p99_us", "us", "store", "all", "range_p50_us",
       "cold-pages"},
      {"store.get_decode_p50_us", "us", "store", "all", "get_p50_us",
       "cold-pages"},
      {"store.range_to_get_ratio", "ratio", "store", "all", "range_p50_us",
       "cold-pages"},
      {"core.decode_mb_s", "MB/s", "core", "all", "get_p50_us", "cold-pages"},
      {"core.avg_factor_len", "bytes", "core", "all", "space_ratio", "all"},
      // build and store/wal: seal, compaction, checkpoint, WAL.
      {"store.append_noseal_p99_us", "us", "build", "ingest", "append_p99_us",
       "ingest-recover"},
      {"store.append_seal_p99_us", "us", "build", "ingest", "append_p99_us",
       "ingest-recover"},
      {"store.seals", "count", "build", "all", "write_amp,range_p99_us",
       "ingest-recover"},
      {"store.compactions", "count", "build", "all", "write_amp,range_p99_us",
       "ingest-recover"},
      {"store.compact_ms_p50", "ms", "build", "ingest",
       "write_amp,range_p99_us", "ingest-recover"},
      {"store.compact_bytes_rewritten", "bytes", "build", "all",
       "write_amp,range_p99_us", "ingest-recover"},
      {"store.checkpoint_ms_p50", "ms", "wal", "ingest",
       "write_amp,range_p99_us", "ingest-recover"},
      {"wal.fsyncs", "count", "wal", "all", "append_p50_us", "ingest-recover"},
      {"wal.sync_p50_us", "us", "wal", "ingest", "append_p50_us",
       "ingest-recover"},
      {"wal.sync_s", "s", "wal", "ingest", "append_p50_us", "ingest-recover"},
      // io: the file system under the WAL and checkpoints.
      {"io.bytes_written", "bytes", "io", "all", "write_amp",
       "ingest-recover"},
      {"recovery.replayed_records", "count", "wal", "all", "recover_s",
       "ingest-recover"},
      {"recovery.read_s", "s", "io", "ingest", "recover_s", "ingest-recover"},
      {"recovery.read_mb", "MB", "io", "all", "recover_s", "ingest-recover"},
      {"recovery.cpu_s", "s", "wal", "ingest", "recover_s", "ingest-recover"},
      // Set-up phases (sum to setup_s).
      {"setup.corpus_s", "s", "setup", "all", "setup_s", "all"},
      {"setup.build_s", "s", "setup", "all", "setup_s", "all"},
      {"setup.durable_s", "s", "setup", "ingest", "setup_s",
       "ingest-recover"},
      {"setup.warm_s", "s", "setup", "all", "setup_s", "all"},
      // Validity of the run itself: no end-to-end metric should move.
      {"gen.late_p99_us", "us", "gen", "all", "", ""},
      {"gen.backlog_max", "count", "gen", "all", "", ""},
      {"gen.steal_pct", "%", "gen", "all", "", ""},
      {"trace.overhead_us", "us", "trace", "all", "", ""},
      {"trace.spans", "count", "trace", "all", "", ""},
  };
  return kCatalog;
}

namespace {

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& spec : Catalog()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

bool MetricApplies(const MetricSpec& spec, const std::string& workload) {
  const std::string applies = spec.applies;
  if (applies == "all") return true;
  if (applies == "read") {
    return workload == "hot-snippets" || workload == "cold-pages";
  }
  if (applies == "cold") return workload == "cold-pages";
  if (applies == "ingest") return workload == "ingest-recover";
  return false;
}

void Report::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void Report::Samples(const std::string& key, uint64_t n) { samples_[key] = n; }

std::string Report::Text() const {
  std::string out;
  char line[256];
  for (const MetricSpec& spec : Catalog()) {
    auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    std::snprintf(line, sizeof(line), "  %-8s %-28s %16.6g %s\n", spec.layer,
                  spec.name, it->second, spec.unit);
    out += line;
  }
  for (const auto& [key, n] : samples_) {
    std::snprintf(line, sizeof(line), "  samples  %-28s %16llu\n", key.c_str(),
                  static_cast<unsigned long long>(n));
    out += line;
  }
  return out;
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& spec : Catalog()) {
    auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    if (!first) out += ",";
    first = false;
    out += JsonString(spec.name) + ":{\"value\":" + JsonNumber(it->second) +
           ",\"unit\":" + JsonString(spec.unit) + ",\"layer\":" +
           JsonString(spec.layer);
    if (spec.moves[0] != '\0') {
      out += ",\"moves\":" + JsonString(spec.moves) +
             ",\"on\":" + JsonString(spec.on);
    }
    out += "}";
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [key, n] : samples_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + std::to_string(n);
  }
  out += "},\"provenance\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace perfbench
