#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The metric catalog and the result of one run. Every metric the
// benchmark can print is declared once in the catalog (report.cpp) with
// its unit, the layer it belongs to ("e2e" for end-to-end metrics), the
// workloads it applies to, and -- for a per-layer metric -- the
// end-to-end metric it should move and on which workload. A run records
// values only under catalog names, so a misspelt or unit-less metric is a
// bug caught at the call site.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* layer;    // "e2e", "net", "serve", "store", "core", ...
  const char* applies;  // "all", "read" (hot+cold), "cold", "ingest"
  const char* moves;    // end-to-end metric it should move ("" for e2e)
  const char* on;       // workload on which it should move
};

const std::vector<MetricSpec>& Catalog();
bool MetricApplies(const MetricSpec& spec, const std::string& workload);

class Report {
 public:
  // Records `value` under catalog metric `name` (aborts on unknown names).
  void Set(const std::string& name, double value);
  // The recorded value of `name`, 0 when none was recorded.
  double Get(const std::string& name) const;
  // Free-form context: provenance and notes.
  void Note(const std::string& key, const std::string& value);
  // Sample count behind a timing metric (or any other count worth stating).
  void Samples(const std::string& key, uint64_t n);

  // One "name value unit" line per metric, grouped by layer.
  std::string Text() const;
  // The whole result as one JSON object.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, uint64_t> samples_;
};

// Quantile q in [0, 1] of `v` (linear interpolation between order
// statistics); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
