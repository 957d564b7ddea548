// The benchmark program. One workload per invocation:
//
//   rlz_perfbench --workload hot-snippets|cold-pages|ingest-recover
//                 --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--commit ID]
//
// prints every metric of the workload by name with its unit, then a last
// line "PERFBENCH_RESULT {json}" holding all metrics, sample counts and
// provenance. Exit 0 when every response was correct, 1 when any was
// wrong or failed, 2 on a usage or set-up error.
//
//   rlz_perfbench --self-test [--out-dir DIR]
//
// runs every workload tiny and checks the benchmark itself: every metric
// is printed with its unit, a corrupted expected byte is caught, the same
// seed gives the same inputs and counts, a different seed different ones.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rlz_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID]\n"
               "       rlz_perfbench --self-test [--out-dir DIR]\n");
  return 2;
}

bool Run(const RunConfig& config, RunOutcome* outcome) {
  const rlz::Status status = RunWorkload(config, outcome);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return false;
  }
  return true;
}

int SelfTest(const std::string& out_dir) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& workload, const char* what) {
    std::printf("self-test %-15s %-4s %s\n", workload.c_str(),
                ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  for (const char* name : {"hot-snippets", "cold-pages", "ingest-recover"}) {
    RunConfig base;
    base.workload = name;
    base.seconds = 1.0;
    base.scale = 0.125;
    base.out_dir = out_dir + "/self-test";

    RunConfig traced = base;
    traced.seed = 11;
    traced.trace = true;
    RunConfig again = base;
    again.seed = 11;
    RunConfig other = base;
    other.seed = 12;
    RunConfig corrupt = base;
    corrupt.seed = 11;
    corrupt.corrupt_request = 3;

    RunOutcome a, b, c, d;
    if (!Run(traced, &a) || !Run(again, &b) || !Run(other, &c) ||
        !Run(corrupt, &d)) {
      expect(false, name, "runs complete");
      continue;
    }
    expect(a.correct() && b.correct() && c.correct(), name,
           "clean runs have no failed operation");

    bool all_metrics = true;
    const std::string text = a.report.Text();
    for (const MetricSpec& spec : Catalog()) {
      if (!MetricApplies(spec, name)) continue;
      const std::string line_start = std::string(" ") + spec.name + " ";
      const size_t at = text.find(line_start);
      const size_t eol = text.find('\n', at);
      const bool printed =
          at != std::string::npos &&
          text.compare(eol - std::strlen(spec.unit), std::strlen(spec.unit),
                       spec.unit) == 0;
      if (!printed) {
        std::printf("  missing metric %s [%s]\n", spec.name, spec.unit);
        all_metrics = false;
      }
    }
    expect(all_metrics, name, "every metric printed with its unit");
    expect(!d.correct() && d.failed >= 1, name,
           "a corrupted expected byte is caught");
    expect(a.input_digest == b.input_digest, name,
           "same seed, same request sequence");
    expect(a.input_digest != c.input_digest, name,
           "different seed, different request sequence");
    if (std::string(name) == "ingest-recover") {
      expect(a.report.Get("recovery.replayed_records") ==
                     b.report.Get("recovery.replayed_records") &&
                 a.report.Get("recovery.replayed_records") > 0,
             name, "same seed, same recovery.replayed_records");
    } else {
      expect(a.report.Get("space_ratio") == b.report.Get("space_ratio"), name,
             "same seed, same space_ratio");
      expect(a.report.Get("serve.requests") == b.report.Get("serve.requests"),
             name, "same seed, same serve.requests");
    }
  }
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunConfig;
  RunConfig config;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      config.out_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      config.commit = argv[++i];
    } else {
      return perfbench::Usage();
    }
  }
  if (self_test) return perfbench::SelfTest(config.out_dir);
  if (!have_workload || !perfbench::IsWorkload(config.workload) ||
      config.seconds <= 0) {
    return perfbench::Usage();
  }
  perfbench::RunOutcome outcome;
  if (!perfbench::Run(config, &outcome)) return 2;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("%s", outcome.report.Text().c_str());
  std::printf("PERFBENCH_RESULT %s\n",
              outcome.report
                  .Json(outcome.correct(), outcome.attempted, outcome.failed)
                  .c_str());
  return outcome.correct() ? 0 : 1;
}
