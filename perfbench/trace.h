#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans for the traced run. Each span has a name, a start and
// end on the steady clock, the span that caused it (0 = none) and the id
// of the request it belongs to; spans of one request share that id. The
// spans are kept in memory while the benchmark runs and written out once
// at the end, so recording costs a vector append under a mutex.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

uint64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (0 when tracing is off).
  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  uint64_t start_ns, uint64_t end_ns);

  size_t size() const;

  // Writes one JSON object per line; times are relative to the first
  // span's start.
  rlz::Status WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
