#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Tracer::Record(const char* name, uint64_t request, uint64_t parent,
                        uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

rlz::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return rlz::Status::IOError("cannot write " + path);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 ",\"start_ns\":%" PRIu64
                 ",\"end_ns\":%" PRIu64 "}\n",
                 s.name, s.id, s.parent, s.request, s.start_ns - origin,
                 s.end_ns - origin);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? rlz::Status::OK() : rlz::Status::IOError("cannot write " + path);
}

}  // namespace perfbench
