#ifndef PERFBENCH_LOAD_GEN_H_
#define PERFBENCH_LOAD_GEN_H_

// Open-loop load generator: one thread, four loopback connections,
// requests sent on a fixed schedule (request i is due at start + i/rate)
// whether or not earlier ones have been answered, as independent users
// would send them. Each request is timed from when it was due, so a
// server stall is charged to every request queued behind it, and the
// generator reports how late it sent (gen.late_*) and how many requests
// were due but unanswered at once (gen.backlog_max).
//
// The generator busy-polls its sockets (Poller::Wait with a zero timeout)
// instead of sleeping until the next due time. On a shared virtual
// machine a sleeping generator woke up to 5 ms late at p99 even at
// 500 requests/s, and an open-loop generator charges its own lateness to
// the system under test; busy-polling keeps gen.late_p99_us near 20 us at
// the price of one busy core on the client side.
//
// Frames are built with the net module's RequestOptions encoders, parsed
// with ParseFrame/DecodeResponseBody, and sockets are multiplexed with
// its Poller.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "trace.h"

namespace perfbench {

struct ReadOp {
  bool is_range = true;
  uint64_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

// The oracle's verdict on one response.
enum class Verdict {
  kOk,         // right bytes
  kNotFound,   // NotFound for an id the oracle knows was deleted
  kWrongBytes, // OK status, bytes differ from the generated collection
  kFailed,     // any other status (shed, deadline, error, bad NotFound)
};

// Loopback connections per generator; requests go round-robin over them.
constexpr int kConnections = 4;

struct OpenLoopConfig {
  uint16_t port = 0;
  double rate = 1000.0;  // requests per second
  size_t count = 0;      // requests to send (at most)
  // When non-null and set, no further requests are sent; the run ends
  // once every request already sent is answered.
  const std::atomic<bool>* stop = nullptr;
  // Returns request i; called once per request, when it is due.
  std::function<ReadOp(size_t i)> next_op;
  // Judges the response to request i (called on the generator thread).
  std::function<Verdict(size_t i, const ReadOp& op, rlz::net::WireCode code,
                        std::string_view payload)>
      check;
  // When enabled, one "wire.request" span per request, from due time to
  // response, with request id `request_base + i`.
  Tracer* tracer = nullptr;
  uint64_t request_base = 0;
};

struct OpenLoopResult {
  std::vector<double> range_us;  // latency from due time, OK ranges
  std::vector<double> get_us;    // latency from due time, OK whole docs
  std::vector<double> late_us;   // send time minus due time
  uint64_t attempted = 0;
  uint64_t not_found = 0;  // expected NotFound (deleted ids)
  uint64_t wrong_bytes = 0;
  uint64_t failed = 0;     // any other non-OK status, sheds included
  uint64_t backlog_max = 0;
  uint64_t backlog_at_end = 0;  // due-but-unanswered when the last was sent

  uint64_t bad() const { return wrong_bytes + failed; }
};

// Runs the schedule to completion (every request answered). Fails only
// on socket-level errors, which are returned as a non-OK status.
rlz::Status RunOpenLoop(const OpenLoopConfig& config, OpenLoopResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_GEN_H_
