#include "load_gen.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "net/poller.h"
#include "net/socket.h"

namespace perfbench {
namespace {

using rlz::Status;
using rlz::net::IoResult;

// A run in which no response arrives for this long is a hung server.
constexpr uint64_t kStallNs = 10'000'000'000ull;

struct Conn {
  rlz::net::ScopedFd fd;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  std::deque<size_t> inflight;  // request indices, in send order
  bool want_write = false;
};

Status Flush(rlz::net::Poller* poller, uint64_t tag, Conn* c) {
  while (c->out_pos < c->out.size()) {
    size_t n = 0;
    const IoResult r = rlz::net::WriteSome(
        c->fd.get(), c->out.data() + c->out_pos, c->out.size() - c->out_pos,
        &n);
    if (r == IoResult::kOk) {
      c->out_pos += n;
      continue;
    }
    if (r == IoResult::kWouldBlock) break;
    return Status::IOError("load generator: write to server failed");
  }
  if (c->out_pos == c->out.size()) {
    c->out.clear();
    c->out_pos = 0;
  }
  const bool want = !c->out.empty();
  if (want != c->want_write) {
    c->want_write = want;
    return poller->Modify(
        c->fd.get(), tag,
        rlz::net::kPollRead | (want ? rlz::net::kPollWrite : 0u));
  }
  return Status::OK();
}

}  // namespace

Status RunOpenLoop(const OpenLoopConfig& config, OpenLoopResult* result) {
  *result = OpenLoopResult{};
  const double gap_ns = 1e9 / config.rate;

  rlz::net::Poller poller;
  if (!poller.valid()) return Status::Internal("epoll_create failed");

  std::vector<Conn> conns(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    RLZ_ASSIGN_OR_RETURN(conns[c].fd, rlz::net::ConnectLoopback(config.port));
    RLZ_RETURN_IF_ERROR(rlz::net::SetNonBlocking(conns[c].fd.get()));
    RLZ_RETURN_IF_ERROR(poller.Add(conns[c].fd.get(), static_cast<uint64_t>(c),
                                   rlz::net::kPollRead));
  }

  std::vector<ReadOp> ops;  // ops[i] is request i, filled as it is sent
  const uint64_t start = NowNs() + 1'000'000;  // first request due in 1 ms
  auto due = [&](size_t i) {
    return start + static_cast<uint64_t>(static_cast<double>(i) * gap_ns);
  };

  rlz::net::RequestOptions opts;  // normal priority, no deadline, no CRC
  rlz::net::NetResponse response;
  std::vector<rlz::net::PollerEvent> events;
  events.reserve(8);
  size_t count = config.count;
  size_t next = 0;
  size_t completed = 0;
  uint64_t last_progress = start;

  while (completed < count) {
    const uint64_t now = NowNs();
    if (config.stop != nullptr && next < count &&
        config.stop->load(std::memory_order_acquire)) {
      count = next;
      result->backlog_at_end = next - completed;
      if (completed == count) break;
    }
    while (next < count && due(next) <= now) {
      const ReadOp op = config.next_op(next);
      ops.push_back(op);
      Conn& c = conns[next % kConnections];
      if (op.is_range) {
        rlz::net::EncodeGetRangeRequest(op.id, op.offset, op.length, opts,
                                        &c.out);
      } else {
        rlz::net::EncodeGetRequest(op.id, opts, &c.out);
      }
      c.inflight.push_back(next);
      result->late_us.push_back(static_cast<double>(now - due(next)) / 1e3);
      ++next;
      if (next == count) result->backlog_at_end = next - completed;
    }
    for (int c = 0; c < kConnections; ++c) {
      if (!conns[c].out.empty()) {
        RLZ_RETURN_IF_ERROR(
            Flush(&poller, static_cast<uint64_t>(c), &conns[c]));
      }
    }
    result->backlog_max =
        std::max<uint64_t>(result->backlog_max, next - completed);

    // Busy-poll: never block, so sends leave on time (see load_gen.h).
    RLZ_RETURN_IF_ERROR(poller.Wait(&events, 0));

    for (const rlz::net::PollerEvent& ev : events) {
      Conn& c = conns[ev.tag];
      if (ev.writable) {
        RLZ_RETURN_IF_ERROR(Flush(&poller, ev.tag, &c));
      }
      if (!ev.readable && !ev.error) continue;
      char buf[64 << 10];
      for (;;) {
        size_t n = 0;
        const IoResult r = rlz::net::ReadSome(c.fd.get(), buf, sizeof(buf), &n);
        if (r == IoResult::kOk) {
          c.in.append(buf, n);
          continue;
        }
        if (r == IoResult::kWouldBlock) break;
        return Status::IOError("load generator: server closed a connection");
      }
      const uint64_t done = NowNs();
      size_t pos = 0;
      for (;;) {
        rlz::net::MessageType type;
        uint8_t flags = 0;
        std::string_view body;
        size_t consumed = 0;
        std::string error;
        const rlz::net::ParseResult pr = rlz::net::ParseFrame(
            std::string_view(c.in).substr(pos), &type, &flags, &body,
            &consumed, &error);
        if (pr == rlz::net::ParseResult::kNeedMore) break;
        if (pr == rlz::net::ParseResult::kError || c.inflight.empty()) {
          return Status::Corruption("load generator: bad response frame: " +
                                    error);
        }
        RLZ_RETURN_IF_ERROR(
            rlz::net::DecodeResponseBody(type, flags, body, &response));
        pos += consumed;
        const size_t idx = c.inflight.front();
        c.inflight.pop_front();
        const ReadOp& op = ops[idx];
        const double latency_us = static_cast<double>(done - due(idx)) / 1e3;
        switch (config.check(idx, op, response.code, response.payload)) {
          case Verdict::kOk:
            (op.is_range ? result->range_us : result->get_us)
                .push_back(latency_us);
            break;
          case Verdict::kNotFound:
            ++result->not_found;
            break;
          case Verdict::kWrongBytes:
            ++result->wrong_bytes;
            break;
          case Verdict::kFailed:
            ++result->failed;
            break;
        }
        if (config.tracer != nullptr) {
          config.tracer->Record("wire.request", config.request_base + idx, 0,
                                due(idx), done);
        }
        ++completed;
        last_progress = done;
      }
      c.in.erase(0, pos);
    }
    if (next == count && NowNs() - last_progress > kStallNs) {
      return Status::Internal("load generator: server stopped answering");
    }
  }
  result->attempted = count;
  return Status::OK();
}

}  // namespace perfbench
