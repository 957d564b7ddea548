#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each drives the system from outside,
// through public functions only: reads go over loopback to a DocServer in
// front of a DocService and a 4-shard rlz-ZV ShardedStore; writes go
// through ShardedStore::Append/Delete/CompactOnce/Checkpoint on a durable
// store; recovery goes through ShardedStore::OpenDurable.
//
//   hot-snippets    ~8 MB web corpus, decode cache 2x the collection and
//                   warmed; Zipf(0.99) 400-byte GetRange. Every read is a
//                   cache hit, so the net and serve request path is the
//                   cost and core decode does almost no work.
//   cold-pages      ~32 MB web corpus, cache 1/16 of it; uniform ids, 80%
//                   400-byte GetRange and 20% whole-document Get. The
//                   working set dwarfs the cache, so core decode
//                   dominates, and ranges and whole documents share the
//                   decoder in one run.
//   ingest-recover  ~8 MB base made durable (fsync_every_n = 8); one
//                   closed-loop writer appends fresh documents and
//                   deletes one older live id per 4 appends, a maintenance
//                   thread compacts after each seal, open-loop snippet
//                   reads run beside it; then Checkpoint, K more appends,
//                   SyncWal, drop the store and a timed OpenDurable. WAL,
//                   seal, compaction, checkpoint and replay work only here.

#include <cstdint>
#include <string>

#include "report.h"
#include "util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corpus size multiplier; the self-test runs every workload tiny.
  double scale = 1.0;
  // Trace files and the durable store directory go here.
  std::string out_dir = ".";
  std::string commit = "unknown";
  // Self-test hook: the oracle compares request `corrupt_request` of the
  // first measured read phase against a copy with one byte flipped.
  int64_t corrupt_request = -1;
};

struct RunOutcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + shed + wrong-bytes operations
  // Hash of the generated inputs (request sequence, writer script).
  uint64_t input_digest = 0;
  bool correct() const { return failed == 0; }
};

bool IsWorkload(const std::string& name);

rlz::Status RunWorkload(const RunConfig& config, RunOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
