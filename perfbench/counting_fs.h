#ifndef PERFBENCH_COUNTING_FS_H_
#define PERFBENCH_COUNTING_FS_H_

// A FileSystem decorator that counts what the durability layer asks of
// the disk: bytes written, syncs of WAL segments ("wal-*") with their
// time, and bytes read with their time.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/file_system.h"

namespace perfbench {

struct FsCounters {
  uint64_t bytes_written = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_sync_ns = 0;
  uint64_t bytes_read = 0;
  uint64_t read_ns = 0;

  FsCounters operator-(const FsCounters& base) const;
};

class CountingFileSystem final : public rlz::FileSystem {
 public:
  explicit CountingFileSystem(std::shared_ptr<rlz::FileSystem> base);

  FsCounters counters() const;
  // Duration of every WAL segment sync so far, in microseconds.
  std::vector<double> wal_sync_us() const;

  rlz::StatusOr<std::string> Read(const std::string& path) const override;
  rlz::StatusOr<std::unique_ptr<rlz::WritableFile>> Create(
      const std::string& path) override;
  rlz::Status Rename(const std::string& from, const std::string& to) override;
  rlz::Status Remove(const std::string& path) override;
  rlz::StatusOr<std::vector<std::string>> List(
      const std::string& dir) const override;
  rlz::Status CreateDir(const std::string& dir) override;
  rlz::Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) const override;

 private:
  friend class CountingFile;

  std::shared_ptr<rlz::FileSystem> base_;
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> wal_syncs_{0};
  std::atomic<uint64_t> wal_sync_ns_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> read_ns_{0};
  mutable std::mutex samples_mu_;
  std::vector<double> wal_sync_us_;  // guarded by samples_mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_FS_H_
