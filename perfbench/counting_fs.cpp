#include "counting_fs.h"

#include <utility>

#include "trace.h"

namespace perfbench {
namespace {

bool IsWalPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const size_t name = slash == std::string::npos ? 0 : slash + 1;
  return path.compare(name, 4, "wal-") == 0;
}

}  // namespace

FsCounters FsCounters::operator-(const FsCounters& base) const {
  FsCounters d;
  d.bytes_written = bytes_written - base.bytes_written;
  d.wal_syncs = wal_syncs - base.wal_syncs;
  d.wal_sync_ns = wal_sync_ns - base.wal_sync_ns;
  d.bytes_read = bytes_read - base.bytes_read;
  d.read_ns = read_ns - base.read_ns;
  return d;
}

class CountingFile final : public rlz::WritableFile {
 public:
  CountingFile(CountingFileSystem* fs, std::unique_ptr<rlz::WritableFile> base,
               bool wal)
      : fs_(fs), base_(std::move(base)), wal_(wal) {}

  rlz::Status Append(std::string_view data) override {
    fs_->bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }

  rlz::Status Sync() override {
    if (!wal_) return base_->Sync();
    const uint64_t start = NowNs();
    rlz::Status status = base_->Sync();
    const uint64_t ns = NowNs() - start;
    fs_->wal_syncs_.fetch_add(1, std::memory_order_relaxed);
    fs_->wal_sync_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(fs_->samples_mu_);
    fs_->wal_sync_us_.push_back(static_cast<double>(ns) / 1e3);
    return status;
  }

  rlz::Status Close() override { return base_->Close(); }

 private:
  CountingFileSystem* fs_;
  std::unique_ptr<rlz::WritableFile> base_;
  bool wal_;
};

CountingFileSystem::CountingFileSystem(std::shared_ptr<rlz::FileSystem> base)
    : base_(std::move(base)) {}

FsCounters CountingFileSystem::counters() const {
  FsCounters c;
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  c.wal_syncs = wal_syncs_.load(std::memory_order_relaxed);
  c.wal_sync_ns = wal_sync_ns_.load(std::memory_order_relaxed);
  c.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  c.read_ns = read_ns_.load(std::memory_order_relaxed);
  return c;
}

std::vector<double> CountingFileSystem::wal_sync_us() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return wal_sync_us_;
}

rlz::StatusOr<std::string> CountingFileSystem::Read(
    const std::string& path) const {
  const uint64_t start = NowNs();
  rlz::StatusOr<std::string> data = base_->Read(path);
  read_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  if (data.ok()) {
    bytes_read_.fetch_add(data->size(), std::memory_order_relaxed);
  }
  return data;
}

rlz::StatusOr<std::unique_ptr<rlz::WritableFile>> CountingFileSystem::Create(
    const std::string& path) {
  rlz::StatusOr<std::unique_ptr<rlz::WritableFile>> file = base_->Create(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<rlz::WritableFile>(
      new CountingFile(this, std::move(*file), IsWalPath(path)));
}

rlz::Status CountingFileSystem::Rename(const std::string& from,
                                       const std::string& to) {
  return base_->Rename(from, to);
}

rlz::Status CountingFileSystem::Remove(const std::string& path) {
  return base_->Remove(path);
}

rlz::StatusOr<std::vector<std::string>> CountingFileSystem::List(
    const std::string& dir) const {
  return base_->List(dir);
}

rlz::Status CountingFileSystem::CreateDir(const std::string& dir) {
  return base_->CreateDir(dir);
}

rlz::Status CountingFileSystem::SyncDir(const std::string& dir) {
  return base_->SyncDir(dir);
}

bool CountingFileSystem::Exists(const std::string& path) const {
  return base_->Exists(path);
}

}  // namespace perfbench
