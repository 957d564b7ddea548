#ifndef RLZ_TESTS_LATCHED_ARCHIVE_H_
#define RLZ_TESTS_LATCHED_ARCHIVE_H_

// A test archive that pins DocService workers on cue: its decodes of one
// id block until the test opens the latch, so requests stay in flight
// (or queued behind the pinned workers) for as long as a test needs. It
// also counts every Get/GetRange that reaches it, so a test can assert
// exactly how often the archive was read (open the latch first when only
// the count matters). Shared by the serving and network suites.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "store/archive.h"

namespace rlz {

/// The id whose decodes a LatchedArchive holds.
inline constexpr size_t kBlockedId = 0;

class LatchedArchive : public Archive {
 public:
  explicit LatchedArchive(const Archive* base) : base_(base) {}

  using Archive::Get;
  using Archive::GetRange;
  std::string name() const override { return base_->name(); }
  size_t num_docs() const override { return base_->num_docs(); }
  uint64_t stored_bytes() const override { return base_->stored_bytes(); }
  Status Save(const std::string&) const override {
    return Status::Unimplemented("latched test archive");
  }
  Status Get(size_t id, std::string* doc, SimDisk* disk,
             DecodeScratch* scratch) const override {
    decodes_.fetch_add(1);
    Hold(id);
    return base_->Get(id, doc, disk, scratch);
  }
  Status GetRange(size_t id, size_t offset, size_t length, std::string* text,
                  SimDisk* disk, DecodeScratch* scratch) const override {
    decodes_.fetch_add(1);
    Hold(id);
    return base_->GetRange(id, offset, length, text, disk, scratch);
  }

  // Get/GetRange calls that reached this archive so far.
  uint64_t decodes() const { return decodes_.load(); }

  // Lets every held and future decode of the blocked id through.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  // Waits (up to 10 s) until `n` decodes of the blocked id are held.
  bool WaitHeld(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return held_ >= n; });
  }

 private:
  void Hold(size_t id) const {
    if (id != kBlockedId) return;
    std::unique_lock<std::mutex> lock(mu_);
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  const Archive* base_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int held_ = 0;
  mutable bool open_ = false;
  mutable std::atomic<uint64_t> decodes_{0};
};

}  // namespace rlz

#endif  // RLZ_TESTS_LATCHED_ARCHIVE_H_
