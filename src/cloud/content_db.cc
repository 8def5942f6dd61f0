#include "cloud/content_db.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "snapshot/format.h"

namespace odr::cloud {
namespace {

// The caches section holds the counts and digests (tags 4-7); the cache
// window section holds the log (tags 1-3).
enum : std::uint16_t {
  kTagLogSize = 1,
  kTagFile = 2,
  kTagTime = 3,
  kTagAppended = 4,
  kTagExpired = 5,
  kTagFrontDigest = 6,
  kTagBackDigest = 7,
};

// Refuses a file past the `files` the database counts.
void check_file(workload::FileIndex file, std::size_t files) {
  if (file >= files) {
    throw std::out_of_range("content db: file " + std::to_string(file) +
                            " of a " + std::to_string(files) +
                            "-file catalog");
  }
}

}  // namespace

void ContentDb::expire(SimTime now) const {
  const SimTime cutoff = now - kWeek;
  while (!log_.empty() && log_.front().time < cutoff) {
    --count_[log_.front().file];
    front_ = chain(front_, log_.front());
    ++expired_;
    log_.pop_front();
  }
}

void ContentDb::record_request(workload::FileIndex file, SimTime now) {
  check_file(file, count_.size());
  expire(now);
  log_.push_back({now, file});
  ++count_[file];
  back_ = chain(back_, log_.back());
  ++appended_;
}

double ContentDb::weekly_popularity(workload::FileIndex file,
                                    SimTime now) const {
  check_file(file, count_.size());
  expire(now);
  return static_cast<double>(count_[file]);
}

void ContentDb::save(snapshot::SnapshotWriter& w) const {
  w.u64(kTagAppended, appended_);
  w.u64(kTagExpired, expired_);
  w.u64(kTagFrontDigest, front_);
  w.u64(kTagBackDigest, back_);
}

void ContentDb::load(snapshot::SnapshotReader& r) {
  appended_ = r.u64(kTagAppended);
  expired_ = r.u64(kTagExpired);
  front_ = r.u64(kTagFrontDigest);
  back_ = r.u64(kTagBackDigest);
  log_.clear();
  std::fill(count_.begin(), count_.end(), 0);
}

void ContentDb::save_window(snapshot::SnapshotWriter& w) const {
  w.u64(kTagLogSize, log_.size());
  for (const Request& req : log_) {
    w.u32(kTagFile, req.file);
    w.i64(kTagTime, req.time);
  }
}

void ContentDb::load_window(snapshot::SnapshotReader& r) {
  const std::uint64_t size = r.u64(kTagLogSize);
  if (expired_ > appended_ || size != appended_ - expired_) {
    r.fail("content db: the window holds " + std::to_string(size) +
           " requests, but " + std::to_string(appended_) +
           " were appended and " + std::to_string(expired_) + " expired");
  }
  std::uint64_t digest = front_;
  for (std::uint64_t i = 0; i < size; ++i) {
    const workload::FileIndex file = r.u32(kTagFile);
    const SimTime time = r.i64(kTagTime);
    if (file >= count_.size()) {
      r.fail("content db: request " + std::to_string(i) + " names file " +
             std::to_string(file) + " of " + std::to_string(count_.size()));
    }
    if (!log_.empty() && time < log_.back().time) {
      r.fail("content db: request " + std::to_string(i) +
             " is earlier than the one before it");
    }
    log_.push_back({time, file});
    ++count_[file];
    digest = chain(digest, log_.back());
  }
  if (digest != back_) {
    r.fail("content db: the window's " + std::to_string(size) +
           " requests do not chain from the front digest to the back digest");
  }
}

}  // namespace odr::cloud
