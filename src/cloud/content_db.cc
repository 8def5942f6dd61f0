#include "cloud/content_db.h"

#include <algorithm>
#include <string>

#include "snapshot/format.h"

namespace odr::cloud {
namespace {

enum : std::uint16_t {
  kTagLogSize = 1,
  kTagFile = 2,
  kTagTime = 3,
};

}  // namespace

void ContentDb::expire(SimTime now) const {
  const SimTime cutoff = now - kWeek;
  while (!log_.empty() && log_.front().time < cutoff) {
    --count_[log_.front().file];
    log_.pop_front();
  }
}

void ContentDb::record_request(workload::FileIndex file, SimTime now) {
  expire(now);
  log_.push_back({now, file});
  ++count_[file];
}

double ContentDb::weekly_popularity(workload::FileIndex file,
                                    SimTime now) const {
  expire(now);
  return static_cast<double>(count_[file]);
}

void ContentDb::save(snapshot::SnapshotWriter& w) const {
  w.u64(kTagLogSize, log_.size());
  for (const Request& req : log_) {
    w.u32(kTagFile, req.file);
    w.i64(kTagTime, req.time);
  }
}

void ContentDb::load(snapshot::SnapshotReader& r) {
  log_.clear();
  std::fill(count_.begin(), count_.end(), 0);
  const std::uint64_t size = r.u64(kTagLogSize);
  for (std::uint64_t i = 0; i < size; ++i) {
    const workload::FileIndex file = r.u32(kTagFile);
    const SimTime time = r.i64(kTagTime);
    if (file >= count_.size()) {
      throw snapshot::SnapshotError(
          "content db: request " + std::to_string(i) + " names file " +
          std::to_string(file) + " of " + std::to_string(count_.size()));
    }
    if (!log_.empty() && time < log_.back().time) {
      throw snapshot::SnapshotError("content db: request " +
                                    std::to_string(i) +
                                    " is earlier than the one before it");
    }
    log_.push_back({time, file});
    ++count_[file];
  }
}

}  // namespace odr::cloud
