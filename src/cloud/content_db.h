// Content database: per-file request statistics.
//
// Xuanfeng "actively maintains a content database where every file is
// associated with a unique identifier (the MD5 of the content)" (§3). ODR
// queries this database for the latest popularity of a requested file
// (§6.1), so the statistics here are what the redirector's decisions see:
// measured trailing-week request counts, not the generator's ground truth.
//
// The database is one log of {time, file} records in record order plus one
// count per file of the records still in the log. Recording and querying
// at `now` first expire records from the front of the log while their time
// is before `now - kWeek`, so a count is the file's requests in the
// trailing week [now - kWeek, now].
//
// Precondition: record and query times never decrease. Then the log is
// time-ordered and expiring its front drops exactly the records older than
// the window. The cloud records and queries at the simulation clock, after
// warm-up records at increasing times before zero.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "util/units.h"
#include "workload/file.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::cloud {

class ContentDb {
 public:
  // Counts requests for file indices 0..files-1.
  explicit ContentDb(std::size_t files) : count_(files, 0) {}

  // Records one request for `file` at time `now`.
  void record_request(workload::FileIndex file, SimTime now);

  // Requests for `file` in the trailing week ending at `now`.
  double weekly_popularity(workload::FileIndex file, SimTime now) const;

  workload::PopularityClass classify(workload::FileIndex file,
                                     SimTime now) const {
    return workload::classify_popularity(weekly_popularity(file, now));
  }

  // Snapshot support: the log in record order; load rebuilds the counts
  // and rejects a file index out of range or a decreasing time.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);

 private:
  struct Request {
    SimTime time;
    workload::FileIndex file;
  };

  // Drops the records before `now - kWeek` from the front of the log.
  // Expiry runs on queries too; mutable for const access paths.
  void expire(SimTime now) const;

  mutable std::deque<Request> log_;
  mutable std::vector<std::uint32_t> count_;  // records of each file in log_
};

}  // namespace odr::cloud
