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
//
// The database also counts the records ever appended and ever expired, and
// keeps two chain digests (util/digest.h) over them in record order: the
// back digest over every record appended, the front digest over every
// record expired. Expiry drops the log's front, so chaining the live log's
// records onto the front digest gives the back digest. The state hash
// reads these four numbers instead of the log, so a hash costs the same
// however long the window is.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "util/digest.h"
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

  // Records one request for `file` at time `now`. Like weekly_popularity,
  // it throws std::out_of_range, naming the file and the table's size,
  // before touching any state when `file` is past the table's end.
  void record_request(workload::FileIndex file, SimTime now);

  // Requests for `file` in the trailing week ending at `now`.
  double weekly_popularity(workload::FileIndex file, SimTime now) const;

  workload::PopularityClass classify(workload::FileIndex file,
                                     SimTime now) const {
    return workload::classify_popularity(weekly_popularity(file, now));
  }

  // Snapshot support, in two parts. save/load write the appended and
  // expired counts and the two digests: the checkpoint's hashed `caches`
  // section. save_window/load_window write the log's records in record
  // order, for the checkpoint's trailing cache-window section. load_window
  // must follow load; it rebuilds the counts and refuses (kCorrupt, naming
  // the section) a record count other than appended - expired, records
  // that do not chain from the front digest to the back digest, a file
  // index out of range and a decreasing time.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  void save_window(snapshot::SnapshotWriter& w) const;
  void load_window(snapshot::SnapshotReader& r);

 private:
  struct Request {
    SimTime time;
    workload::FileIndex file;
  };

  // `digest` extended over one record.
  static std::uint64_t chain(std::uint64_t digest, const Request& r) {
    return digest_step(digest_step(digest, r.file),
                       static_cast<std::uint64_t>(r.time));
  }

  // Drops the records before `now - kWeek` from the front of the log.
  // Expiry runs on queries too; mutable for const access paths.
  void expire(SimTime now) const;

  mutable std::deque<Request> log_;
  mutable std::vector<std::uint32_t> count_;  // records of each file in log_
  // Records ever appended and ever expired; log_ holds the difference.
  std::uint64_t appended_ = 0;
  mutable std::uint64_t expired_ = 0;
  // Chain digests over the records ever expired and ever appended.
  mutable std::uint64_t front_ = 0;
  std::uint64_t back_ = 0;
};

}  // namespace odr::cloud
