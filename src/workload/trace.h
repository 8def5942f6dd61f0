// Trace record types and CSV serialization.
//
// The Xuanfeng dataset (§3) has three parts, corresponding to the three
// stages of offline downloading. We generate and consume the same three
// record types; `task_id` joins them across files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "proto/protocol.h"
#include "util/units.h"
#include "workload/file.h"
#include "workload/user_model.h"

namespace odr::workload {

class Catalog;

using TaskId = std::uint64_t;

// Part 1: the trace of user requests (workload trace). A request names
// its user and file; their attributes (ISP, bandwidth, ip, type, size,
// link, protocol) live once in the UserPopulation and Catalog.
struct WorkloadRecord {
  TaskId task_id = 0;
  UserId user_id = 0;
  FileIndex file = kInvalidFile;
  SimTime request_time = 0;
};
static_assert(std::is_trivially_copyable_v<WorkloadRecord> &&
              sizeof(WorkloadRecord) <= 24);

// The largest user or file id a trace may name. Tables are indexed by id,
// so the reader refuses a larger one rather than size a table to match it.
// It is ~30x the paper's 563,517 files and ~21x its 783,944 users.
inline constexpr std::uint32_t kMaxTraceId = 1u << 24;

// A workload trace read back from CSV: the requests plus the attributes of
// every file and user they name, each stored once. Both tables are indexed
// by id (files[i].index == i, users[i].id == i); an entry no request names
// keeps its defaults. A user's access_bandwidth is the recorded one, so
// reports_bandwidth is (access_bandwidth > 0).
struct Trace {
  std::vector<WorkloadRecord> requests;
  std::vector<FileInfo> files;  // type, size, protocol, source_link
  std::vector<User> users;      // isp, ip, access_bandwidth
};

// Part 2: the pre-downloading trace (proxy-side performance). Its task is
// the TaskOutcome's.
struct PreDownloadRecord {
  SimTime start_time = 0;
  SimTime finish_time = 0;
  Bytes acquired_bytes = 0;
  Bytes traffic_bytes = 0;
  Rate average_rate = 0.0;
  Rate peak_rate = 0.0;
  bool cache_hit = false;
  bool success = false;
  proto::FailureCause failure_cause = proto::FailureCause::kNone;
};

// Part 3: the fetching trace (user-side performance). Its task and user
// are the TaskOutcome's; the user's ip and bandwidth live in the
// UserPopulation.
struct FetchRecord {
  SimTime start_time = 0;
  SimTime finish_time = 0;
  Bytes acquired_bytes = 0;
  Bytes traffic_bytes = 0;
  Rate average_rate = 0.0;
  Rate peak_rate = 0.0;
  bool rejected = false;  // cloud admission control refused the request
};

// One task's terminal state: the request it answers (by task, user and
// file) and its pre-download and fetch records.
struct TaskOutcome {
  TaskId task_id = 0;
  UserId user_id = 0;
  FileIndex file = kInvalidFile;
  PreDownloadRecord pre;
  FetchRecord fetch;
  // Measured popularity at completion time (what ODR would have seen).
  double weekly_popularity = 0.0;
  PopularityClass popularity = PopularityClass::kUnpopular;
  bool fetched = false;  // a fetch completed (not rejected / not pre-failed)
  // True when the fetch ran on a privileged (same-ISP) path.
  bool privileged_path = false;
  // Cancelled by the caller (hedged loser-cancel). Transient: aborted
  // outcomes fire synchronously from cancel_task() and never rest in the
  // active-fetch table, so the flag is not serialized.
  bool aborted = false;
};
static_assert(sizeof(TaskOutcome) <= 144);

// Sorts by (request_time, task_id): the order every replay driver's
// arrival cursor walks.
void sort_by_arrival(std::vector<WorkloadRecord>& records);

// The paper's popularity of a file (§3): its request count over the whole
// week of `records`, indexed by file index 0..files-1.
std::vector<double> week_request_counts(
    const std::vector<WorkloadRecord>& records, std::size_t files);

// CSV output. Writers emit a header row; the workload reader validates it.
// The workload CSV renders each request's file and user attributes from
// `catalog` and `users` (bandwidth as reported: 0 when unreported). The
// reader throws std::runtime_error naming the data row and column on a
// malformed number, an enum value out of range, a file or user whose
// attributes differ from the first row that names it, or two file ids with
// the same link (a trace world derives a file's content id from its link,
// and the storage pool needs one file per content id).
void write_workload_csv(std::ostream& out,
                        const std::vector<WorkloadRecord>& records,
                        const Catalog& catalog, const UserPopulation& users);
Trace read_workload_csv(std::istream& in);

// The pre-download CSV has one row per outcome. The fetch CSV has one row
// per outcome whose pre-download succeeded, with the user's ip and
// reported bandwidth from `users`.
void write_predownload_csv(std::ostream& out,
                           const std::vector<TaskOutcome>& outcomes);
void write_fetch_csv(std::ostream& out,
                     const std::vector<TaskOutcome>& outcomes,
                     const UserPopulation& users);

}  // namespace odr::workload
