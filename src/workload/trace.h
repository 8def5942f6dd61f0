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

// Part 2: the pre-downloading trace (proxy-side performance).
struct PreDownloadRecord {
  TaskId task_id = 0;
  SimTime start_time = 0;
  SimTime finish_time = 0;
  Bytes acquired_bytes = 0;
  Bytes traffic_bytes = 0;
  bool cache_hit = false;
  Rate average_rate = 0.0;
  Rate peak_rate = 0.0;
  bool success = false;
  proto::FailureCause failure_cause = proto::FailureCause::kNone;
};

// Part 3: the fetching trace (user-side performance).
struct FetchRecord {
  TaskId task_id = 0;
  UserId user_id = 0;
  std::string ip;
  Rate access_bandwidth = 0.0;
  SimTime start_time = 0;
  SimTime finish_time = 0;
  Bytes acquired_bytes = 0;
  Bytes traffic_bytes = 0;
  Rate average_rate = 0.0;
  Rate peak_rate = 0.0;
  bool rejected = false;  // cloud admission control refused the request
};

// Sorts by (request_time, task_id): the order every replay driver's
// arrival cursor walks.
void sort_by_arrival(std::vector<WorkloadRecord>& records);

// CSV round-trip. Writers emit a header row; readers validate it.
// The workload CSV renders each request's file and user attributes from
// `catalog` and `users` (bandwidth as reported: 0 when unreported). The
// reader throws std::runtime_error naming the data row and column on a
// malformed number, an enum value out of range, or a file or user whose
// attributes differ from the first row that names it.
void write_workload_csv(std::ostream& out,
                        const std::vector<WorkloadRecord>& records,
                        const Catalog& catalog, const UserPopulation& users);
Trace read_workload_csv(std::istream& in);

void write_predownload_csv(std::ostream& out,
                           const std::vector<PreDownloadRecord>& records);
std::vector<PreDownloadRecord> read_predownload_csv(std::istream& in);

void write_fetch_csv(std::ostream& out, const std::vector<FetchRecord>& records);
std::vector<FetchRecord> read_fetch_csv(std::istream& in);

}  // namespace odr::workload
