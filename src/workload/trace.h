// Trace record types and CSV serialization.
//
// The Xuanfeng dataset (§3) has three parts, corresponding to the three
// stages of offline downloading. We generate and consume the same three
// record types; `task_id` joins them across files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "proto/protocol.h"
#include "util/units.h"
#include "workload/file.h"
#include "workload/user_model.h"

namespace odr::workload {

using TaskId = std::uint64_t;

// Part 1: the trace of user requests (workload trace).
struct WorkloadRecord {
  TaskId task_id = 0;
  UserId user_id = 0;
  std::string ip;
  net::Isp isp = net::Isp::kOther;
  Rate access_bandwidth = 0.0;  // 0 when the user does not report it
  SimTime request_time = 0;
  FileIndex file = kInvalidFile;
  FileType file_type = FileType::kVideo;
  Bytes file_size = 0;
  std::string source_link;
  proto::Protocol protocol = proto::Protocol::kBitTorrent;
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
void write_workload_csv(std::ostream& out,
                        const std::vector<WorkloadRecord>& records);
std::vector<WorkloadRecord> read_workload_csv(std::istream& in);

void write_predownload_csv(std::ostream& out,
                           const std::vector<PreDownloadRecord>& records);
std::vector<PreDownloadRecord> read_predownload_csv(std::istream& in);

void write_fetch_csv(std::ostream& out, const std::vector<FetchRecord>& records);
std::vector<FetchRecord> read_fetch_csv(std::istream& in);

}  // namespace odr::workload
