#include "workload/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/csv.h"

namespace odr::workload {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }
std::string fmt_i64(std::int64_t v) { return std::to_string(v); }
std::string fmt_f(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::uint64_t to_u64(const std::string& s) { return std::strtoull(s.c_str(), nullptr, 10); }
std::int64_t to_i64(const std::string& s) { return std::strtoll(s.c_str(), nullptr, 10); }
double to_f(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

void expect_header(std::istream& in, const std::vector<std::string>& expected) {
  CsvReader reader(in);
  std::vector<std::string> header;
  if (!reader.read_row(header) || header != expected) {
    throw std::runtime_error("trace CSV: unexpected or missing header");
  }
}

const std::vector<std::string> kWorkloadHeader = {
    "task_id", "user_id", "ip", "isp", "access_bw", "request_time",
    "file",    "type",    "size", "link", "protocol"};

const std::vector<std::string> kPreDownloadHeader = {
    "task_id", "start", "finish", "acquired", "traffic",
    "cache_hit", "avg_rate", "peak_rate", "success", "failure_cause"};

const std::vector<std::string> kFetchHeader = {
    "task_id", "user_id", "ip", "access_bw", "start", "finish",
    "acquired", "traffic", "avg_rate", "peak_rate", "rejected"};

}  // namespace

void sort_by_arrival(std::vector<WorkloadRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const WorkloadRecord& a, const WorkloadRecord& b) {
              if (a.request_time != b.request_time) {
                return a.request_time < b.request_time;
              }
              return a.task_id < b.task_id;
            });
}

void write_workload_csv(std::ostream& out,
                        const std::vector<WorkloadRecord>& records) {
  CsvWriter w(out);
  w.write_row(kWorkloadHeader);
  for (const auto& r : records) {
    w.write_row({fmt_u64(r.task_id), fmt_u64(r.user_id), r.ip,
                 fmt_u64(static_cast<std::uint64_t>(r.isp)),
                 fmt_f(r.access_bandwidth), fmt_i64(r.request_time),
                 fmt_u64(r.file), fmt_u64(static_cast<std::uint64_t>(r.file_type)),
                 fmt_u64(r.file_size), r.source_link,
                 fmt_u64(static_cast<std::uint64_t>(r.protocol))});
  }
}

std::vector<WorkloadRecord> read_workload_csv(std::istream& in) {
  expect_header(in, kWorkloadHeader);
  CsvReader reader(in);
  std::vector<WorkloadRecord> out;
  std::vector<std::string> row;
  while (reader.read_row(row)) {
    if (row.size() != kWorkloadHeader.size()) {
      throw std::runtime_error("workload CSV: bad field count");
    }
    WorkloadRecord r;
    r.task_id = to_u64(row[0]);
    r.user_id = static_cast<UserId>(to_u64(row[1]));
    r.ip = row[2];
    r.isp = static_cast<net::Isp>(to_u64(row[3]));
    r.access_bandwidth = to_f(row[4]);
    r.request_time = to_i64(row[5]);
    r.file = static_cast<FileIndex>(to_u64(row[6]));
    r.file_type = static_cast<FileType>(to_u64(row[7]));
    r.file_size = to_u64(row[8]);
    r.source_link = row[9];
    r.protocol = static_cast<proto::Protocol>(to_u64(row[10]));
    out.push_back(std::move(r));
  }
  return out;
}

void write_predownload_csv(std::ostream& out,
                           const std::vector<PreDownloadRecord>& records) {
  CsvWriter w(out);
  w.write_row(kPreDownloadHeader);
  for (const auto& r : records) {
    w.write_row({fmt_u64(r.task_id), fmt_i64(r.start_time),
                 fmt_i64(r.finish_time), fmt_u64(r.acquired_bytes),
                 fmt_u64(r.traffic_bytes), r.cache_hit ? "1" : "0",
                 fmt_f(r.average_rate), fmt_f(r.peak_rate),
                 r.success ? "1" : "0",
                 fmt_u64(static_cast<std::uint64_t>(r.failure_cause))});
  }
}

std::vector<PreDownloadRecord> read_predownload_csv(std::istream& in) {
  expect_header(in, kPreDownloadHeader);
  CsvReader reader(in);
  std::vector<PreDownloadRecord> out;
  std::vector<std::string> row;
  while (reader.read_row(row)) {
    if (row.size() != kPreDownloadHeader.size()) {
      throw std::runtime_error("predownload CSV: bad field count");
    }
    PreDownloadRecord r;
    r.task_id = to_u64(row[0]);
    r.start_time = to_i64(row[1]);
    r.finish_time = to_i64(row[2]);
    r.acquired_bytes = to_u64(row[3]);
    r.traffic_bytes = to_u64(row[4]);
    r.cache_hit = row[5] == "1";
    r.average_rate = to_f(row[6]);
    r.peak_rate = to_f(row[7]);
    r.success = row[8] == "1";
    r.failure_cause = static_cast<proto::FailureCause>(to_u64(row[9]));
    out.push_back(r);
  }
  return out;
}

void write_fetch_csv(std::ostream& out,
                     const std::vector<FetchRecord>& records) {
  CsvWriter w(out);
  w.write_row(kFetchHeader);
  for (const auto& r : records) {
    w.write_row({fmt_u64(r.task_id), fmt_u64(r.user_id), r.ip,
                 fmt_f(r.access_bandwidth), fmt_i64(r.start_time),
                 fmt_i64(r.finish_time), fmt_u64(r.acquired_bytes),
                 fmt_u64(r.traffic_bytes), fmt_f(r.average_rate),
                 fmt_f(r.peak_rate), r.rejected ? "1" : "0"});
  }
}

std::vector<FetchRecord> read_fetch_csv(std::istream& in) {
  expect_header(in, kFetchHeader);
  CsvReader reader(in);
  std::vector<FetchRecord> out;
  std::vector<std::string> row;
  while (reader.read_row(row)) {
    if (row.size() != kFetchHeader.size()) {
      throw std::runtime_error("fetch CSV: bad field count");
    }
    FetchRecord r;
    r.task_id = to_u64(row[0]);
    r.user_id = static_cast<UserId>(to_u64(row[1]));
    r.ip = row[2];
    r.access_bandwidth = to_f(row[3]);
    r.start_time = to_i64(row[4]);
    r.finish_time = to_i64(row[5]);
    r.acquired_bytes = to_u64(row[6]);
    r.traffic_bytes = to_u64(row[7]);
    r.average_rate = to_f(row[8]);
    r.peak_rate = to_f(row[9]);
    r.rejected = row[10] == "1";
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace odr::workload
