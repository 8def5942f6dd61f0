#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/isp.h"
#include "util/csv.h"
#include "workload/catalog.h"

namespace odr::workload {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }
std::string fmt_i64(std::int64_t v) { return std::to_string(v); }
std::string fmt_f(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void expect_header(std::istream& in, const std::vector<std::string>& expected) {
  CsvReader reader(in);
  std::vector<std::string> header;
  if (!reader.read_row(header) || header != expected) {
    throw std::runtime_error("trace CSV: unexpected or missing header");
  }
}

// Walks the data rows after a validated header. Every error names the
// 1-based data row and the column.
class Rows {
 public:
  Rows(std::istream& in, const std::vector<std::string>& header)
      : reader_(in), header_(header) {}

  bool next() {
    if (!reader_.read_row(fields_)) return false;
    ++row_;
    if (fields_.size() != header_.size()) {
      throw std::runtime_error(where() + ": bad field count " +
                               std::to_string(fields_.size()) + ", expected " +
                               std::to_string(header_.size()));
    }
    return true;
  }

  std::size_t row() const { return row_; }
  const std::string& text(std::size_t col) const { return fields_[col]; }

  // The whole field as a T: no sign an unsigned T cannot hold, no
  // whitespace, no trailing characters, and within T's range.
  template <typename T>
  T number(std::size_t col) const {
    const std::string& s = fields_[col];
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc::result_out_of_range) fail(col, "is out of range");
    if (ec != std::errc() || end != s.data() + s.size()) {
      fail(col, "is not a number");
    }
    return v;
  }

  // An enum stored as its integer value; `name` maps values outside the
  // enum to "?".
  template <typename E>
  E choice(std::size_t col, std::string_view (*name)(E)) const {
    const auto v = number<std::uint8_t>(col);
    if (name(static_cast<E>(v)) == "?") fail(col, "is not a valid value");
    return static_cast<E>(v);
  }

  [[noreturn]] void fail(std::size_t col, const std::string& why) const {
    throw std::runtime_error(where() + ", column '" + header_[col] + "': '" +
                             fields_[col] + "' " + why);
  }

  // A file's or user's attribute must read the same on every row that
  // names it as on `first_row`, the first.
  void agree(bool same, std::size_t col, std::size_t first_row,
             const char* what) const {
    if (!same) {
      fail(col, "differs from data row " + std::to_string(first_row) +
                    ", which names the same " + what);
    }
  }

 private:
  std::string where() const {
    return "workload CSV: data row " + std::to_string(row_);
  }

  CsvReader reader_;
  const std::vector<std::string>& header_;
  std::vector<std::string> fields_;
  std::size_t row_ = 0;
};

const std::vector<std::string> kWorkloadHeader = {
    "task_id", "user_id", "ip", "isp", "access_bw", "request_time",
    "file",    "type",    "size", "link", "protocol"};

const std::vector<std::string> kPreDownloadHeader = {
    "task_id", "start", "finish", "acquired", "traffic",
    "cache_hit", "avg_rate", "peak_rate", "success", "failure_cause"};

const std::vector<std::string> kFetchHeader = {
    "task_id", "user_id", "ip", "access_bw", "start", "finish",
    "acquired", "traffic", "avg_rate", "peak_rate", "rejected"};

// Workload columns that carry a file's or a user's attributes.
enum : std::size_t {
  kColIp = 2, kColIsp = 3, kColBandwidth = 4,
  kColType = 7, kColSize = 8, kColLink = 9, kColProtocol = 10,
};

const std::string kIdOutOfRange =
    "is out of range (ids above " + std::to_string(kMaxTraceId) +
    " are refused)";

// Records `row` as the first to name `id` and returns 0, or returns the
// row that named `id` first.
std::size_t first_naming(std::vector<std::size_t>& first_row, std::size_t id,
                         std::size_t row) {
  if (id >= first_row.size()) first_row.resize(id + 1, 0);
  if (first_row[id] != 0) return first_row[id];
  first_row[id] = row;
  return 0;
}

template <typename T>
void store_at(std::vector<T>& table, std::size_t id, T entry) {
  if (id >= table.size()) table.resize(id + 1);
  table[id] = std::move(entry);
}

bool arrives_before(const WorkloadRecord& a, const WorkloadRecord& b) {
  if (a.request_time != b.request_time) return a.request_time < b.request_time;
  return a.task_id < b.task_id;
}

// request_time as an unsigned key in the same order: the sign bit flipped.
std::uint64_t time_key(const WorkloadRecord& r) {
  return static_cast<std::uint64_t>(r.request_time) ^ (std::uint64_t{1} << 63);
}

std::uint64_t task_key(const WorkloadRecord& r) { return r.task_id; }

// One stable counting pass of `from` into `to` per byte of key(record),
// least significant first, skipping a byte every record shares. Returns
// whether the records ended in `to` (an odd number of passes).
template <std::uint64_t (*key)(const WorkloadRecord&)>
bool radix_passes(WorkloadRecord*& from, WorkloadRecord*& to, std::size_t n) {
  // The bits in which some key differs from the first.
  const std::uint64_t first = key(from[0]);
  std::uint64_t varying = 0;
  for (std::size_t i = 0; i < n; ++i) varying |= key(from[i]) ^ first;
  int digits[8];
  int passes = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    if ((varying >> shift) & 0xff) digits[passes++] = shift;
  }

  std::array<std::array<std::size_t, 256>, 8> offsets{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(from[i]);
    for (int p = 0; p < passes; ++p) ++offsets[p][(k >> digits[p]) & 0xff];
  }
  for (int p = 0; p < passes; ++p) {
    std::size_t sum = 0;
    for (std::size_t& c : offsets[p]) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      to[offsets[p][(key(from[i]) >> digits[p]) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  return passes % 2 == 1;
}

}  // namespace

void sort_by_arrival(std::vector<WorkloadRecord>& records) {
  if (std::is_sorted(records.begin(), records.end(), arrives_before)) return;
  // A stable LSD radix sort: by task id, then by time. Records already in
  // task-id order (a generated week's are) need only the time passes.
  std::vector<WorkloadRecord> scratch(records.size());
  WorkloadRecord* from = records.data();
  WorkloadRecord* to = scratch.data();
  const bool by_task = !std::is_sorted(
      records.begin(), records.end(),
      [](const WorkloadRecord& a, const WorkloadRecord& b) {
        return a.task_id < b.task_id;
      });
  bool in_scratch = by_task && radix_passes<task_key>(from, to, records.size());
  in_scratch ^= radix_passes<time_key>(from, to, records.size());
  // Copied back rather than swapped: left in the scratch block, a week's
  // records moved perfbench odr_week's peak RSS from 22.2 to 24.7 MiB.
  if (in_scratch) std::copy(scratch.begin(), scratch.end(), records.begin());
}

std::vector<double> week_request_counts(
    const std::vector<WorkloadRecord>& records, std::size_t files) {
  std::vector<double> counts(files, 0.0);
  for (const WorkloadRecord& r : records) counts[r.file] += 1.0;
  return counts;
}

void write_workload_csv(std::ostream& out,
                        const std::vector<WorkloadRecord>& records,
                        const Catalog& catalog, const UserPopulation& users) {
  CsvWriter w(out);
  w.write_row(kWorkloadHeader);
  for (const auto& r : records) {
    const User& u = users.user(r.user_id);
    const FileInfo& f = catalog.file(r.file);
    w.write_row({fmt_u64(r.task_id), fmt_u64(r.user_id), u.ip,
                 fmt_u64(static_cast<std::uint64_t>(u.isp)),
                 fmt_f(u.reported_bandwidth()), fmt_i64(r.request_time),
                 fmt_u64(r.file), fmt_u64(static_cast<std::uint64_t>(f.type)),
                 fmt_u64(f.size), f.source_link,
                 fmt_u64(static_cast<std::uint64_t>(f.protocol))});
  }
}

Trace read_workload_csv(std::istream& in) {
  expect_header(in, kWorkloadHeader);
  Rows rows(in, kWorkloadHeader);
  Trace trace;
  std::vector<std::size_t> file_row, user_row;
  // A link is a file's content identity: two file ids may not share one.
  std::unordered_map<std::string, FileIndex> link_file;
  while (rows.next()) {
    WorkloadRecord r;
    r.task_id = rows.number<TaskId>(0);
    r.user_id = rows.number<UserId>(1);
    if (r.user_id > kMaxTraceId) rows.fail(1, kIdOutOfRange);
    r.request_time = rows.number<SimTime>(5);
    r.file = rows.number<FileIndex>(6);
    if (r.file > kMaxTraceId) rows.fail(6, kIdOutOfRange);

    User u;
    u.ip = rows.text(kColIp);
    u.isp = rows.choice(kColIsp, &net::isp_name);
    u.access_bandwidth = rows.number<Rate>(kColBandwidth);
    if (!(u.access_bandwidth >= 0.0 && std::isfinite(u.access_bandwidth))) {
      rows.fail(kColBandwidth, "is not a finite bandwidth >= 0");
    }
    u.reports_bandwidth = u.access_bandwidth > 0.0;
    if (const std::size_t first =
            first_naming(user_row, r.user_id, rows.row())) {
      const User& seen = trace.users[r.user_id];
      rows.agree(seen.ip == u.ip, kColIp, first, "user");
      rows.agree(seen.isp == u.isp, kColIsp, first, "user");
      rows.agree(seen.access_bandwidth == u.access_bandwidth, kColBandwidth,
                 first, "user");
    } else {
      store_at(trace.users, r.user_id, std::move(u));
    }

    FileInfo f;
    f.type = rows.choice(kColType, &file_type_name);
    f.size = rows.number<Bytes>(kColSize);
    f.source_link = rows.text(kColLink);
    f.protocol = rows.choice(kColProtocol, &proto::protocol_name);
    if (const std::size_t first = first_naming(file_row, r.file, rows.row())) {
      const FileInfo& seen = trace.files[r.file];
      rows.agree(seen.type == f.type, kColType, first, "file");
      rows.agree(seen.size == f.size, kColSize, first, "file");
      rows.agree(seen.source_link == f.source_link, kColLink, first, "file");
      rows.agree(seen.protocol == f.protocol, kColProtocol, first, "file");
    } else {
      const auto [named, fresh] = link_file.try_emplace(f.source_link, r.file);
      if (!fresh) {
        rows.fail(kColLink, "names file " + std::to_string(r.file) +
                                " but is already the link of file " +
                                std::to_string(named->second));
      }
      store_at(trace.files, r.file, std::move(f));
    }
    trace.requests.push_back(r);
  }
  // Ids for every entry, named or not.
  for (std::size_t i = 0; i < trace.files.size(); ++i) {
    trace.files[i].index = static_cast<FileIndex>(i);
  }
  for (std::size_t i = 0; i < trace.users.size(); ++i) {
    trace.users[i].id = static_cast<UserId>(i);
  }
  return trace;
}

void write_predownload_csv(std::ostream& out,
                           const std::vector<TaskOutcome>& outcomes) {
  CsvWriter w(out);
  w.write_row(kPreDownloadHeader);
  for (const auto& o : outcomes) {
    const PreDownloadRecord& r = o.pre;
    w.write_row({fmt_u64(o.task_id), fmt_i64(r.start_time),
                 fmt_i64(r.finish_time), fmt_u64(r.acquired_bytes),
                 fmt_u64(r.traffic_bytes), r.cache_hit ? "1" : "0",
                 fmt_f(r.average_rate), fmt_f(r.peak_rate),
                 r.success ? "1" : "0",
                 fmt_u64(static_cast<std::uint64_t>(r.failure_cause))});
  }
}

void write_fetch_csv(std::ostream& out,
                     const std::vector<TaskOutcome>& outcomes,
                     const UserPopulation& users) {
  CsvWriter w(out);
  w.write_row(kFetchHeader);
  for (const auto& o : outcomes) {
    if (!o.pre.success) continue;
    const FetchRecord& r = o.fetch;
    const User& u = users.user(o.user_id);
    w.write_row({fmt_u64(o.task_id), fmt_u64(o.user_id), u.ip,
                 fmt_f(u.reported_bandwidth()), fmt_i64(r.start_time),
                 fmt_i64(r.finish_time), fmt_u64(r.acquired_bytes),
                 fmt_u64(r.traffic_bytes), fmt_f(r.average_rate),
                 fmt_f(r.peak_rate), r.rejected ? "1" : "0"});
  }
}

}  // namespace odr::workload
