#include "workload/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "workload/catalog.h"

namespace odr::workload {
namespace {

// File 99 and users 7 (reports 512000 B/s) and 8 (does not report) as
// the workload rows below name them; every other id is a placeholder.
Catalog sample_catalog() {
  std::vector<FileInfo> files(100);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].index = static_cast<FileIndex>(i);
  }
  files[99].type = FileType::kSoftware;
  files[99].size = 390 * kMB;
  files[99].source_link = "BitTorrent://source.example/abc,with,commas";
  files[99].protocol = proto::Protocol::kBitTorrent;
  return Catalog(std::move(files));
}

UserPopulation sample_users() {
  std::vector<User> users(9);
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i].id = static_cast<UserId>(i);
  }
  users[7].ip = "116.12.34.56";
  users[7].isp = net::Isp::kCernet;
  users[7].access_bandwidth = 512000.0;
  users[8].ip = "10.0.0.8";
  users[8].isp = net::Isp::kOther;
  users[8].access_bandwidth = 300000.0;
  users[8].reports_bandwidth = false;
  return UserPopulation(std::move(users));
}

TEST(TraceTest, WorkloadRoundTrip) {
  const SimTime t = 3 * kDay + 14 * kMinute;
  const std::vector<WorkloadRecord> records = {{42, 7, 99, t}, {43, 8, 99, t}};
  const Catalog catalog = sample_catalog();
  std::ostringstream out;
  write_workload_csv(out, records, catalog, sample_users());
  std::istringstream in(out.str());
  const Trace parsed = read_workload_csv(in);

  ASSERT_EQ(parsed.requests.size(), 2u);
  EXPECT_EQ(parsed.requests[0].task_id, 42u);
  EXPECT_EQ(parsed.requests[0].user_id, 7u);
  EXPECT_EQ(parsed.requests[0].request_time, t);
  EXPECT_EQ(parsed.requests[0].file, 99u);
  EXPECT_EQ(parsed.requests[1].user_id, 8u);

  // Attributes are stored once per file and user, indexed by id.
  ASSERT_EQ(parsed.files.size(), 100u);
  EXPECT_EQ(parsed.files[5].index, 5u);  // named by no row: a placeholder
  const FileInfo& f = parsed.files[99];
  EXPECT_EQ(f.index, 99u);
  EXPECT_EQ(f.type, FileType::kSoftware);
  EXPECT_EQ(f.size, 390 * kMB);
  EXPECT_EQ(f.source_link, catalog.file(99).source_link);
  EXPECT_EQ(f.protocol, proto::Protocol::kBitTorrent);
  ASSERT_EQ(parsed.users.size(), 9u);
  EXPECT_EQ(parsed.users[7].ip, "116.12.34.56");
  EXPECT_EQ(parsed.users[7].isp, net::Isp::kCernet);
  EXPECT_DOUBLE_EQ(parsed.users[7].access_bandwidth, 512000.0);
  EXPECT_TRUE(parsed.users[7].reports_bandwidth);
  EXPECT_EQ(parsed.users[8].isp, net::Isp::kOther);
  EXPECT_DOUBLE_EQ(parsed.users[8].access_bandwidth, 0.0);  // unreported
  EXPECT_FALSE(parsed.users[8].reports_bandwidth);

  // The parsed trace renders back to the same bytes.
  std::ostringstream again;
  write_workload_csv(again, parsed.requests, Catalog(parsed.files),
                     UserPopulation(parsed.users));
  EXPECT_EQ(again.str(), out.str());
}

TEST(TraceTest, PreDownloadRoundTrip) {
  PreDownloadRecord r;
  r.task_id = 1;
  r.start_time = kMinute;
  r.finish_time = 83 * kMinute;
  r.acquired_bytes = 115 * kMB;
  r.traffic_bytes = 225 * kMB;
  r.cache_hit = false;
  r.average_rate = 23400.0;
  r.peak_rate = 99000.0;
  r.success = true;
  r.failure_cause = proto::FailureCause::kNone;

  PreDownloadRecord failed;
  failed.task_id = 2;
  failed.success = false;
  failed.failure_cause = proto::FailureCause::kInsufficientSeeds;

  std::ostringstream out;
  write_predownload_csv(out, {r, failed});
  std::istringstream in(out.str());
  const auto parsed = read_predownload_csv(in);

  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].finish_time, 83 * kMinute);
  EXPECT_EQ(parsed[0].acquired_bytes, 115 * kMB);
  EXPECT_FALSE(parsed[0].cache_hit);
  EXPECT_TRUE(parsed[0].success);
  EXPECT_DOUBLE_EQ(parsed[0].average_rate, 23400.0);
  EXPECT_FALSE(parsed[1].success);
  EXPECT_EQ(parsed[1].failure_cause, proto::FailureCause::kInsufficientSeeds);
}

TEST(TraceTest, FetchRoundTrip) {
  FetchRecord r;
  r.task_id = 5;
  r.user_id = 3;
  r.ip = "59.1.2.3";
  r.access_bandwidth = 287000.0;
  r.start_time = 10 * kMinute;
  r.finish_time = 17 * kMinute;
  r.acquired_bytes = 115 * kMB;
  r.traffic_bytes = 124 * kMB;
  r.average_rate = 287000.0;
  r.peak_rate = 300000.0;
  r.rejected = false;

  FetchRecord rejected;
  rejected.task_id = 6;
  rejected.rejected = true;

  std::ostringstream out;
  write_fetch_csv(out, {r, rejected});
  std::istringstream in(out.str());
  const auto parsed = read_fetch_csv(in);

  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].user_id, 3u);
  EXPECT_EQ(parsed[0].finish_time, 17 * kMinute);
  EXPECT_FALSE(parsed[0].rejected);
  EXPECT_TRUE(parsed[1].rejected);
}

TEST(TraceTest, EmptyTraceRoundTrips) {
  std::ostringstream out;
  write_fetch_csv(out, {});
  std::istringstream in(out.str());
  EXPECT_TRUE(read_fetch_csv(in).empty());
}

TEST(TraceTest, WrongHeaderThrows) {
  std::istringstream in("not,a,valid,header\n1,2,3,4\n");
  EXPECT_THROW(read_workload_csv(in), std::runtime_error);
  std::istringstream in2("");
  EXPECT_THROW(read_predownload_csv(in2), std::runtime_error);
}

// The message read_workload_csv throws for `rows` under a valid header,
// or "" when it parses.
std::string workload_error(const std::string& rows) {
  std::istringstream in(
      "task_id,user_id,ip,isp,access_bw,request_time,file,type,size,link,"
      "protocol\n" +
      rows);
  try {
    read_workload_csv(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceTest, BadFieldCountThrows) {
  // Valid header, truncated row.
  std::ostringstream out;
  write_fetch_csv(out, {});
  std::string text = out.str() + "1,2,3\n";
  std::istringstream in(text);
  EXPECT_THROW(read_fetch_csv(in), std::runtime_error);

  // Workload rows: each error names the data row and the column.
  const std::string good = "1,7,1.2.3.4,0,512000,100,3,1,390,http://x,2\n";
  ASSERT_EQ(workload_error(good + good), "");
  struct Case {
    std::string rows;
    std::string row;  // "data row N"
    std::string column;
    std::string why;
  };
  const std::vector<Case> cases = {
      {"1,7,1.2.3.4,0,512000,100\n", "data row 1", "", "bad field count"},
      {"abc,7,1.2.3.4,0,512000,100,3,1,390,http://x,2\n", "data row 1",
       "task_id", "not a number"},
      {good + "2,,1.2.3.4,0,512000,100,3,1,390,http://x,2\n", "data row 2",
       "user_id", "not a number"},
      {"1,7,1.2.3.4,0,512000,100,3,1,390x,http://x,2\n", "data row 1", "size",
       "not a number"},
      {"1,7,1.2.3.4,0,512000, 100,3,1,390,http://x,2\n", "data row 1",
       "request_time", "not a number"},
      {"1,7,1.2.3.4,0,512000,100,-3,1,390,http://x,2\n", "data row 1", "file",
       "not a number"},
      {"1,4294967296,1.2.3.4,0,512000,100,3,1,390,http://x,2\n", "data row 1",
       "user_id", "out of range"},
      {"1,7,1.2.3.4,0,512000,100,4294967295,1,390,http://x,2\n", "data row 1",
       "file", "out of range"},
      {"1,7,1.2.3.4,0,1e999,100,3,1,390,http://x,2\n", "data row 1",
       "access_bw", "out of range"},
      {"1,7,1.2.3.4,0,-5,100,3,1,390,http://x,2\n", "data row 1", "access_bw",
       "finite bandwidth"},
      {"1,7,1.2.3.4,0,nan,100,3,1,390,http://x,2\n", "data row 1",
       "access_bw", "finite bandwidth"},
      {"1,7,1.2.3.4,9,512000,100,3,1,390,http://x,2\n", "data row 1", "isp",
       "not a valid value"},
      {"1,7,1.2.3.4,300,512000,100,3,1,390,http://x,2\n", "data row 1", "isp",
       "out of range"},
      {"1,7,1.2.3.4,0,512000,100,3,3,390,http://x,2\n", "data row 1", "type",
       "not a valid value"},
      {"1,7,1.2.3.4,0,512000,100,3,1,390,http://x,4\n", "data row 1",
       "protocol", "not a valid value"},
      // Contradictions with the first row naming the same user or file.
      {good + "2,7,1.2.3.4,1,512000,100,4,1,390,http://y,2\n", "data row 2",
       "isp", "differs from data row 1, which names the same user"},
      {good + "2,7,1.2.3.4,0,0,100,4,1,390,http://y,2\n", "data row 2",
       "access_bw", "differs from data row 1"},
      {good + "2,7,9.9.9.9,0,512000,100,4,1,390,http://y,2\n", "data row 2",
       "ip", "differs from data row 1"},
      {good + "2,8,1.2.3.5,0,512000,100,3,1,391,http://x,2\n", "data row 2",
       "size", "differs from data row 1, which names the same file"},
      {good + "2,8,1.2.3.5,0,512000,100,3,1,390,http://z,2\n", "data row 2",
       "link", "differs from data row 1"},
      {good + "2,8,1.2.3.5,0,512000,100,3,0,390,http://x,2\n", "data row 2",
       "type", "differs from data row 1"},
      {good + "2,8,1.2.3.5,0,512000,100,3,1,390,http://x,3\n", "data row 2",
       "protocol", "differs from data row 1"},
  };
  for (const Case& c : cases) {
    const std::string error = workload_error(c.rows);
    EXPECT_NE(error.find(c.row), std::string::npos) << c.rows << error;
    if (!c.column.empty()) {
      EXPECT_NE(error.find("column '" + c.column + "'"), std::string::npos)
          << c.rows << error;
    }
    EXPECT_NE(error.find(c.why), std::string::npos) << c.rows << error;
  }
}

}  // namespace
}  // namespace odr::workload
