#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/isp.h"
#include "util/rng.h"
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

// Three outcomes over users 7 (reports 512000 B/s) and 8 (does not): a
// pre-download then fetch, a cache hit whose fetch was rejected, and a
// failed pre-download.
std::vector<TaskOutcome> sample_outcomes() {
  TaskOutcome fetched;
  fetched.task_id = 1;
  fetched.user_id = 7;
  fetched.file = 99;
  fetched.pre.start_time = kMinute;
  fetched.pre.finish_time = 83 * kMinute;
  fetched.pre.acquired_bytes = 115 * kMB;
  fetched.pre.traffic_bytes = 225 * kMB;
  fetched.pre.average_rate = 23400.0;
  fetched.pre.peak_rate = 99000.0;
  fetched.pre.success = true;
  fetched.fetch.start_time = 83 * kMinute;
  fetched.fetch.finish_time = 90 * kMinute;
  fetched.fetch.acquired_bytes = 115 * kMB;
  fetched.fetch.traffic_bytes = 124 * kMB;
  fetched.fetch.average_rate = 287000.0;
  fetched.fetch.peak_rate = 300000.0;
  fetched.fetched = true;

  TaskOutcome rejected;
  rejected.task_id = 2;
  rejected.user_id = 8;
  rejected.file = 99;
  rejected.pre.start_time = 10 * kMinute;
  rejected.pre.finish_time = 10 * kMinute;
  rejected.pre.acquired_bytes = 390 * kMB;
  rejected.pre.cache_hit = true;
  rejected.pre.success = true;
  rejected.fetch.start_time = 10 * kMinute;
  rejected.fetch.finish_time = 10 * kMinute;
  rejected.fetch.rejected = true;

  TaskOutcome failed;
  failed.task_id = 3;
  failed.user_id = 7;
  failed.file = 99;
  failed.pre.start_time = kMinute;
  failed.pre.finish_time = 2 * kMinute;
  failed.pre.failure_cause = proto::FailureCause::kInsufficientSeeds;
  return {fetched, rejected, failed};
}

TEST(TraceTest, PreDownloadCsvRendersEveryOutcome) {
  std::ostringstream out;
  write_predownload_csv(out, sample_outcomes());
  EXPECT_EQ(out.str(),
            "task_id,start,finish,acquired,traffic,cache_hit,avg_rate,"
            "peak_rate,success,failure_cause\n"
            "1,60000000,4980000000,115000000,225000000,0,23400,99000,1,0\n"
            "2,600000000,600000000,390000000,0,1,0,0,1,0\n"
            "3,60000000,120000000,0,0,0,0,0,0,1\n");
}

TEST(TraceTest, FetchCsvRendersPreDownloadedOutcomes) {
  // The failed pre-download gets no row; the unreported bandwidth is 0.
  std::ostringstream out;
  write_fetch_csv(out, sample_outcomes(), sample_users());
  EXPECT_EQ(out.str(),
            "task_id,user_id,ip,access_bw,start,finish,acquired,traffic,"
            "avg_rate,peak_rate,rejected\n"
            "1,7,116.12.34.56,512000,4980000000,5400000000,115000000,"
            "124000000,287000,300000,0\n"
            "2,8,10.0.0.8,0,600000000,600000000,0,0,0,0,1\n");
}

TEST(TraceTest, EmptyOutcomesRenderHeadersOnly) {
  std::ostringstream pre;
  write_predownload_csv(pre, {});
  EXPECT_EQ(pre.str(),
            "task_id,start,finish,acquired,traffic,cache_hit,avg_rate,"
            "peak_rate,success,failure_cause\n");
  std::ostringstream fetch;
  write_fetch_csv(fetch, {sample_outcomes()[2]}, sample_users());
  EXPECT_EQ(fetch.str(),
            "task_id,user_id,ip,access_bw,start,finish,acquired,traffic,"
            "avg_rate,peak_rate,rejected\n");
}

TEST(TraceTest, WrongHeaderThrows) {
  std::istringstream in("not,a,valid,header\n1,2,3,4\n");
  EXPECT_THROW(read_workload_csv(in), std::runtime_error);
  std::istringstream in2("");
  EXPECT_THROW(read_workload_csv(in2), std::runtime_error);
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
  // Workload rows: each error names the data row and the column.
  const std::string good = "1,7,1.2.3.4,0,512000,100,3,1,390,http://x,2\n";
  ASSERT_EQ(workload_error(good + good), "");
  ASSERT_EQ(kMaxTraceId, 16777216u);  // the id cases below name it
  struct Case {
    std::string rows;
    std::string row;  // "data row N"
    std::string column;
    std::string why;
  };
  const std::vector<Case> cases = {
      {"1,2,3\n", "data row 1", "", "bad field count"},
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
      // Ids above kMaxTraceId would size the per-id tables to match.
      {"1,4000000000,1.2.3.4,0,512000,100,3,1,390,http://x,2\n",
       "data row 1", "user_id", "ids above 16777216 are refused"},
      {good + "2,16777217,1.2.3.4,0,512000,100,3,1,390,http://x,2\n",
       "data row 2", "user_id", "out of range"},
      {"1,7,1.2.3.4,0,512000,100,4000000000,1,390,http://x,2\n",
       "data row 1", "file", "ids above 16777216 are refused"},
      {good + "2,7,1.2.3.4,0,512000,100,16777217,1,390,http://x,2\n",
       "data row 2", "file", "out of range"},
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
      // Two file ids sharing a link would share one content id.
      {good + "2,8,1.2.3.5,0,512000,100,4,1,390,http://x,2\n", "data row 2",
       "link", "names file 4 but is already the link of file 3"},
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

TEST(TraceTest, ByteFlipNeverCrashes) {
  // A rendered 50-row workload trace with one byte replaced at every
  // position: the reader either returns a trace or throws runtime_error.
  Rng rng(3);
  CatalogParams cp;
  cp.num_files = 20;
  cp.total_weekly_requests = 50;
  const Catalog catalog(cp, rng);
  UserModelParams up;
  up.num_users = 10;
  const UserPopulation users(up, rng);
  std::vector<WorkloadRecord> records;
  for (std::uint32_t i = 0; i < 50; ++i) {
    records.push_back({i + 1, i % 10, (i * 7) % 20, i * kMinute});
  }
  std::ostringstream out;
  write_workload_csv(out, records, catalog, users);
  const std::string text = out.str();

  const std::string replacements("09,\n-x\xff", 7);
  std::size_t parsed = 0, thrown = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (char c : replacements) {
      std::string flipped = text;
      flipped[pos] = c;
      std::istringstream in(flipped);
      try {
        read_workload_csv(in);
        ++parsed;
      } catch (const std::runtime_error&) {
        ++thrown;
      } catch (...) {
        ADD_FAILURE() << "byte " << pos << " set to " << int(c)
                      << ": not a std::runtime_error";
      }
    }
  }
  EXPECT_EQ(parsed + thrown, text.size() * replacements.size());
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(thrown, 0u);
}

}  // namespace
}  // namespace odr::workload
