#include "workload/snapshot.h"

namespace odr::workload {
namespace {

// Tag blocks per record type; records may be nested inside arbitrary
// sections, so tags only need to be stable, not globally unique.
enum : std::uint16_t {
  // FileInfo
  kTagFileIndex = 100,
  kTagFileContentId = 101,
  kTagFileType = 102,
  kTagFileSize = 103,
  kTagFileProtocol = 104,
  kTagFileRank = 105,
  kTagFileWeekly = 106,
  kTagFileBornBefore = 107,
  kTagFileSourceLink = 108,
  // WorkloadRecord
  kTagWrTask = 140,
  kTagWrUser = 141,
  kTagWrTime = 145,
  kTagWrFile = 146,
  // PreDownloadRecord
  kTagPreStart = 161,
  kTagPreFinish = 162,
  kTagPreAcquired = 163,
  kTagPreTraffic = 164,
  kTagPreCacheHit = 165,
  kTagPreAvgRate = 166,
  kTagPrePeakRate = 167,
  kTagPreSuccess = 168,
  kTagPreCause = 169,
  // FetchRecord
  kTagFetStart = 184,
  kTagFetFinish = 185,
  kTagFetAcquired = 186,
  kTagFetTraffic = 187,
  kTagFetAvgRate = 188,
  kTagFetPeakRate = 189,
  kTagFetRejected = 190,
  // TaskOutcome
  kTagOutTask = 200,
  kTagOutUser = 201,
  kTagOutFile = 202,
  kTagOutFetched = 203,
  kTagOutPopularity = 204,
  kTagOutClass = 205,
  kTagOutPrivileged = 206,
};

}  // namespace

void save_file_info(snapshot::SnapshotWriter& w, const FileInfo& f) {
  w.u32(kTagFileIndex, f.index);
  w.bytes(kTagFileContentId, f.content_id.bytes.data(), f.content_id.bytes.size());
  w.u8(kTagFileType, static_cast<std::uint8_t>(f.type));
  w.u64(kTagFileSize, f.size);
  w.u8(kTagFileProtocol, static_cast<std::uint8_t>(f.protocol));
  w.u32(kTagFileRank, f.rank);
  w.f64(kTagFileWeekly, f.expected_weekly_requests);
  w.b(kTagFileBornBefore, f.born_before_trace);
  w.str(kTagFileSourceLink, f.source_link);
}

FileInfo load_file_info(snapshot::SnapshotReader& r) {
  FileInfo f;
  f.index = r.u32(kTagFileIndex);
  r.bytes(kTagFileContentId, f.content_id.bytes.data(), f.content_id.bytes.size());
  f.type = static_cast<FileType>(r.u8(kTagFileType));
  f.size = r.u64(kTagFileSize);
  f.protocol = static_cast<proto::Protocol>(r.u8(kTagFileProtocol));
  f.rank = r.u32(kTagFileRank);
  f.expected_weekly_requests = r.f64(kTagFileWeekly);
  f.born_before_trace = r.b(kTagFileBornBefore);
  f.source_link = r.str(kTagFileSourceLink);
  return f;
}

void save_workload_record(snapshot::SnapshotWriter& w,
                          const WorkloadRecord& rec) {
  w.u64(kTagWrTask, rec.task_id);
  w.u32(kTagWrUser, rec.user_id);
  w.i64(kTagWrTime, rec.request_time);
  w.u32(kTagWrFile, rec.file);
}

WorkloadRecord load_workload_record(snapshot::SnapshotReader& r) {
  WorkloadRecord rec;
  rec.task_id = r.u64(kTagWrTask);
  rec.user_id = r.u32(kTagWrUser);
  rec.request_time = r.i64(kTagWrTime);
  rec.file = r.u32(kTagWrFile);
  return rec;
}

namespace {

void save_predownload_record(snapshot::SnapshotWriter& w,
                             const PreDownloadRecord& rec) {
  w.i64(kTagPreStart, rec.start_time);
  w.i64(kTagPreFinish, rec.finish_time);
  w.u64(kTagPreAcquired, rec.acquired_bytes);
  w.u64(kTagPreTraffic, rec.traffic_bytes);
  w.b(kTagPreCacheHit, rec.cache_hit);
  w.f64(kTagPreAvgRate, rec.average_rate);
  w.f64(kTagPrePeakRate, rec.peak_rate);
  w.b(kTagPreSuccess, rec.success);
  w.u8(kTagPreCause, static_cast<std::uint8_t>(rec.failure_cause));
}

PreDownloadRecord load_predownload_record(snapshot::SnapshotReader& r) {
  PreDownloadRecord rec;
  rec.start_time = r.i64(kTagPreStart);
  rec.finish_time = r.i64(kTagPreFinish);
  rec.acquired_bytes = r.u64(kTagPreAcquired);
  rec.traffic_bytes = r.u64(kTagPreTraffic);
  rec.cache_hit = r.b(kTagPreCacheHit);
  rec.average_rate = r.f64(kTagPreAvgRate);
  rec.peak_rate = r.f64(kTagPrePeakRate);
  rec.success = r.b(kTagPreSuccess);
  rec.failure_cause = static_cast<proto::FailureCause>(r.u8(kTagPreCause));
  return rec;
}

void save_fetch_record(snapshot::SnapshotWriter& w, const FetchRecord& rec) {
  w.i64(kTagFetStart, rec.start_time);
  w.i64(kTagFetFinish, rec.finish_time);
  w.u64(kTagFetAcquired, rec.acquired_bytes);
  w.u64(kTagFetTraffic, rec.traffic_bytes);
  w.f64(kTagFetAvgRate, rec.average_rate);
  w.f64(kTagFetPeakRate, rec.peak_rate);
  w.b(kTagFetRejected, rec.rejected);
}

FetchRecord load_fetch_record(snapshot::SnapshotReader& r) {
  FetchRecord rec;
  rec.start_time = r.i64(kTagFetStart);
  rec.finish_time = r.i64(kTagFetFinish);
  rec.acquired_bytes = r.u64(kTagFetAcquired);
  rec.traffic_bytes = r.u64(kTagFetTraffic);
  rec.average_rate = r.f64(kTagFetAvgRate);
  rec.peak_rate = r.f64(kTagFetPeakRate);
  rec.rejected = r.b(kTagFetRejected);
  return rec;
}

}  // namespace

void save_task_outcome(snapshot::SnapshotWriter& w, const TaskOutcome& o) {
  w.u64(kTagOutTask, o.task_id);
  w.u32(kTagOutUser, o.user_id);
  w.u32(kTagOutFile, o.file);
  save_predownload_record(w, o.pre);
  save_fetch_record(w, o.fetch);
  w.b(kTagOutFetched, o.fetched);
  w.f64(kTagOutPopularity, o.weekly_popularity);
  w.u8(kTagOutClass, static_cast<std::uint8_t>(o.popularity));
  w.b(kTagOutPrivileged, o.privileged_path);
}

TaskOutcome load_task_outcome(snapshot::SnapshotReader& r) {
  TaskOutcome o;
  o.task_id = r.u64(kTagOutTask);
  o.user_id = r.u32(kTagOutUser);
  o.file = r.u32(kTagOutFile);
  o.pre = load_predownload_record(r);
  o.fetch = load_fetch_record(r);
  o.fetched = r.b(kTagOutFetched);
  o.weekly_popularity = r.f64(kTagOutPopularity);
  o.popularity = static_cast<PopularityClass>(r.u8(kTagOutClass));
  o.privileged_path = r.b(kTagOutPrivileged);
  return o;
}

}  // namespace odr::workload
