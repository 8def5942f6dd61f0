// Per-task lifecycle spans: a causal journal that follows every download
// task end-to-end across subsystem boundaries.
//
// The aggregate counters and subsystem trace lanes of obs/metrics and
// obs/trace answer "how busy was the VM pool?" but not "where did THIS
// task's 40 minutes go?". The TaskJournal answers the latter: each task
// gets one TaskSpan keyed by its workload task id, instrumentation sites
// append sim-time stage intervals (VM queue wait, VM fetch, upload-cluster
// fetch, AP fetch, ...), retry and breaker-reroute counts accumulate on
// the span, and the terminal outcome (success / failure cause / admission
// rejection) closes it.
//
// Finished spans are folded — every one of them — into the Attribution
// engine and the CalibrationMonitor, then *sampled* for retention:
//   - a deterministic hash reservoir keeps a representative cross-section
//     (bottom-k by splitmix64(task_id), so the kept set is independent of
//     finish order and identical across reruns);
//   - failed and rejected spans are always kept (capped, overflow
//     counted);
//   - the slowest-k spans by end-to-end duration are always kept.
//
// Like everything in src/obs, the journal is pure derived state: it is
// never serialized, draws no Rng, and schedules no events. A checkpoint
// restore therefore begins with an empty journal (begin_run()); stage
// intervals recorded before the kill are gone, and spans re-created on the
// fly for in-flight tasks cover only the resumed portion. Attribution
// folds exactly the spans finished in THIS process, so kill+resume never
// double-counts a task.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs_config.h"
#include "util/flat_map.h"
#include "util/pool.h"
#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

class Attribution;
class CalibrationMonitor;
class MetricsTimeSeries;

// Pipeline stages a task can pass through. A task visits a subset in
// order; a stage can be re-entered (retry, breaker reroute), producing
// several intervals with increasing `attempt`.
enum class Stage : std::uint8_t {
  kAdmission = 0,    // request admission / dedup decision point
  kCacheLookup,      // storage-pool lookup (zero-duration marker)
  kVmQueue,          // waiting for a pre-downloader VM slot
  kVmFetch,          // pre-downloader VM running the source fetch
  kUploadFetch,      // per-ISP upload cluster streaming to the user
  kApFetch,          // smart-AP download (testbed / ODR AP path)
  kDirectFetch,      // user-device direct download
  kLanFetch,         // AP -> device LAN hop
  kHedge,            // hedged-pair window: clone launch -> race settled
};
inline constexpr std::size_t kStageCount = 9;
std::string_view stage_name(Stage s);

enum class SpanOutcome : std::uint8_t {
  kOpen = 0,
  kSuccess,
  kFailed,
  kRejected,  // admission control refused the fetch
};
std::string_view span_outcome_name(SpanOutcome o);

// Which front door admitted the task; calibration statistics are keyed on
// this so AP testbed replays don't pollute cloud-week marginals.
enum class SpanOrigin : std::uint8_t { kCloud = 0, kAp, kDirect };
std::string_view span_origin_name(SpanOrigin o);

struct StageInterval {
  Stage stage = Stage::kAdmission;
  SimTime begin = 0;
  SimTime end = 0;
  std::uint32_t attempt = 0;  // 0-based re-entry count of this stage
  SimTime duration() const { return end >= begin ? end - begin : 0; }
};

// Terminal facts handed to TaskJournal::on_finish by the outcome sink.
// String views must point at static-duration names (failure_cause_name,
// popularity_class_name) — the span stores them unowned.
struct SpanTerminal {
  SpanOutcome outcome = SpanOutcome::kSuccess;
  std::string_view cause = "none";
  std::string_view popularity = "";
  bool cache_hit = false;
  bool pre_success = true;   // pre-download half succeeded (cloud origin)
  double fetch_kbps = 0.0;   // delivery speed; 0 when not applicable
  double e2e_kbps = 0.0;     // bytes over (pre + fetch) wall time
};

struct TaskSpan {
  std::uint64_t task_id = 0;
  SpanOrigin origin = SpanOrigin::kCloud;
  SimTime submitted_at = 0;
  SimTime finished_at = 0;
  SpanOutcome outcome = SpanOutcome::kOpen;
  std::string_view cause = "none";
  std::string_view popularity = "";
  bool cache_hit = false;
  bool pre_success = true;
  double fetch_kbps = 0.0;
  double e2e_kbps = 0.0;
  std::uint32_t retries = 0;   // VM retry / checksum refetch / AP resume
  std::uint32_t reroutes = 0;  // circuit-breaker route changes
  std::vector<StageInterval> stages;

  SimTime stage_total(Stage s) const;
  // Sum of all recorded stage intervals (NOT wall time; stages can gap).
  SimTime stages_total() const;
  SimTime wall() const {
    return finished_at >= submitted_at ? finished_at - submitted_at : 0;
  }
  // The stage with the largest cumulative duration — the task's critical
  // path in one word. kAdmission when no interval has positive duration.
  Stage dominant_stage() const;
  void write_json(JsonWriter& j) const;
};

class TaskJournal {
 public:
  explicit TaskJournal(const ObsConfig& config);

  // Downstream consumers of finished spans; any may be null.
  void set_sinks(Attribution* attribution, CalibrationMonitor* monitor);
  // Windowed-telemetry sink: every finished span is folded into the
  // window containing its finish time (null = no windowed attribution).
  void set_metrics_ts(MetricsTimeSeries* metrics_ts);

  // Resets ALL journal state (open spans, kept samples, retry notes,
  // counters) for a fresh run or a checkpoint restore. Attribution and
  // the monitor are reset by their own begin_run().
  void begin_run();

  // --- lifecycle events (all idempotent / order-tolerant) ---------------
  // Opens the span if the id is new; an existing span keeps its original
  // origin and submit time (the executor opens before the cloud does).
  void on_submit(std::uint64_t task_id, SimTime t, SpanOrigin origin);
  // Appends a stage interval; auto-opens an unknown id (a task revived
  // from a checkpoint mid-flight), clamps end >= begin, and numbers the
  // interval's `attempt` by how often the stage was entered before.
  void on_stage(std::uint64_t task_id, Stage s, SimTime begin, SimTime end);
  void on_retry(std::uint64_t task_id, std::uint32_t n = 1);
  void on_reroute(std::uint64_t task_id);
  // Marks the task as served from the storage pool. Sticky: on_finish ORs
  // it with the terminal's own cache flag (the executor's sink can't see
  // the pool's verdict).
  void on_cache_hit(std::uint64_t task_id);
  // File-scoped retry notes: layers that retry per FILE (the VM pool's
  // backoff requeue, a DownloadTask's checksum refetch, an AP crash
  // resume) don't know the waiting task ids; they note against the file
  // and the fan-out site moves the notes onto each waiter's span.
  void note_file_retry(std::uint64_t file_index, std::uint32_t n = 1);
  std::uint32_t take_file_retries(std::uint64_t file_index);
  // Closes the span, folds it into the sinks, applies retention sampling.
  // Unknown ids are a no-op: that is either a second finish (executor
  // wrapper + replay sink both fire) or a post-restore completion whose
  // stages all pre-dated the kill — both must never double-count.
  void on_finish(std::uint64_t task_id, SimTime t, const SpanTerminal& term);

  // --- introspection -----------------------------------------------------
  std::size_t open_spans() const { return open_index_.size(); }
  std::uint64_t finished() const { return finished_; }
  std::uint64_t kept_dropped() const { return kept_dropped_; }
  // All retained spans (reservoir + always-keep sets), deduplicated,
  // ordered by submit time.
  std::vector<TaskSpan> sampled() const;

  // {"schema": "odr.spans.v1", summary..., "spans": [...]}
  void write_json(JsonWriter& j) const;
  bool write_file(const std::string& path) const;
  // Summary fields only (for embedding in the metrics document).
  void write_summary_fields(JsonWriter& j) const;

 private:
  struct Keyed {
    std::uint64_t key = 0;  // hash (reservoir) or duration (slowest)
    TaskSpan span;
  };

  void keep(const TaskSpan& span);
  // Slot of task_id's open span, or SlabPool::kNoSlot. `opening` acquires
  // (and field-resets) a pooled span for an unknown id instead.
  std::uint32_t find_open(std::uint64_t task_id) const;
  std::uint32_t open_slot(std::uint64_t task_id, bool* inserted);

  std::size_t reservoir_size_;
  std::size_t keep_slowest_;
  std::size_t keep_failed_cap_;

  Attribution* attribution_ = nullptr;
  CalibrationMonitor* monitor_ = nullptr;
  MetricsTimeSeries* metrics_ts_ = nullptr;

  // Open spans live in a slab pool (DESIGN.md §16): the population churns
  // once per task but plateaus at the concurrent-task high-water mark, and
  // recycled spans keep their stages vector capacity, so the steady state
  // appends intervals into already-owned storage. The flat index maps
  // task_id+1 -> slot (+1 because FlatMap64 reserves key 0 and a default
  // TaskSpan's id is 0).
  util::SlabPool<TaskSpan> open_pool_;
  util::FlatMap64<std::uint32_t> open_index_;
  // file_index+1 -> pending per-file retry notes (same +1 convention).
  util::FlatMap64<std::uint32_t> file_retries_;
  std::vector<Keyed> reservoir_;  // max-heap by hash: evict largest
  std::vector<Keyed> slowest_;    // min-heap by duration: evict smallest
  std::vector<TaskSpan> kept_failed_;
  std::uint64_t finished_ = 0;
  std::uint64_t kept_dropped_ = 0;
};

}  // namespace odr::obs
