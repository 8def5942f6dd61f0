// Windowed metrics time-series: the streaming telemetry plane for
// live-service mode.
//
// The end-of-run ServeResult says the p99 melted; it cannot say WHEN. The
// MetricsTimeSeries folds three event feeds into fixed sim-time windows
// aligned with the SLO tracker's evaluation window and emits one row per
// window, so a flash-crowd run becomes a rate-vs-time trajectory instead
// of one final aggregate:
//   - admission verdicts (offered / admitted / shed / dropped, queue depth
//     and in-flight at the decision) straight from the ServiceLoop;
//   - completions (latency into a quarter-octave LogHist for window-local
//     p50/p99, success/failure counts);
//   - finished task spans (dominant-stage counts and a (verdict, cause,
//     popularity) taxonomy per window) via the TaskJournal sink — the
//     streaming analogue of the end-of-run Attribution fold.
// At each window close it also snapshots deltas of a fixed set of registry
// counters (retry-budget grants/denies, hedge pairs/wins/waste), so budget
// exhaustion during an overload is visible as a time series.
//
// Overload onset is latched: the first window whose p99 violates the
// target and the first backpressure drop each fire one flight-recorder
// note + auto-dump (DumpTrigger::kOverloadOnset), giving every overload a
// post-mortem ring without flooding a week-long melt.
//
// Like everything in src/obs this is pure derived state: no Rng draws, no
// scheduled events, never serialized. begin_run() (world build or
// checkpoint restore) resets every window, latch, and counter baseline,
// so kill+resume never double-counts a window. Export is
// `odr.metricsts.v1` JSONL: one header line, then one object per window.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attribution.h"
#include "obs/task_span.h"
#include "util/log_hist.h"
#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

class FlightRecorder;
class Registry;

// The ServiceLoop's admission decision, as seen by telemetry.
enum class AdmissionVerdict : std::uint8_t { kAdmitted = 0, kShed, kDropped };
std::string_view admission_verdict_name(AdmissionVerdict v);

// Registry counters snapshotted as per-window deltas.
inline constexpr std::array<std::string_view, 7> kWindowCounterNames = {
    "core.budget.granted",        "core.budget.denied",
    "task.hedge.pairs",           "task.hedge.primary_wins",
    "task.hedge.secondary_wins",  "task.hedge.cancelled_clones",
    "task.hedge.wasted_bytes",
};

struct MetricsTsRow {
  std::uint64_t window = 0;  // index: [window * size, (window + 1) * size)
  SimTime start = 0;
  SimTime end = 0;
  // Arrival side: admission verdicts inside the window.
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_unpopular = 0;
  std::uint64_t dropped_full = 0;
  // Engine side: completions inside the window.
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  double p50_seconds = 0.0;  // window-local latency quantiles; 0 when idle
  double p99_seconds = 0.0;
  bool p99_violation = false;
  // Serve-loop gauges: value at the last event in the window, plus peaks.
  std::uint64_t queue_depth = 0;
  std::uint64_t inflight = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_inflight = 0;
  // Registry counter deltas across the window (kWindowCounterNames order).
  std::array<std::uint64_t, kWindowCounterNames.size()> counter_deltas{};
  // Span attribution folded into this window (all zero when spans are
  // off). `dominant` counts finished tasks by their dominant stage; the
  // taxonomy keys failures and rejections by (verdict, cause, popularity).
  std::uint64_t spans_folded = 0;
  std::array<std::uint64_t, kStageCount> dominant{};
  FailureTaxonomy verdicts;

  std::uint64_t budget_granted() const { return counter_deltas[0]; }
  std::uint64_t budget_denied() const { return counter_deltas[1]; }
  std::uint64_t hedge_pairs() const { return counter_deltas[2]; }
  std::uint64_t hedge_wasted_bytes() const { return counter_deltas[6]; }
  // Name of the stage dominating the most finished tasks this window;
  // empty when no spans were folded.
  std::string_view dominant_stage() const;
  void write_json(JsonWriter& j) const;
};

class MetricsTimeSeries {
 public:
  // `registry` supplies the per-window counter deltas (may be null in
  // unit tests); `window` is the fallback size until begin_serve.
  MetricsTimeSeries(const Registry* registry, SimTime window);

  // Overload dumps go here when set (mirrors CalibrationMonitor).
  void set_flight(FlightRecorder* flight) { flight_ = flight; }

  // Full reset: rows, open window, latches, counter baselines. Called by
  // Observer::begin_run() on every world build or checkpoint restore, so
  // a resumed run starts a fresh trajectory and never double-counts.
  void begin_run();
  // Serve-loop handshake at run start: adopt the SLO evaluation window
  // and p99 target so telemetry windows line up with SloTracker windows.
  // Implies begin_run().
  void begin_serve(SimTime window, SimTime p99_target);

  SimTime p99_target() const { return p99_target_; }

  // --- event feeds (monotone in sim time, any interleaving) --------------
  void on_verdict(SimTime now, AdmissionVerdict v, std::size_t queue_depth,
                  std::size_t inflight);
  void on_complete(SimTime now, SimTime latency, bool success,
                   std::size_t queue_depth, std::size_t inflight);
  // TaskJournal sink: windowed by the span's finish time.
  void fold(const TaskSpan& span);
  // Closes every window up to and including the one containing `now`
  // (end of run / drain point). Idempotent for a fixed `now`.
  void finish(SimTime now);

  // --- introspection ------------------------------------------------------
  const std::vector<MetricsTsRow>& rows() const { return rows_; }
  std::uint64_t violation_windows() const { return violation_windows_; }
  // Index of the first p99-violating window; -1 when none violated.
  std::int64_t first_violation_window() const {
    return first_violation_window_;
  }
  bool overload_latched() const { return p99_latched_; }
  bool saturation_latched() const { return saturation_latched_; }

  // --- export -------------------------------------------------------------
  // `odr.metricsts.v1` JSONL: header line + one line per window row.
  void write_jsonl(std::string& out) const;
  bool write_file(const std::string& path) const;
  // Summary fields for embedding in the odr.metrics.v1 document.
  void write_summary_fields(JsonWriter& j) const;

 private:
  void roll_to(SimTime now);
  void close_window();
  void touch_gauges(std::size_t queue_depth, std::size_t inflight);
  std::uint64_t counter_value(std::size_t i) const;

  const Registry* registry_;
  FlightRecorder* flight_ = nullptr;
  SimTime window_size_;
  SimTime p99_target_ = 0;  // 0 = no target: rows never marked violating

  std::vector<MetricsTsRow> rows_;
  MetricsTsRow cur_;
  LogHist cur_hist_;
  std::array<std::uint64_t, kWindowCounterNames.size()> counter_base_{};
  std::uint64_t violation_windows_ = 0;
  std::int64_t first_violation_window_ = -1;
  bool p99_latched_ = false;
  bool saturation_latched_ = false;
};

}  // namespace odr::obs
