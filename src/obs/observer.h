// Observer: the facade that ties metrics, tracing, the flight recorder,
// and the gauge sampler together, plus the ODR_* instrumentation macros
// used at every call site across the stack.
//
// Instrumented code never holds an Observer directly; it goes through the
// ambient pointer (obs::current()), installed for the duration of a run by
// obs::ScopedObserver. With no observer installed every macro is one
// global load and a branch (the obs_overhead ctest gates that cost).
//
// The Observer tracks sim time via a plain value (set from the simulator's
// after-event hook), not a clock closure, so it cannot dangle when a
// replay's world is torn down and a new one is built.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "obs/attribution.h"
#include "obs/calibration_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_ts.h"
#include "obs/obs_config.h"
#include "obs/sampler.h"
#include "obs/task_span.h"
#include "obs/trace.h"
#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

class Observer {
 public:
  explicit Observer(ObsConfig config = ObsConfig{});

  const ObsConfig& config() const { return config_; }
  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  GaugeSampler* sampler() { return sampler_.get(); }
  const GaugeSampler* sampler() const { return sampler_.get(); }
  // Null unless config().spans (or calibration, which implies spans).
  TaskJournal* journal() { return journal_.get(); }
  const TaskJournal* journal() const { return journal_.get(); }
  Attribution* attribution() { return attribution_.get(); }
  const Attribution* attribution() const { return attribution_.get(); }
  // Null unless config().calibration.
  CalibrationMonitor* calibration() { return monitor_.get(); }
  const CalibrationMonitor* calibration() const { return monitor_.get(); }
  // Null unless config().metrics_ts.
  MetricsTimeSeries* metrics_ts() { return metrics_ts_.get(); }
  const MetricsTimeSeries* metrics_ts() const { return metrics_ts_.get(); }

  // The observer's view of simulated time, fed by the simulator's
  // after-event hook (and settable directly for harness-level events).
  SimTime now() const { return now_; }
  void set_now(SimTime t) { now_ = t; }

  // After-event hook body: advance the clock, count the event, give the
  // sampler a chance to take its periodic sample.
  void on_sim_event(SimTime now) {
    now_ = now;
    sim_events_->inc();
    if (sampler_) sampler_->on_time(now);
    if (monitor_) monitor_->on_time(now);
  }

  // Resets per-run derived state (open spans, attribution folds, drift
  // latches). Called by the replay wiring whenever a world is built or
  // restored, so a checkpoint resume starts from a clean journal and
  // attribution never double-counts a task finished by the dead process.
  void begin_run();

  // (Re)creates the sampler over [start, end) at config().sample_period.
  // Recreating on every wiring call drops probes captured against a
  // previous replay's world, so nothing dangles across runs. A
  // non-positive sample_period leaves the sampler null (disabled).
  void enable_sampler(SimTime start, SimTime end);

  // Full metrics document: config echo, registry, sampler series, span /
  // attribution / calibration sections. Non-const: attribution gauges are
  // refreshed into the registry at write time.
  void write_metrics_json(JsonWriter& j);
  bool write_metrics_file(const std::string& path);
  bool write_trace_file(const std::string& path) const;
  // {"schema": "odr.spans.v1", ...}; false when spans are off.
  bool write_spans_file(const std::string& path) const;
  // `odr.metricsts.v1` JSONL; false when metrics_ts is off.
  bool write_metrics_ts_file(const std::string& path) const;

 private:
  ObsConfig config_;
  Registry metrics_;
  Tracer tracer_;
  FlightRecorder flight_;
  std::unique_ptr<GaugeSampler> sampler_;
  std::unique_ptr<Attribution> attribution_;
  std::unique_ptr<CalibrationMonitor> monitor_;
  std::unique_ptr<TaskJournal> journal_;
  std::unique_ptr<MetricsTimeSeries> metrics_ts_;
  Counter* sim_events_;  // pre-resolved: on_sim_event runs after every event
  SimTime now_ = 0;
};

// Ambient observer. Null when no observer is installed (the runtime "off"
// state). Deliberately not inline: call sites pay one function call when
// an observer IS installed; when none is, the branch predicts perfectly.
Observer* current();
void set_current(Observer* obs);

// Installs an owned Observer for a scope; restores the previous one on
// exit (scopes nest, e.g. a bench harness around a replay).
class ScopedObserver {
 public:
  explicit ScopedObserver(ObsConfig config = ObsConfig{});
  ~ScopedObserver();
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

  Observer& operator*() { return obs_; }
  Observer* operator->() { return &obs_; }
  Observer* get() { return &obs_; }

 private:
  Observer obs_;
  Observer* prev_;
};

// RAII span against the ambient observer. Note: simulated time does not
// advance inside one event callback, so a span opened and closed within a
// single callback has zero duration — it still marks structure. For spans
// that cover real simulated intervals, use ODR_TRACE_COMPLETE with the
// recorded begin time instead.
class ScopedSpan {
 public:
  ScopedSpan(Cat cat, std::string_view name)
      : obs_(current()), cat_(cat), name_(name),
        begin_(obs_ != nullptr ? obs_->now() : 0) {}
  ~ScopedSpan() {
    if (obs_ != nullptr) {
      obs_->tracer().complete(cat_, name_, begin_, obs_->now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Observer* obs_;
  Cat cat_;
  std::string name_;
  SimTime begin_;
};

}  // namespace odr::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. `cat` and `sev` arguments are bare enumerator
// tokens (kNet, kWarn); the macros qualify them. All of them evaluate their
// arguments only when an observer is installed.
// ---------------------------------------------------------------------------

#define ODR_COUNT(name)                                        \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->metrics().counter(name).inc();                 \
  } while (0)

#define ODR_COUNT_N(name, n)                                   \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->metrics().counter(name).inc(                   \
          static_cast<std::uint64_t>(n));                      \
  } while (0)

#define ODR_GAUGE(name, v)                                     \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->metrics().gauge(name).set(                     \
          static_cast<double>(v));                             \
  } while (0)

#define ODR_HIST(name, lo, hi, bins, v)                        \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->metrics().histogram(name, lo, hi, bins).add(   \
          static_cast<double>(v));                             \
  } while (0)

#define ODR_TRACE_INSTANT(cat, name)                           \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->tracer().instant(::odr::obs::Cat::cat, name,   \
                                 odr_obs_->now());             \
  } while (0)

#define ODR_TRACE_COMPLETE(cat, name, begin, end)              \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->tracer().complete(::odr::obs::Cat::cat, name,  \
                                  begin, end);                 \
  } while (0)

#define ODR_OBS_CONCAT_INNER(a, b) a##b
#define ODR_OBS_CONCAT(a, b) ODR_OBS_CONCAT_INNER(a, b)
#define ODR_TRACE_SPAN(cat, name)                              \
  ::odr::obs::ScopedSpan ODR_OBS_CONCAT(odr_obs_span_,         \
                                        __LINE__)(             \
      ::odr::obs::Cat::cat, name)

// Per-task span journal call: ODR_SPAN(on_stage(id, Stage::kVmFetch, a, b)).
// `expr` is a TaskJournal member call; it runs only when an observer with
// spans enabled is installed.
#define ODR_SPAN(expr)                                         \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      if (auto* odr_journal_ = odr_obs_->journal())            \
        odr_journal_->expr;                                    \
  } while (0)

// Windowed-telemetry call: ODR_METRICS_TS(on_verdict(now, v, depth, n)).
// `expr` is a MetricsTimeSeries member call; it runs only when an
// observer with metrics_ts enabled is installed.
#define ODR_METRICS_TS(expr)                                   \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      if (auto* odr_mts_ = odr_obs_->metrics_ts())             \
        odr_mts_->expr;                                        \
  } while (0)

// Extra args are (a) or (a, b) numeric payloads.
#define ODR_FLIGHT(cat, sev, what, ...)                        \
  do {                                                         \
    if (auto* odr_obs_ = ::odr::obs::current())                \
      odr_obs_->flight().note(                                 \
          odr_obs_->now(), ::odr::obs::Cat::cat,               \
          ::odr::obs::Severity::sev, what                      \
          __VA_OPT__(, ) __VA_ARGS__);                         \
  } while (0)
