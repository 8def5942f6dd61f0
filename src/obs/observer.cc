#include "obs/observer.h"

#include "util/json.h"

namespace odr::obs {

namespace {
// Thread-local: parallel replicate runs (run::run_parallel) simulate
// independent worlds on worker threads; an observer installed on one
// thread must never see another thread's events. Single-threaded use is
// unaffected.
thread_local Observer* g_current = nullptr;
}  // namespace

Observer* current() { return g_current; }
void set_current(Observer* obs) { g_current = obs; }

Observer::Observer(ObsConfig config)
    : config_(std::move(config)),
      tracer_(config_.tracing, config_.trace_max_events),
      flight_(config_),
      sim_events_(&metrics_.counter("sim.events.executed")) {
  if (config_.trace_sample_every_flows > 1) {
    tracer_.set_sample_every(Cat::kNet, config_.trace_sample_every_flows);
    tracer_.set_sample_every(Cat::kProto, config_.trace_sample_every_flows);
  }
  if (config_.metrics_ts) {
    // Hour windows until a ServiceLoop adopts its SLO window at run start.
    metrics_ts_ = std::make_unique<MetricsTimeSeries>(&metrics_, kHour);
    metrics_ts_->set_flight(&flight_);
  }
  if (config_.spans || config_.calibration) {
    journal_ = std::make_unique<TaskJournal>(config_);
    attribution_ = std::make_unique<Attribution>();
    if (config_.calibration) {
      monitor_ = std::make_unique<CalibrationMonitor>(
          paper_calibration_targets(), kHour);
      monitor_->set_flight(&flight_);
    }
    journal_->set_sinks(attribution_.get(), monitor_.get());
    journal_->set_metrics_ts(metrics_ts_.get());
  }
}

void Observer::begin_run() {
  if (journal_) journal_->begin_run();
  if (attribution_) attribution_->begin_run();
  if (monitor_) monitor_->begin_run();
  if (metrics_ts_) metrics_ts_->begin_run();
}

void Observer::enable_sampler(SimTime start, SimTime end) {
  if (config_.sample_period <= 0) {
    sampler_.reset();  // disabled: no probes, no per-event sampling
    return;
  }
  sampler_ = std::make_unique<GaugeSampler>(start, end, config_.sample_period);
  if (tracer_.enabled()) sampler_->set_tracer(&tracer_);
}

void Observer::write_metrics_json(JsonWriter& j) {
  if (attribution_) attribution_->export_metrics(metrics_);
  j.begin_object();
  j.field("schema", "odr.metrics.v1");
  metrics_.write_fields(j);
  if (journal_) {
    j.key("spans").begin_object();
    journal_->write_summary_fields(j);
    j.end_object();
  }
  if (attribution_) {
    j.key("attribution");
    attribution_->write_json(j);
  }
  if (monitor_) {
    j.key("calibration");
    monitor_->write_json(j);
  }
  if (metrics_ts_) {
    j.key("metrics_ts").begin_object();
    metrics_ts_->write_summary_fields(j);
    j.end_object();
  }
  if (sampler_) {
    j.key("sampler").begin_object();
    sampler_->write_fields(j);
    j.end_object();
  }
  j.key("trace").begin_object()
      .field("enabled", tracer_.enabled())
      .field("events", static_cast<std::uint64_t>(tracer_.size()))
      .field("dropped", tracer_.dropped())
      .end_object();
  j.key("flight").begin_object()
      .field("noted", flight_.total_noted())
      .field("dumps", flight_.dumps_written())
      .end_object();
  j.end_object();
}

bool Observer::write_metrics_file(const std::string& path) {
  JsonWriter j;
  write_metrics_json(j);
  return j.write_file(path);
}

bool Observer::write_trace_file(const std::string& path) const {
  return tracer_.write_file(path);
}

bool Observer::write_spans_file(const std::string& path) const {
  if (!journal_) return false;
  return journal_->write_file(path);
}

bool Observer::write_metrics_ts_file(const std::string& path) const {
  if (!metrics_ts_) return false;
  return metrics_ts_->write_file(path);
}

ScopedObserver::ScopedObserver(ObsConfig config)
    : obs_(std::move(config)), prev_(current()) {
  set_current(&obs_);
}

ScopedObserver::~ScopedObserver() { set_current(prev_); }

}  // namespace odr::obs
