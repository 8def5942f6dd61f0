// Observability configuration.
//
// Everything in src/obs has one gate, at run time: the ODR_*
// instrumentation macros are no-ops unless an obs::Observer is installed
// via obs::set_current (usually through obs::ScopedObserver) — one global
// load and branch per site, which the obs_overhead ctest holds to noise.
//
// Observability state is deliberately derived state: it is never
// serialized into checkpoints, never draws from any Rng stream, and never
// schedules simulator events, so a run produces bit-identical results and
// bit-identical checkpoints whether or not an observer is watching.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/units.h"

namespace odr::obs {

struct ObsConfig {
  // --- sim-time tracing ----------------------------------------------------
  // Master switch for the tracer; metrics and the flight recorder are cheap
  // enough to always run, traces are the memory-hungry piece.
  bool tracing = true;
  // Hard cap on buffered trace events; excess events are counted as
  // dropped (reported in the export) rather than silently discarded.
  std::size_t trace_max_events = 1u << 20;
  // Sampling knob for the high-frequency categories (kNet, kProto): record
  // one of every N events. 1 = record everything.
  std::uint32_t trace_sample_every_flows = 1;

  // --- flight recorder -----------------------------------------------------
  // Automatic dump triggers (see FlightRecorder::DumpTrigger); an audit
  // failure or a bench abort always dumps.
  bool dump_on_fault_fired = true;
  // Serve overload onset (first p99-violating telemetry window, first
  // backpressure drop) — latched by the MetricsTimeSeries, so at most two
  // dumps per run regardless of how long the melt lasts.
  bool dump_on_overload = true;
  // Dump target: empty dumps human-readable text to stderr; otherwise each
  // dump writes "<dump_path>.<n>.<trigger>.json".
  std::string dump_path;

  // --- per-task lifecycle spans --------------------------------------------
  // Master switch for the TaskJournal (and the Attribution engine fed by
  // it). Off by default: span bookkeeping costs a hash-map touch per
  // lifecycle event, which plain metrics users shouldn't pay.
  bool spans = false;
  // Retention sampling for finished spans: a deterministic hash reservoir
  // of this many representative spans…
  std::size_t span_reservoir = 512;
  // …plus the slowest-k spans by cumulative stage time…
  std::size_t span_keep_slowest = 64;
  // …plus EVERY failed/rejected span, up to this cap (overflow counted).
  std::size_t span_keep_failed_cap = 4096;

  // --- calibration drift monitor -------------------------------------------
  // Streams finished spans into online estimators of the paper-reported
  // statistics, checks the gated ones against their targets every
  // simulated hour, and raises flight-recorder events on drift. Implies
  // spans.
  bool calibration = false;

  // --- windowed metrics time-series (live-service telemetry) ---------------
  // Master switch for the MetricsTimeSeries exporter: fixed sim-time
  // windows of admission verdicts, completions, window-local p50/p99,
  // serve gauges, registry counter deltas, and per-window span
  // attribution, exported as `odr.metricsts.v1` JSONL. Off by default —
  // replay drivers have no admission stream to window. Windows are an
  // hour long until the ServiceLoop adopts the SLO evaluation window at run
  // start, so telemetry and SLO windows align.
  bool metrics_ts = false;

  // --- periodic gauge sampler ----------------------------------------------
  // Bin width of the sampled TimeSeries (the paper's Fig 11 cadence).
  // <= 0 disables the sampler entirely (no probes, no per-event check) —
  // the configuration the obs_overhead allocation gates run under.
  SimTime sample_period = 5 * kMinute;
};

}  // namespace odr::obs
