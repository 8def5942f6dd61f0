// Observability configuration and the compile-time gate.
//
// Everything in src/obs is double-gated:
//   - compile time: building with -DODR_OBS_ENABLED=0 (cmake -DODR_OBS=OFF)
//     expands every ODR_* instrumentation macro to nothing, so the hot
//     paths carry zero observability code;
//   - run time: with instrumentation compiled in, the macros are no-ops
//     unless an obs::Observer is installed via obs::set_current (usually
//     through obs::ScopedObserver) — one global load and branch per site.
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

// The compile-time gate. Defined to 0 by `cmake -DODR_OBS=OFF`.
#ifndef ODR_OBS_ENABLED
#define ODR_OBS_ENABLED 1
#endif

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
  std::size_t flight_capacity = 256;
  // Automatic dump triggers (see FlightRecorder::DumpTrigger); an audit
  // failure always dumps.
  bool dump_on_fault_fired = true;
  bool dump_on_bench_abort = true;
  // Serve overload onset (first p99-violating telemetry window, first
  // backpressure drop) — latched by the MetricsTimeSeries, so at most two
  // dumps per run regardless of how long the melt lasts.
  bool dump_on_overload = true;
  // Ceiling on automatic dumps, so a chaos week with hundreds of fault
  // activations does not bury the console. Manual dumps are not capped.
  std::size_t max_auto_dumps = 4;
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
  // Emit every n-th finished span into the Chrome trace "task" lane as one
  // row per stage interval. 0 = no per-task trace rows.
  std::uint32_t span_trace_every = 0;

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
