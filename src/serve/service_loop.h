// ServiceLoop: the ODR decision engine as a long-lived service under
// open-loop load.
//
// The replay drivers answer "what happened during the measured week"; the
// service loop answers the operator's question: "at what offered rate
// does this deployment fall over, and how does it fail?" It runs on the
// same analysis::StrategyWorld run_strategy_replay runs on (catalog,
// users, Xuanfeng cloud, smart APs, executor with optional breakers,
// faults and hedging) but feeds it from a serve::TrafficGen instead of a
// pre-scheduled trace, and puts a real service boundary between arrivals
// and the engine:
//
//   arrival ──> admission control ──> bounded queue ──> dispatch slots
//                   │                      │                │
//                   │ shed unpopular       │ backpressure   │ <= max_inflight
//                   │ (degraded mode)      │ drop when full │ concurrent tasks
//
// Admission mirrors the PR-1 degraded-mode policy: above the shed
// watermark, unpopular arrivals are turned away first while popular and
// highly-popular ones still queue; only a completely full queue drops
// regardless of class, and that drop is the backpressure signal counted
// against the generator side (an open-loop source cannot be slowed down,
// so backpressure manifests as loss — exactly the overload behavior
// closed-loop replay cannot express). Dispatch admits queued tasks into
// the executor whenever a slot frees, so queue wait is part of every
// task's serve latency, which the SloTracker folds into streaming
// p50/p99/goodput against the configured targets.
//
// Determinism: one Simulator, one Rng tree, no wall clock — same seed +
// same config (rate plan, queue shape, fault plan) reproduces the exact
// admission/drop/latency sequence, pinned by ServeResult::fingerprint.
// The generator forks the world's rng before start() forks the fault
// injector's, so a fault plan never changes what arrives.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "analysis/replay.h"
#include "serve/slo_tracker.h"
#include "serve/traffic_gen.h"

namespace odr::serve {

struct ServeConfig {
  // The §6 world: seed, catalog/user/cloud scale, sources, fault plan,
  // strategy, redirector and breakers. The trace-generation fields
  // (experiment.requests) are ignored — arrivals come from `traffic` —
  // except num_requests, which sizes the storage-pool and content-DB
  // warm-up like every replay driver does.
  analysis::StrategyReplayConfig world;
  TrafficGenConfig traffic;

  // Service shape: concurrent tasks the engine runs at once (dispatch
  // slots) and the bounded admission queue in front of them.
  std::size_t max_inflight = 256;
  std::size_t queue_capacity = 1024;
  // Queue-occupancy fraction above which unpopular arrivals are shed.
  double shed_watermark = 0.75;

  SloConfig slo;
};

struct ServeResult {
  // Generator side.
  std::uint64_t offered = 0;
  double offered_rate_tasks_per_sec = 0.0;  // offered / plan duration
  // Admission verdicts (offered == admitted + shed_unpopular + dropped_full).
  std::uint64_t admitted = 0;
  std::uint64_t shed_unpopular = 0;   // degraded-mode shed (watermark)
  std::uint64_t dropped_full = 0;     // backpressure: queue at capacity
  // Engine side.
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;         // engine-level admission (cloud)
  std::uint64_t unclassified_failures = 0;  // failed without a usable cause
  std::size_t peak_queue_depth = 0;
  std::size_t peak_inflight = 0;
  // Budget pressure (shared retry/hedge budget, when enabled).
  std::uint64_t budget_granted = 0;
  std::uint64_t budget_denied = 0;
  std::uint64_t faults_fired = 0;
  std::uint64_t hedge_pairs = 0;

  SloReport slo;
  SimTime plan_duration = 0;
  SimTime drained_at = 0;  // sim time when the last task settled

  // Order-sensitive FNV-1a over every admission verdict and completion
  // (task id, verdict, success, cause, route, latency) — the
  // admission/drop/latency fingerprint the determinism golden pins.
  std::uint64_t fingerprint = 0;
};

class ServiceLoop {
 public:
  explicit ServiceLoop(const ServeConfig& config);

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  // Runs the full plan plus drain; call once.
  ServeResult run();

 private:
  struct Queued {
    workload::WorkloadRecord record;
  };

  void on_arrival();
  void schedule_next_arrival();
  void pump();  // fill free dispatch slots from the queue
  void dispatch(Queued task);
  // The world's sink: one admitted task finished; its latency runs from
  // its arrival (the outcome's request time).
  void on_complete(const core::ExecOutcome& o);
  void mix(std::uint64_t v) {
    fingerprint_ ^= v;
    fingerprint_ *= 1099511628211ull;
  }

  ServeConfig config_;
  analysis::StrategyWorld world_;
  TrafficGen gen_;
  SloTracker slo_;

  std::optional<workload::WorkloadRecord> next_arrival_;
  std::deque<Queued> queue_;
  std::size_t inflight_ = 0;
  bool pumping_ = false;  // guards re-entrant pump() on synchronous completion
  std::uint64_t dispatched_ = 0;  // round-robin AP slot
  ServeResult result_;
  std::uint64_t fingerprint_ = 1469598103934665603ull;
};

}  // namespace odr::serve
