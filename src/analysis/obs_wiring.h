// Wires the ambient observer (if one is installed) to a concrete replay
// world: binds the observer's clock to the simulator's after-event hook
// and registers the gauge-sampler probes against live subsystem state.
//
// Every function here is a no-op when obs::current() is null, so replay
// drivers call them unconditionally. Probes are read-only closures over
// the world they were wired against; the sampler is recreated on each
// wiring call, so rebuilding a world (or restoring from a checkpoint)
// simply re-wires and drops the stale probes.
#pragma once

#include "util/units.h"

namespace odr::sim {
class Simulator;
}
namespace odr::net {
class Network;
}
namespace odr::cloud {
class XuanfengCloud;
}
namespace odr::workload {
struct TaskOutcome;
}
namespace odr::core {
class CircuitBreaker;
}

namespace odr::analysis {

// Clock binding + sampler creation over [sim.now(), horizon). Call once
// per replay, before the event loop runs.
void wire_sim_observability(sim::Simulator& sim, SimTime horizon);

// wire_sim_observability plus the standard cloud-world probes: live flow
// count, VM-pool occupancy and queue depth, storage-pool bytes and hit
// ratio, in-flight predownloads and fetches, per-ISP upload-cluster
// utilization.
void wire_cloud_observability(sim::Simulator& sim, net::Network& net,
                              cloud::XuanfengCloud& cloud, SimTime horizon);

// Adds a breaker-state probe (0 closed, 1 open, 0.5 half-open) to an
// already-wired sampler. `name` is the metric name ("core.breaker.cloud").
void wire_breaker_probe(const char* name, const core::CircuitBreaker& breaker);

// Closes the ambient journal's span for a completed cloud task, deriving
// the terminal facts (outcome, cause, popularity class, speeds) from the
// TaskOutcome exactly as analysis::collect_speed_delay does. No-op when
// no observer with spans is installed. Replay drivers and the snapshot
// world call this from their outcome sinks — the one place a task's
// outcome is final across every route shape.
void finish_cloud_task_span(const workload::TaskOutcome& outcome);

}  // namespace odr::analysis
