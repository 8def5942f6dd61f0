// Periodic gauge sampler.
//
// Samples a set of registered probes (cheap read-only closures over live
// subsystem state: VM-pool occupancy, per-ISP upload utilization, storage
// bytes, live flow count, swarm populations, breaker states) into one
// util::TimeSeries per probe, binned at ObsConfig::sample_period.
//
// The sampler is *polled*, not scheduled: it never posts simulator events.
// The Observer calls on_time(now) from the simulator's after-event hook,
// and the sampler takes at most one sample per period bin (next_due_ jumps
// to the first period boundary strictly after `now`). Because nothing is
// inserted into the event queue, checkpoints and event ordering are
// bit-identical whether or not the sampler is running.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/histogram.h"
#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

class GaugeSampler {
 public:
  GaugeSampler(SimTime start, SimTime end, SimTime period);

  using Probe = std::function<double()>;

  // Probes must be strictly read-only: sampling may happen after any event,
  // and a probe that mutates state would perturb the run it is watching.
  void add_probe(std::string name, Cat cat, Probe probe);

  // Optional: mirror every sample as a Chrome counter ("C") event, so the
  // gauge shows up as a graph lane in Perfetto next to the spans.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Called after every simulator event; samples all probes at most once
  // per period bin.
  void on_time(SimTime now);

  std::uint64_t samples_taken() const { return samples_; }
  SimTime period() const { return period_; }

  // nullptr when the probe name is unknown.
  const TimeSeries* series(std::string_view name) const;

  // Emits a "samples" array field (one object per probe, with name and
  // per-bin values) into the object currently open on `j`.
  void write_fields(JsonWriter& j) const;

 private:
  struct Entry {
    std::string name;
    Cat cat;
    Probe probe;
    TimeSeries series;
  };

  SimTime start_;
  SimTime end_;
  SimTime period_;
  SimTime next_due_;
  std::uint64_t samples_ = 0;
  std::vector<Entry> probes_;
  Tracer* tracer_ = nullptr;
};

}  // namespace odr::obs
