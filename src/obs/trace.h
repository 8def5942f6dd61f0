// Sim-time tracing in Chrome trace_event format.
//
// Events carry SIMULATED timestamps (the Simulator clock is integer
// microseconds, which is exactly Chrome's `ts` unit), so a week-long
// replay exports as a trace that Perfetto / chrome://tracing renders with
// the simulated week on the time axis. Each subsystem category maps to
// its own named track (tid), giving one lane per layer.
//
// Three event shapes cover everything the simulator produces:
//   - instant ("i")   — a point event (a rejection, a fault activation);
//   - complete ("X")  — a retrospective span with explicit begin/end sim
//                       times (a flow's lifetime, a VM pre-download);
//   - counter ("C")   — a sampled numeric value (gauge sampler mirror).
//
// High-frequency categories can be thinned with a per-category sampling
// knob (record one of every N events); the buffer is hard-capped and
// overflow is *counted*, never silent.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

// One track per subsystem layer (Chrome tid = category index).
enum class Cat : std::uint8_t {
  kSim = 0,
  kNet,
  kProto,
  kCloud,
  kAp,
  kCore,
  kFault,
  kSnapshot,
  kBench,
  kTask,  // per-task telemetry (span windows, calibration drift)
};
inline constexpr std::size_t kCatCount = 10;

std::string_view cat_name(Cat cat);

class Tracer {
 public:
  Tracer(bool enabled, std::size_t max_events);

  bool enabled() const { return enabled_; }

  // Record one of every `n` events in `cat` (n == 1 records all).
  void set_sample_every(Cat cat, std::uint32_t n);
  std::uint32_t sample_every(Cat cat) const {
    return sample_every_[static_cast<std::size_t>(cat)];
  }

  void instant(Cat cat, std::string_view name, SimTime ts);
  void complete(Cat cat, std::string_view name, SimTime begin, SimTime end);
  void counter(Cat cat, std::string_view name, SimTime ts, double value);

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  // The whole trace document: {"displayTimeUnit", "traceEvents": [...]}
  // with per-category thread_name metadata so lanes are labelled.
  void write_json(JsonWriter& j) const;
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    SimTime ts = 0;
    SimTime dur = 0;
    double value = 0.0;
    Cat cat = Cat::kSim;
    char ph = 'i';
    std::string name;
  };

  // Sampling + capacity admission for one event in `cat`.
  bool admit(Cat cat);
  void push(Event e);

  bool enabled_;
  std::size_t max_events_;
  std::array<std::uint32_t, kCatCount> sample_every_;
  std::array<std::uint32_t, kCatCount> sample_seen_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace odr::obs
