// Crash flight recorder: a fixed-size ring of recent structured events.
//
// Low-frequency, high-information events (fault activations, breaker
// trips, checkpoints, restores, AP crashes) are noted into a bounded ring
// buffer as the simulation runs. When something goes wrong — a snapshot
// invariant audit fails, a fault-plan event fires, or a bench harness
// aborts — the ring is dumped automatically, so every chaos failure comes
// with its last-N-events context instead of only an end-of-run summary.
//
// Dumps go to stderr as aligned text, or (with ObsConfig::dump_path set)
// to "<dump_path>.<n>.<trigger>.json" files. Automatic dumps are capped
// (kMaxAutoDumps) so a week of chaos cannot bury the console; manual dumps
// are never capped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs_config.h"
#include "obs/trace.h"
#include "util/units.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

enum class Severity : std::uint8_t { kInfo = 0, kWarn, kError };

std::string_view severity_name(Severity sev);

struct FlightEntry {
  SimTime t = 0;
  Cat cat = Cat::kSim;
  Severity sev = Severity::kInfo;
  std::string what;
  // Two generic numeric payloads (counts, ids, rates) so entries stay
  // fixed-cost; the meaning is implied by `what`.
  double a = 0.0;
  double b = 0.0;
};

class FlightRecorder {
 public:
  // Ring size: the last this-many notes survive into a dump.
  static constexpr std::size_t kCapacity = 256;
  // Ceiling on automatic dumps, so a chaos week with hundreds of fault
  // activations does not bury the console. Manual dumps are not capped.
  static constexpr std::uint64_t kMaxAutoDumps = 4;

  explicit FlightRecorder(const ObsConfig& config);

  void note(SimTime t, Cat cat, Severity sev, std::string what,
            double a = 0.0, double b = 0.0);

  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_noted() const { return noted_; }
  bool wrapped() const { return noted_ > ring_.size(); }

  // Oldest-first copy of the surviving entries.
  std::vector<FlightEntry> entries() const;

  enum class DumpTrigger : std::uint8_t {
    kAuditFailure = 0,
    kFaultFired,
    kBenchAbort,
    kOverloadOnset,  // serve telemetry latched an overload (p99/saturation)
    kManual,
  };
  static std::string_view trigger_name(DumpTrigger trigger);

  // Dumps if `trigger` is enabled in the config and the auto-dump budget
  // is not exhausted (kAuditFailure, kBenchAbort and kManual are always
  // enabled; kManual is never capped). Returns true if dumped.
  bool auto_dump(DumpTrigger trigger, const std::string& reason);
  std::uint64_t dumps_written() const { return dumps_; }

  // Emits the ring as a JSON object value on `j`.
  void write_json(JsonWriter& j, DumpTrigger trigger,
                  const std::string& reason) const;
  std::string render_text(DumpTrigger trigger, const std::string& reason) const;

 private:
  bool trigger_enabled(DumpTrigger trigger) const;

  ObsConfig config_;
  std::vector<FlightEntry> ring_;  // circular once full; head_ = oldest
  std::size_t head_ = 0;
  std::uint64_t noted_ = 0;
  std::uint64_t dumps_ = 0;
};

}  // namespace odr::obs
