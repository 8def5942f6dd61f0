#include "obs/flight_recorder.h"

#include <cstdio>
#include <iterator>

#include "util/json.h"

namespace odr::obs {

std::string_view severity_name(Severity sev) {
  switch (sev) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string_view FlightRecorder::trigger_name(DumpTrigger trigger) {
  switch (trigger) {
    case DumpTrigger::kAuditFailure: return "audit_failure";
    case DumpTrigger::kFaultFired: return "fault_fired";
    case DumpTrigger::kBenchAbort: return "bench_abort";
    case DumpTrigger::kOverloadOnset: return "overload_onset";
    case DumpTrigger::kManual: return "manual";
  }
  return "?";
}

FlightRecorder::FlightRecorder(const ObsConfig& config) : config_(config) {
  ring_.reserve(kCapacity);
}

void FlightRecorder::note(SimTime t, Cat cat, Severity sev, std::string what,
                          double a, double b) {
  FlightEntry e;
  e.t = t;
  e.cat = cat;
  e.sev = sev;
  e.what = std::move(what);
  e.a = a;
  e.b = b;
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % kCapacity;
  }
  ++noted_;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
  std::vector<FlightEntry> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

bool FlightRecorder::trigger_enabled(DumpTrigger trigger) const {
  switch (trigger) {
    case DumpTrigger::kFaultFired: return config_.dump_on_fault_fired;
    case DumpTrigger::kOverloadOnset: return config_.dump_on_overload;
    case DumpTrigger::kAuditFailure:  // an audit failure always dumps
    case DumpTrigger::kBenchAbort:
    case DumpTrigger::kManual: return true;
  }
  return false;
}

bool FlightRecorder::auto_dump(DumpTrigger trigger, const std::string& reason) {
  if (!trigger_enabled(trigger)) return false;
  if (trigger != DumpTrigger::kManual && dumps_ >= kMaxAutoDumps) {
    return false;
  }
  if (config_.dump_path.empty()) {
    std::fputs(render_text(trigger, reason).c_str(), stderr);
  } else {
    JsonWriter j;
    write_json(j, trigger, reason);
    const std::string path = config_.dump_path + "." + std::to_string(dumps_) +
                             "." + std::string(trigger_name(trigger)) + ".json";
    if (!j.write_file(path)) return false;
  }
  ++dumps_;
  return true;
}

void FlightRecorder::write_json(JsonWriter& j, DumpTrigger trigger,
                                const std::string& reason) const {
  j.begin_object()
      .field("trigger", std::string(trigger_name(trigger)))
      .field("reason", reason)
      .field("total_noted", noted_)
      .field("capacity", static_cast<std::uint64_t>(kCapacity))
      .field("wrapped", wrapped());
  j.key("entries").begin_array();
  for (const FlightEntry& e : entries()) {
    j.begin_object()
        .field("t_us", static_cast<std::int64_t>(e.t))
        .field("cat", std::string(cat_name(e.cat)))
        .field("sev", std::string(severity_name(e.sev)))
        .field("what", e.what)
        .field("a", e.a)
        .field("b", e.b)
        .end_object();
  }
  j.end_array();
  j.end_object();
}

std::string FlightRecorder::render_text(DumpTrigger trigger,
                                        const std::string& reason) const {
  std::string out;
  out += "--- flight recorder dump (trigger=";
  out += trigger_name(trigger);
  out += ", reason=";
  out += reason;
  out += ", noted=" + std::to_string(noted_);
  out += wrapped() ? ", wrapped" : "";
  out += ") ---\n";
  char line[256];
  for (const FlightEntry& e : entries()) {
    std::snprintf(line, sizeof(line),
                  "  t=%+12.3fs %-8s %-5s %-40s a=%-12g b=%g\n",
                  static_cast<double>(e.t) / static_cast<double>(kSec),
                  std::string(cat_name(e.cat)).c_str(),
                  std::string(severity_name(e.sev)).c_str(), e.what.c_str(),
                  e.a, e.b);
    out += line;
  }
  out += "--- end flight recorder dump ---\n";
  return out;
}

}  // namespace odr::obs
