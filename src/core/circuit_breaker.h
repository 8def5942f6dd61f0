// Circuit breaker between the ODR executor and its download substrates.
//
// The classic three-state machine, run on simulated time:
//
//   CLOSED    requests flow; substrate failures are counted in a sliding
//             window, and reaching `failure_threshold` failures within
//             `window` trips the breaker OPEN.
//   OPEN      every allow() is refused for `cooldown()` simulated time
//             (initially `open_duration`); after the cool-off the next
//             allow() moves to HALF-OPEN.
//   HALF-OPEN up to `half_open_probes` concurrent probe requests are
//             admitted. `half_open_probes` successful probe outcomes close
//             the breaker (and reset the backoff); any failure reopens it
//             immediately and DOUBLES the cool-off, capped at
//             `max_open_duration`.
//
// Probe outcomes must correspond to admitted probes: a success reported
// when no probe slot is held is ignored (it belongs to a request admitted
// before the trip and says nothing about recovery). A probe that ends in a
// source-model failure — no verdict on the substrate — releases its slot
// via release_probe() without judging.
//
// The breaker holds no event-queue state: transitions are evaluated on the
// calls themselves.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/simulator.h"
#include "util/units.h"

namespace odr::core {

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  struct Config {
    // Failures within `window` that trip the breaker.
    std::uint32_t failure_threshold = 5;
    SimTime window = 10 * kMinute;
    // Base cool-off after a trip; each failed half-open probe round
    // doubles it, up to max_open_duration. Closing resets to the base.
    SimTime open_duration = 5 * kMinute;
    SimTime max_open_duration = kHour;
    // Concurrent probes admitted while half-open; also the number of
    // successful probe outcomes required to close.
    std::uint32_t half_open_probes = 2;
  };

  CircuitBreaker(sim::Simulator& sim, const Config& config)
      : sim_(sim), config_(config), cooldown_(config.open_duration) {}

  // May a request use this substrate right now? Refusals are counted; an
  // OPEN breaker past its cool-off transitions to HALF-OPEN here and the
  // caller becomes the first probe.
  bool allow();

  // Outcome feedback from the executor (see record_breaker_outcome).
  void record_success();
  void record_failure();
  // Ends a half-open probe without judging the substrate.
  void release_probe();

  State state() const { return state_; }
  // Alias for the observability probe (samplers take a const ref).
  State current_state() const { return state_; }
  SimTime cooldown() const { return cooldown_; }
  std::uint32_t probes_inflight() const { return probes_inflight_; }
  std::uint64_t times_opened() const { return times_opened_; }
  std::uint64_t refusals() const { return refusals_; }

 private:
  void open_from(State from);
  void prune_window();

  sim::Simulator& sim_;
  Config config_;

  State state_ = State::kClosed;
  std::deque<SimTime> failures_;   // failure timestamps inside the window
  SimTime opened_at_ = 0;          // when the breaker last tripped
  SimTime cooldown_;               // current (possibly doubled) cool-off
  std::uint32_t probes_inflight_ = 0;
  std::uint32_t probe_successes_ = 0;
  std::uint64_t times_opened_ = 0;
  std::uint64_t refusals_ = 0;
};

}  // namespace odr::core
