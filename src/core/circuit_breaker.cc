#include "core/circuit_breaker.h"

#include <algorithm>

namespace odr::core {

void CircuitBreaker::prune_window() {
  const SimTime cutoff = sim_.now() - config_.window;
  while (!failures_.empty() && failures_.front() < cutoff) {
    failures_.pop_front();
  }
}

void CircuitBreaker::open_from(State from) {
  if (from == State::kHalfOpen) {
    // A failed probe round: the substrate is still sick, back off harder.
    cooldown_ = std::min(cooldown_ * 2, config_.max_open_duration);
  } else {
    cooldown_ = config_.open_duration;
  }
  state_ = State::kOpen;
  opened_at_ = sim_.now();
  probes_inflight_ = 0;
  probe_successes_ = 0;
  failures_.clear();
  ++times_opened_;
}

bool CircuitBreaker::allow() {
  if (state_ == State::kClosed) return true;
  if (state_ == State::kOpen) {
    if (sim_.now() < opened_at_ + cooldown_) {
      ++refusals_;
      return false;
    }
    state_ = State::kHalfOpen;
    probes_inflight_ = 0;
    probe_successes_ = 0;
  }
  // Half-open: admit up to half_open_probes concurrent probes.
  if (probes_inflight_ < config_.half_open_probes) {
    ++probes_inflight_;
    return true;
  }
  ++refusals_;
  return false;
}

void CircuitBreaker::record_success() {
  if (state_ != State::kHalfOpen) return;
  // Only outcomes of ADMITTED probes count toward recovery; a success
  // from a request admitted before the trip proves nothing.
  if (probes_inflight_ == 0) return;
  --probes_inflight_;
  ++probe_successes_;
  if (probe_successes_ >= config_.half_open_probes) {
    state_ = State::kClosed;
    cooldown_ = config_.open_duration;  // recovery resets the backoff
    probes_inflight_ = 0;
    probe_successes_ = 0;
    failures_.clear();
  }
}

void CircuitBreaker::record_failure() {
  if (state_ == State::kHalfOpen) {
    open_from(State::kHalfOpen);
    return;
  }
  if (state_ == State::kOpen) return;  // already tripped; nothing to learn
  failures_.push_back(sim_.now());
  prune_window();
  if (failures_.size() >= config_.failure_threshold) {
    open_from(State::kClosed);
  }
}

void CircuitBreaker::release_probe() {
  if (state_ != State::kHalfOpen || probes_inflight_ == 0) return;
  --probes_inflight_;
}

}  // namespace odr::core
