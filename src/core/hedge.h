// HedgeCoordinator: bookkeeping for speculative request cloning.
//
// Under the HedgedFetch strategy the executor launches the same task on
// two disjoint backends (cloud + smart AP, falling back to the user's own
// device) and cancels the loser as soon as one clone completes
// successfully. The executor's per-race state (the launch time, clones
// done, settled, the primary's stashed failure) lives in the task's record
// in its task table, and it cancels a loser through the loser's route;
// this object owns what outlives a race:
//   - the budget gate: every extra clone charges the shared RetryBudget
//     (the same bucket pre-downloader retries draw from), and a denied
//     charge degrades the request to the plain single-path policy;
//   - the hedge outcome counters the obs layer reports as task.hedge.*
//     (win rate per backend, wasted-work bytes, budget denials).
//
// The coordinator never touches the network or the substrates — the
// executor drives the race and calls in here at each transition — so it
// adds zero events and zero rng draws. Hedging is on exactly when an
// executor holds a coordinator (Executor::set_hedging). No world
// checkpoints a hedged run, so nothing here serializes.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace odr::core {

class RetryBudget;

class HedgeCoordinator {
 public:
  // Who won a settled pair (kNone when both clones failed and the
  // primary's failure was reported).
  enum class Winner : std::uint8_t { kNone = 0, kPrimary = 1, kSecondary = 2 };

  // Shared retry/hedge budget; nullptr = unlimited. Must outlive this.
  void set_budget(RetryBudget* budget) { budget_ = budget; }

  // Charges one budget token for the extra clone. A denial means the
  // caller must run the plain single-path policy instead.
  bool try_charge_clone(std::uint64_t user_id, SimTime now);

  // A pair was launched.
  void note_pair_launched() { ++pairs_launched_; }
  // A pair settled: the first successful clone won, or both failed
  // (Winner::kNone).
  void settle(Winner winner);
  // Bytes the losing clone had already moved when it was cancelled (or a
  // late natural completion wasted outright).
  void note_wasted_bytes(Bytes bytes) { wasted_bytes_ += bytes; }
  void note_cancelled_clone() { ++cancelled_clones_; }

  std::uint64_t pairs_launched() const { return pairs_launched_; }
  std::uint64_t primary_wins() const { return primary_wins_; }
  std::uint64_t secondary_wins() const { return secondary_wins_; }
  std::uint64_t both_failed() const { return both_failed_; }
  std::uint64_t budget_denied() const { return budget_denied_; }
  std::uint64_t cancelled_clones() const { return cancelled_clones_; }
  Bytes wasted_bytes() const { return wasted_bytes_; }

 private:
  RetryBudget* budget_ = nullptr;

  std::uint64_t pairs_launched_ = 0;
  std::uint64_t primary_wins_ = 0;
  std::uint64_t secondary_wins_ = 0;
  std::uint64_t both_failed_ = 0;
  std::uint64_t budget_denied_ = 0;
  std::uint64_t cancelled_clones_ = 0;
  Bytes wasted_bytes_ = 0;
};

}  // namespace odr::core
