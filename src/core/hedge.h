// HedgeCoordinator: bookkeeping for speculative request cloning.
//
// Under the HedgedFetch strategy the executor launches the same task on
// two disjoint backends (cloud + smart AP, falling back to the user's own
// device) and cancels the loser as soon as one clone completes
// successfully. This object owns everything about a hedge pair that is
// not a closure:
//   - the in-flight pair registry (task id, both routes, launch time,
//     which clones have completed, the winner) — plain data, so a world
//     that checkpoints between clone-launch and loser-cancel can save and
//     restore the race mid-flight;
//   - the budget gate: every extra clone charges the shared RetryBudget
//     (the same bucket pre-downloader retries draw from), and a denied
//     charge degrades the request to the plain single-path policy;
//   - the hedge outcome counters the obs layer reports as task.hedge.*
//     (win rate per backend, wasted-work bytes, budget denials).
//
// The coordinator never touches the network or the substrates — the
// executor drives the race and calls in here at each transition — so it
// adds zero events and zero rng draws. Hedging is on exactly when an
// executor holds a coordinator (Executor::set_hedging).
//
// Snapshot: the registry and counters serialize as their own versioned
// section (kSectionId/kSectionVersion); see save_section()/load_section().
#pragma once

#include <cstdint>
#include <map>

#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::core {

class RetryBudget;

class HedgeCoordinator {
 public:
  // Who won a settled pair (kNone while the race is still open, or when
  // both clones failed and the primary's failure was reported).
  enum class Winner : std::uint8_t { kNone = 0, kPrimary = 1, kSecondary = 2 };

  struct Pair {
    std::uint64_t task_id = 0;
    std::uint8_t primary_route = 0;
    std::uint8_t secondary_route = 0;
    SimTime launched_at = 0;
    std::uint32_t clones_done = 0;
    Winner winner = Winner::kNone;
    bool settled = false;
  };

  // Shared retry/hedge budget; nullptr = unlimited. Must outlive this.
  void set_budget(RetryBudget* budget) { budget_ = budget; }

  // Charges one budget token for the extra clone. A denial means the
  // caller must run the plain single-path policy instead.
  bool try_charge_clone(std::uint64_t user_id, SimTime now);

  // Registers a launched pair; returns its id.
  std::uint64_t open_pair(std::uint64_t task_id, std::uint8_t primary_route,
                          std::uint8_t secondary_route, SimTime now);
  // One clone of `pair` reached a terminal state (success, failure, or
  // loser-cancel abort).
  void note_clone_done(std::uint64_t pair);
  // First successful completion: fixes the winner. `both_failed` settles
  // with Winner::kNone.
  void settle(std::uint64_t pair, Winner winner);
  // Bytes the losing clone had already moved when it was cancelled (or a
  // late natural completion wasted outright).
  void note_wasted_bytes(Bytes bytes) { wasted_bytes_ += bytes; }
  // Both clones done: drops the pair from the registry.
  void close_pair(std::uint64_t pair);

  const Pair* find_pair(std::uint64_t pair) const;
  std::size_t inflight_pairs() const { return pairs_.size(); }
  SimTime launched_at(std::uint64_t pair) const;

  std::uint64_t pairs_launched() const { return pairs_launched_; }
  std::uint64_t primary_wins() const { return primary_wins_; }
  std::uint64_t secondary_wins() const { return secondary_wins_; }
  std::uint64_t both_failed() const { return both_failed_; }
  std::uint64_t budget_denied() const { return budget_denied_; }
  std::uint64_t cancelled_clones() const { return cancelled_clones_; }
  void note_cancelled_clone() { ++cancelled_clones_; }
  Bytes wasted_bytes() const { return wasted_bytes_; }

  // --- snapshot support ---------------------------------------------------
  //
  // The hedge state is a new versioned section: in-flight pairs (sorted by
  // pair id) plus the outcome counters. save()/load() write the tagged
  // fields inside the caller's open section; save_section()/load_section()
  // add the framing for worlds that give hedging its own section.
  static constexpr std::uint32_t kSectionId = 9;
  static constexpr std::uint32_t kSectionVersion = 1;
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  void save_section(snapshot::SnapshotWriter& w) const;
  void load_section(snapshot::SnapshotReader& r);

 private:
  RetryBudget* budget_ = nullptr;

  // std::map: deterministic iteration for save().
  std::map<std::uint64_t, Pair> pairs_;
  std::uint64_t next_pair_ = 1;

  std::uint64_t pairs_launched_ = 0;
  std::uint64_t primary_wins_ = 0;
  std::uint64_t secondary_wins_ = 0;
  std::uint64_t both_failed_ = 0;
  std::uint64_t budget_denied_ = 0;
  std::uint64_t cancelled_clones_ = 0;
  Bytes wasted_bytes_ = 0;
};

}  // namespace odr::core
