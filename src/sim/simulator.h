// Discrete-event simulation engine.
//
// The engine is a single-threaded event queue over integer-microsecond
// simulated time. Events are callbacks scheduled at absolute times; they
// may schedule or cancel further events. Ties break in scheduling order,
// which (with the deterministic Rng) makes whole experiments bit-for-bit
// reproducible.
//
// Hot-path layout (see DESIGN.md §11): callbacks live in pooled slab
// slots embedded in the engine (util::SmallFunc — no per-event heap
// allocation for captures up to 48 bytes, which covers every scheduling
// site in the tree), heap entries reference their slot directly so
// dispatch never performs a hash lookup, and cancel-by-id goes through an
// open-addressing id map. Cancelled events leave tombstones in the heap
// that are skipped on pop and compacted away wholesale when they dominate
// (watchdog-heavy workloads cancel far more events than they fire). None
// of this changes observable behavior: the (time, seq) order, the id
// sequence, and the snapshot format are identical to the original
// map-of-std::function engine.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/flat_map.h"
#include "util/small_func.h"
#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = util::SmallFunc<void()>;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now). Returns an id
  // usable with cancel().
  EventId schedule_at(SimTime t, Callback fn);

  // Schedules `fn` `delay` after now. Negative delays clamp to now.
  EventId schedule_after(SimTime delay, Callback fn);

  // Reserves `n` consecutive ids (an event's seq is its id) for
  // schedule_reserved(); returns the first.
  EventId reserve(std::uint64_t n);
  // Schedules `fn` at `t` (>= now) into a reserved id, so it pops exactly
  // where it would have if scheduled at reserve() time.
  void schedule_reserved(EventId id, SimTime t, Callback fn);

  // Cancels a pending event. Returns false if it already ran, was already
  // cancelled, or never existed.
  bool cancel(EventId id);

  bool has_pending() const { return live_events_ > 0; }
  std::size_t pending_count() const { return live_events_; }
  // Heap entries (live + tombstones); exposed for the compaction tests.
  std::size_t heap_size() const { return live_events_ + tombstones_; }

  // Runs exactly one event; false if none pending.
  bool step();

  // Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  // Runs until the queue drains (or `max_events` is hit, a guard against
  // runaway self-rescheduling models). Returns events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  std::uint64_t executed_count() const { return executed_; }

  // (id, seq, time) of the most recently executed event; all zero before
  // the first step(). Divergence triage uses this to name the exact event
  // after which two runs' state hashes first disagree.
  EventId last_event_id() const { return last_id_; }
  std::uint64_t last_event_seq() const { return last_seq_; }
  SimTime last_event_time() const { return last_time_; }

  // Called after every executed event (observability wiring). The hook is
  // engine-side scaffolding, not model state: it is never serialized and
  // survives load(), so an observer installed before a restore keeps
  // watching the restored world.
  void set_after_event_hook(Callback hook) { after_event_ = std::move(hook); }
  void clear_after_event_hook() { after_event_.reset(); }

  // --- snapshot support ---------------------------------------------------
  //
  // Callbacks are closures and cannot be serialized. Instead, save() writes
  // the clock/counters plus the exact (id, seq, time) triple of every live
  // event; load() clears the queue and parks those triples in a rearm
  // table. Each owning component then recreates its closure and claims its
  // event with rearm(id, fn), which re-inserts it at the original (time,
  // seq) — so the restored queue pops in exactly the original order no
  // matter what order components rearm in. After a full restore the rearm
  // table must be empty; unclaimed entries mean orphaned events and are a
  // hard audit failure.
  static constexpr std::uint32_t kSnapshotVersion = 1;
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  // Re-attaches a callback to a parked event id; throws SnapshotError if
  // the id is not in the rearm table.
  void rearm(EventId id, Callback fn);
  std::size_t unclaimed_rearm_count() const { return rearm_.size(); }
  std::vector<EventId> unclaimed_rearm_ids() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // A heap entry. `slot` indexes the slab; the entry is stale (a cancel
  // tombstone) when the slot no longer holds `id`.
  struct Scheduled {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    EventId id;
    std::uint32_t slot;
  };
  // Min-heap order by (time, seq); seq is unique, so the order is total
  // and independent of heap layout (compaction cannot perturb it).
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // A pooled callback slot. `id` is the owning event while armed, 0 when
  // free (then `next_free` chains the free list).
  struct Slot {
    Callback fn;
    EventId id = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot(EventId id, Callback&& fn);
  void release_slot(std::uint32_t slot);
  // The one insertion path: schedule, schedule_reserved and rearm.
  void push(SimTime t, std::uint64_t seq, EventId id, Callback&& fn);
  EventId insert(SimTime t, Callback&& fn);
  // Drops tombstoned heap entries and re-heapifies. Total (time, seq)
  // order makes the rebuilt heap pop identically.
  void compact();
  // Pops stale tops; false once the heap holds no live event.
  bool prune_top();

  SimTime now_ = 0;
  EventId next_id_ = 1;  // also the next seq: every event's seq is its id
  std::uint64_t executed_ = 0;
  EventId last_id_ = 0;         // most recently executed event (0 = none);
  std::uint64_t last_seq_ = 0;  // not snapshotted — purely diagnostic, and
  SimTime last_time_ = 0;       // refreshed by the first post-restore step.
  std::size_t live_events_ = 0;
  std::size_t tombstones_ = 0;  // stale heap entries awaiting skip/compact
  std::vector<Scheduled> heap_;  // min-heap by (time, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  util::FlatMap64<std::uint32_t> id_to_slot_;
  Callback after_event_;  // see set_after_event_hook(); not snapshotted
  // Parked events awaiting rearm() after load(): id -> (time, seq).
  // std::map: unclaimed_rearm_ids() reports in deterministic order.
  std::map<EventId, std::pair<SimTime, std::uint64_t>> rearm_;
};

// Repeats a callback at a fixed period until stopped; used for watchdogs
// (stagnation timeouts) and periodic model updates (swarm population churn).
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimTime period, Simulator::Callback fn);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  bool running() const { return event_ != kInvalidEvent; }

 private:
  void tick();

  Simulator& sim_;
  SimTime period_;
  Simulator::Callback fn_;
  EventId event_ = kInvalidEvent;
  bool stop_requested_ = false;
};

}  // namespace odr::sim
