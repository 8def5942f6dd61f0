// Discrete-event simulation engine.
//
// The engine is a single-threaded event queue over integer-microsecond
// simulated time. Events are callbacks scheduled at absolute times; they
// may schedule or cancel further events. Ties break in scheduling order,
// which (with the deterministic Rng) makes whole experiments bit-for-bit
// reproducible.
//
// Ids are handed out in scheduling order, so an event's id is also its
// tie-break: events pop in (time, id) order.
//
// Hot-path layout (see DESIGN.md §11): callbacks live in a util::SlabPool
// of slots (util::SmallFunc — no per-event heap allocation for captures up
// to 48 bytes, which covers every scheduling site in the tree), heap
// entries and EventHandles name their slot directly, and a slot records
// the id of its event, so neither dispatch nor cancel performs a lookup.
// Cancelled events leave tombstones in the heap that are skipped on pop
// and compacted away wholesale when they dominate (watchdog-heavy
// workloads cancel far more events than they fire). None of this changes
// observable behavior: the (time, id) order and the id sequence are
// identical to the original map-of-std::function engine.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/pool.h"
#include "util/small_func.h"
#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// A scheduled event: its id and the slab slot its callback occupies. The
// default handle names no event.
struct EventHandle {
  EventId id = kInvalidEvent;
  std::uint32_t slot = 0;
};

class Simulator {
 public:
  using Callback = util::SmallFunc<void()>;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now). Returns a
  // handle usable with cancel().
  EventHandle schedule_at(SimTime t, Callback fn);

  // Schedules `fn` `delay` after now. Negative delays clamp to now.
  EventHandle schedule_after(SimTime delay, Callback fn);

  // Reserves `n` consecutive ids for schedule_reserved(); returns the
  // first.
  EventId reserve(std::uint64_t n);
  // Schedules `fn` at `t` (>= now) into a reserved id, so it pops exactly
  // where it would have if scheduled at reserve() time.
  void schedule_reserved(EventId id, SimTime t, Callback fn);

  // Cancels a pending event. Returns false if it already ran, was already
  // cancelled, or never existed: the handle's slot no longer holds its id.
  bool cancel(EventHandle h);

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

  // (id, time) of the most recently executed event; both zero before the
  // first step(). Divergence triage uses this to name the exact event
  // after which two runs' state hashes first disagree.
  EventId last_event_id() const { return last_id_; }
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
  // the clock/counters plus the (id, time) pair of every live event;
  // load() clears the queue and parks those pairs in a rearm table. Each
  // owning component then recreates its closure and claims its event with
  // rearm(id, fn), which re-inserts it at the original (time, id) — so the
  // restored queue pops in exactly the original order no matter what order
  // components rearm in. After a full restore the rearm table must be
  // empty; unclaimed entries mean orphaned events and are a hard audit
  // failure.
  // The version of the events section; v2 stores an event as (id, time).
  static constexpr std::uint32_t kSnapshotVersion = 2;
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  // Re-attaches a callback to a parked event id and returns its handle
  // (handles taken before load() are stale); throws SnapshotError if the
  // id is not in the rearm table.
  EventHandle rearm(EventId id, Callback fn);
  std::size_t unclaimed_rearm_count() const { return rearm_.size(); }
  std::vector<EventId> unclaimed_rearm_ids() const;

 private:
  // A heap entry. `slot` indexes the slab; the entry is stale (a cancel
  // tombstone) when the slot no longer holds `id`.
  struct Scheduled {
    SimTime time;
    EventId id;  // tie-break: FIFO among equal times
    std::uint32_t slot;
  };
  // Min-heap order by (time, id); ids are unique, so the order is total
  // and independent of heap layout (compaction cannot perturb it).
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  // A pooled callback slot. `id` is the owning event while armed, 0 when
  // free.
  struct Slot {
    Callback fn;
    EventId id = 0;
  };

  // The one insertion path: schedule, schedule_reserved and rearm.
  EventHandle push(SimTime t, EventId id, Callback&& fn);
  // Drops tombstoned heap entries and re-heapifies. Total (time, id)
  // order makes the rebuilt heap pop identically.
  void compact();
  // Pops stale tops; false once the heap holds no live event.
  bool prune_top();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  EventId last_id_ = 0;    // most recently executed event (0 = none); not
  SimTime last_time_ = 0;  // snapshotted — purely diagnostic, and refreshed
                           // by the first post-restore step.
  std::size_t live_events_ = 0;
  std::size_t tombstones_ = 0;  // stale heap entries awaiting skip/compact
  std::vector<Scheduled> heap_;  // min-heap by (time, id)
  util::SlabPool<Slot> slots_;
  Callback after_event_;  // see set_after_event_hook(); not snapshotted
  // Parked events awaiting rearm() after load(): id -> time.
  // std::map: unclaimed_rearm_ids() reports in deterministic order.
  std::map<EventId, SimTime> rearm_;
};

}  // namespace odr::sim
