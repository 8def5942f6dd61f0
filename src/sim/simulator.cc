#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "snapshot/format.h"

namespace odr::sim {
namespace {

// Field tags for the simulator snapshot section.
enum : std::uint16_t {
  kTagNow = 1,
  kTagNextSeq = 2,
  kTagNextId = 3,
  kTagExecuted = 4,
  kTagEventCount = 5,
  kTagEventId = 6,
  kTagEventSeq = 7,
  kTagEventTime = 8,
};

}  // namespace

std::uint32_t Simulator::acquire_slot(EventId id, Callback&& fn) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;
  s.next_free = kNoSlot;
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.id = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::push(SimTime t, std::uint64_t seq, EventId id,
                     Callback&& fn) {
  const std::uint32_t slot = acquire_slot(id, std::move(fn));
  heap_.push_back(Scheduled{t, seq, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  id_to_slot_.put(id, slot);
  ++live_events_;
}

EventId Simulator::insert(SimTime t, Callback&& fn) {
  const EventId id = next_id_++;
  push(t, id, id, std::move(fn));
  return id;
}

EventId Simulator::schedule_at(SimTime t, Callback fn) {
  if (t < now_) t = now_;
  return insert(t, std::move(fn));
}

EventId Simulator::schedule_after(SimTime delay, Callback fn) {
  if (delay < 0) delay = 0;
  return insert(now_ + delay, std::move(fn));
}

EventId Simulator::reserve(std::uint64_t n) {
  const EventId first = next_id_;
  next_id_ += n;
  return first;
}

void Simulator::schedule_reserved(EventId id, SimTime t, Callback fn) {
  assert(id < next_id_ && id_to_slot_.find(id) == nullptr);
  push(std::max(t, now_), id, id, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t* slot = id_to_slot_.find(id);
  if (slot == nullptr) return false;
  release_slot(*slot);
  id_to_slot_.erase(id);
  --live_events_;
  // The heap entry stays as a tombstone, skipped when popped; when
  // tombstones dominate, compact() drops them wholesale.
  ++tombstones_;
  if (tombstones_ > 64 && tombstones_ * 2 > live_events_ + tombstones_) {
    compact();
  }
  return true;
}

void Simulator::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Scheduled& e) {
                               return slots_[e.slot].id != e.id;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  tombstones_ = 0;
}

bool Simulator::prune_top() {
  while (!heap_.empty() && slots_[heap_.front().slot].id != heap_.front().id) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (tombstones_ > 0) --tombstones_;
  }
  return !heap_.empty();
}

bool Simulator::step() {
  if (!prune_top()) return false;
  const Scheduled top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  assert(top.time >= now_);
  now_ = top.time;
  Callback fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  id_to_slot_.erase(top.id);
  --live_events_;
  ++executed_;
  last_id_ = top.id;
  last_seq_ = top.seq;
  last_time_ = top.time;
  fn();
  if (after_event_) after_event_();
  return true;
}

void Simulator::run_until(SimTime t) {
  while (prune_top() && heap_.front().time <= t) step();
  if (now_ < t) now_ = t;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void Simulator::save(snapshot::SnapshotWriter& w) const {
  w.i64(kTagNow, now_);
  w.u64(kTagNextSeq, next_id_);  // seq == id; the field keeps the format
  w.u64(kTagNextId, next_id_);
  w.u64(kTagExecuted, executed_);

  // Emit live events in (time, seq) order — deterministic regardless of
  // heap layout, and identical to the pop order of the original engine.
  std::vector<Scheduled> live;
  live.reserve(live_events_);
  for (const Scheduled& e : heap_) {
    if (slots_[e.slot].id == e.id) live.push_back(e);
  }
  std::sort(live.begin(), live.end(),
            [](const Scheduled& a, const Scheduled& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  w.u64(kTagEventCount, live.size());
  for (const Scheduled& e : live) {
    w.u64(kTagEventId, e.id);
    w.u64(kTagEventSeq, e.seq);
    w.i64(kTagEventTime, e.time);
  }
}

void Simulator::load(snapshot::SnapshotReader& r) {
  now_ = r.i64(kTagNow);
  (void)r.u64(kTagNextSeq);  // always the next id
  next_id_ = r.u64(kTagNextId);
  executed_ = r.u64(kTagExecuted);

  heap_.clear();
  slots_.clear();
  free_head_ = kNoSlot;
  id_to_slot_.clear();
  live_events_ = 0;
  tombstones_ = 0;
  rearm_.clear();
  const std::uint64_t count = r.u64(kTagEventCount);
  for (std::uint64_t i = 0; i < count; ++i) {
    const EventId id = r.u64(kTagEventId);
    const std::uint64_t seq = r.u64(kTagEventSeq);
    const SimTime time = r.i64(kTagEventTime);
    if (!rearm_.emplace(id, std::make_pair(time, seq)).second) {
      throw snapshot::SnapshotError(
          "simulator: duplicate event id " + std::to_string(id) +
              " in checkpoint",
          snapshot::SnapshotErrorKind::kCorrupt);
    }
  }
}

void Simulator::rearm(EventId id, Callback fn) {
  auto it = rearm_.find(id);
  if (it == rearm_.end()) {
    throw snapshot::SnapshotError(
        "simulator: rearm of unknown event id " + std::to_string(id) +
            " — component state disagrees with the checkpointed event queue",
        snapshot::SnapshotErrorKind::kUsage);
  }
  push(it->second.first, it->second.second, id, std::move(fn));
  rearm_.erase(it);
}

std::vector<EventId> Simulator::unclaimed_rearm_ids() const {
  std::vector<EventId> ids;
  ids.reserve(rearm_.size());
  for (const auto& [id, ts] : rearm_) ids.push_back(id);
  return ids;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime period,
                           Simulator::Callback fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  assert(period_ > 0);
}

void PeriodicTask::start() {
  stop_requested_ = false;
  if (running()) return;
  event_ = sim_.schedule_after(period_, [this] { tick(); });
}

void PeriodicTask::stop() {
  stop_requested_ = true;
  if (event_ != kInvalidEvent) {
    sim_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void PeriodicTask::tick() {
  event_ = kInvalidEvent;
  fn_();
  // fn_ may have called stop(); in that case do not reschedule.
  if (!stop_requested_) {
    event_ = sim_.schedule_after(period_, [this] { tick(); });
  }
}

}  // namespace odr::sim
