#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "snapshot/format.h"

namespace odr::sim {
namespace {

// Field tags for the events section.
enum : std::uint16_t {
  kTagNow = 1,
  kTagNextId = 3,
  kTagExecuted = 4,
  kTagEventCount = 5,
  kTagEventId = 6,
  kTagEventTime = 8,
};

}  // namespace

EventHandle Simulator::push(SimTime t, EventId id, Callback&& fn) {
  const std::uint32_t slot = slots_.acquire();
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  heap_.push_back(Scheduled{t, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  return EventHandle{id, slot};
}

EventHandle Simulator::schedule_at(SimTime t, Callback fn) {
  return push(std::max(t, now_), next_id_++, std::move(fn));
}

EventHandle Simulator::schedule_after(SimTime delay, Callback fn) {
  return push(now_ + std::max<SimTime>(delay, 0), next_id_++, std::move(fn));
}

EventId Simulator::reserve(std::uint64_t n) {
  const EventId first = next_id_;
  next_id_ += n;
  return first;
}

void Simulator::schedule_reserved(EventId id, SimTime t, Callback fn) {
  assert(id < next_id_);
  push(std::max(t, now_), id, std::move(fn));
}

bool Simulator::cancel(EventHandle h) {
  // Free slots hold id 0: a default handle must not match one.
  if (h.id == kInvalidEvent || h.slot >= slots_.capacity() ||
      slots_[h.slot].id != h.id) {
    return false;
  }
  slots_[h.slot].fn.reset();
  slots_[h.slot].id = 0;
  slots_.release(h.slot);
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
  slots_[top.slot].id = 0;
  slots_.release(top.slot);
  --live_events_;
  ++executed_;
  last_id_ = top.id;
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
  w.u64(kTagNextId, next_id_);
  w.u64(kTagExecuted, executed_);

  // Emit live events in (time, id) order — deterministic regardless of
  // heap layout, and identical to the pop order.
  std::vector<Scheduled> live;
  live.reserve(live_events_);
  for (const Scheduled& e : heap_) {
    if (slots_[e.slot].id == e.id) live.push_back(e);
  }
  std::sort(live.begin(), live.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return Later{}(b, a);
            });
  w.u64(kTagEventCount, live.size());
  for (const Scheduled& e : live) {
    w.u64(kTagEventId, e.id);
    w.i64(kTagEventTime, e.time);
  }
}

void Simulator::load(snapshot::SnapshotReader& r) {
  now_ = r.i64(kTagNow);
  next_id_ = r.u64(kTagNextId);
  executed_ = r.u64(kTagExecuted);

  heap_.clear();
  slots_.clear();
  live_events_ = 0;
  tombstones_ = 0;
  rearm_.clear();
  const std::uint64_t count = r.u64(kTagEventCount);
  for (std::uint64_t i = 0; i < count; ++i) {
    const EventId id = r.u64(kTagEventId);
    const SimTime time = r.i64(kTagEventTime);
    if (!rearm_.emplace(id, time).second) {
      throw snapshot::SnapshotError(
          "simulator: duplicate event id " + std::to_string(id) +
              " in checkpoint",
          snapshot::SnapshotErrorKind::kCorrupt);
    }
  }
}

EventHandle Simulator::rearm(EventId id, Callback fn) {
  auto it = rearm_.find(id);
  if (it == rearm_.end()) {
    throw snapshot::SnapshotError(
        "simulator: rearm of unknown event id " + std::to_string(id) +
            " — component state disagrees with the checkpointed event queue",
        snapshot::SnapshotErrorKind::kUsage);
  }
  return push(rearm_.extract(it).mapped(), id, std::move(fn));
}

std::vector<EventId> Simulator::unclaimed_rearm_ids() const {
  std::vector<EventId> ids;
  ids.reserve(rearm_.size());
  for (const auto& [id, ts] : rearm_) ids.push_back(id);
  return ids;
}

}  // namespace odr::sim
