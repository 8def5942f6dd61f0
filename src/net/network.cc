#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::net {

namespace {
// Rates below this (bytes/sec) are treated as zero: the flow is stalled and
// no completion event is scheduled for it.
constexpr Rate kMinRate = 1e-6;
// Rate given to a flow nothing constrains (no cap, no finite link).
constexpr Rate kUnboundedRate = 1e15;

// The rate a flow runs at when its cap is what binds it: zero at or below
// kMinRate, the unbounded clamp for an infinite cap.
Rate cap_rate(Rate cap) {
  if (cap <= kMinRate) return 0.0;
  return std::isfinite(cap) ? cap : kUnboundedRate;
}

// Fast-path link load (see network.h): rates in quanta of 2^-20 B/s, each
// rounded up, so a load never understates the real sum and, being an
// integer sum, does not depend on the order flows came and went.
constexpr double kQuantaPerRate = 0x1p20;
// Links wider than this are not tracked, so no load can overflow 64 bits.
// A finite one never passes its bound (updates through it take the full
// solve); an infinite one can never bind and always passes.
constexpr Rate kMaxTrackedCapacity = 0x1p40;
// Headroom below capacity that the solver's rounding cannot cross: a link
// loaded at or below capacity·(1−kBoundSlack) is not anyone's bottleneck.
constexpr double kBoundSlack = 1e-9;
constexpr std::int64_t kNeverBinds = std::numeric_limits<std::int64_t>::max();

std::int64_t load_bound(Rate capacity) {
  if (capacity == kUnlimitedRate) return kNeverBinds;
  if (!(capacity <= kMaxTrackedCapacity)) return -1;
  return static_cast<std::int64_t>(
      std::floor(capacity * (1.0 - kBoundSlack) * kQuantaPerRate));
}

bool tracked(std::int64_t bound) { return bound >= 0 && bound != kNeverBinds; }

// Clamped just above every tracked bound, so a huge tentative rate fails
// the check instead of overflowing.
std::int64_t rate_quanta(Rate rate) {
  return static_cast<std::int64_t>(
      std::ceil(std::min(rate, kMaxTrackedCapacity + 1.0) * kQuantaPerRate));
}

// Field tags for the network snapshot section.
enum : std::uint16_t {
  kTagModel = 1,
  kTagLinkCount = 2,
  kTagLinkCapacity = 3,
  kTagNextFlowId = 4,
  kTagFlowCount = 5,
  kTagFlowId = 6,
  kTagFlowPathLen = 7,
  kTagFlowPathLink = 8,
  kTagFlowBytesTotal = 9,
  kTagFlowBytesDone = 10,
  kTagFlowRate = 11,
  kTagFlowRateCap = 12,
  kTagFlowPeakRate = 13,
  kTagFlowStartedAt = 14,
  kTagFlowLastSettled = 15,
  kTagFlowCompletionEvent = 16,
  kTagFlowHasCallback = 17,
  kTagFlowSchedRate = 18,
};
}  // namespace

LinkId Network::add_link(std::string name, Rate capacity) {
  assert(capacity >= 0.0);
  LinkState& link = links_.emplace_back();
  link.name = std::move(name);
  link.capacity = capacity;
  link.bound = load_bound(capacity);
  return static_cast<LinkId>(links_.size() - 1);
}

void Network::set_link_capacity(LinkId link, Rate capacity) {
  assert(link < links_.size());
  assert(capacity >= 0.0);
  links_[link].capacity = capacity;
  links_[link].bound = load_bound(capacity);
  // The re-solve recounts this link's load if any flow crosses it; with
  // none, its load is already 0 whether tracked or not.
  solve_link(link);
}

Rate Network::link_capacity(LinkId link) const {
  assert(link < links_.size());
  return links_[link].capacity;
}

Rate Network::link_utilization(LinkId link) const {
  assert(link < links_.size());
  Rate total = 0.0;
  // Link chains are ordered by ascending flow id, which fixes this
  // summation order.
  for (std::uint32_t s = links_[link].head; s != kNoSlot; s = flows_[s].next) {
    total += flows_[s].rate;
  }
  return total;
}

std::size_t Network::link_flow_count(LinkId link) const {
  assert(link < links_.size());
  return links_[link].flow_count;
}

const std::string& Network::link_name(LinkId link) const {
  assert(link < links_.size());
  return links_[link].name;
}

void Network::release_slot(std::uint32_t slot) {
  FlowState& f = flows_[slot];
  f.on_complete = nullptr;
  f.completion_event = {};
  f.id = kInvalidFlow;
  flows_.release(slot);
}

void Network::attach_to_link(std::uint32_t slot, FlowState& f) {
  if (f.link == kNoLink) return;
  assert(f.link < links_.size());
  LinkState& link = links_[f.link];
  f.prev = link.tail;
  f.next = kNoSlot;
  // New ids are monotone and flows never re-attach, so appending at the
  // tail keeps the chain ascending by flow id.
  if (link.tail != kNoSlot) {
    flows_[link.tail].next = slot;
  } else {
    link.head = slot;
  }
  link.tail = slot;
  ++link.flow_count;
  if (f.rate_cap > kMinRate) {
    // Departed flows' entries are dropped once the list holds twice the
    // link's flows, so each drop is paid for by the attaches and detaches
    // since the last.
    if (link.cap_pending.size() >= 2 * link.flow_count) {
      std::erase_if(link.cap_pending,
                    [this](const CapEntry& e) { return !entry_live(e); });
    }
    link.cap_pending.push_back({f.rate_cap, f.id, slot});
  }
}

void Network::detach_from_link(std::uint32_t slot, FlowState& f) {
  if (f.link == kNoLink) return;
  LinkState& link = links_[f.link];
  assert((f.prev == kNoSlot ? link.head : flows_[f.prev].next) == slot);
  (void)slot;
  (f.prev == kNoSlot ? link.head : flows_[f.prev].next) = f.next;
  (f.next == kNoSlot ? link.tail : flows_[f.next].prev) = f.prev;
  --link.flow_count;
  f.prev = kNoSlot;
  f.next = kNoSlot;
}

FlowHandle Network::start_flow(FlowSpec spec) {
  assert(spec.bytes > 0);
  const FlowId id = next_flow_id_++;
  const std::uint32_t slot = flows_.acquire();
  FlowState& f = flows_[slot];
  f.link = spec.link.value_or(kNoLink);
  f.bytes_total = spec.bytes;
  f.bytes_done = 0.0;
  f.rate = 0.0;
  f.rate_cap = spec.rate_cap;
  f.peak_rate = 0.0;
  f.sched_rate = 0.0;
  f.started_at = sim_.now();
  f.last_settled = sim_.now();
  f.on_complete = std::move(spec.on_complete);
  f.id = id;
  attach_to_link(slot, f);
  ++live_flows_;
  if (!try_fast_start(slot)) solve(slot);
  ODR_COUNT("net.flows.started");
  ODR_TRACE_INSTANT(kNet, "flow.start");
  return FlowHandle{id, slot};
}

bool Network::cancel_flow(FlowHandle h) {
  if (!flow_active(h)) return false;
  FlowState& f = flows_[h.slot];
  sim_.cancel(f.completion_event);
  remove_flow(h.slot, f);
  ODR_COUNT("net.flows.cancelled");
  return true;
}

bool Network::set_flow_cap(FlowHandle h, Rate cap) {
  if (!flow_active(h)) return false;
  FlowState& f = flows_[h.slot];
  f.rate_cap = cap;
  if (f.link != kNoLink) links_[f.link].order_stale = true;
  if (!try_fast_recap(h.slot)) solve(h.slot);
  return true;
}

FlowStats Network::flow_stats(FlowHandle h) const {
  FlowStats s;
  if (!flow_active(h)) return s;
  const FlowState& f = flows_[h.slot];
  s.bytes_total = f.bytes_total;
  s.bytes_done = static_cast<Bytes>(std::min<double>(
      progress(f), static_cast<double>(f.bytes_total)));
  s.current_rate = f.rate;
  s.started_at = f.started_at;
  s.peak_rate = f.peak_rate;
  return s;
}

double Network::progress(const FlowState& f) const {
  return f.bytes_done + f.rate * to_seconds(sim_.now() - f.last_settled);
}

void Network::set_rate(std::uint32_t slot, Rate r) {
  FlowState& f = flows_[slot];
  if (r != f.rate) {
    // Re-anchor at the old rate before switching to the new one.
    f.bytes_done = progress(f);
    f.last_settled = sim_.now();
    f.rate = r;
    f.peak_rate = std::max(f.peak_rate, r);
  }
  schedule_completion(slot);
}

void Network::add_load(LinkId l, Rate rate, std::int64_t sign) {
  if (l != kNoLink && tracked(links_[l].bound)) {
    links_[l].load += sign * rate_quanta(rate);
  }
}

bool Network::try_fast_start(std::uint32_t slot) {
  if (model_ != AllocationModel::kMaxMinFair) return false;
  const FlowState& f = flows_[slot];
  if (f.link != kNoLink) {
    if (!std::isfinite(f.rate_cap)) return false;
    // Tentative: on failure the full solve recounts the link's load.
    add_load(f.link, cap_rate(f.rate_cap), 1);
    if (!below_bound(f.link)) return false;
  }
  set_rate(slot, cap_rate(f.rate_cap));
  ODR_COUNT("net.flows.fast_path");
  return true;
}

bool Network::try_fast_recap(std::uint32_t slot) {
  if (model_ != AllocationModel::kMaxMinFair) return false;
  const FlowState& f = flows_[slot];
  if (f.link != kNoLink) {
    // Below the bound before, the flow was at its old cap and no neighbour
    // was bottlenecked on its link; below it after, none becomes so.
    if (!std::isfinite(f.rate_cap) || !below_bound(f.link)) return false;
    add_load(f.link, f.rate, -1);
    add_load(f.link, cap_rate(f.rate_cap), 1);
    if (!below_bound(f.link)) return false;
  }
  set_rate(slot, cap_rate(f.rate_cap));
  ODR_COUNT("net.flows.fast_path");
  return true;
}

void Network::remove_flow(std::uint32_t slot, FlowState& f) {
  // A link below its bound bottlenecks no flow, so freeing it moves no one.
  const bool fast =
      model_ == AllocationModel::kMaxMinFair && below_bound(f.link);
  add_load(f.link, f.rate, -1);
  detach_from_link(slot, f);
  const LinkId l = f.link;
  release_slot(slot);
  --live_flows_;
  if (fast) {
    ODR_COUNT("net.flows.fast_path");
  } else if (l != kNoLink) {
    solve_link(l);
  }
}

void Network::reallocate() {
  flows_.for_each_slot([this](std::uint32_t slot, FlowState& f) {
    if (f.link == kNoLink) solve_pathless(slot);
  });
  for (LinkId l = 0; l < links_.size(); ++l) {
    links_[l].order_stale = true;
    solve_link(l);
  }
}

void Network::solve(std::uint32_t slot) {
  if (flows_[slot].link == kNoLink) {
    solve_pathless(slot);
  } else {
    solve_link(flows_[slot].link);
  }
}

void Network::solve_pathless(std::uint32_t slot) {
  const Rate cap = flows_[slot].rate_cap;
  // kEqualSplit keeps a cap at or below kMinRate rather than zeroing it.
  set_rate(slot, model_ == AllocationModel::kEqualSplit
                     ? std::max(0.0, std::isfinite(cap) ? cap : kUnboundedRate)
                     : cap_rate(cap));
  ODR_COUNT("net.solver.runs");
}

void Network::refresh_cap_order(LinkState& link) {
  const auto by_cap = [](const CapEntry& a, const CapEntry& b) {
    return a.cap < b.cap || (a.cap == b.cap && a.id < b.id);
  };
  std::vector<CapEntry>& order = link.cap_order;
  std::vector<CapEntry>& pending = link.cap_pending;
  if (link.order_stale) {
    order.clear();
    for (std::uint32_t s = link.head; s != kNoSlot; s = flows_[s].next) {
      const FlowState& f = flows_[s];
      if (f.rate_cap > kMinRate) order.push_back({f.rate_cap, f.id, s});
    }
    std::sort(order.begin(), order.end(), by_cap);
    pending.clear();
    link.order_stale = false;
    return;
  }
  const auto dead = [this](const CapEntry& e) { return !entry_live(e); };
  std::erase_if(pending, dead);
  if (pending.empty()) {
    std::erase_if(order, dead);
    return;
  }
  std::sort(pending.begin(), pending.end(), by_cap);
  // One pass: the kept entries that are still live, merged with the new.
  cap_merge_.clear();
  auto p = pending.begin();
  for (const CapEntry& e : order) {
    if (!entry_live(e)) continue;
    for (; p != pending.end() && by_cap(*p, e); ++p) cap_merge_.push_back(*p);
    cap_merge_.push_back(e);
  }
  cap_merge_.insert(cap_merge_.end(), p, pending.end());
  order.swap(cap_merge_);
  pending.clear();
}

void Network::solve_link(LinkId l) {
  LinkState& link = links_[l];
  if (link.head == kNoSlot) return;  // no flow to solve
  // Sets every flow on the link to rate_of(flow) in chain (id) order, which
  // fixes the completion-event order, and recounts the link's load.
  const auto set_rates = [&](auto rate_of) {
    const bool track = tracked(link.bound);
    std::int64_t load = 0;
    for (std::uint32_t s = link.head; s != kNoSlot; s = flows_[s].next) {
      set_rate(s, rate_of(flows_[s]));
      if (track) load += rate_quanta(flows_[s].rate);
    }
    link.load = load;
  };

  if (model_ == AllocationModel::kEqualSplit) {
    // Naive split: each flow gets capacity/n, then its cap. No
    // redistribution of unclaimed share (the ablation point).
    const double share =
        link.capacity / std::max(1.0, static_cast<double>(link.flow_count));
    set_rates([share](const FlowState& f) {
      const double r = std::isfinite(f.rate_cap) ? f.rate_cap : kUnboundedRate;
      return std::max(0.0, std::min(r, share));
    });
    ODR_COUNT("net.solver.runs");
    return;
  }

  // Water-filling on one link: every unthrottled flow starts unfrozen; the
  // smallest finite cap freezes at itself while it is at most the fair
  // share (ties by id), and the share is recomputed after each; at the
  // first cap above it, every unfrozen flow freezes at the level.
  refresh_cap_order(link);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<CapEntry>& order = link.cap_order;
  double remaining = std::max(0.0, link.capacity);
  std::size_t unfrozen = order.size();
  const auto fair_share = [&] {
    return unfrozen > 0 ? remaining / static_cast<double>(unfrozen) : kInf;
  };
  double share = fair_share();
  double level = 0.0;
  std::size_t k = 0;
  for (; k < order.size() && std::isfinite(order[k].cap) &&
         order[k].cap <= share;
       ++k) {
    level = std::max(level, order[k].cap);
    remaining -= order[k].cap;
    --unfrozen;
    share = fair_share();
  }
  std::uint64_t iterations = k;
  if (unfrozen > 0) {
    ++iterations;
    // Rounding can leave the share a hair below the level; levels never
    // fall. An infinite-capacity link offers an infinite share: clamp it
    // like an unlimited pathless flow.
    level = std::max(level, std::isfinite(share) ? share : kUnboundedRate);
  }
  // The flows ahead of entry k in (cap, id) order froze at their caps.
  const double stop_cap = k < order.size() ? order[k].cap : kInf;
  const FlowId stop_id = k < order.size() ? order[k].id : kInvalidFlow;
  set_rates([&](const FlowState& f) {
    const Rate cap = f.rate_cap;
    if (cap <= kMinRate) return 0.0;
    if (std::isfinite(cap) &&
        (cap < stop_cap || (cap == stop_cap && f.id < stop_id))) {
      return cap;
    }
    return level;
  });
  ODR_COUNT("net.solver.runs");
  ODR_COUNT_N("net.solver.iterations", iterations);
  ODR_HIST("net.solver.component_flows", 0.0, 256.0, 32,
           static_cast<double>(link.flow_count));
}

void Network::schedule_completion(std::uint32_t slot) {
  FlowState& f = flows_[slot];
  if (f.completion_event.id != sim::kInvalidEvent) {
    // Bytes accrue linearly at an unchanged rate, so the pending event
    // already fires at the exact completion time.
    if (f.rate == f.sched_rate) {
      ODR_COUNT("net.completions.kept");
      return;
    }
    ODR_COUNT("net.completions.rescheduled");
    sim_.cancel(f.completion_event);
    f.completion_event = {};
  }
  const double remaining =
      static_cast<double>(f.bytes_total) - progress(f);
  // Stalled: the completion waits for a rate change.
  if (remaining > 0.0 && f.rate <= kMinRate) return;
  const SimTime delay = remaining > 0.0 ? from_seconds(remaining / f.rate) : 0;
  f.sched_rate = f.rate;
  f.completion_event = sim_.schedule_after(
      delay, [this, h = FlowHandle{f.id, slot}] { complete_flow(h); });
}

void Network::complete_flow(FlowHandle h) {
  if (!flow_active(h)) return;
  FlowState& f = flows_[h.slot];
  f.completion_event = {};
  const SimTime started_at = f.started_at;
  ODR_COUNT("net.flows.completed");
  ODR_HIST("net.flow.duration_s", 0.0, 3600.0, 48,
           to_seconds(sim_.now() - started_at));
  ODR_TRACE_COMPLETE(kNet, "flow", started_at, sim_.now());
  FlowCallback cb = std::move(f.on_complete);
  remove_flow(h.slot, f);
  if (cb) cb(h.id);
}

void Network::save(snapshot::SnapshotWriter& w) const {
  w.u8(kTagModel, static_cast<std::uint8_t>(model_));
  w.u64(kTagLinkCount, links_.size());
  for (const LinkState& l : links_) w.f64(kTagLinkCapacity, l.capacity);
  w.u64(kTagNextFlowId, next_flow_id_);

  const std::vector<FlowHandle> ordered = handles_by_id();
  w.u64(kTagFlowCount, ordered.size());
  for (const auto& [id, slot] : ordered) {
    const FlowState& f = flows_[slot];
    w.u64(kTagFlowId, id);
    // A path of 0 or 1 links, the format's general path list.
    w.u64(kTagFlowPathLen, f.link == kNoLink ? 0 : 1);
    if (f.link != kNoLink) w.u32(kTagFlowPathLink, f.link);
    w.u64(kTagFlowBytesTotal, f.bytes_total);
    w.f64(kTagFlowBytesDone, f.bytes_done);
    w.f64(kTagFlowRate, f.rate);
    w.f64(kTagFlowRateCap, f.rate_cap);
    w.f64(kTagFlowPeakRate, f.peak_rate);
    w.f64(kTagFlowSchedRate, f.sched_rate);
    w.i64(kTagFlowStartedAt, f.started_at);
    w.i64(kTagFlowLastSettled, f.last_settled);
    w.u64(kTagFlowCompletionEvent, f.completion_event.id);
    w.b(kTagFlowHasCallback, static_cast<bool>(f.on_complete));
  }
}

void Network::load(snapshot::SnapshotReader& r) {
  const auto model = static_cast<AllocationModel>(r.u8(kTagModel));
  if (model != model_) {
    throw snapshot::SnapshotError(
        "network: allocation model mismatch between checkpoint and build");
  }
  const std::uint64_t link_count = r.u64(kTagLinkCount);
  if (link_count != links_.size()) {
    throw snapshot::SnapshotError(
        "network: checkpoint has " + std::to_string(link_count) +
        " links but the rebuilt topology has " + std::to_string(links_.size()));
  }
  for (LinkState& l : links_) {
    l.capacity = r.f64(kTagLinkCapacity);
    l.head = kNoSlot;
    l.tail = kNoSlot;
    l.flow_count = 0;
    l.load = 0;
    l.bound = load_bound(l.capacity);
    // The cap order is derived state: attach_to_link below rebuilds it.
    l.order_stale = false;
    l.cap_order.clear();
    l.cap_pending.clear();
  }
  next_flow_id_ = r.u64(kTagNextFlowId);

  flows_.clear();
  live_flows_ = 0;
  awaiting_callback_.clear();
  const std::uint64_t flow_count = r.u64(kTagFlowCount);
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    const FlowId id = r.u64(kTagFlowId);
    // Flows were saved in ascending id order and the pool is empty, so
    // slots come out sequential and link chains (appended by
    // attach_to_link below) reproduce the original ascending-by-id order
    // exactly.
    const std::uint32_t slot = flows_.acquire();
    FlowState& f = flows_[slot];
    const std::uint64_t path_len = r.u64(kTagFlowPathLen);
    if (path_len > 1) {
      throw snapshot::SnapshotError(
          "network: flow #" + std::to_string(id) + " has a path of " +
          std::to_string(path_len) + " links; a flow crosses at most one");
    }
    if (path_len == 1) {
      const LinkId l = r.u32(kTagFlowPathLink);
      if (l >= links_.size()) {
        throw snapshot::SnapshotError("network: flow path references link " +
                                      std::to_string(l) + " out of range");
      }
      f.link = l;
    }
    f.bytes_total = r.u64(kTagFlowBytesTotal);
    f.bytes_done = r.f64(kTagFlowBytesDone);
    f.rate = r.f64(kTagFlowRate);
    f.rate_cap = r.f64(kTagFlowRateCap);
    f.peak_rate = r.f64(kTagFlowPeakRate);
    f.sched_rate = r.f64(kTagFlowSchedRate);
    f.started_at = r.i64(kTagFlowStartedAt);
    f.last_settled = r.i64(kTagFlowLastSettled);
    const sim::EventId completion = r.u64(kTagFlowCompletionEvent);
    const bool has_callback = r.b(kTagFlowHasCallback);
    f.id = id;
    attach_to_link(slot, f);
    // The load is a pure function of the restored rates, so the restored
    // network makes the same fast-path decisions as the saved one.
    add_load(f.link, f.rate, 1);
    if (completion != sim::kInvalidEvent) {
      f.completion_event = sim_.rearm(
          completion, [this, h = FlowHandle{id, slot}] { complete_flow(h); });
    }
    if (has_callback) awaiting_callback_.emplace(id, slot);
    ++live_flows_;
  }
}

FlowHandle Network::reattach_on_complete(FlowId id, FlowCallback cb) {
  const auto it = awaiting_callback_.find(id);
  if (it == awaiting_callback_.end()) {
    throw snapshot::SnapshotError(
        "network: reattach_on_complete for flow " + std::to_string(id) +
        ", which is not awaiting a completion callback");
  }
  const FlowHandle h{id, awaiting_callback_.extract(it).mapped()};
  flows_[h.slot].on_complete = std::move(cb);
  return h;
}

std::vector<FlowHandle> Network::handles_by_id() const {
  std::vector<FlowHandle> ordered;
  ordered.reserve(live_flows_);
  flows_.for_each_slot([&](std::uint32_t slot, const FlowState& f) {
    ordered.push_back(FlowHandle{f.id, slot});
  });
  std::ranges::sort(ordered, {}, &FlowHandle::id);
  return ordered;
}

std::vector<Network::FlowView> Network::flow_views() const {
  const std::vector<FlowHandle> ordered = handles_by_id();
  std::vector<FlowView> views;
  views.reserve(ordered.size());
  for (const auto& [id, slot] : ordered) {
    const FlowState& f = flows_[slot];
    const std::optional<LinkId> link =
        f.link == kNoLink ? std::nullopt : std::optional<LinkId>(f.link);
    views.push_back(FlowView{id, link, f.bytes_total, f.bytes_done, f.rate,
                             f.last_settled,
                             f.completion_event.id != sim::kInvalidEvent,
                             static_cast<bool>(f.on_complete)});
  }
  return views;
}

std::size_t Network::pending_completion_count() const {
  std::size_t n = 0;
  flows_.for_each_slot([&](std::uint32_t, const FlowState& f) {
    if (f.completion_event.id != sim::kInvalidEvent) ++n;
  });
  return n;
}

}  // namespace odr::net
