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

NodeId Network::add_node(std::string name, Isp isp) {
  nodes_.push_back(NodeState{std::move(name), isp});
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId Network::add_link(std::string name, Rate capacity) {
  assert(capacity >= 0.0);
  LinkState& link = links_.emplace_back();
  link.name = std::move(name);
  link.capacity = capacity;
  link.bound = load_bound(capacity);
  link_epoch_.push_back(0);
  link_dense_.push_back(0);
  return static_cast<LinkId>(links_.size() - 1);
}

void Network::set_link_capacity(LinkId link, Rate capacity) {
  assert(link < links_.size());
  assert(capacity >= 0.0);
  links_[link].capacity = capacity;
  links_[link].bound = load_bound(capacity);
  // The component re-solve recounts this link's load if any flow crosses
  // it; with none, its load is already 0 whether tracked or not.
  reallocate_component({link});
}

Rate Network::link_capacity(LinkId link) const {
  assert(link < links_.size());
  return links_[link].capacity;
}

Rate Network::link_utilization(LinkId link) const {
  assert(link < links_.size());
  Rate total = 0.0;
  // Adjacency chains are ordered by ascending flow id, which fixes this
  // summation order.
  for (std::uint32_t a = links_[link].head; a != kNoAdj; a = adj_[a].next) {
    total += flows_[adj_[a].flow_slot].rate;
  }
  return total;
}

std::size_t Network::link_flow_count(LinkId link) const {
  assert(link < links_.size());
  return links_[link].flow_count;
}

Isp Network::node_isp(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].isp;
}

const std::string& Network::node_name(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].name;
}

const std::string& Network::link_name(LinkId link) const {
  assert(link < links_.size());
  return links_[link].name;
}

std::uint32_t Network::acquire_slot() { return flows_.acquire(); }

void Network::release_slot(std::uint32_t slot) {
  FlowState& f = flows_[slot];
  f.path.clear();  // keeps capacity: the buffer is reused by the next flow
  f.adj.clear();
  f.on_complete = nullptr;
  f.completion_event = sim::kInvalidEvent;
  f.id = kInvalidFlow;
  f.epoch = 0;
  flows_.release(slot);
}

void Network::attach_to_links(std::uint32_t slot, FlowState& f) {
  f.adj.clear();
  f.adj.reserve(f.path.size());
  for (LinkId l : f.path) {
    assert(l < links_.size());
    const std::uint32_t a = adj_.acquire();
    LinkState& link = links_[l];
    AdjNode& node = adj_[a];
    node.flow_slot = slot;
    node.prev = link.tail;
    node.next = kNoAdj;
    // New ids are monotone and flows never re-attach, so appending at the
    // tail keeps the chain ascending by flow id.
    if (link.tail != kNoAdj) {
      adj_[link.tail].next = a;
    } else {
      link.head = a;
    }
    link.tail = a;
    ++link.flow_count;
    f.adj.push_back(a);
    if (f.path.size() != 1) {
      ++link.multi_hop;
    } else if (f.rate_cap > kMinRate) {
      // Only one-link flows are ever scanned. Departed flows' entries are
      // dropped once the list holds twice the link's flows, so each drop is
      // paid for by the attaches and detaches since the last.
      if (link.cap_pending.size() >= 2 * link.flow_count) {
        std::erase_if(link.cap_pending,
                      [this](const CapEntry& e) { return !entry_live(e); });
      }
      link.cap_pending.push_back({f.rate_cap, f.id, slot});
    }
  }
}

void Network::detach_from_links(std::uint32_t slot, FlowState& f) {
  (void)slot;
  assert(f.adj.size() == f.path.size());
  for (std::size_t i = 0; i < f.path.size(); ++i) {
    LinkState& link = links_[f.path[i]];
    const std::uint32_t a = f.adj[i];
    const AdjNode node = adj_[a];
    assert(node.flow_slot == slot);
    if (node.prev != kNoAdj) {
      adj_[node.prev].next = node.next;
    } else {
      link.head = node.next;
    }
    if (node.next != kNoAdj) {
      adj_[node.next].prev = node.prev;
    } else {
      link.tail = node.prev;
    }
    --link.flow_count;
    if (f.path.size() != 1) --link.multi_hop;
    adj_.release(a);
  }
  f.adj.clear();
}

FlowId Network::start_flow(FlowSpec spec) {
  assert(spec.bytes > 0);
  const FlowId id = next_flow_id_++;
  const std::uint32_t slot = acquire_slot();
  FlowState& f = flows_[slot];
  f.path = std::move(spec.path);
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
  attach_to_links(slot, f);
  id_to_slot_.put(id, slot);
  ++live_flows_;
  if (!try_fast_start(f)) {
    if (f.path.empty()) {
      component_scratch_.clear();
      component_scratch_.push_back(slot);
      reallocate_flows(component_scratch_);
    } else {
      reallocate_component(f.path);
    }
  }
  ODR_COUNT("net.flows.started");
  ODR_TRACE_INSTANT(kNet, "flow.start");
  return id;
}

bool Network::cancel_flow(FlowId id) {
  const std::uint32_t* ps = id_to_slot_.find(id);
  if (ps == nullptr) return false;
  const std::uint32_t slot = *ps;
  FlowState& f = flows_[slot];
  if (f.completion_event != sim::kInvalidEvent) {
    sim_.cancel(f.completion_event);
  }
  remove_flow(slot, f);
  ODR_COUNT("net.flows.cancelled");
  return true;
}

bool Network::set_flow_cap(FlowId id, Rate cap) {
  const std::uint32_t* ps = id_to_slot_.find(id);
  if (ps == nullptr) return false;
  const std::uint32_t slot = *ps;
  FlowState& f = flows_[slot];
  f.rate_cap = cap;
  for (LinkId l : f.path) links_[l].order_stale = true;
  if (try_fast_recap(f)) return true;
  if (f.path.empty()) {
    component_scratch_.clear();
    component_scratch_.push_back(slot);
    reallocate_flows(component_scratch_);
  } else {
    reallocate_component(f.path);
  }
  return true;
}

FlowStats Network::flow_stats(FlowId id) const {
  FlowStats s;
  const std::uint32_t* ps = id_to_slot_.find(id);
  if (ps == nullptr) return s;
  const FlowState& f = flows_[*ps];
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

void Network::set_rate(FlowState& f, Rate r) {
  if (r != f.rate) {
    // Re-anchor at the old rate before switching to the new one.
    f.bytes_done = progress(f);
    f.last_settled = sim_.now();
    f.rate = r;
    f.peak_rate = std::max(f.peak_rate, r);
  }
  schedule_completion(f.id, f);
}

bool Network::path_below_bound(const std::vector<LinkId>& path) const {
  for (LinkId l : path) {
    if (links_[l].load > links_[l].bound) return false;
  }
  return true;
}

void Network::add_load(const std::vector<LinkId>& path, Rate rate,
                       std::int64_t sign) {
  const std::int64_t q = sign * rate_quanta(rate);
  for (LinkId l : path) {
    if (tracked(links_[l].bound)) links_[l].load += q;
  }
}

bool Network::try_fast_start(FlowState& f) {
  if (model_ != AllocationModel::kMaxMinFair) return false;
  if (!f.path.empty()) {
    if (!std::isfinite(f.rate_cap)) return false;
    // Tentative: on failure the full solve recounts every link of f's path.
    add_load(f.path, cap_rate(f.rate_cap), 1);
    if (!path_below_bound(f.path)) return false;
  }
  set_rate(f, cap_rate(f.rate_cap));
  ODR_COUNT("net.flows.fast_path");
  return true;
}

bool Network::try_fast_recap(FlowState& f) {
  if (model_ != AllocationModel::kMaxMinFair) return false;
  if (!f.path.empty()) {
    // Below the bound before, the flow was at its old cap and no neighbour
    // was bottlenecked on its path; below it after, none becomes so.
    if (!std::isfinite(f.rate_cap) || !path_below_bound(f.path)) return false;
    add_load(f.path, f.rate, -1);
    add_load(f.path, cap_rate(f.rate_cap), 1);
    if (!path_below_bound(f.path)) return false;
  }
  set_rate(f, cap_rate(f.rate_cap));
  ODR_COUNT("net.flows.fast_path");
  return true;
}

void Network::remove_flow(std::uint32_t slot, FlowState& f) {
  // A hop below its bound bottlenecks no flow, so freeing it moves no one.
  const bool fast = model_ == AllocationModel::kMaxMinFair &&
                    path_below_bound(f.path);
  add_load(f.path, f.rate, -1);
  detach_from_links(slot, f);
  const FlowId id = f.id;
  path_scratch_ = std::move(f.path);
  release_slot(slot);
  id_to_slot_.erase(id);
  --live_flows_;
  if (fast) {
    ODR_COUNT("net.flows.fast_path");
  } else {
    reallocate_component(path_scratch_);
  }
}

void Network::reallocate() {
  component_scratch_.clear();
  flows_.for_each_slot(
      [&](std::uint32_t s, FlowState&) { component_scratch_.push_back(s); });
  reallocate_flows(component_scratch_);
}

void Network::reallocate_component(const std::vector<LinkId>& seed_links) {
  // A seed link whose flows all cross it alone is the whole component.
  if (model_ == AllocationModel::kMaxMinFair && seed_links.size() == 1 &&
      seed_links[0] < links_.size() && links_[seed_links[0]].multi_hop == 0) {
    solve_single_link(seed_links[0]);
    return;
  }
  // Only flows transitively sharing a link with the seeds can change rate,
  // so only they are re-solved.
  collect_component(seed_links);
  reallocate_flows(component_scratch_);
}

void Network::refresh_cap_order(LinkState& link) {
  const auto by_cap = [](const CapEntry& a, const CapEntry& b) {
    return a.cap < b.cap || (a.cap == b.cap && a.id < b.id);
  };
  std::vector<CapEntry>& order = link.cap_order;
  std::vector<CapEntry>& pending = link.cap_pending;
  if (link.order_stale) {
    order.clear();
    for (std::uint32_t a = link.head; a != kNoAdj; a = adj_[a].next) {
      const std::uint32_t slot = adj_[a].flow_slot;
      const FlowState& f = flows_[slot];
      if (f.rate_cap > kMinRate) order.push_back({f.rate_cap, f.id, slot});
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

void Network::solve_single_link(LinkId l) {
  LinkState& link = links_[l];
  if (link.head == kNoAdj) return;  // an empty component
  refresh_cap_order(link);

  // reallocate_flows' water-filling on one link, step for step: every
  // unthrottled flow starts unfrozen; the smallest finite cap freezes at
  // itself while it is at most the fair share (ties by id), and the share
  // is recomputed after each; at the first cap above it, every unfrozen
  // flow freezes at the level.
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
    level = std::max(level, std::isfinite(share) ? share : kUnboundedRate);
  }
  // The flows ahead of entry k in (cap, id) order froze at their caps.
  const double stop_cap = k < order.size() ? order[k].cap : kInf;
  const FlowId stop_id = k < order.size() ? order[k].id : kInvalidFlow;

  const bool track = tracked(link.bound);
  std::int64_t load = 0;
  for (std::uint32_t a = link.head; a != kNoAdj; a = adj_[a].next) {
    FlowState& f = flows_[adj_[a].flow_slot];
    const Rate cap = f.rate_cap;
    Rate r = level;
    if (cap <= kMinRate) {
      r = 0.0;
    } else if (std::isfinite(cap) &&
               (cap < stop_cap || (cap == stop_cap && f.id < stop_id))) {
      r = cap;
    }
    set_rate(f, r);
    if (track) load += rate_quanta(f.rate);
  }
  link.load = load;
  ODR_COUNT("net.solver.runs");
  ODR_COUNT_N("net.solver.iterations", iterations);
  ODR_HIST("net.solver.component_flows", 0.0, 256.0, 32,
           static_cast<double>(link.flow_count));
}

void Network::collect_component(const std::vector<LinkId>& seed_links) {
  component_scratch_.clear();
  const std::uint32_t ep = next_epoch();
  // Exact breadth-first expansion over the shares-a-link relation.
  bfs_queue_.clear();
  for (LinkId l : seed_links) {
    if (l < links_.size() && link_epoch_[l] != ep) {
      link_epoch_[l] = ep;
      bfs_queue_.push_back(l);
    }
  }
  for (std::size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    const LinkId l = bfs_queue_[qi];
    for (std::uint32_t a = links_[l].head; a != kNoAdj; a = adj_[a].next) {
      const std::uint32_t slot = adj_[a].flow_slot;
      FlowState& f = flows_[slot];
      if (f.epoch == ep) continue;
      f.epoch = ep;
      component_scratch_.push_back(slot);
      for (LinkId l2 : f.path) {
        if (link_epoch_[l2] != ep) {
          link_epoch_[l2] = ep;
          bfs_queue_.push_back(l2);
        }
      }
    }
  }
}

void Network::reallocate_flows(std::vector<std::uint32_t>& component) {
  if (component.empty()) return;
  // Dense link indices (the heap's tie-break) and the completion-event
  // order follow the component order, so visit it canonically: ascending
  // flow id.
  std::sort(component.begin(), component.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return flows_[a].id < flows_[b].id;
            });

  // Dense link discovery: every link touched by the component gets a
  // component-local index; link-side solver state lives in dense arrays.
  const std::uint32_t ep = next_epoch();
  for (std::uint32_t slot : component) flows_[slot].epoch = ep;
  sol_link_ids_.clear();
  link_remaining_.clear();
  link_unfrozen_.clear();
  for (std::uint32_t slot : component) {
    for (LinkId l : flows_[slot].path) {
      if (link_epoch_[l] == ep) continue;
      link_epoch_[l] = ep;
      // Components are link-closed — every flow on a member's link is a
      // member — so the full capacity is up for (re)distribution; there are
      // no out-of-component rates to subtract.
#ifndef NDEBUG
      for (std::uint32_t a = links_[l].head; a != kNoAdj; a = adj_[a].next) {
        assert(flows_[adj_[a].flow_slot].epoch == ep &&
               "reallocate_flows requires a link-closed flow set");
      }
#endif
      link_dense_[l] = static_cast<std::uint32_t>(sol_link_ids_.size());
      sol_link_ids_.push_back(l);
      link_remaining_.push_back(std::max(0.0, links_[l].capacity));
      link_unfrozen_.push_back(0);
    }
  }

  // Every touched link's load is recounted from the new rates below.
  for (LinkId l : sol_link_ids_) links_[l].load = 0;

  if (model_ == AllocationModel::kEqualSplit) {
    // Naive split: each flow gets min over its links of capacity/n, then
    // its cap. No redistribution of unclaimed share (the ablation point).
    for (std::uint32_t slot : component) {
      FlowState& f = flows_[slot];
      double r = std::isfinite(f.rate_cap) ? f.rate_cap : kUnboundedRate;
      for (LinkId l : f.path) {
        const double n = static_cast<double>(links_[l].flow_count);
        r = std::min(r, links_[l].capacity / std::max(1.0, n));
      }
      set_rate(f, std::max(0.0, r));
      add_load(f.path, f.rate, 1);
    }
    ODR_COUNT("net.solver.runs");
    return;
  }

  // Water-filling (DESIGN.md §11) over SoA state: flow-side arrays indexed
  // by position in the id-sorted component, CSR paths holding dense link
  // indices, link->flow buckets, the finite caps in (cap, index) order and
  // a min-heap of link fair shares (remaining / unfrozen) with lazy
  // version stamps. Each step freezes either the smallest cap (at the cap)
  // or every unfrozen flow on the min-share link (at that share), so every
  // step freezes at least one flow and the levels never decrease.
  const std::size_t n_flows = component.size();
  sol_cap_.clear();
  sol_rate_.clear();
  sol_frozen_.clear();
  sol_path_off_.clear();
  sol_path_.clear();
  sol_capped_.clear();
  std::size_t active = 0;
  for (std::size_t i = 0; i < n_flows; ++i) {
    const FlowState& f = flows_[component[i]];
    sol_cap_.push_back(f.rate_cap);
    sol_rate_.push_back(0.0);
    sol_frozen_.push_back(1);
    sol_path_off_.push_back(static_cast<std::uint32_t>(sol_path_.size()));
    if (f.rate_cap <= kMinRate) continue;  // fully throttled
    if (f.path.empty()) {
      // No shared constraint: the cap alone determines the rate.
      sol_rate_[i] = cap_rate(f.rate_cap);
      continue;
    }
    sol_frozen_[i] = 0;
    ++active;
    if (std::isfinite(f.rate_cap)) {
      sol_capped_.push_back(static_cast<std::uint32_t>(i));
    }
    for (LinkId l : f.path) {
      const std::uint32_t d = link_dense_[l];
      sol_path_.push_back(d);
      ++link_unfrozen_[d];
    }
  }
  sol_path_off_.push_back(static_cast<std::uint32_t>(sol_path_.size()));

  // Link->flow buckets: inclusive prefix sums of the per-link counts, then
  // a reverse fill that leaves each bucket in ascending flow index and the
  // offsets as CSR starts.
  const std::size_t n_links = sol_link_ids_.size();
  link_flow_off_.resize(n_links + 1);
  std::uint32_t total = 0;
  for (std::size_t d = 0; d < n_links; ++d) {
    total += static_cast<std::uint32_t>(link_unfrozen_[d]);
    link_flow_off_[d] = total;
  }
  link_flow_off_[n_links] = total;
  link_flows_.resize(total);
  for (std::size_t i = n_flows; i-- > 0;) {
    if (sol_frozen_[i]) continue;
    for (std::uint32_t p = sol_path_off_[i]; p < sol_path_off_[i + 1]; ++p) {
      link_flows_[--link_flow_off_[sol_path_[p]]] =
          static_cast<std::uint32_t>(i);
    }
  }

  std::sort(sol_capped_.begin(), sol_capped_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return sol_cap_[a] < sol_cap_[b] ||
                     (sol_cap_[a] == sol_cap_[b] && a < b);
            });
  // Min-heap order on (share, dense link index).
  const auto later = [](const ShareEntry& a, const ShareEntry& b) {
    return a.share > b.share || (a.share == b.share && a.link > b.link);
  };
  link_version_.assign(n_links, 0);
  share_heap_.clear();
  for (std::uint32_t d = 0; d < n_links; ++d) {
    const std::int32_t n = link_unfrozen_[d];
    if (n > 0) {
      share_heap_.push_back(
          {link_remaining_[d] / static_cast<double>(n), d, 0});
    }
  }
  std::make_heap(share_heap_.begin(), share_heap_.end(), later);

  const auto freeze = [&](std::uint32_t i, double rate) {
    sol_rate_[i] = rate;
    sol_frozen_[i] = 1;
    --active;
    for (std::uint32_t p = sol_path_off_[i]; p < sol_path_off_[i + 1]; ++p) {
      const std::uint32_t d = sol_path_[p];
      link_remaining_[d] -= rate;
      --link_unfrozen_[d];
      // The version doubles as the touched-this-step mark: odd until the
      // link's new share is pushed below.
      if ((link_version_[d] & 1u) == 0) {
        ++link_version_[d];
        touched_.push_back(d);
      }
    }
  };

  double level = 0.0;
  std::size_t next_cap = 0;
  std::uint64_t iterations = 0;
  while (active > 0) {
    ++iterations;
    while (next_cap < sol_capped_.size() &&
           sol_frozen_[sol_capped_[next_cap]]) {
      ++next_cap;
    }
    while (!share_heap_.empty()) {
      const ShareEntry& top = share_heap_.front();
      if (top.version == link_version_[top.link] &&
          link_unfrozen_[top.link] > 0) {
        break;
      }
      std::pop_heap(share_heap_.begin(), share_heap_.end(), later);
      share_heap_.pop_back();
    }
    const double share = share_heap_.empty()
                             ? std::numeric_limits<double>::infinity()
                             : share_heap_.front().share;
    if (next_cap < sol_capped_.size() &&
        sol_cap_[sol_capped_[next_cap]] <= share) {
      const std::uint32_t i = sol_capped_[next_cap++];
      level = std::max(level, sol_cap_[i]);
      freeze(i, sol_cap_[i]);
    } else {
      assert(!share_heap_.empty() && "unfrozen flows must cross a live link");
      const std::uint32_t d = share_heap_.front().link;
      std::pop_heap(share_heap_.begin(), share_heap_.end(), later);
      share_heap_.pop_back();
      // Rounding can leave a share a hair below the current level; levels
      // never fall (every rate is >= 0). Only infinite-capacity links
      // offer an infinite share: clamp it like an unlimited pathless flow.
      level = std::max(level, std::isfinite(share) ? share : kUnboundedRate);
      for (std::uint32_t k = link_flow_off_[d]; k < link_flow_off_[d + 1];
           ++k) {
        if (!sol_frozen_[link_flows_[k]]) freeze(link_flows_[k], level);
      }
    }
    for (std::uint32_t d : touched_) {
      const std::uint32_t version = ++link_version_[d];
      const std::int32_t n = link_unfrozen_[d];
      if (n > 0) {
        share_heap_.push_back(
            {link_remaining_[d] / static_cast<double>(n), d, version});
        std::push_heap(share_heap_.begin(), share_heap_.end(), later);
      }
    }
    touched_.clear();
  }

  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowState& f = flows_[component[i]];
    set_rate(f, sol_rate_[i]);
    add_load(f.path, f.rate, 1);
  }
  ODR_COUNT("net.solver.runs");
  ODR_COUNT_N("net.solver.iterations", iterations);
  ODR_HIST("net.solver.component_flows", 0.0, 256.0, 32,
           static_cast<double>(component.size()));
}

void Network::schedule_completion(FlowId id, FlowState& f) {
  if (f.completion_event != sim::kInvalidEvent) {
    // Bytes accrue linearly at an unchanged rate, so the pending event
    // already fires at the exact completion time.
    if (f.rate == f.sched_rate) {
      ODR_COUNT("net.completions.kept");
      return;
    }
    ODR_COUNT("net.completions.rescheduled");
    sim_.cancel(f.completion_event);
    f.completion_event = sim::kInvalidEvent;
  }
  const double remaining =
      static_cast<double>(f.bytes_total) - progress(f);
  if (remaining <= 0.0) {
    f.sched_rate = f.rate;
    f.completion_event = sim_.schedule_after(0, [this, id] { complete_flow(id); });
    return;
  }
  if (f.rate <= kMinRate) return;  // stalled: completion waits for rate change
  const double secs = remaining / f.rate;
  const SimTime delay = std::max<SimTime>(0, from_seconds(secs));
  f.sched_rate = f.rate;
  f.completion_event = sim_.schedule_after(delay, [this, id] { complete_flow(id); });
}

void Network::complete_flow(FlowId id) {
  const std::uint32_t* ps = id_to_slot_.find(id);
  if (ps == nullptr) return;
  const std::uint32_t slot = *ps;
  FlowState& f = flows_[slot];
  f.completion_event = sim::kInvalidEvent;
  const SimTime started_at = f.started_at;
  ODR_COUNT("net.flows.completed");
  ODR_HIST("net.flow.duration_s", 0.0, 3600.0, 48,
           to_seconds(sim_.now() - started_at));
  ODR_TRACE_COMPLETE(kNet, "flow", started_at, sim_.now());
  FlowCallback cb = std::move(f.on_complete);
  remove_flow(slot, f);
  if (cb) cb(id);
}

void Network::save(snapshot::SnapshotWriter& w) const {
  w.u8(kTagModel, static_cast<std::uint8_t>(model_));
  w.u64(kTagLinkCount, links_.size());
  for (const LinkState& l : links_) w.f64(kTagLinkCapacity, l.capacity);
  w.u64(kTagNextFlowId, next_flow_id_);

  std::vector<std::pair<FlowId, std::uint32_t>> ordered;
  ordered.reserve(live_flows_);
  id_to_slot_.for_each([&](std::uint64_t id, std::uint32_t slot) {
    ordered.emplace_back(id, slot);
  });
  std::sort(ordered.begin(), ordered.end());
  w.u64(kTagFlowCount, ordered.size());
  for (const auto& [id, slot] : ordered) {
    const FlowState& f = flows_[slot];
    w.u64(kTagFlowId, id);
    w.u64(kTagFlowPathLen, f.path.size());
    for (LinkId l : f.path) w.u32(kTagFlowPathLink, l);
    w.u64(kTagFlowBytesTotal, f.bytes_total);
    w.f64(kTagFlowBytesDone, f.bytes_done);
    w.f64(kTagFlowRate, f.rate);
    w.f64(kTagFlowRateCap, f.rate_cap);
    w.f64(kTagFlowPeakRate, f.peak_rate);
    w.f64(kTagFlowSchedRate, f.sched_rate);
    w.i64(kTagFlowStartedAt, f.started_at);
    w.i64(kTagFlowLastSettled, f.last_settled);
    w.u64(kTagFlowCompletionEvent, f.completion_event);
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
    l.head = kNoAdj;
    l.tail = kNoAdj;
    l.flow_count = 0;
    l.load = 0;
    l.bound = load_bound(l.capacity);
    // The cap order is derived state: attach_to_links below rebuilds it.
    l.multi_hop = 0;
    l.order_stale = false;
    l.cap_order.clear();
    l.cap_pending.clear();
  }
  next_flow_id_ = r.u64(kTagNextFlowId);

  flows_.clear();
  adj_.clear();
  id_to_slot_.clear();
  live_flows_ = 0;
  awaiting_callback_.clear();
  epoch_ = 0;
  std::fill(link_epoch_.begin(), link_epoch_.end(), 0);
  const std::uint64_t flow_count = r.u64(kTagFlowCount);
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    const FlowId id = r.u64(kTagFlowId);
    // Flows were saved in ascending id order and the pool is empty, so
    // slots come out sequential and adjacency chains (appended by
    // attach_to_links below) reproduce the original ascending-by-id order
    // exactly.
    const std::uint32_t slot = acquire_slot();
    FlowState& f = flows_[slot];
    const std::uint64_t path_len = r.u64(kTagFlowPathLen);
    f.path.reserve(path_len);
    for (std::uint64_t p = 0; p < path_len; ++p) {
      const LinkId l = r.u32(kTagFlowPathLink);
      if (l >= links_.size()) {
        throw snapshot::SnapshotError("network: flow path references link " +
                                      std::to_string(l) + " out of range");
      }
      f.path.push_back(l);
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
    attach_to_links(slot, f);
    // The load is a pure function of the restored rates, so the restored
    // network makes the same fast-path decisions as the saved one.
    add_load(f.path, f.rate, 1);
    if (completion != sim::kInvalidEvent) {
      sim_.rearm(completion, [this, id] { complete_flow(id); });
      f.completion_event = completion;
    }
    if (has_callback) awaiting_callback_.insert(id);
    id_to_slot_.put(id, slot);
    ++live_flows_;
  }
}

void Network::reattach_on_complete(FlowId id, FlowCallback cb) {
  const std::uint32_t* ps = id_to_slot_.find(id);
  if (ps == nullptr) {
    throw snapshot::SnapshotError(
        "network: reattach_on_complete for unknown flow " + std::to_string(id));
  }
  flows_[*ps].on_complete = std::move(cb);
  awaiting_callback_.erase(id);
}

std::vector<Network::FlowView> Network::flow_views() const {
  std::vector<std::pair<FlowId, std::uint32_t>> ordered;
  ordered.reserve(live_flows_);
  id_to_slot_.for_each([&](std::uint64_t id, std::uint32_t slot) {
    ordered.emplace_back(id, slot);
  });
  std::sort(ordered.begin(), ordered.end());
  std::vector<FlowView> views;
  views.reserve(ordered.size());
  for (const auto& [id, slot] : ordered) {
    const FlowState& f = flows_[slot];
    views.push_back(FlowView{id, &f.path, f.bytes_total, f.bytes_done, f.rate,
                             f.last_settled,
                             f.completion_event != sim::kInvalidEvent,
                             static_cast<bool>(f.on_complete)});
  }
  return views;
}

std::size_t Network::pending_completion_count() const {
  std::size_t n = 0;
  flows_.for_each_slot([&](std::uint32_t, const FlowState& f) {
    if (f.completion_event != sim::kInvalidEvent) ++n;
  });
  return n;
}

}  // namespace odr::net
