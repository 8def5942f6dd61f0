// Flow-level network simulator with max-min fair bandwidth sharing.
//
// The model: a set of directed links, each with a capacity in bytes/sec,
// and a set of flows, each crossing at most one link and carrying a known
// number of bytes, optionally with a per-flow rate cap (e.g. an application
// throttle or a degraded cross-ISP path). Rates are the max-min fair
// allocation. Flow completions are scheduled on the odr::sim::Simulator
// from the allocated rates, and only a flow whose rate changed has its
// completion rescheduled.
//
// A flow crosses at most one link because the paper's cloud has one shared
// bottleneck: a fetch crosses its ISP's upload cluster, and the cross-ISP
// barrier is a rate cap, not a link. P2P swarm downloads cross none. So
// two flows share a rate only when they share their one link, and a
// link's flow chain is the whole of what any update can move.
//
// Two update paths keep the allocation exact (see DESIGN.md §11):
//   * Fast path (kMaxMinFair only). Each link keeps its load — the sum of
//     its flows' rates — in integer rate quanta rounded up, so the load is
//     an order-independent function of the live rates. A link is a
//     possible bottleneck once that load exceeds capacity·(1−1e-9). A start
//     or re-cap to a finite cap whose link stays below that bound, and a
//     completion or cancel whose link was below it, change no other flow's
//     bottleneck: the flow simply runs at its cap (0 at or below kMinRate).
//     Max-min rates are unique, so this is the allocation a full solve
//     would return. Pathless flows always take it.
//   * Full solve. Everything else — infinite caps, a saturated link, link
//     capacity changes, and every kEqualSplit update — re-solves the
//     flow's link with one scan of its flow chain. The scan freezes
//     caps in (cap, id) order while they fit under the fair share, gives
//     every other unthrottled flow the final level, and sets the rates in
//     chain (id) order. Each link keeps its flows' caps in (cap, id) order
//     across solves: a flow joins a pending list when it attaches and is
//     merged in at the link's next solve, entries of departed flows are
//     dropped then, and a re-cap rebuilds the order from the chain. The
//     order is derived state: it is never serialized, and load() rebuilds
//     it by re-attaching every flow.
//
// Progress is anchor-based: a flow's bytes are its bytes at the last rate
// change plus rate × elapsed. A flow's anchor moves only when its own rate
// changes, never at a neighbour's event, and reading stats does not move
// it, so the floating-point schedule depends on the rate history alone.
//
// This level of abstraction — rates, not packets — reproduces every
// bandwidth phenomenon the paper analyses (who is bottlenecked where, link
// saturation, admission pressure) at a cost that lets us replay
// hundreds of thousands of tasks per second of wall time.
//
// Hot-path layout (see DESIGN.md §11 and §16): flows live in a
// util::SlabPool indexed by dense 32-bit slots, and a FlowHandle names its
// flow's slot, so no flow call performs a hash lookup; link membership is an
// intrusive doubly-linked chain threaded through the flows' own slots
// (a flow crosses at most one link, so it is its own chain node; append
// keeps ascending flow id, detach is O(1)), so completion-heavy steady
// state never scans a cluster link's whole membership, and no update
// allocates once the slab and cap orders have grown.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/isp.h"
#include "sim/simulator.h"
#include "util/pool.h"
#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::net {

using LinkId = std::uint32_t;
using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;
inline constexpr Rate kUnlimitedRate = std::numeric_limits<double>::infinity();

// A started flow: its id and the slab slot it occupies. A call through a
// handle whose slot no longer holds its id finds no flow; the default
// handle names none.
struct FlowHandle {
  FlowId id = kInvalidFlow;
  std::uint32_t slot = 0;
  bool operator==(const FlowHandle&) const = default;
};

struct FlowStats {
  Bytes bytes_total = 0;
  Bytes bytes_done = 0;
  Rate current_rate = 0.0;
  SimTime started_at = 0;
  Rate peak_rate = 0.0;
};

// Completion callback: invoked once when the flow's last byte is delivered.
using FlowCallback = std::function<void(FlowId)>;

// Bandwidth allocation model (ablation knob; see DESIGN.md §5.1).
//   kMaxMinFair  — water-filling: unused share from capped flows is
//                  redistributed to unconstrained ones (TCP-like).
//   kEqualSplit  — naive: every flow on a link gets capacity/n, then its
//                  own cap; share unclaimed by capped flows is WASTED.
enum class AllocationModel : std::uint8_t {
  kMaxMinFair = 0,
  kEqualSplit = 1,
};

class Network {
 public:
  explicit Network(sim::Simulator& sim, AllocationModel model =
                                            AllocationModel::kMaxMinFair)
      : sim_(sim), model_(model) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  LinkId add_link(std::string name, Rate capacity);

  void set_link_capacity(LinkId link, Rate capacity);
  Rate link_capacity(LinkId link) const;
  // Sum of current flow rates over the link.
  Rate link_utilization(LinkId link) const;
  std::size_t link_flow_count(LinkId link) const;

  const std::string& link_name(LinkId link) const;

  // --- flows --------------------------------------------------------------

  struct FlowSpec {
    std::optional<LinkId> link;  // the one link crossed; none: rate = cap
    Bytes bytes = 0;            // must be > 0
    Rate rate_cap = kUnlimitedRate;
    FlowCallback on_complete;   // optional
  };

  FlowHandle start_flow(FlowSpec spec);

  // Stops a flow before completion; its callback is not invoked.
  // Returns false if the flow already finished or never existed.
  bool cancel_flow(FlowHandle h);

  // Changes a flow's cap mid-transfer (e.g. swarm capacity drift).
  bool set_flow_cap(FlowHandle h, Rate cap);

  // True while `h`'s slot holds its flow (a free slot holds kInvalidFlow).
  bool flow_active(FlowHandle h) const {
    return h.id != kInvalidFlow && h.slot < flows_.capacity() &&
           flows_[h.slot].id == h.id;
  }
  // Progress is read at `now` without moving the flow's anchor; all zero
  // for a flow that is not active.
  FlowStats flow_stats(FlowHandle h) const;

  std::size_t active_flow_count() const { return live_flows_; }

  // Re-solves every flow: each pathless flow at its cap, then every link
  // with its cap order rebuilt from the chain. Normally never needed;
  // exposed for tests.
  void reallocate();

  // --- snapshot support ---------------------------------------------------
  //
  // save() emits link capacities (faults mutate them) and per-flow state
  // including exact fractional progress and the pending completion event
  // id. load() expects an identically-built topology (same add_link calls),
  // rebuilds the flow table, and rearms completion events internally; flow
  // completion *callbacks* are closures owned by other components, so each
  // flow records whether it had one and the owner must re-attach it via
  // reattach_on_complete(), which returns the flow's handle, before the
  // simulation resumes. Handles taken before load() name no flow. Rates
  // are NOT recomputed on load — they are restored exactly, so completion
  // events keep their original times and ids — and the per-link loads are
  // recounted from them, so the restored network takes the same fast-path
  // or full-solve decision at every later update. A flow's link is saved
  // as a path of 0 or 1 links; load() refuses a longer one.
  static constexpr std::uint32_t kSnapshotVersion = 1;
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  // Throws SnapshotError unless flow `id` awaits its callback.
  FlowHandle reattach_on_complete(FlowId id, FlowCallback cb);
  // Flows restored with a recorded callback that nobody has re-attached
  // yet; must be zero before resuming (audited).
  std::size_t flows_awaiting_callback() const { return awaiting_callback_.size(); }

  // Read-only view for the invariant auditor. `bytes_done` and
  // `last_settled` are the flow's progress anchor (see file header).
  struct FlowView {
    FlowId id = kInvalidFlow;
    std::optional<LinkId> link;
    Bytes bytes_total = 0;
    double bytes_done = 0.0;
    Rate rate = 0.0;
    SimTime last_settled = 0;
    bool completion_pending = false;
    bool has_callback = false;
  };
  std::vector<FlowView> flow_views() const;  // sorted by flow id
  std::size_t pending_completion_count() const;
  std::size_t link_count() const { return links_.size(); }

  // Slab high-water mark (RSS accounting and the pool property tests).
  std::size_t flow_slab_capacity() const { return flows_.capacity(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr LinkId kNoLink = 0xffffffffu;  // a pathless flow

  // One entry of a link's kept cap order (see file header): flow `id`,
  // held in slab slot `slot`, with cap `cap`. Dead once the slot no longer
  // holds `id`.
  struct CapEntry {
    double cap;
    FlowId id;
    std::uint32_t slot;
  };

  struct LinkState {
    std::string name;
    Rate capacity;
    // Ends of the link's flow chain (flow slots). Flows are chained in
    // attach order; flow ids are monotone, so the chain is always ordered
    // by ascending flow id, which fixes the floating-point summation order
    // everywhere a link's flows are folded.
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    std::uint32_t flow_count = 0;
    // Set when a flow on this link was re-capped: the next scan rebuilds
    // cap_order from the chain.
    bool order_stale = false;
    // Flows with a cap above kMinRate, by (cap, id); may hold dead entries
    // between solves.
    std::vector<CapEntry> cap_order;
    // Flows with a cap above kMinRate attached since the last scan, in id
    // order; may hold dead entries.
    std::vector<CapEntry> cap_pending;
    // Fast-path state (see file header): the load in rate quanta and the
    // largest load that leaves the link clearly unsaturated. Links too wide
    // for the quanta to fit in 64 bits keep load 0; see load_bound().
    std::int64_t load = 0;
    std::int64_t bound = 0;
  };

  struct FlowState {
    Bytes bytes_total = 0;
    double bytes_done = 0.0;  // progress anchor: bytes at last_settled
    Rate rate = 0.0;
    Rate rate_cap = kUnlimitedRate;
    Rate peak_rate = 0.0;
    // Rate the pending completion event was computed from; a solve that
    // leaves the rate bitwise unchanged keeps the event. Meaningful only
    // while one is pending.
    Rate sched_rate = 0.0;
    SimTime started_at = 0;
    SimTime last_settled = 0;  // anchor time: the last change of `rate`
    FlowCallback on_complete;
    FlowId id = kInvalidFlow;  // owning id; kInvalidFlow when the slot is free
    // May overlap: `link` then sits in the handle's tail padding, which
    // keeps a flow at 128 B with its chain links.
    [[no_unique_address]] sim::EventHandle completion_event;
    LinkId link = kNoLink;
    // Neighbours in `link`'s chain (flow slots; kNoSlot at either end).
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
  };
  static_assert(sizeof(FlowState) <= 128);

  void release_slot(std::uint32_t slot);
  void attach_to_link(std::uint32_t slot, FlowState& f);

  // Bytes done at `now`: the anchor plus rate × elapsed.
  double progress(const FlowState& f) const;
  // Gives flow `slot` rate `r` (moving its anchor to `now` if the rate
  // changes) and keeps or reschedules its completion.
  void set_rate(std::uint32_t slot, Rate r);
  // The full solve of flow `slot`: its link's, or its own when pathless.
  void solve(std::uint32_t slot);
  // A pathless flow shares nothing: its cap alone sets its rate.
  void solve_pathless(std::uint32_t slot);
  // Re-solves every flow on `l` (the scan of the file header, or the
  // kEqualSplit share), reschedules the completions whose rate changed and
  // recounts the link's load.
  void solve_link(LinkId l);
  // Brings `link.cap_order` up to date: rebuilt from the chain when stale,
  // else its dead entries dropped and the pending entries merged in.
  void refresh_cap_order(LinkState& link);
  // Live flows' handles in ascending id order (save and flow_views).
  std::vector<FlowHandle> handles_by_id() const;
  // True when slot `e.slot` still holds flow `e.id`.
  bool entry_live(const CapEntry& e) const { return flows_[e.slot].id == e.id; }
  void schedule_completion(std::uint32_t slot);
  void complete_flow(FlowHandle h);
  void detach_from_link(std::uint32_t slot, FlowState& f);
  // Removes a departing flow: the fast path when its link was below its
  // bound, the link's re-solve otherwise. `f` is released on return.
  void remove_flow(std::uint32_t slot, FlowState& f);

  // --- fast path (see file header) ----------------------------------------
  // Applies the fast path to just-attached flow `slot`, or returns false
  // and leaves the flow for a full solve.
  bool try_fast_start(std::uint32_t slot);
  // The fast path for a re-cap of flow `slot` to its (already stored) cap.
  bool try_fast_recap(std::uint32_t slot);
  // True when `l` is kNoLink or its load is at or below its bound.
  bool below_bound(LinkId l) const {
    return l == kNoLink || links_[l].load <= links_[l].bound;
  }
  // Adds `sign` × quanta(rate) to `l`'s load if `l` is a tracked link.
  void add_load(LinkId l, Rate rate, std::int64_t sign);

  sim::Simulator& sim_;
  std::vector<LinkState> links_;

  // Flow storage: a slab pool; each slot records its flow's id.
  util::SlabPool<FlowState> flows_;
  std::size_t live_flows_ = 0;

  std::vector<CapEntry> cap_merge_;  // merge target, swapped into a link

  // Restored flows awaiting their completion callback: id -> slot.
  std::map<FlowId, std::uint32_t> awaiting_callback_;
  FlowId next_flow_id_ = 1;
  AllocationModel model_ = AllocationModel::kMaxMinFair;
};

}  // namespace odr::net
