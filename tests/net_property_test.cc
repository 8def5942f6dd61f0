// Property/fuzz tests of the flow-level network: under long random
// sequences of operations, the max-min invariants and byte accounting
// must hold exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "net/network.h"
#include "obs/observer.h"
#include "progressive_filling.h"
#include "sim/simulator.h"
#include "snapshot/format.h"
#include "util/rng.h"

namespace odr::net {
namespace {

// Link names "l0", "r3", ...
std::string link_name(const char* prefix, std::size_t i) {
  std::string name(prefix);
  name.append(std::to_string(i));
  return name;
}

class NetworkFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzzTest, InvariantsUnderRandomOperations) {
  sim::Simulator sim;
  Network net(sim);
  Rng rng(GetParam());

  // Six links, each shared by the flows that cross it.
  std::vector<LinkId> links;
  for (int i = 0; i < 6; ++i) {
    links.push_back(net.add_link(link_name("l", i),
                                 rng.uniform(100.0, 2000.0)));
  }

  struct Tracked {
    FlowHandle flow;
    Bytes size;
    bool completed = false;
  };
  std::map<FlowId, Tracked> live;
  std::vector<Tracked> finished;
  Bytes total_requested = 0;

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    if (action < 0.45 || live.empty()) {
      // Start a flow over one random link, or none (a swarm download),
      // with a random cap.
      std::optional<LinkId> link;
      if (!rng.bernoulli(0.1)) link = links[rng.uniform_index(links.size())];
      const Bytes size = 100 + rng.uniform_index(100000);
      const Rate cap =
          rng.bernoulli(0.3) ? kUnlimitedRate : rng.uniform(10.0, 3000.0);
      total_requested += size;
      Tracked t;
      t.size = size;
      auto* live_ptr = &live;
      auto* finished_ptr = &finished;
      const FlowHandle flow = net.start_flow(
          {link, size, cap, [live_ptr, finished_ptr](FlowId fid) {
             auto it = live_ptr->find(fid);
             ASSERT_NE(it, live_ptr->end());
             it->second.completed = true;
             finished_ptr->push_back(it->second);
             live_ptr->erase(it);
           }});
      t.flow = flow;
      live.emplace(flow.id, t);
    } else if (action < 0.6) {
      // Cancel a random live flow.
      auto it = live.begin();
      std::advance(it, rng.uniform_index(live.size()));
      const FlowHandle flow = it->second.flow;
      live.erase(it);
      EXPECT_TRUE(net.cancel_flow(flow));
    } else if (action < 0.75) {
      // Re-cap a random live flow.
      auto it = live.begin();
      std::advance(it, rng.uniform_index(live.size()));
      net.set_flow_cap(it->second.flow, rng.uniform(0.0, 2500.0));
    } else if (action < 0.85) {
      // Resize a random link.
      net.set_link_capacity(links[rng.uniform_index(links.size())],
                            rng.uniform(50.0, 2500.0));
    } else {
      // Advance time.
      sim.run_until(sim.now() + from_seconds(rng.uniform(0.1, 20.0)));
    }

    // Invariant 1: no link is oversubscribed.
    for (LinkId l : links) {
      EXPECT_LE(net.link_utilization(l), net.link_capacity(l) + 1e-3);
    }
    // Invariant 2: every live flow's progress is within bounds.
    for (auto& [id, t] : live) {
      const FlowStats s = net.flow_stats(t.flow);
      EXPECT_LE(s.bytes_done, t.size);
      EXPECT_GE(s.current_rate, 0.0);
      EXPECT_GE(s.peak_rate, s.current_rate - 1e-9);
    }
  }

  // Drain: raise all caps so stalled flows can finish, then run out.
  std::vector<FlowHandle> flows;
  for (auto& [id, t] : live) flows.push_back(t.flow);
  for (FlowHandle f : flows) net.set_flow_cap(f, kUnlimitedRate);
  sim.run();

  // Invariant 3: everything either finished or was cancelled; finished
  // flows delivered exactly their sizes.
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(net.active_flow_count(), 0u);
  for (const auto& t : finished) {
    EXPECT_TRUE(t.completed);
  }
  for (LinkId l : links) {
    EXPECT_EQ(net.link_flow_count(l), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// The incremental solver (link flow chains, per-link loads and kept cap
// orders) must compute the same allocation as a from-scratch solve of the
// same topology. After every mutation step we rebuild the current live set
// in a FRESH network (whose first solve is necessarily from scratch) and
// compare every flow's rate bitwise: a link's scan result depends only on
// its capacity and its flows' caps. This pins the incremental bookkeeping —
// a stale chain, a stale cap order or a wrong link load all surface as a
// rate mismatch.
class IncrementalSolverTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSolverTest, MatchesFromScratchReallocation) {
  sim::Simulator sim;
  Network net(sim);
  Rng rng(GetParam());

  std::vector<LinkId> links;
  std::vector<Rate> capacities;
  for (int i = 0; i < 8; ++i) {
    capacities.push_back(rng.uniform(100.0, 2000.0));
    links.push_back(net.add_link(link_name("l", i), capacities.back()));
  }

  struct LiveFlow {
    FlowHandle flow;
    std::optional<LinkId> link;  // indices match between net and reference
    Rate cap;
  };
  std::vector<LiveFlow> live;

  for (int step = 0; step < 200; ++step) {
    const double action = rng.uniform();
    if (action < 0.5 || live.empty()) {
      std::optional<LinkId> link;
      if (!rng.bernoulli(0.1)) link = links[rng.uniform_index(links.size())];
      const Rate cap =
          rng.bernoulli(0.3) ? kUnlimitedRate : rng.uniform(10.0, 3000.0);
      const FlowHandle flow =
          net.start_flow({link, 1ull << 40, cap, nullptr});
      live.push_back({flow, link, cap});
    } else if (action < 0.7) {
      const std::size_t victim = rng.uniform_index(live.size());
      EXPECT_TRUE(net.cancel_flow(live[victim].flow));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (action < 0.85) {
      const std::size_t victim = rng.uniform_index(live.size());
      live[victim].cap = rng.uniform(0.0, 2500.0);
      net.set_flow_cap(live[victim].flow, live[victim].cap);
    } else {
      const std::size_t l = rng.uniform_index(links.size());
      capacities[l] = rng.uniform(50.0, 2500.0);
      net.set_link_capacity(links[l], capacities[l]);
    }

    // Reference: the same live set solved from scratch in a fresh network.
    sim::Simulator ref_sim;
    Network ref(ref_sim);
    std::vector<LinkId> ref_links;
    for (std::size_t i = 0; i < links.size(); ++i) {
      ref_links.push_back(
          ref.add_link(link_name("r", i), capacities[i]));
    }
    std::vector<FlowHandle> ref_ids;
    for (const LiveFlow& f : live) {
      std::optional<LinkId> ref_link;
      if (f.link) ref_link = ref_links[static_cast<std::size_t>(*f.link)];
      ref_ids.push_back(ref.start_flow({ref_link, 1ull << 40, f.cap, nullptr}));
    }
    // Compare only once the reference holds the complete live set: its
    // final allocation is then the unique max-min fair one.
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Rate got = net.flow_stats(live[i].flow).current_rate;
      const Rate want = ref.flow_stats(ref_ids[i]).current_rate;
      EXPECT_EQ(got, want) << "flow " << live[i].flow.id << " after step "
                           << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSolverTest,
                         ::testing::Values(21u, 34u, 55u, 89u));

// Random one-shot topologies for the oracle tests: several links, each
// flow crossing one of them or none. They deliberately hit every branch of
// the solver: zero-capacity and sub-kMinRate links, caps at or below
// kMinRate, infinite caps, pathless flows, and exact ties between caps and
// link shares (values drawn from a small set).
using reference::kMinRate;

struct RandomTopology {
  std::vector<double> capacity;
  std::vector<reference::RefFlow> flows;
};

RandomTopology random_topology(Rng& rng, bool infinite_links) {
  static constexpr double kTies[] = {100.0, 250.0, 500.0, 1000.0};
  RandomTopology t;
  const std::size_t n_links = 2 + rng.uniform_index(8);
  for (std::size_t l = 0; l < n_links; ++l) {
    const double kind = rng.uniform();
    if (kind < 0.08) {
      t.capacity.push_back(0.0);
    } else if (kind < 0.12) {
      t.capacity.push_back(0.5 * kMinRate);
    } else if (kind < 0.4) {
      t.capacity.push_back(kTies[rng.uniform_index(4)]);
    } else if (infinite_links && kind < 0.5) {
      t.capacity.push_back(kUnlimitedRate);
    } else {
      t.capacity.push_back(rng.uniform(50.0, 3000.0));
    }
  }
  const std::size_t n_flows = 1 + rng.uniform_index(40);
  for (std::size_t i = 0; i < n_flows; ++i) {
    reference::RefFlow f;
    if (!rng.bernoulli(0.1)) {
      f.path.push_back(static_cast<std::uint32_t>(rng.uniform_index(n_links)));
    }
    const double kind = rng.uniform();
    if (kind < 0.25) {
      f.cap = kUnlimitedRate;
    } else if (kind < 0.3) {
      f.cap = 0.0;
    } else if (kind < 0.35) {
      f.cap = kMinRate * rng.uniform(0.1, 1.0);
    } else if (kind < 0.6) {
      f.cap = kTies[rng.uniform_index(4)] /
              static_cast<double>(1 + rng.uniform_index(4));
    } else {
      f.cap = rng.uniform(10.0, 3000.0);
    }
    t.flows.push_back(std::move(f));
  }
  return t;
}

// Starts `t`'s flows one at a time in a fresh network and returns each
// flow's rate once all are admitted.
std::vector<double> network_rates(const RandomTopology& t, Network& net) {
  std::vector<LinkId> links;
  for (std::size_t l = 0; l < t.capacity.size(); ++l) {
    links.push_back(net.add_link(link_name("l", l), t.capacity[l]));
  }
  std::vector<FlowHandle> flows;
  for (const reference::RefFlow& f : t.flows) {
    Network::FlowSpec spec;
    if (!f.path.empty()) spec.link = links[f.path.front()];
    spec.bytes = 1ull << 40;
    spec.rate_cap = f.cap;
    flows.push_back(net.start_flow(std::move(spec)));
  }
  std::vector<double> rates;
  for (FlowHandle f : flows) rates.push_back(net.flow_stats(f).current_rate);
  return rates;
}

// Utilization per link.
std::vector<double> link_load(const RandomTopology& t,
                              const std::vector<double>& rates) {
  std::vector<double> load(t.capacity.size(), 0.0);
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    for (std::uint32_t l : t.flows[i].path) load[l] += rates[i];
  }
  return load;
}

// Saturated: crossed by at least one flow and out of headroom. The slack
// absorbs the oracle's kMinRate freeze thresholds.
std::vector<bool> saturated_links(const RandomTopology& t,
                                  const std::vector<double>& rates) {
  const std::vector<double> load = link_load(t, rates);
  std::vector<bool> crossed(t.capacity.size(), false);
  for (const reference::RefFlow& f : t.flows) {
    for (std::uint32_t l : f.path) crossed[l] = true;
  }
  std::vector<bool> out(t.capacity.size(), false);
  for (std::size_t l = 0; l < t.capacity.size(); ++l) {
    const double slack = 1e-9 * t.capacity[l] + 1e-5;
    out[l] = crossed[l] && std::isfinite(t.capacity[l]) &&
             t.capacity[l] - load[l] <= slack;
  }
  return out;
}

// Water-filling must reproduce the progressive-filling oracle's max-min
// allocation on every random topology: each rate within max(1e-9 x rate,
// kMinRate), and the same set of saturated links.
class WaterFillingOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillingOracleTest, MatchesProgressiveFilling) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const RandomTopology t = random_topology(rng, /*infinite_links=*/false);
    sim::Simulator sim;
    Network net(sim);
    const std::vector<double> got = network_rates(t, net);
    const std::vector<double> want =
        reference::progressive_filling(t.capacity, t.flows);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], std::max(1e-9 * want[i], kMinRate))
          << "trial " << trial << " flow " << i;
    }
    EXPECT_EQ(saturated_links(t, got), saturated_links(t, want))
        << "trial " << trial;
    const std::vector<double> load = link_load(t, got);
    for (std::size_t l = 0; l < t.capacity.size(); ++l) {
      EXPECT_NEAR(net.link_utilization(static_cast<LinkId>(l)), load[l],
                  1e-9 * std::max(1.0, load[l]));
    }
  }
}

// Every solve returns with every flow frozen: each flow that can move
// (it has a path and a cap above kMinRate) sits at its cap, at the
// unbounded-rate clamp, or on a saturated link where no flow is faster —
// its bottleneck. Infinite-capacity links are included: they are where
// the round loop used to stop with flows still unfrozen.
TEST_P(WaterFillingOracleTest, NoFlowLeftUnfrozen) {
  Rng rng(GetParam() ^ 0x5eedull);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomTopology t = random_topology(rng, /*infinite_links=*/true);
    sim::Simulator sim;
    Network net(sim);
    const std::vector<double> rates = network_rates(t, net);
    const std::vector<double> load = link_load(t, rates);
    std::vector<double> fastest(t.capacity.size(), 0.0);
    for (std::size_t i = 0; i < t.flows.size(); ++i) {
      for (std::uint32_t l : t.flows[i].path) {
        fastest[l] = std::max(fastest[l], rates[i]);
      }
    }
    for (std::size_t i = 0; i < t.flows.size(); ++i) {
      const reference::RefFlow& f = t.flows[i];
      if (f.path.empty() || f.cap <= kMinRate) continue;
      const double tol = std::max(1e-9 * rates[i], kMinRate);
      bool frozen = rates[i] >= f.cap - tol || rates[i] >= 1e15 - 1.0;
      for (std::uint32_t l : f.path) {
        const bool saturated =
            t.capacity[l] - load[l] <= 1e-9 * t.capacity[l] + 1e-5;
        frozen = frozen || (saturated && rates[i] >= fastest[l] - tol);
      }
      EXPECT_TRUE(frozen) << "trial " << trial << " flow " << i << " rate "
                          << rates[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterFillingOracleTest,
                         ::testing::Values(3u, 17u, 2015u, 1028u));

// The fast path (one flow touched when its link cannot be a bottleneck) must
// leave exactly the allocation a full solve would. Random starts, cancels,
// completions, re-caps and link resizes run on mostly under-subscribed
// links plus two narrow ones that saturate, with pathless flows, caps at or
// below kMinRate and infinite caps. After every operation the live set is
// rebuilt in a fresh network and re-solved with reallocate(): every rate
// must match bitwise.
struct FastPathFlow {
  FlowHandle flow;
  std::optional<LinkId> link;
  Rate cap;
};

class FastPathOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathOracleTest, MatchesFullSolveAfterEveryOperation) {
  obs::ScopedObserver obs;
  const auto fast_count = [&obs] {
    return obs->metrics().counter("net.flows.fast_path").value();
  };
  sim::Simulator sim;
  Network net(sim);
  Rng rng(GetParam());

  std::vector<LinkId> links;
  std::vector<Rate> capacities;
  for (int i = 0; i < 8; ++i) {
    capacities.push_back(i < 2 ? rng.uniform(200.0, 600.0)
                               : rng.uniform(2e4, 8e4));
    links.push_back(net.add_link(link_name("l", i), capacities.back()));
  }
  std::vector<FastPathFlow> live;
  const auto forget = [&live](FlowId id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].flow.id == id) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  };
  const auto random_cap = [&rng] {
    const double kind = rng.uniform();
    if (kind < 0.05) return kUnlimitedRate;
    if (kind < 0.1) return kMinRate * rng.uniform(0.0, 1.0);
    return rng.uniform(10.0, 300.0);
  };

  std::uint64_t flow_ops = 0;  // starts, cancels and re-caps
  std::uint64_t fast_ops = 0;  // of those, the ones that took the fast path
  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform();
    const std::uint64_t fast_before = fast_count();
    bool flow_op = true;
    if (action < 0.45 || live.empty()) {
      // A tenth are pathless: P2P swarm flows.
      std::optional<LinkId> link;
      if (!rng.bernoulli(0.1)) link = links[rng.uniform_index(links.size())];
      const Rate cap = random_cap();
      const Bytes size = 1000 + rng.uniform_index(200000);
      const FlowHandle flow = net.start_flow({link, size, cap, forget});
      live.push_back({flow, link, cap});
    } else if (action < 0.65) {
      const std::size_t victim = rng.uniform_index(live.size());
      EXPECT_TRUE(net.cancel_flow(live[victim].flow));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (action < 0.85) {
      const std::size_t victim = rng.uniform_index(live.size());
      live[victim].cap = random_cap();
      net.set_flow_cap(live[victim].flow, live[victim].cap);
    } else if (action < 0.9) {
      flow_op = false;
      const std::size_t l = rng.uniform_index(links.size());
      capacities[l] = l < 2 ? rng.uniform(200.0, 600.0) : rng.uniform(2e4, 8e4);
      net.set_link_capacity(links[l], capacities[l]);
    } else {
      // Completions fire here; their callbacks drop the flow from `live`.
      flow_op = false;
      sim.run_until(sim.now() + from_seconds(rng.uniform(0.5, 30.0)));
    }
    if (flow_op) {
      ++flow_ops;
      fast_ops += fast_count() - fast_before;
    }

    sim::Simulator ref_sim;
    Network ref(ref_sim);
    for (std::size_t l = 0; l < links.size(); ++l) {
      ref.add_link(link_name("r", l), capacities[l]);
    }
    std::vector<FlowHandle> ref_ids;
    for (const FastPathFlow& f : live) {
      ref_ids.push_back(ref.start_flow({f.link, 1ull << 40, f.cap, nullptr}));
    }
    ref.reallocate();
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(net.flow_stats(live[i].flow).current_rate,
                ref.flow_stats(ref_ids[i]).current_rate)
          << "flow " << live[i].flow.id << " after step " << step;
    }
    for (LinkId l : links) {
      EXPECT_LE(net.link_utilization(l), net.link_capacity(l) * (1 + 1e-9));
    }
  }
  // Most updates must have taken the fast path, or the comparison above
  // would only have exercised the full solve.
  EXPECT_GT(fast_ops, flow_ops / 2)
      << fast_ops << " fast-path updates over " << flow_ops << " operations";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathOracleTest,
                         ::testing::Values(4u, 9u, 16u, 25u));

// kEqualSplit has no unused share to reason about: every update re-solves.
TEST(FastPathTest, EqualSplitNeverTakesTheFastPath) {
  obs::ScopedObserver obs;
  sim::Simulator sim;
  Network net(sim, AllocationModel::kEqualSplit);
  const LinkId wide = net.add_link("wide", 1e6);
  std::vector<FlowHandle> flows;
  for (int i = 0; i < 20; ++i) {
    std::optional<LinkId> link;
    if (i % 4 != 0) link = wide;
    flows.push_back(net.start_flow({link, 1ull << 30, 10.0 + i, nullptr}));
  }
  for (int i = 0; i < 20; i += 2) net.set_flow_cap(flows[i], 5.0);
  for (int i = 1; i < 20; i += 3) net.cancel_flow(flows[i]);
  EXPECT_EQ(obs->metrics().counter("net.flows.fast_path").value(), 0u);
  EXPECT_GT(obs->metrics().counter("net.solver.runs").value(), 0u);
}

TEST(NetworkAccountingTest, BytesDeliveredMatchElapsedRates) {
  // A flow re-capped several times must deliver exactly its size, with
  // the completion time equal to the piecewise integral of its rate.
  sim::Simulator sim;
  Network net(sim);
  const LinkId link = net.add_link("l", 1e6);
  SimTime done_at = 0;
  const FlowHandle f = net.start_flow(
      {{link}, 10000, 100.0, [&](FlowId) { done_at = sim.now(); }});
  sim.run_until(from_seconds(20.0));   // 2000 bytes at 100 B/s
  net.set_flow_cap(f, 400.0);
  sim.run_until(from_seconds(30.0));   // + 4000 bytes at 400 B/s
  net.set_flow_cap(f, 50.0);
  sim.run();                           // remaining 4000 at 50 B/s -> 80 s
  EXPECT_EQ(done_at, from_seconds(110.0));
}

// The scan over a kept cap order must give exactly the rates of a scan over
// an order rebuilt from the chain. Random starts, cancels, completions,
// re-caps and capacity changes run on one link. Caps include exact ties
// (the id tie-break), caps at or below kMinRate and infinite caps;
// capacities include infinite and zero. After every operation
// reallocate() — which rebuilds every link's cap order and re-solves it —
// must be a no-op: every rate bitwise unchanged and no completion
// rescheduled. A shadow network given the same operations but never
// re-solved must hold bitwise the same rates, so the scan's recounted link
// load leads to the same fast-path decisions.
struct ScanSide {
  sim::Simulator sim;
  Network net{sim};
  LinkId link = net.add_link("l", 1000.0);
  std::vector<FlowHandle> live;  // ascending id
  FlowCallback forget() {
    return [this](FlowId id) {
      live.erase(std::find_if(live.begin(), live.end(),
                              [id](FlowHandle h) { return h.id == id; }));
    };
  }
};

Rate random_scan_cap(Rng& rng) {
  static constexpr double kTies[] = {50.0, 100.0, 125.0, 250.0};
  const double kind = rng.uniform();
  if (kind < 0.15) return kUnlimitedRate;
  if (kind < 0.22) return kMinRate * rng.uniform(0.0, 1.0);
  if (kind < 0.6) return kTies[rng.uniform_index(4)];
  return rng.uniform(5.0, 400.0);
}

// Wide links let runs of starts and ends take the fast path with no solve
// between them, so the pending cap list must drop departed flows itself.
Rate random_scan_capacity(Rng& rng) {
  const double kind = rng.uniform();
  if (kind < 0.1) return kUnlimitedRate;
  if (kind < 0.18) return 0.0;
  if (kind < 0.35) return 1000.0;
  if (kind < 0.6) return 1e5;
  return rng.uniform(100.0, 3000.0);
}

// One operation, drawn from `rng`, applied to `s`.
void scan_op(ScanSide& s, Rng& rng) {
  const double action = rng.uniform();
  if (action < 0.4 || s.live.empty()) {
    const Rate cap = random_scan_cap(rng);
    const Bytes size = 500 + rng.uniform_index(20000);
    s.live.push_back(s.net.start_flow({{s.link}, size, cap, s.forget()}));
  } else if (action < 0.55) {
    const std::size_t victim = rng.uniform_index(s.live.size());
    const FlowHandle flow = s.live[victim];
    s.live.erase(s.live.begin() + static_cast<std::ptrdiff_t>(victim));
    EXPECT_TRUE(s.net.cancel_flow(flow));
  } else if (action < 0.7) {
    s.net.set_flow_cap(s.live[rng.uniform_index(s.live.size())],
                       random_scan_cap(rng));
  } else if (action < 0.8) {
    s.net.set_link_capacity(s.link, random_scan_capacity(rng));
  } else {
    // Completions fire here; their callbacks drop the flow from `live`.
    s.sim.run_until(s.sim.now() + from_seconds(rng.uniform(0.5, 40.0)));
  }
}

std::vector<std::uint64_t> rate_bits(const Network& net) {
  std::vector<std::uint64_t> bits;
  for (const Network::FlowView& v : net.flow_views()) {
    bits.push_back(std::bit_cast<std::uint64_t>(v.rate));
  }
  return bits;
}

class SingleLinkScanTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleLinkScanTest, GeneralWaterFillingIsANoOpAfterEveryOperation) {
  obs::ScopedObserver obs;
  const auto counter = [&obs](const char* name) {
    return obs->metrics().counter(name).value();
  };
  ScanSide checked;
  ScanSide shadow;
  Rng rng_checked(GetParam());
  Rng rng_shadow(GetParam());
  std::uint64_t saturated_solves = 0;
  for (int step = 0; step < 600; ++step) {
    scan_op(checked, rng_checked);
    scan_op(shadow, rng_shadow);
    ASSERT_EQ(checked.live, shadow.live) << "step " << step;

    const std::vector<std::uint64_t> before = rate_bits(checked.net);
    ASSERT_EQ(before, rate_bits(shadow.net)) << "step " << step;
    const std::uint64_t rescheduled = counter("net.completions.rescheduled");
    const std::uint64_t runs = counter("net.solver.runs");
    checked.net.reallocate();
    if (counter("net.solver.runs") != runs) ++saturated_solves;
    EXPECT_EQ(rate_bits(checked.net), before) << "step " << step;
    EXPECT_EQ(counter("net.completions.rescheduled"), rescheduled)
        << "step " << step;
    EXPECT_EQ(checked.net.pending_completion_count(),
              shadow.net.pending_completion_count())
        << "step " << step;
  }
  EXPECT_GT(saturated_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleLinkScanTest,
                         ::testing::Values(6u, 28u, 496u, 8128u));

// Starts and cancels on an unsaturated link take the fast path, so only
// the pending cap list sees them. It must drop the departed flows and keep
// the live ones: the scan once the link narrows still gives the rates of an
// order rebuilt from the chain.
TEST(SingleLinkScanTest, PendingCapsKeepLiveFlowsThroughFastPathChurn) {
  obs::ScopedObserver obs;
  sim::Simulator sim;
  Network net(sim);
  const LinkId link = net.add_link("l", 1e6);
  Rng rng(64);
  double cap_sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    Rate cap = random_scan_cap(rng);
    if (!std::isfinite(cap)) cap = 300.0;  // an infinite cap forces a solve
    net.start_flow({{link}, 1ull << 40, cap, nullptr});
    cap_sum += cap;
  }
  for (int i = 0; i < 500; ++i) {
    const FlowHandle churn =
        net.start_flow({{link}, 1ull << 40, rng.uniform(5.0, 400.0), nullptr});
    net.cancel_flow(churn);
  }
  EXPECT_EQ(obs->metrics().counter("net.solver.runs").value(), 0u);
  net.set_link_capacity(link, 0.5 * cap_sum);
  const std::vector<std::uint64_t> before = rate_bits(net);
  net.reallocate();
  EXPECT_EQ(rate_bits(net), before);
}

// The kept cap order is derived state: load() rebuilds it. A checkpoint
// taken while the link is saturated, restored and driven on, must finish
// every flow at the uninterrupted run's exact times.
TEST(SingleLinkScanTest, RestoreWhileSaturatedMatchesUninterruptedRun) {
  struct Side {
    sim::Simulator sim;
    Network net{sim};
    std::vector<std::pair<FlowId, SimTime>> done;
    std::map<FlowId, FlowHandle> handles;  // every flow started or reattached
    Side() { net.add_link("cluster", 2000.0); }
    FlowCallback record() {
      return [this](FlowId id) { done.push_back({id, sim.now()}); };
    }
  };
  const auto start = [](Side& s, Rng& rng) {
    const Bytes size = 2000 + rng.uniform_index(60000);
    const FlowHandle h =
        s.net.start_flow({{0}, size, random_scan_cap(rng), s.record()});
    s.handles[h.id] = h;
  };
  const auto drive = [&start](Side& s, Rng& rng, int steps) {
    for (int i = 0; i < steps; ++i) {
      start(s, rng);
      if (rng.bernoulli(0.3)) {
        const std::vector<Network::FlowView> views = s.net.flow_views();
        s.net.cancel_flow(
            s.handles.at(views[rng.uniform_index(views.size())].id));
      }
      s.sim.run_until(s.sim.now() + from_seconds(rng.uniform(0.1, 3.0)));
    }
  };

  Side control;
  Side interrupted;
  Rng warm_a(1028), warm_b(1028);
  drive(control, warm_a, 120);
  drive(interrupted, warm_b, 120);
  ASSERT_GT(interrupted.net.link_utilization(0), 2000.0 * (1.0 - 1e-9))
      << "the checkpoint must be taken on a saturated link";

  snapshot::SnapshotWriter w;
  w.begin_section(1, 1);
  interrupted.sim.save(w);
  interrupted.net.save(w);
  w.end_section();
  Side resumed;
  snapshot::SnapshotReader r(w.take());
  r.require_section(1, 1);
  resumed.sim.load(r);
  resumed.net.load(r);
  r.end_section();
  for (const Network::FlowView& v : interrupted.net.flow_views()) {
    if (v.has_callback) {
      resumed.handles[v.id] =
          resumed.net.reattach_on_complete(v.id, resumed.record());
    }
  }
  ASSERT_EQ(resumed.net.flows_awaiting_callback(), 0u);
  const std::size_t done_before = control.done.size();

  Rng rest_a(2015), rest_b(2015);
  drive(control, rest_a, 200);
  drive(resumed, rest_b, 200);
  control.sim.run();
  resumed.sim.run();
  ASSERT_EQ(control.done.size(), done_before + resumed.done.size());
  for (std::size_t i = 0; i < resumed.done.size(); ++i) {
    EXPECT_EQ(resumed.done[i], control.done[done_before + i]) << i;
  }
  EXPECT_EQ(resumed.sim.now(), control.sim.now());
}

}  // namespace
}  // namespace odr::net
