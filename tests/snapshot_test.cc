// Checkpoint/restore tests: the wire format's loud-failure guarantees,
// per-component round-trips, and whole-world kill/resume bit-identity.
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/replay.h"
#include "ap/smart_ap.h"
#include "cloud/chunk_dedup.h"
#include "cloud/storage_pool.h"
#include "core/budget.h"
#include "core/circuit_breaker.h"
#include "core/hedge.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "obs/observer.h"
#include "proto/download.h"
#include "proto/ledbat.h"
#include "sim/simulator.h"
#include "snapshot/format.h"
#include "snapshot/snapshotter.h"
#include "snapshot/world.h"
#include "util/md5.h"
#include "util/rng.h"

namespace odr {
namespace {

using snapshot::SnapshotError;
using snapshot::SnapshotReader;
using snapshot::SnapshotWriter;

// --- wire format -----------------------------------------------------------

TEST(SnapshotFormatTest, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.begin_section(42, 3);
  w.u8(1, 0xAB);
  w.u32(2, 0xDEADBEEFu);
  w.u64(3, 0x0123456789ABCDEFull);
  w.i64(4, -987654321);
  w.f64(5, 3.141592653589793);
  w.b(6, true);
  w.str(7, "offline downloading");
  const std::uint8_t blob[4] = {9, 8, 7, 6};
  w.bytes(8, blob, sizeof(blob));
  w.end_section();

  SnapshotReader r(w.take());
  EXPECT_EQ(r.enter_section(42), 3u);
  EXPECT_EQ(r.u8(1), 0xAB);
  EXPECT_EQ(r.u32(2), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(3), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(4), -987654321);
  EXPECT_EQ(r.f64(5), 3.141592653589793);
  EXPECT_TRUE(r.b(6));
  EXPECT_EQ(r.str(7), "offline downloading");
  std::uint8_t out[4] = {};
  r.bytes(8, out, sizeof(out));
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[3], 6);
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotFormatTest, CrcCorruptionFailsLoudly) {
  SnapshotWriter w;
  w.begin_section(1, 1);
  for (int i = 0; i < 64; ++i) w.u64(1, i * 1234567ull);
  w.end_section();
  std::string buf = w.take();
  // Flip one payload byte near the end of the buffer.
  buf[buf.size() - 5] = static_cast<char>(buf[buf.size() - 5] ^ 0x40);
  SnapshotReader r(std::move(buf));
  EXPECT_THROW(r.enter_section(1), SnapshotError);
}

TEST(SnapshotFormatTest, VersionBumpIsRejected) {
  SnapshotWriter w;
  w.begin_section(7, 2);
  w.u64(1, 99);
  w.end_section();
  SnapshotReader r(w.take());
  EXPECT_THROW(r.require_section(7, 1), SnapshotError);
}

TEST(SnapshotFormatTest, WrongTagIsRejected) {
  SnapshotWriter w;
  w.begin_section(7, 1);
  w.u64(1, 99);
  w.end_section();
  SnapshotReader r(w.take());
  r.require_section(7, 1);
  EXPECT_THROW(r.u64(2), SnapshotError);
}

TEST(SnapshotFormatTest, TrailingPayloadIsRejected) {
  SnapshotWriter w;
  w.begin_section(7, 1);
  w.u64(1, 99);
  w.u64(2, 100);
  w.end_section();
  SnapshotReader r(w.take());
  r.require_section(7, 1);
  EXPECT_EQ(r.u64(1), 99u);
  EXPECT_THROW(r.end_section(), SnapshotError);  // tag 2 never consumed
}

TEST(SnapshotFormatTest, BadMagicIsRejected) {
  EXPECT_THROW(SnapshotReader r("not a snapshot at all"), SnapshotError);
}

// --- rng -------------------------------------------------------------------

TEST(SnapshotRngTest, RoundTripReproducesDrawSequence) {
  Rng original(0xFEEDFACEull);
  for (int i = 0; i < 1000; ++i) original.uniform();
  Rng forked = original.fork();
  (void)forked.normal();

  SnapshotWriter w;
  w.begin_section(1, 1);
  save_rng(w, 10, original);
  save_rng(w, 20, forked);
  w.end_section();

  Rng restored_a(1), restored_b(2);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  load_rng(r, 10, restored_a);
  load_rng(r, 20, restored_b);
  r.end_section();

  EXPECT_EQ(restored_a.stream_id(), original.stream_id());
  EXPECT_EQ(restored_a.draw_count(), original.draw_count());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(restored_a.next_u64(), original.next_u64());
    ASSERT_EQ(restored_b.next_u64(), forked.next_u64());
  }
}

// --- simulator -------------------------------------------------------------

TEST(SnapshotSimTest, RearmRestoresExactEventOrder) {
  sim::Simulator a;
  std::vector<int> fired;
  a.schedule_at(100, [&] { fired.push_back(1); });
  const sim::EventId e2 = a.schedule_at(300, [&] { fired.push_back(2); });
  const sim::EventId e3 = a.schedule_at(300, [&] { fired.push_back(3); });
  const sim::EventId e4 = a.schedule_at(200, [&] { fired.push_back(4); });
  a.step();  // runs event 1
  ASSERT_EQ(fired, std::vector<int>({1}));

  SnapshotWriter w;
  w.begin_section(1, 1);
  a.save(w);
  w.end_section();

  sim::Simulator b;
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  b.load(r);
  r.end_section();
  EXPECT_EQ(b.unclaimed_rearm_count(), 3u);
  // Parked events only become live once their owners rearm them.
  EXPECT_EQ(b.pending_count(), 0u);

  // Rearm deliberately out of order: (time, seq) must still win.
  std::vector<int> replay;
  b.rearm(e3, [&] { replay.push_back(3); });
  b.rearm(e4, [&] { replay.push_back(4); });
  b.rearm(e2, [&] { replay.push_back(2); });
  EXPECT_EQ(b.unclaimed_rearm_count(), 0u);
  EXPECT_EQ(b.pending_count(), 3u);
  b.run();
  EXPECT_EQ(replay, std::vector<int>({4, 2, 3}));
  EXPECT_EQ(b.now(), a.now() + 200);

  EXPECT_THROW(b.rearm(9999, [] {}), SnapshotError);

  // Reserved ids: a block of three arrivals filled lazily, each from inside
  // its predecessor, interleaved with ordinary events at the same times,
  // pops exactly as if every arrival had been scheduled up front.
  const SimTime arrival_at[] = {100, 200, 300};
  const SimTime ordinary_at[] = {200, 100, 300};
  std::vector<int> upfront;
  sim::Simulator u;
  for (int k = 0; k < 3; ++k) {
    u.schedule_at(arrival_at[k], [&upfront, k] { upfront.push_back(10 + k); });
  }
  for (int k = 0; k < 3; ++k) {
    u.schedule_at(ordinary_at[k], [&upfront, k] { upfront.push_back(20 + k); });
  }
  u.run();
  ASSERT_EQ(upfront, std::vector<int>({10, 21, 11, 20, 12, 22}));

  std::vector<int> lazy;
  sim::Simulator l;
  const sim::EventId first = l.reserve(3);
  EXPECT_EQ(first, 1u);
  std::function<void(int)> arrive = [&](int k) {
    if (k + 1 < 3) {
      l.schedule_reserved(first + k + 1, arrival_at[k + 1],
                          [&arrive, k] { arrive(k + 1); });
    }
    lazy.push_back(10 + k);
  };
  for (int k = 0; k < 3; ++k) {
    // Ordinary ids continue after the reserved block, as in `u`.
    EXPECT_EQ(l.schedule_at(ordinary_at[k],
                            [&lazy, k] { lazy.push_back(20 + k); }),
              first + 3 + k);
  }
  l.schedule_reserved(first, arrival_at[0], [&arrive] { arrive(0); });
  EXPECT_EQ(l.pending_count(), 4u);  // one arrival queued, not three

  // Checkpoint with the last arrival pending in its reserved id; it must
  // resume in the same position.
  l.run(3);
  ASSERT_EQ(lazy, std::vector<int>({10, 21, 11}));
  SnapshotWriter lw;
  lw.begin_section(1, 1);
  l.save(lw);
  lw.end_section();
  l.run();
  EXPECT_EQ(lazy, upfront);

  sim::Simulator m;
  SnapshotReader lr(lw.take());
  lr.require_section(1, 1);
  m.load(lr);
  lr.end_section();
  std::vector<int> resumed(lazy.begin(), lazy.begin() + 3);
  m.rearm(first + 3 + 2, [&resumed] { resumed.push_back(22); });
  m.rearm(first + 2, [&resumed] { resumed.push_back(12); });
  m.rearm(first + 3, [&resumed] { resumed.push_back(20); });
  EXPECT_EQ(m.unclaimed_rearm_count(), 0u);
  m.run();
  EXPECT_EQ(resumed, upfront);
}

// --- network ---------------------------------------------------------------

TEST(SnapshotNetTest, MidFlowRoundTripPreservesCompletionTimes) {
  auto build = [](sim::Simulator& sim) {
    auto net = std::make_unique<net::Network>(sim);
    net->add_link("uplink", 1000.0);
    return net;
  };

  // Control: uninterrupted.
  sim::Simulator sim_a;
  auto net_a = build(sim_a);
  std::vector<std::pair<net::FlowId, SimTime>> done_a;
  net::Network::FlowSpec spec;
  spec.path = {0};
  spec.bytes = 10000;
  spec.on_complete = [&](net::FlowId id) { done_a.push_back({id, sim_a.now()}); };
  net_a->start_flow(spec);
  sim_a.run_until(3 * kSec);
  net::Network::FlowSpec spec2 = spec;
  spec2.bytes = 4000;
  spec2.on_complete = [&](net::FlowId id) { done_a.push_back({id, sim_a.now()}); };
  const net::FlowId f2 = net_a->start_flow(spec2);
  sim_a.run();

  // Interrupted copy: same history up to 5s, then checkpointed.
  sim::Simulator sim_b;
  auto net_b = build(sim_b);
  net::Network::FlowSpec spec_b = spec;
  spec_b.on_complete = nullptr;
  net::Network::FlowSpec spec2_b = spec2;
  spec2_b.on_complete = nullptr;
  // Recreate with callbacks that we drop at save time anyway.
  std::vector<std::pair<net::FlowId, SimTime>> done_b_unused;
  spec_b.on_complete = [&](net::FlowId id) {
    done_b_unused.push_back({id, sim_b.now()});
  };
  spec2_b.on_complete = [&](net::FlowId id) {
    done_b_unused.push_back({id, sim_b.now()});
  };
  const net::FlowId b1 = net_b->start_flow(spec_b);
  sim_b.run_until(3 * kSec);
  net_b->start_flow(spec2_b);
  sim_b.run_until(5 * kSec);

  SnapshotWriter w;
  w.begin_section(1, 1);
  sim_b.save(w);
  net_b->save(w);
  w.end_section();

  sim::Simulator sim_c;
  auto net_c = build(sim_c);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim_c.load(r);
  net_c->load(r);
  r.end_section();
  EXPECT_EQ(net_c->flows_awaiting_callback(), 2u);
  std::vector<std::pair<net::FlowId, SimTime>> done_c;
  net_c->reattach_on_complete(b1, [&](net::FlowId id) {
    done_c.push_back({id, sim_c.now()});
  });
  net_c->reattach_on_complete(f2, [&](net::FlowId id) {
    done_c.push_back({id, sim_c.now()});
  });
  EXPECT_EQ(net_c->flows_awaiting_callback(), 0u);
  EXPECT_EQ(sim_c.unclaimed_rearm_count(), 0u);
  sim_c.run();

  ASSERT_EQ(done_c.size(), done_a.size());
  for (std::size_t i = 0; i < done_a.size(); ++i) {
    EXPECT_EQ(done_c[i].first, done_a[i].first);
    EXPECT_EQ(done_c[i].second, done_a[i].second);
  }
  EXPECT_EQ(sim_c.now(), sim_a.now());
}

TEST(SnapshotNetTest, ChurnedPoolRoundTripAfterSlotReuse) {
  // The flow population lives in a SlabPool: completions free slots and
  // later starts recycle them. A checkpoint taken after heavy churn must
  // restore the surviving flows exactly — ids, progress, completion
  // times — even though their slot assignments were recycled several
  // times over, and the restored slab must compact to the live
  // population rather than reproduce the churn high-water mark.
  auto build = [](sim::Simulator& sim) {
    auto net = std::make_unique<net::Network>(sim);
    net->add_link("trunk", 500.0);
    net->add_link("leg", 200.0);
    return net;
  };
  auto churn = [](sim::Simulator& sim, net::Network& net,
                  std::vector<std::pair<net::FlowId, SimTime>>* done) {
    std::vector<net::FlowId> started;
    // Three waves of short flows; each wave completes before the next
    // starts, so wave N+1 reuses the slots wave N freed.
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 4; ++i) {
        net::Network::FlowSpec spec;
        spec.path = {0, 1};
        spec.bytes = 1000 + 700 * i + 130 * wave;
        spec.on_complete = [&sim, done](net::FlowId id) {
          done->push_back({id, sim.now()});
        };
        started.push_back(net.start_flow(spec));
      }
      sim.run();
    }
    // Survivors: long flows that will straddle the checkpoint, started
    // into recycled slots.
    for (int i = 0; i < 3; ++i) {
      net::Network::FlowSpec spec;
      spec.path = {0, 1};
      spec.bytes = 400000 + 50000 * i;
      spec.on_complete = [&sim, done](net::FlowId id) {
        done->push_back({id, sim.now()});
      };
      started.push_back(net.start_flow(spec));
    }
    return started;
  };

  // Control: uninterrupted to completion.
  sim::Simulator sim_a;
  auto net_a = build(sim_a);
  std::vector<std::pair<net::FlowId, SimTime>> done_a;
  churn(sim_a, *net_a, &done_a);
  sim_a.run();

  // Interrupted copy: identical history, checkpoint mid-survivors.
  sim::Simulator sim_b;
  auto net_b = build(sim_b);
  std::vector<std::pair<net::FlowId, SimTime>> done_b;
  const std::vector<net::FlowId> started = churn(sim_b, *net_b, &done_b);
  const std::size_t slab_high_water = net_b->flow_slab_capacity();
  EXPECT_EQ(slab_high_water, 4u);  // waves recycled; survivors refilled
  sim_b.run_until(sim_b.now() + 2 * kSec);
  ASSERT_EQ(net_b->active_flow_count(), 3u);

  SnapshotWriter w;
  w.begin_section(1, 1);
  sim_b.save(w);
  net_b->save(w);
  w.end_section();

  sim::Simulator sim_c;
  auto net_c = build(sim_c);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim_c.load(r);
  net_c->load(r);
  r.end_section();

  // Restore compacts: only the three survivors occupy the slab.
  EXPECT_EQ(net_c->active_flow_count(), 3u);
  EXPECT_EQ(net_c->flow_slab_capacity(), 3u);
  std::vector<std::pair<net::FlowId, SimTime>> done_c;
  for (std::size_t i = started.size() - 3; i < started.size(); ++i) {
    net_c->reattach_on_complete(started[i], [&](net::FlowId id) {
      done_c.push_back({id, sim_c.now()});
    });
  }
  EXPECT_EQ(net_c->flows_awaiting_callback(), 0u);
  sim_c.run();

  // The resumed run finishes the survivors at the control's exact times.
  ASSERT_EQ(done_a.size(), done_b.size() + done_c.size());
  for (std::size_t i = 0; i < done_c.size(); ++i) {
    EXPECT_EQ(done_c[i], done_a[done_b.size() + i]) << i;
  }
  EXPECT_EQ(sim_c.now(), sim_a.now());

  // New flows started after restore recycle the compacted slots rather
  // than growing the slab past the live population.
  net::Network::FlowSpec tail;
  tail.path = {0};
  tail.bytes = 100;
  net_c->start_flow(tail);
  EXPECT_LE(net_c->flow_slab_capacity(), 3u);
}

// A network restored from a checkpoint taken after fast-path updates must
// recount its link loads from the restored rates. Driven with the same
// operations as the uninterrupted network, it must take the same fast-path
// or full-solve choice at every step, hold bitwise-equal flows, and
// complete them at the same times.
TEST(SnapshotNetTest, RestoreReproducesFastPathDecisions) {
  obs::ScopedObserver obs;
  struct Side {
    sim::Simulator sim;
    net::Network net{sim};
    std::vector<std::pair<net::FlowId, SimTime>> done;
    Side() {
      net.add_link("narrow", 400.0);  // saturates: forces full solves
      net.add_link("wide-a", 5e4);
      net.add_link("wide-b", 8e4);
    }
    net::FlowCallback record() {
      return [this](net::FlowId id) { done.push_back({id, sim.now()}); };
    }
  };
  const std::vector<std::vector<net::LinkId>> paths = {
      {}, {1}, {2}, {1, 2}, {0}, {0, 1}, {2, 2}};
  const auto op = [&paths](Side& s, Rng& rng) {
    const std::vector<net::Network::FlowView> views = s.net.flow_views();
    const double action = rng.uniform();
    const Rate cap =
        rng.bernoulli(0.05) ? net::kUnlimitedRate : rng.uniform(10.0, 300.0);
    if (action < 0.5 || views.empty()) {
      const Bytes size = 1000 + rng.uniform_index(100000);
      s.net.start_flow(
          {paths[rng.uniform_index(paths.size())], size, cap, s.record()});
    } else if (action < 0.65) {
      s.net.cancel_flow(views[rng.uniform_index(views.size())].id);
    } else if (action < 0.85) {
      s.net.set_flow_cap(views[rng.uniform_index(views.size())].id, cap);
    } else {
      s.sim.run_until(s.sim.now() + from_seconds(rng.uniform(0.5, 20.0)));
    }
  };
  const auto counters = [&obs] {
    obs::Registry& m = obs->metrics();
    return std::pair{m.counter("net.flows.fast_path").value(),
                     m.counter("net.solver.runs").value()};
  };

  Side a;
  Rng warm(77);
  for (int i = 0; i < 150; ++i) op(a, warm);
  SnapshotWriter w;
  w.begin_section(1, 1);
  a.sim.save(w);
  a.net.save(w);
  w.end_section();

  Side b;
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  b.sim.load(r);
  b.net.load(r);
  r.end_section();
  for (const net::Network::FlowView& v : a.net.flow_views()) {
    if (v.has_callback) b.net.reattach_on_complete(v.id, b.record());
  }
  ASSERT_EQ(b.net.flows_awaiting_callback(), 0u);
  const std::size_t done_before = a.done.size();

  Rng ra(2015), rb(2015);
  std::uint64_t fast = 0, solves = 0;
  for (int step = 0; step < 300; ++step) {
    const auto a0 = counters();
    op(a, ra);
    const auto a1 = counters();
    op(b, rb);
    const auto b1 = counters();
    ASSERT_EQ(b1.first - a1.first, a1.first - a0.first) << "step " << step;
    ASSERT_EQ(b1.second - a1.second, a1.second - a0.second) << "step " << step;
    fast += a1.first - a0.first;
    solves += a1.second - a0.second;

    const std::vector<net::Network::FlowView> va = a.net.flow_views();
    const std::vector<net::Network::FlowView> vb = b.net.flow_views();
    ASSERT_EQ(va.size(), vb.size()) << "step " << step;
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i].id, vb[i].id);
      EXPECT_EQ(*va[i].path, *vb[i].path);
      EXPECT_EQ(va[i].bytes_total, vb[i].bytes_total);
      EXPECT_EQ(va[i].bytes_done, vb[i].bytes_done);
      EXPECT_EQ(va[i].rate, vb[i].rate);
      EXPECT_EQ(va[i].last_settled, vb[i].last_settled);
      EXPECT_EQ(va[i].completion_pending, vb[i].completion_pending);
      EXPECT_EQ(va[i].has_callback, vb[i].has_callback);
    }
    ASSERT_EQ(a.done.size() - done_before, b.done.size()) << "step " << step;
  }
  for (std::size_t i = 0; i < b.done.size(); ++i) {
    EXPECT_EQ(b.done[i], a.done[done_before + i]) << i;
  }
#if ODR_OBS_ENABLED
  // Both decisions were exercised after the restore.
  EXPECT_GT(fast, 0u);
  EXPECT_GT(solves, 0u);
#else
  (void)fast;
  (void)solves;
#endif
}

// --- ledbat ----------------------------------------------------------------

TEST(SnapshotLedbatTest, ControllerResumesItsControlLoop) {
  auto drive = [](sim::Simulator& sim, net::Network& net,
                  proto::LedbatController*& out_ctl, net::FlowId& out_flow) {
    const net::LinkId link = net.add_link("bottleneck", 125000.0);
    net::Network::FlowSpec bg;
    bg.path = {link};
    bg.bytes = 100 * 1000 * 1000;
    bg.rate_cap = 1.0;
    out_flow = net.start_flow(bg);
    out_ctl = new proto::LedbatController(sim, net, out_flow, link, {});
    out_ctl->start();
  };

  sim::Simulator sim_a;
  net::Network net_a(sim_a);
  proto::LedbatController* ctl_a = nullptr;
  net::FlowId flow_a = 0;
  drive(sim_a, net_a, ctl_a, flow_a);
  sim_a.run_until(5 * kMinute);
  const Rate rate_at_5min = ctl_a->current_rate();
  sim_a.run_until(10 * kMinute);
  const Rate rate_at_10min = ctl_a->current_rate();

  sim::Simulator sim_b;
  net::Network net_b(sim_b);
  proto::LedbatController* ctl_b = nullptr;
  net::FlowId flow_b = 0;
  drive(sim_b, net_b, ctl_b, flow_b);
  sim_b.run_until(5 * kMinute);
  SnapshotWriter w;
  w.begin_section(1, 1);
  sim_b.save(w);
  net_b.save(w);
  ctl_b->save(w);
  w.end_section();

  sim::Simulator sim_c;
  net::Network net_c(sim_c);
  const net::LinkId link_c = net_c.add_link("bottleneck", 125000.0);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim_c.load(r);
  net_c.load(r);
  proto::LedbatController ctl_c(sim_c, net_c, flow_b, link_c, {});
  ctl_c.load(r);
  r.end_section();
  EXPECT_EQ(sim_c.unclaimed_rearm_count(), 0u);
  EXPECT_EQ(ctl_c.current_rate(), rate_at_5min);
  sim_c.run_until(10 * kMinute);
  EXPECT_EQ(ctl_c.current_rate(), rate_at_10min);

  delete ctl_a;
  delete ctl_b;
}

// --- chunk store -----------------------------------------------------------

TEST(SnapshotChunkStoreTest, RoundTripPreservesDedupState) {
  Rng rng(7);
  cloud::ChunkStore store(4 * kMB);
  workload::FileInfo donor;
  donor.index = 0;
  donor.size = 64 * kMB;
  donor.content_id = Md5::of("donor");
  auto donor_sigs = cloud::chunk_signatures(donor, 4 * kMB);
  store.add(donor, donor_sigs);
  workload::FileInfo related;
  related.index = 1;
  related.size = 32 * kMB;
  related.content_id = Md5::of("related");
  auto related_sigs = cloud::chunk_signatures(related, 4 * kMB, &donor, 0.5);
  store.add(related, related_sigs);

  SnapshotWriter w;
  w.begin_section(1, 1);
  store.save(w);
  w.end_section();

  cloud::ChunkStore restored(4 * kMB);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  restored.load(r);
  r.end_section();

  EXPECT_EQ(restored.logical_bytes(), store.logical_bytes());
  EXPECT_EQ(restored.stored_bytes(), store.stored_bytes());
  EXPECT_EQ(restored.unique_chunks(), store.unique_chunks());
  // Adding the same file to both must dedup identically.
  workload::FileInfo extra;
  extra.index = 2;
  extra.size = 16 * kMB;
  extra.content_id = Md5::of("extra");
  auto extra_sigs = cloud::chunk_signatures(extra, 4 * kMB, &donor, 0.25);
  const auto add_a = store.add(extra, extra_sigs);
  const auto add_b = restored.add(extra, extra_sigs);
  EXPECT_EQ(add_a.new_bytes, add_b.new_bytes);
  EXPECT_EQ(add_a.new_chunks, add_b.new_chunks);

  cloud::ChunkStore wrong_cfg(8 * kMB);
  SnapshotWriter w2;
  w2.begin_section(1, 1);
  store.save(w2);
  w2.end_section();
  SnapshotReader r2(w2.take());
  r2.require_section(1, 1);
  EXPECT_THROW(wrong_cfg.load(r2), SnapshotError);
}

// --- storage pool ----------------------------------------------------------

TEST(SnapshotStoragePoolTest, RoundTripPreservesLruOrderAndCounters) {
  cloud::StoragePool pool(3000);
  for (int i = 0; i < 3; ++i) {
    pool.insert(Md5::of("f" + std::to_string(i)), i, 1000);
  }
  // Refresh f0 so f1 is now the LRU victim.
  EXPECT_TRUE(pool.lookup(Md5::of("f0")));
  EXPECT_FALSE(pool.lookup(Md5::of("missing")));

  SnapshotWriter w;
  w.begin_section(1, 1);
  pool.save(w);
  w.end_section();

  cloud::StoragePool restored(3000);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  restored.load(r);
  r.end_section();

  EXPECT_EQ(restored.used_bytes(), pool.used_bytes());
  EXPECT_EQ(restored.file_count(), pool.file_count());
  EXPECT_EQ(restored.hits(), pool.hits());
  EXPECT_EQ(restored.misses(), pool.misses());
  // Force one eviction in both; the identical victim proves the recency
  // order survived.
  pool.insert(Md5::of("f3"), 3, 1000);
  restored.insert(Md5::of("f3"), 3, 1000);
  EXPECT_EQ(pool.contains(Md5::of("f1")), restored.contains(Md5::of("f1")));
  EXPECT_FALSE(restored.contains(Md5::of("f1")));  // f1 was LRU
  EXPECT_TRUE(restored.contains(Md5::of("f0")));
  EXPECT_EQ(restored.evictions(), pool.evictions());
}

// --- circuit breaker -------------------------------------------------------

TEST(SnapshotBreakerTest, RoundTripPreservesStateMachine) {
  sim::Simulator sim;
  core::CircuitBreaker::Config cfg;
  cfg.failure_threshold = 3;
  cfg.window = 10 * kMinute;
  cfg.open_duration = 5 * kMinute;
  cfg.half_open_probes = 2;
  core::CircuitBreaker a(sim, cfg);
  for (int i = 0; i < 3; ++i) a.record_failure();
  ASSERT_EQ(a.state(), core::CircuitBreaker::State::kOpen);
  sim.run_until(6 * kMinute);
  ASSERT_TRUE(a.allow());  // half-open, one probe admitted
  a.record_failure();      // doubles the cooldown
  ASSERT_EQ(a.cooldown(), 10 * kMinute);
  sim.run_until(17 * kMinute);
  ASSERT_TRUE(a.allow());  // half-open again, one probe in flight

  SnapshotWriter w;
  w.begin_section(1, 1);
  a.save(w);
  w.end_section();

  core::CircuitBreaker b(sim, cfg);
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  b.load(r);
  r.end_section();

  EXPECT_EQ(b.state(), a.state());
  EXPECT_EQ(b.cooldown(), a.cooldown());
  EXPECT_EQ(b.probes_inflight(), a.probes_inflight());
  EXPECT_EQ(b.times_opened(), a.times_opened());
  EXPECT_EQ(b.refusals(), a.refusals());
  // Both must recover identically from here.
  EXPECT_TRUE(a.allow());
  EXPECT_TRUE(b.allow());
  a.record_success();
  b.record_success();
  a.record_success();
  b.record_success();
  EXPECT_EQ(a.state(), core::CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.state(), core::CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.cooldown(), cfg.open_duration);  // closing resets the backoff
}

// --- hedge coordinator ------------------------------------------------------

TEST(SnapshotHedgeTest, KillBetweenCloneLaunchAndLoserCancelRoundTrips) {
  // The nastiest kill point for a hedged race: one pair is settled (the
  // winner delivered its outcome) but the loser-cancel event has not fired
  // yet, and a second pair is still fully open. Both must survive a
  // checkpoint bit-identically, along with the shared retry budget.
  core::HedgeConfig cfg;
  cfg.enabled = true;
  core::RetryBudget::Config bcfg;
  bcfg.enabled = true;
  core::RetryBudget budget(bcfg);
  core::HedgeCoordinator h(cfg);
  h.set_budget(&budget);

  ASSERT_TRUE(h.try_charge_clone(7, 30 * kSec));
  const std::uint64_t open_race = h.open_pair(101, 0, 2, 30 * kSec);
  ASSERT_TRUE(h.try_charge_clone(9, 40 * kSec));
  const std::uint64_t settled_race = h.open_pair(102, 2, 0, 40 * kSec);
  h.note_clone_done(settled_race);
  h.settle(settled_race, core::HedgeCoordinator::Winner::kSecondary);
  h.note_wasted_bytes(12345);
  h.note_cancelled_clone();

  SnapshotWriter w;
  h.save_section(w);
  w.begin_section(99, 1);
  budget.save(w);
  w.end_section();
  const std::string buf = w.take();

  core::HedgeCoordinator h2(cfg);
  core::RetryBudget budget2(bcfg);
  SnapshotReader r(buf);
  h2.load_section(r);
  ASSERT_EQ(r.enter_section(99), 1u);
  budget2.load(r);
  r.end_section();
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(h2.inflight_pairs(), 2u);
  const auto* settled = h2.find_pair(settled_race);
  ASSERT_NE(settled, nullptr);
  EXPECT_TRUE(settled->settled);
  EXPECT_EQ(settled->winner, core::HedgeCoordinator::Winner::kSecondary);
  EXPECT_EQ(settled->clones_done, 1u);
  EXPECT_EQ(settled->launched_at, 40 * kSec);
  const auto* open = h2.find_pair(open_race);
  ASSERT_NE(open, nullptr);
  EXPECT_FALSE(open->settled);
  EXPECT_EQ(open->clones_done, 0u);
  EXPECT_EQ(h2.pairs_launched(), 2u);
  EXPECT_EQ(h2.secondary_wins(), 1u);
  EXPECT_EQ(h2.wasted_bytes(), 12345u);
  EXPECT_EQ(h2.cancelled_clones(), 1u);
  EXPECT_EQ(budget2.granted(), 2u);

  // Save the restored pair: the bytes must be identical — including the
  // budget's token levels and refill timestamps, so a resumed world grants
  // and denies on the same schedule.
  SnapshotWriter w2;
  h2.save_section(w2);
  w2.begin_section(99, 1);
  budget2.save(w2);
  w2.end_section();
  EXPECT_EQ(w2.take(), buf);

  // And a new pair opened after restore must not collide with a live id.
  const std::uint64_t next = h2.open_pair(103, 0, 1, 50 * kSec);
  EXPECT_GT(next, settled_race);
}

// --- smart AP --------------------------------------------------------------

TEST(SnapshotSmartApTest, MidFlightRoundTripIsBitIdentical) {
  auto make_file = [] {
    workload::FileInfo f;
    f.index = 7;
    f.rank = 1;
    f.size = 200 * 1000 * 1000;
    f.protocol = proto::Protocol::kHttp;
    f.expected_weekly_requests = 50.0;
    f.content_id = Md5::of("file-7");
    f.source_link = "http://origin/file-7";
    return f;
  };
  ap::SmartApConfig ap_cfg;
  ap_cfg.crash_rate_per_hour = 0.2;  // exercise the self-crash timer too

  // Baseline: uninterrupted. A nonzero crash rate keeps a self-crash timer
  // armed forever, so drive by wall clock instead of draining the queue.
  sim::Simulator sim_a;
  net::Network net_a(sim_a);
  Rng rng_a(99);
  ap::SmartAp ap_a(sim_a, net_a, ap_cfg, {}, rng_a);
  std::optional<proto::DownloadResult> res_a;
  SimTime done_at_a = kTimeNever;
  ap_a.predownload(make_file(), kbps_to_rate(512.0),
                   [&](const proto::DownloadResult& res) {
                     res_a = res;
                     done_at_a = sim_a.now();
                   });
  sim_a.run_until(4 * kDay);
  ASSERT_TRUE(res_a.has_value());

  // Same run, checkpointed mid-flight at 2 minutes (the attempt is still
  // in the air then — it resolves at ~5 minutes in the baseline).
  sim::Simulator sim_b;
  net::Network net_b(sim_b);
  Rng rng_b(99);
  ap::SmartAp ap_b(sim_b, net_b, ap_cfg, {}, rng_b);
  ap_b.predownload(make_file(), kbps_to_rate(512.0),
                   [](const proto::DownloadResult&) {});
  sim_b.run_until(2 * kMinute);
  SnapshotWriter w;
  w.begin_section(1, 1);
  sim_b.save(w);
  net_b.save(w);
  ap_b.save(w);
  w.end_section();

  sim::Simulator sim_c;
  net::Network net_c(sim_c);
  Rng rng_c(1234);  // overwritten by load
  ap::SmartAp ap_c(sim_c, net_c, ap_cfg, {}, rng_c);
  std::optional<proto::DownloadResult> res_c;
  SimTime done_at_c = kTimeNever;
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim_c.load(r);
  net_c.load(r);
  ap_c.load(r, [&](std::uint64_t) {
    return [&](const proto::DownloadResult& res) {
      res_c = res;
      done_at_c = sim_c.now();
    };
  });
  r.end_section();
  EXPECT_EQ(sim_c.unclaimed_rearm_count(), 0u);
  sim_c.run_until(4 * kDay);

  ASSERT_TRUE(res_c.has_value());
  EXPECT_EQ(done_at_c, done_at_a);
  EXPECT_EQ(res_c->success, res_a->success);
  EXPECT_EQ(res_c->bytes_downloaded, res_a->bytes_downloaded);
  EXPECT_EQ(res_c->traffic_bytes, res_a->traffic_bytes);
  EXPECT_EQ(res_c->cause, res_a->cause);
  EXPECT_EQ(ap_c.crash_count(), ap_a.crash_count());
  EXPECT_EQ(ap_c.resume_count(), ap_a.resume_count());
}

// --- whole world -----------------------------------------------------------

class WorldTest : public ::testing::Test {
 protected:
  static analysis::ExperimentConfig small_config(std::uint64_t seed) {
    return analysis::make_scaled_config(20000, seed);
  }
  static snapshot::WorldOptions options() {
    snapshot::WorldOptions o;
    o.checkpoint_period = 12 * kHour;
    o.audit_at_checkpoint = true;
    return o;
  }
};

// Kill the world mid-week, restore from the checkpoint buffer, run to
// completion: the final world state must be BYTE-identical to the
// uninterrupted run's.
TEST_F(WorldTest, KillAndResumeIsBitIdentical) {
  const auto cfg = small_config(424242);

  snapshot::CloudWorld baseline(cfg, options());
  const std::uint64_t total_events = baseline.run();
  const std::string final_expected = baseline.save_to_buffer();
  ASSERT_GT(total_events, 100u);

  // A fresh world queues one arrival, not one per request, so its queue is
  // as long at four times the requests.
  {
    const snapshot::CloudWorld fresh(cfg, options());
    const snapshot::CloudWorld larger(
        analysis::make_scaled_config(5000, 424242), options());
    ASSERT_GT(larger.requests().size(), 3 * fresh.requests().size());
    EXPECT_EQ(fresh.pending_arrival_count(), 1u);
    EXPECT_EQ(larger.sim().pending_count(), fresh.sim().pending_count());
  }

  // The event at which the last arrival fires; flows still run after it.
  std::uint64_t last_arrival = 0;
  {
    snapshot::CloudWorld probe(cfg, options());
    while (probe.pending_arrival_count() > 0) last_arrival += probe.run(1);
  }
  ASSERT_LT(last_arrival, total_events);

  // Kill points: before the first arrival fires, mid-week, and just after
  // the last arrival fired.
  for (const std::uint64_t kill_at :
       {std::uint64_t{0}, total_events / 4, total_events * 4 / 5,
        last_arrival}) {
    snapshot::CloudWorld victim(cfg, options());
    victim.run(kill_at);
    ASSERT_EQ(victim.sim().executed_count(), kill_at);
    if (kill_at == last_arrival) {
      EXPECT_EQ(victim.pending_arrival_count(), 0u);
      EXPECT_GT(victim.net().pending_completion_count(), 0u);
    }
    const std::string ckpt = victim.save_to_buffer();

    snapshot::CloudWorld resumed(cfg, options(), ckpt);
    resumed.run();
    EXPECT_EQ(resumed.save_to_buffer(), final_expected)
        << "divergence after kill at event " << kill_at << " of "
        << total_events;
    const auto a = baseline.finalize();
    const auto b = resumed.finalize();
    EXPECT_EQ(b.outcomes.size(), a.outcomes.size());
    EXPECT_EQ(b.cache_hit_ratio, a.cache_hit_ratio);
    EXPECT_EQ(b.fetch_rejections, a.fetch_rejections);
  }
}

TEST_F(WorldTest, KillAndResumeUnderSevereFaultPlan) {
  auto cfg = small_config(77);
  cfg.cloud.degraded_admission = true;
  cfg.fault_plan = fault::make_chaos_plan(3);

  snapshot::CloudWorld baseline(cfg, options());
  const std::uint64_t total_events = baseline.run();
  const std::string final_expected = baseline.save_to_buffer();
  const auto expect = baseline.finalize();
  EXPECT_GT(expect.faults_fired, 0u);

  snapshot::CloudWorld victim(cfg, options());
  victim.run(total_events / 2);
  const std::string ckpt = victim.save_to_buffer();

  snapshot::CloudWorld resumed(cfg, options(), ckpt);
  resumed.run();
  EXPECT_EQ(resumed.save_to_buffer(), final_expected);
  const auto got = resumed.finalize();
  EXPECT_EQ(got.faults_fired, expect.faults_fired);
  EXPECT_EQ(got.vm_crashes, expect.vm_crashes);
  EXPECT_EQ(got.vm_retries, expect.vm_retries);
}

#if ODR_OBS_ENABLED

// PR4 span guard: tasks alive across a checkpoint kill+resume. Spans are
// pure derived state, so (1) the restored run must still land on the
// byte-identical final world, (2) the restore must reset the journal
// (stage intervals recorded by the dead process are gone), and (3) the
// combined processes attribute each task at most once — the victim's
// pre-kill finishes plus the resumed process's finishes never exceed the
// uninterrupted total (straddling tasks whose stages all pre-dated the
// kill are deliberately skipped, not double-counted).
TEST_F(WorldTest, SpansAcrossKillAndResumeNeverDoubleCount) {
  const auto cfg = small_config(424242);
  obs::ObsConfig ocfg;
  ocfg.spans = true;
  ocfg.calibration = true;

  std::uint64_t total_events = 0;
  std::string final_expected;
  std::uint64_t baseline_finished = 0;
  {
    obs::ScopedObserver observer(ocfg);
    snapshot::CloudWorld baseline(cfg, options());
    total_events = baseline.run();
    final_expected = baseline.save_to_buffer();
    ASSERT_NE(observer->journal(), nullptr);
    baseline_finished = observer->journal()->finished();
    EXPECT_GT(baseline_finished, 0u);
    // Every finished span was folded exactly once.
    EXPECT_EQ(observer->attribution()->folded(), baseline_finished);
  }

  obs::ScopedObserver observer(ocfg);
  snapshot::CloudWorld victim(cfg, options());
  victim.run(total_events / 2);
  const std::string ckpt = victim.save_to_buffer();
  const std::uint64_t victim_finished = observer->journal()->finished();
  // The kill leaves tasks mid-flight: their spans are open, unfolded.
  EXPECT_GT(observer->journal()->open_spans(), 0u);
  EXPECT_EQ(observer->attribution()->folded(), victim_finished);

  // Restoring under the SAME observer must begin a fresh journal: the
  // dead process's open spans and counters are gone.
  snapshot::CloudWorld resumed(cfg, options(), ckpt);
  EXPECT_EQ(observer->journal()->finished(), 0u);
  EXPECT_EQ(observer->journal()->open_spans(), 0u);
  resumed.run();
  EXPECT_EQ(resumed.save_to_buffer(), final_expected);

  const std::uint64_t resumed_finished = observer->journal()->finished();
  EXPECT_EQ(observer->attribution()->folded(), resumed_finished);
  EXPECT_GT(resumed_finished, 0u);
  // No task is attributed twice across the two process lifetimes.
  EXPECT_LE(victim_finished + resumed_finished, baseline_finished);
}

#endif  // ODR_OBS_ENABLED

TEST_F(WorldTest, CorruptedCheckpointNeverPartiallyLoads) {
  const auto cfg = small_config(5);
  snapshot::CloudWorld world(cfg, options());
  world.run(500);
  const std::string ckpt = world.save_to_buffer();

  // A flipped byte anywhere in a section payload must be caught by the CRC.
  std::string corrupt = ckpt;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  EXPECT_THROW(snapshot::CloudWorld(cfg, options(), corrupt), SnapshotError);

  // Truncation (a torn write) must be caught too.
  EXPECT_THROW(
      snapshot::CloudWorld(cfg, options(), ckpt.substr(0, ckpt.size() - 9)),
      SnapshotError);

  // Bumped section version: the first section header's version field sits
  // right after the 8-byte file header and 4-byte section id.
  std::string bumped = ckpt;
  bumped[12] = static_cast<char>(bumped[12] + 1);
  EXPECT_THROW(snapshot::CloudWorld(cfg, options(), bumped), SnapshotError);

  // A checkpoint from a different experiment must be refused outright.
  auto other = cfg;
  other.seed = 6;
  EXPECT_THROW(snapshot::CloudWorld(other, options(), ckpt), SnapshotError);
}

TEST_F(WorldTest, RestorerLoadsLatestCheckpointFile) {
  const auto cfg = small_config(31337);
  const std::string path = ::testing::TempDir() + "odr_world_ckpt.bin";

  auto opts = options();
  opts.checkpoint_path = path;
  snapshot::CloudWorld baseline(cfg, opts);
  baseline.run();
  EXPECT_GT(baseline.checkpoints_written(), 0u);
  const std::string final_expected = baseline.save_to_buffer();

  // The file on disk is the LAST periodic checkpoint; restoring it and
  // replaying the tail must land on the identical final state.
  auto resumed = snapshot::Restorer::restore_file(cfg, opts, path);
  resumed->run();
  EXPECT_EQ(resumed->save_to_buffer(), final_expected);
}

}  // namespace
}  // namespace odr
