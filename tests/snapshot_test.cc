// Checkpoint/restore tests: the wire format's loud-failure guarantees,
// per-component round-trips, and whole-world kill/resume bit-identity.
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "cloud/predownloader.h"
#include "cloud/storage_pool.h"
#include "cloud/xuanfeng.h"
#include "core/budget.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "obs/observer.h"
#include "proto/download.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "snapshot/format.h"
#include "sized_catalog.h"
#include "snapshot/state_hash.h"
#include "snapshot/world.h"
#include "util/crc32.h"
#include "util/md5.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/snapshot.h"

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

// --- download task ---------------------------------------------------------

// Starts a `file_size` task on the swarm that make_source builds from
// `before`, 7 minutes off the clock's origin, checkpoints it at
// `checkpoint_at` and restores the checkpoint into a fresh simulator: the
// restored task must save back to the same bytes, wake at the same time,
// make the same draws after it and finish with the same result as an
// uninterrupted control.
void expect_mid_sleep_restore_is_bit_identical(const Rng& before,
                                               Bytes file_size,
                                               SimTime checkpoint_at) {
  const proto::SourceParams params;
  auto make_task = [&](sim::Simulator& sim, net::Network& net,
                       std::optional<proto::DownloadResult>& out) {
    Rng r = before;
    return std::make_unique<proto::DownloadTask>(
        sim, net,
        proto::make_source(proto::Protocol::kBitTorrent, 3.0, params, r),
        file_size, proto::DownloadTask::Config{},
        [&out](const proto::DownloadResult& result) { out = result; });
  };

  // Control: uninterrupted. Both tasks start off the clock's origin, so
  // every restored time field is distinguishable from its default.
  sim::Simulator sim_a;
  net::Network net_a(sim_a);
  Rng rng_a(5);
  std::optional<proto::DownloadResult> result_a;
  auto task_a = make_task(sim_a, net_a, result_a);
  sim_a.run_until(7 * kMinute);
  task_a->start(rng_a);
  sim_a.run();
  ASSERT_TRUE(result_a.has_value());

  // Victim: checkpointed during its sleep.
  sim::Simulator sim_b;
  net::Network net_b(sim_b);
  Rng rng_b(5);
  std::optional<proto::DownloadResult> unused;
  auto task_b = make_task(sim_b, net_b, unused);
  sim_b.run_until(7 * kMinute);
  task_b->start(rng_b);
  const std::uint64_t executed_at_start = sim_b.executed_count();
  sim_b.run_until(checkpoint_at);
  ASSERT_EQ(sim_b.executed_count(), executed_at_start)
      << "the task woke before the checkpoint";
  ASSERT_TRUE(task_b->running());
  ASSERT_TRUE(task_b->event_pending());
  auto save = [](const sim::Simulator& sim, const net::Network& net,
                 const proto::DownloadTask& task, const Rng& rng) {
    SnapshotWriter w;
    w.begin_section(1, 1);
    sim.save(w);
    net.save(w);
    task.save(w);
    snapshot::save_rng(w, 10, rng);
    w.end_section();
    return w.take();
  };
  const std::string ckpt = save(sim_b, net_b, *task_b, rng_b);

  sim::Simulator sim_c;
  net::Network net_c(sim_c);
  Rng rng_c(1);
  std::optional<proto::DownloadResult> result_c;
  SnapshotReader r(ckpt);
  r.require_section(1, 1);
  sim_c.load(r);
  net_c.load(r);
  auto task_c = proto::DownloadTask::restore(
      sim_c, net_c, r, params,
      [&result_c](const proto::DownloadResult& result) { result_c = result; },
      rng_c);
  snapshot::load_rng(r, 10, rng_c);
  r.end_section();
  EXPECT_EQ(sim_c.unclaimed_rearm_count(), 0u);
  EXPECT_EQ(net_c.flows_awaiting_callback(), 0u);
  EXPECT_EQ(save(sim_c, net_c, *task_c, rng_c), ckpt);

  sim_c.run();
  ASSERT_TRUE(result_c.has_value());
  EXPECT_EQ(result_c->success, result_a->success);
  EXPECT_EQ(result_c->cause, result_a->cause);
  EXPECT_EQ(result_c->finished_at, result_a->finished_at);
  EXPECT_EQ(result_c->bytes_downloaded, result_a->bytes_downloaded);
  EXPECT_EQ(result_c->traffic_bytes, result_a->traffic_bytes);
  EXPECT_EQ(result_c->peak_rate, result_a->peak_rate);
  EXPECT_EQ(sim_c.executed_count(), sim_a.executed_count());
  EXPECT_EQ(rng_c.state().s, rng_a.state().s);
  EXPECT_EQ(rng_c.draw_count(), rng_a.draw_count());
}

// A task whose swarm has no seed sleeps until its first seed arrives. A
// checkpoint taken mid-sleep restores the same wake, the same draws after
// it and the same result, and saves back to the same bytes.
TEST(SnapshotTaskTest, TaskRestoredMidSleepIsBitIdentical) {
  const proto::SourceParams params;
  // The rng state from which make_source builds a seedless tail swarm.
  Rng before(21);
  for (;;) {
    Rng probe = before;
    if (proto::make_source(proto::Protocol::kBitTorrent, 3.0, params, probe)
            ->current_rate() == 0.0) {
      break;
    }
    before = probe;
  }
  expect_mid_sleep_restore_is_bit_identical(before, Bytes{64} << 20,
                                            8 * kMinute);
}

// A seeded swarm's task sleeps through the samples before the swarm's
// next birth or death. A checkpoint taken after it skipped a sample, with
// that change still pending, restores the same pending change: the same
// wake, the same draws and the same result.
TEST(SnapshotTaskTest, SeededTaskRestoredMidSleepIsBitIdentical) {
  const proto::SourceParams params;
  constexpr SimTime kPeriod = proto::SwarmSource::kTickPeriod;
  // The rng state from which make_source builds a seeded swarm whose first
  // change, drawn from the task's rng at start, is at least two samples
  // away.
  Rng before(22);
  for (int tries = 0;; ++tries) {
    ASSERT_LT(tries, 10000) << "no seeded swarm sleeps past a sample";
    Rng probe = before;
    auto source =
        proto::make_source(proto::Protocol::kBitTorrent, 3.0, params, probe);
    Rng task_rng(5);
    if (source->current_rate() > 0.0 &&
        source->next_change(task_rng) >= 2 * kPeriod) {
      break;
    }
    before = probe;
  }
  // Large enough that the flow cannot finish before the checkpoint.
  expect_mid_sleep_restore_is_bit_identical(before, Bytes{1} << 30,
                                            7 * kMinute + kPeriod + kMinute);
}

// --- simulator -------------------------------------------------------------

TEST(SnapshotSimTest, RearmRestoresExactEventOrder) {
  sim::Simulator a;
  std::vector<int> fired;
  a.schedule_at(100, [&] { fired.push_back(1); });
  const sim::EventId e2 = a.schedule_at(300, [&] { fired.push_back(2); }).id;
  const sim::EventId e3 = a.schedule_at(300, [&] { fired.push_back(3); }).id;
  const sim::EventId e4 = a.schedule_at(200, [&] { fired.push_back(4); }).id;
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

  // Rearm deliberately out of order: (time, id) must still win.
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
                            [&lazy, k] { lazy.push_back(20 + k); })
                  .id,
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

// Handles name slots of the slab load() empties. One kept across a load
// cancels nothing: its slot is beyond the new slab, or holds another
// event. rearm() hands out the restored events' handles.
TEST(SnapshotSimTest, HandlesDoNotSurviveLoad) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> before;
  for (int i = 0; i < 6; ++i) {
    before.push_back(sim.schedule_at(100 + i, [] {}));
  }
  SnapshotWriter w;
  w.begin_section(1, 1);
  sim.save(w);
  w.end_section();
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim.load(r);
  r.end_section();

  for (const sim::EventHandle& h : before) EXPECT_FALSE(sim.cancel(h));
  // The last two events come back in slots 0 and 1, which held the first
  // two before the load.
  int ran = 0;
  const sim::EventHandle last = sim.rearm(before[5].id, [&ran] { ++ran; });
  const sim::EventHandle fifth = sim.rearm(before[4].id, [&ran] { ++ran; });
  EXPECT_EQ(last.slot, 0u);
  EXPECT_EQ(fifth.slot, 1u);
  for (const sim::EventHandle& h : before) EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.pending_count(), 2u);
  EXPECT_TRUE(sim.cancel(fifth));
  for (int i = 0; i < 4; ++i) sim.rearm(before[i].id, [] {});
  sim.run();
  EXPECT_EQ(ran, 1);
}

// --- network ---------------------------------------------------------------

// reattach_on_complete() claims a restored flow by id and hands back its
// handle; a handle kept across the load reads nothing, and an id that is
// not awaiting a callback is refused by name.
TEST(SnapshotNetTest, ReattachReturnsTheHandleAndRefusesOtherIds) {
  sim::Simulator sim;
  net::Network net(sim);
  net.add_link("uplink", 1000.0);
  std::vector<net::FlowHandle> before;
  for (int i = 0; i < 3; ++i) {
    before.push_back(net.start_flow({{0}, 5000, 100.0, [](net::FlowId) {}}));
  }
  const net::FlowHandle silent = net.start_flow({{0}, 5000, 100.0, nullptr});
  ASSERT_TRUE(net.cancel_flow(before[0]));
  SnapshotWriter w;
  w.begin_section(1, 1);
  sim.save(w);
  net.save(w);
  w.end_section();
  SnapshotReader r(w.take());
  r.require_section(1, 1);
  sim.load(r);
  net.load(r);
  r.end_section();

  // Three flows restore into slots 0-2; `silent` sat in slot 3.
  EXPECT_EQ(net.flow_slab_capacity(), 3u);
  EXPECT_FALSE(net.flow_active(silent));
  EXPECT_FALSE(net.cancel_flow(silent));
  for (const net::FlowHandle& h : before) EXPECT_FALSE(net.flow_active(h));

  int done = 0;
  const net::FlowHandle second =
      net.reattach_on_complete(before[2].id, [&done](net::FlowId) { ++done; });
  EXPECT_EQ(second.id, before[2].id);
  EXPECT_TRUE(net.flow_active(second));
  EXPECT_EQ(net.flow_stats(second).bytes_total, 5000u);

  const auto refused = [&net](net::FlowId id) {
    try {
      net.reattach_on_complete(id, [](net::FlowId) {});
      return std::string("accepted");
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
  };
  // Cancelled before the save, saved without a callback, already claimed.
  for (const net::FlowId id : {before[0].id, silent.id, before[2].id}) {
    const std::string what = refused(id);
    EXPECT_NE(what.find("flow " + std::to_string(id)), std::string::npos)
        << what;
    EXPECT_NE(what.find("not awaiting"), std::string::npos) << what;
  }
  EXPECT_EQ(net.flows_awaiting_callback(), 1u);
  const net::FlowHandle first =
      net.reattach_on_complete(before[1].id, [&done](net::FlowId) { ++done; });
  EXPECT_TRUE(net.cancel_flow(first));
  sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

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
  spec.link = 0;
  spec.bytes = 10000;
  spec.on_complete = [&](net::FlowId id) { done_a.push_back({id, sim_a.now()}); };
  net_a->start_flow(spec);
  sim_a.run_until(3 * kSec);
  net::Network::FlowSpec spec2 = spec;
  spec2.bytes = 4000;
  spec2.on_complete = [&](net::FlowId id) { done_a.push_back({id, sim_a.now()}); };
  const net::FlowId f2 = net_a->start_flow(spec2).id;
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
  const net::FlowId b1 = net_b->start_flow(spec_b).id;
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
    net->add_link("uplink", 200.0);
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
        spec.link = 0;
        spec.bytes = 1000 + 700 * i + 130 * wave;
        spec.on_complete = [&sim, done](net::FlowId id) {
          done->push_back({id, sim.now()});
        };
        started.push_back(net.start_flow(spec).id);
      }
      sim.run();
    }
    // Survivors: long flows that will straddle the checkpoint, started
    // into recycled slots.
    for (int i = 0; i < 3; ++i) {
      net::Network::FlowSpec spec;
      spec.link = 0;
      spec.bytes = 400000 + 50000 * i;
      spec.on_complete = [&sim, done](net::FlowId id) {
        done->push_back({id, sim.now()});
      };
      started.push_back(net.start_flow(spec).id);
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
  tail.link = 0;
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
    std::map<net::FlowId, net::FlowHandle> handles;  // started or reattached
    Side() {
      net.add_link("narrow", 400.0);  // saturates: forces full solves
      net.add_link("wide-a", 5e4);
      net.add_link("wide-b", 8e4);
    }
    net::FlowCallback record() {
      return [this](net::FlowId id) { done.push_back({id, sim.now()}); };
    }
  };
  const std::vector<std::optional<net::LinkId>> links = {std::nullopt, 0, 1,
                                                        2};
  const auto op = [&links](Side& s, Rng& rng) {
    const std::vector<net::Network::FlowView> views = s.net.flow_views();
    const double action = rng.uniform();
    const Rate cap =
        rng.bernoulli(0.05) ? net::kUnlimitedRate : rng.uniform(10.0, 300.0);
    if (action < 0.5 || views.empty()) {
      const Bytes size = 1000 + rng.uniform_index(100000);
      const net::FlowHandle h = s.net.start_flow(
          {links[rng.uniform_index(links.size())], size, cap, s.record()});
      s.handles[h.id] = h;
    } else if (action < 0.65) {
      s.net.cancel_flow(
          s.handles.at(views[rng.uniform_index(views.size())].id));
    } else if (action < 0.85) {
      s.net.set_flow_cap(
          s.handles.at(views[rng.uniform_index(views.size())].id), cap);
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
    if (v.has_callback) {
      b.handles[v.id] = b.net.reattach_on_complete(v.id, b.record());
    }
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
      EXPECT_EQ(va[i].link, vb[i].link);
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
  // Both decisions were exercised after the restore.
  EXPECT_GT(fast, 0u);
  EXPECT_GT(solves, 0u);
}

// A flow crosses at most one link, so load() refuses a saved flow whose
// path is longer, naming the flow and the length, as it refuses an
// out-of-range link. The section is written field by field, as
// Network::save lays it out.
TEST(SnapshotNetTest, LoadRefusesAFlowCrossingTwoLinks) {
  const auto section = [](std::vector<net::LinkId> path) {
    SnapshotWriter w;
    w.begin_section(1, 1);
    w.u8(1, 0);  // kMaxMinFair
    w.u64(2, 2);
    w.f64(3, 500.0);
    w.f64(3, 200.0);
    w.u64(4, 8);
    w.u64(5, 1);
    w.u64(6, 7);
    w.u64(7, path.size());
    for (const net::LinkId l : path) w.u32(8, l);
    w.u64(9, 1000);
    w.f64(10, 100.0);
    w.f64(11, 0.0);
    w.f64(12, net::kUnlimitedRate);
    w.f64(13, 0.0);
    w.f64(18, 0.0);
    w.i64(14, 0);
    w.i64(15, 0);
    w.u64(16, sim::kInvalidEvent);
    w.b(17, false);
    w.end_section();
    return w.take();
  };
  const auto restore = [](sim::Simulator& sim, std::string bytes) {
    auto net = std::make_unique<net::Network>(sim);
    net->add_link("trunk", 500.0);
    net->add_link("leg", 200.0);
    SnapshotReader r(std::move(bytes));
    r.require_section(1, 1);
    net->load(r);
    r.end_section();
    return net;
  };

  sim::Simulator sim_one;
  const auto one = restore(sim_one, section({1}));
  ASSERT_EQ(one->flow_views().size(), 1u);
  EXPECT_EQ(one->flow_views()[0].link, std::optional<net::LinkId>(1));
  EXPECT_EQ(one->link_flow_count(1), 1u);

  sim::Simulator sim_two;
  try {
    restore(sim_two, section({0, 1}));
    FAIL() << "a two-link flow was restored";
  } catch (const SnapshotError& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("flow #7"), std::string::npos) << what;
    EXPECT_NE(what.find("path of 2 links"), std::string::npos) << what;
  }
}

// --- storage pool ----------------------------------------------------------

std::string save_pool(const cloud::StoragePool& pool) {
  SnapshotWriter w;
  w.begin_section(1, 1);
  pool.save(w);
  w.end_section();
  return w.take();
}

void load_pool(cloud::StoragePool& pool, std::string bytes) {
  SnapshotReader r(std::move(bytes));
  r.require_section(1, 1);
  pool.load(r);
  r.end_section();
}

TEST(SnapshotStoragePoolTest, RoundTripPreservesLruOrderAndCounters) {
  const workload::Catalog catalog = sized_catalog({1000, 1000, 1000, 1000});
  cloud::StoragePool pool(catalog, 3000);
  for (workload::FileIndex f = 0; f < 3; ++f) pool.insert(f);
  // Refresh 0 so 1 is now the LRU victim.
  EXPECT_TRUE(pool.lookup(0));
  EXPECT_FALSE(pool.lookup(3));

  cloud::StoragePool restored(catalog, 3000);
  load_pool(restored, save_pool(pool));

  EXPECT_EQ(restored.used_bytes(), pool.used_bytes());
  EXPECT_EQ(restored.file_count(), pool.file_count());
  EXPECT_EQ(restored.hits(), pool.hits());
  EXPECT_EQ(restored.misses(), pool.misses());
  // Force one eviction in both; the identical victim proves the recency
  // order survived.
  pool.insert(3);
  restored.insert(3);
  EXPECT_EQ(pool.contains(1), restored.contains(1));
  EXPECT_FALSE(restored.contains(1));  // 1 was LRU
  EXPECT_TRUE(restored.contains(0));
  EXPECT_EQ(restored.evictions(), pool.evictions());
  EXPECT_EQ(save_pool(restored), save_pool(pool));
}

// A pool section written field by field: `entries` are {file, md5 source,
// size}, MRU first.
struct RawEntry {
  std::uint32_t file;
  std::string md5_of;
  std::uint64_t size;
};

std::string raw_pool_section(std::uint64_t capacity,
                             const std::vector<RawEntry>& entries) {
  SnapshotWriter w;
  w.begin_section(1, 1);
  for (std::uint16_t tag = 1; tag <= 4; ++tag) w.u64(tag, 0);  // counters
  w.u64(5, capacity);
  w.u64(6, entries.size());
  for (const RawEntry& e : entries) {
    const Md5Digest key = Md5::of(e.md5_of);
    w.bytes(7, key.bytes.data(), key.bytes.size());
    w.u32(8, e.file);
    w.u64(9, e.size);
  }
  w.end_section();
  return w.take();
}

TEST(SnapshotStoragePoolTest, LoadRejectsEntriesTheCatalogContradicts) {
  const workload::Catalog catalog = sized_catalog({1000, 2000});
  cloud::StoragePool pool(catalog, 2500);
  // The well-formed baseline loads.
  load_pool(pool, raw_pool_section(2500, {{1, "f1", 2000}}));
  EXPECT_TRUE(pool.contains(1));

  struct Case {
    std::vector<RawEntry> entries;
    std::string why;
  };
  const std::vector<Case> cases = {
      {{{2, "f2", 1000}}, "names file 2 of 2"},
      {{{0, "f0", 1000}, {0, "f0", 1000}}, "lists file 0 twice"},
      {{{0, "f1", 1000}}, "MD5 that differs from file 0's"},
      {{{0, "f0", 999}}, "size that differs from file 0's"},
      {{{1, "f1", 2000}, {0, "f0", 1000}}, "above its capacity"},
  };
  for (const Case& c : cases) {
    cloud::StoragePool fresh(catalog, 2500);
    try {
      load_pool(fresh, raw_pool_section(2500, c.entries));
      ADD_FAILURE() << "loaded a pool that " << c.why;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), snapshot::SnapshotErrorKind::kCorrupt);
      EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
          << e.what();
    }
  }
}

TEST(SnapshotStoragePoolTest, SectionBytesArePinned) {
  // Checkpoint format stability: MD5, file index and size per entry,
  // MRU->LRU, after a fixed sequence of operations.
  const workload::Catalog catalog = sized_catalog({1000, 2000, 500});
  cloud::StoragePool pool(catalog, 3000);
  pool.insert(0);
  pool.insert(1);
  EXPECT_TRUE(pool.lookup(0));
  EXPECT_FALSE(pool.lookup(2));
  pool.insert(2);             // evicts 1
  pool.insert(1);             // evicts 0
  pool.evict_fraction(0.5);   // node loss takes 2
  pool.insert(2);             // MRU->LRU: 2, 1
  EXPECT_EQ(crc32c(save_pool(pool)), 0x6F42606Eu);
}

// --- retry budget ----------------------------------------------------------

TEST(SnapshotRetryBudgetTest, SaveLoadSaveIsByteIdentical) {
  // The vm section writes the pool's shared retry budget. A restored
  // budget must save to the same bytes — token levels and refill
  // timestamps included — so a resumed world grants and denies on the
  // same schedule.
  core::RetryBudget::Config cfg;
  cfg.enabled = true;
  core::RetryBudget budget(cfg);
  ASSERT_TRUE(budget.try_acquire(7, 30 * kSec));
  ASSERT_TRUE(budget.try_acquire(9, 40 * kSec));
  ASSERT_TRUE(budget.try_acquire_global(50 * kSec));

  SnapshotWriter w;
  w.begin_section(99, 1);
  budget.save(w);
  w.end_section();
  const std::string buf = w.take();

  core::RetryBudget restored(cfg);
  SnapshotReader r(buf);
  ASSERT_EQ(r.enter_section(99), 1u);
  restored.load(r);
  r.end_section();
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.granted(), 3u);

  SnapshotWriter w2;
  w2.begin_section(99, 1);
  restored.save(w2);
  w2.end_section();
  EXPECT_EQ(w2.take(), buf);
}

// --- VM pool ---------------------------------------------------------------

// A one-VM pool over `catalog` with deterministic 1000 B/s HTTP origins; its
// owner records each terminal result by file index.
struct PoolRig {
  static cloud::CloudConfig config() {
    cloud::CloudConfig c;
    c.predownloader_count = 1;
    return c;
  }
  static proto::SourceParams sources() {
    proto::SourceParams p;
    p.server.rate_median = 1000.0;
    p.server.rate_sigma = 0.0;
    p.server.connection_break_prob = 0.0;
    return p;
  }

  explicit PoolRig(const workload::Catalog& catalog)
      : pool(sim, net, catalog, config(), sources(), rng,
             [this](workload::FileIndex file,
                    const proto::DownloadResult& result) {
               results.emplace_back(file, result);
             }) {}

  std::string save() const {
    SnapshotWriter w;
    w.begin_section(1, 1);
    sim.save(w);
    net.save(w);
    pool.save(w);
    w.end_section();
    return w.take();
  }
  void load(std::string bytes) {
    SnapshotReader r(std::move(bytes));
    r.require_section(1, 1);
    sim.load(r);
    net.load(r);
    pool.load(r);
    r.end_section();
  }

  sim::Simulator sim;
  net::Network net{sim};
  Rng rng{3};
  std::vector<std::pair<workload::FileIndex, proto::DownloadResult>> results;
  cloud::PreDownloaderPool pool;
};

// `n` HTTP files; file i is (i + 1) * 100 kB.
workload::Catalog http_catalog(std::size_t n) {
  std::vector<Bytes> sizes;
  for (std::size_t i = 0; i < n; ++i) sizes.push_back((i + 1) * 100000);
  std::vector<workload::FileInfo> files = sized_catalog(sizes).files();
  for (workload::FileInfo& f : files) f.protocol = proto::Protocol::kHttp;
  return workload::Catalog(std::move(files));
}

// The pool names each pre-download by catalog index. A checkpoint taken
// while file 15 of 20 is active, queued or retrying restores over the same
// catalog: it saves back to the same bytes and finishes every file as the
// uninterrupted pool does, at the sizes the catalog gives. Over a 10-file
// catalog it is refused, naming the entry and the index.
TEST(SnapshotPoolTest, EntriesNameTheirFileByIndexCheckedOnLoad) {
  const workload::Catalog catalog = http_catalog(20);
  const workload::Catalog small = http_catalog(10);
  struct Case {
    const char* kind;
    std::vector<workload::FileIndex> submits;
    bool crash;
  };
  const std::vector<Case> cases = {
      {"active", {15}, false},
      {"queued", {3, 15}, false},
      {"retrying", {15}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    PoolRig original(catalog);
    for (const workload::FileIndex f : c.submits) original.pool.submit(f);
    original.sim.run_until(100 * kSec);
    if (c.crash) {
      Rng crash_rng(9);
      ASSERT_EQ(original.pool.inject_crashes(1.0, crash_rng), 1u);
      ASSERT_EQ(original.pool.active(), 0u);
      ASSERT_EQ(original.pool.pending_event_count(), 1u);  // the backoff
    }
    const std::string ckpt = original.save();

    PoolRig too_small(small);
    try {
      too_small.load(ckpt);
      ADD_FAILURE() << "a pool naming file 15 loaded over 10 files";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), snapshot::SnapshotErrorKind::kCorrupt);
      const std::string what(e.what());
      EXPECT_NE(what.find(std::string(c.kind) + " pre-download names file 15"),
                std::string::npos)
          << what;
    }

    PoolRig restored(catalog);
    restored.load(ckpt);
    EXPECT_EQ(restored.sim.unclaimed_rearm_count(), 0u);
    EXPECT_EQ(restored.net.flows_awaiting_callback(), 0u);
    EXPECT_EQ(restored.save(), ckpt);
    original.sim.run();
    restored.sim.run();
    ASSERT_EQ(restored.results.size(), c.submits.size());
    ASSERT_EQ(original.results.size(), c.submits.size());
    for (std::size_t i = 0; i < c.submits.size(); ++i) {
      const auto& [file, result] = restored.results[i];
      EXPECT_EQ(file, original.results[i].first);
      EXPECT_TRUE(result.success);
      EXPECT_EQ(result.bytes_downloaded, catalog.file(file).size);
      EXPECT_EQ(result.finished_at, original.results[i].second.finished_at);
    }
  }
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

// Mid-week, the VM pool holds seeded tasks asleep toward a pending birth
// or death. A world checkpointed then and restored must reach the same
// final state hash and outcome fingerprint as the uninterrupted week.
TEST_F(WorldTest, RestoreAmidSleepingSeededTasksReachesTheSameEnd) {
  const auto cfg = analysis::make_scaled_config(4000, 20151028);
  snapshot::CloudWorld baseline(cfg, options());
  const std::uint64_t total_events = baseline.run();
  ASSERT_GT(total_events, 1000u);
  const snapshot::StateHash want = baseline.hash_now();
  const std::uint64_t want_fp =
      analysis::outcome_fingerprint(baseline.finalize().outcomes);

  for (const std::uint64_t at : {total_events / 3, total_events / 2}) {
    snapshot::CloudWorld victim(cfg, options());
    ASSERT_EQ(victim.run(at), at);
    snapshot::CloudWorld resumed(cfg, options(), victim.save_to_buffer());
    resumed.run();
    const snapshot::StateHash got = resumed.hash_now();
    EXPECT_EQ(got.combined, want.combined) << "checkpoint at event " << at;
    EXPECT_TRUE(snapshot::divergent_subsystems(got, want).empty())
        << "checkpoint at event " << at;
    EXPECT_EQ(analysis::outcome_fingerprint(resumed.finalize().outcomes),
              want_fp)
        << "checkpoint at event " << at;
  }
}

// A restore skips the warm-up: it reloads the pool and content DB the
// warm-up would fill. The restored world must hash equal to its source at
// every checkpoint, including one taken before the first event, where the
// caches hold exactly what the source's warm-up wrote.
TEST_F(WorldTest, RestoreWithoutWarmUpHashesEqualToItsSource) {
  const auto cfg = analysis::make_scaled_config(4000, 20151028);
  std::uint64_t total_events = 0;
  {
    snapshot::CloudWorld probe(cfg, options());
    total_events = probe.run();
  }
  ASSERT_GT(total_events, 1000u);
  for (const std::uint64_t at :
       {std::uint64_t{0}, std::uint64_t{1}, total_events / 3,
        total_events * 2 / 3, total_events}) {
    snapshot::CloudWorld source(cfg, options());
    ASSERT_EQ(source.run(at), at);
    const snapshot::StateHash want = source.hash_now();
    const snapshot::CloudWorld restored(cfg, options(),
                                        source.save_to_buffer());
    const snapshot::StateHash got = restored.hash_now();
    // last_event_id is not state: a restored world has run no event yet.
    EXPECT_EQ(got.combined, want.combined) << "checkpoint at event " << at;
    EXPECT_TRUE(snapshot::divergent_subsystems(got, want).empty())
        << "checkpoint at event " << at;
    EXPECT_EQ(got.executed, want.executed);
    EXPECT_EQ(got.time, want.time);
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

TEST_F(WorldTest, MetaVersionOneCheckpointIsRefused) {
  // Meta v1 checkpoints held one composite cloud-state section; this build
  // refuses them at the first section, before any state loads.
  const auto cfg = small_config(5);
  snapshot::CloudWorld world(cfg, options());
  world.run(500);
  std::string old = world.save_to_buffer();
  ASSERT_EQ(old[12], 2);  // the meta section's version, little-endian
  old[12] = 1;
  try {
    snapshot::CloudWorld restored(cfg, options(), old);
    FAIL() << "a meta v1 checkpoint restored";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(static_cast<int>(e.kind()),
              static_cast<int>(snapshot::SnapshotErrorKind::kCorrupt));
    const std::string what(e.what());
    EXPECT_NE(what.find("checkpoint has v1"), std::string::npos) << what;
  }
}

// Offset of section `id`'s frame in a checkpoint buffer: past the 8-byte
// file header, each frame is id u32, version u32, payload length u64 and
// CRC u32, then the payload (all little-endian).
std::size_t section_frame(const std::string& buf, std::uint32_t id) {
  auto le = [&buf](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(buf[at + i]);
    }
    return v;
  };
  std::size_t pos = 8;
  while (pos + 20 <= buf.size()) {
    if (le(pos, 4) == id) return pos;
    pos += 20 + le(pos + 8, 8);
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

TEST_F(WorldTest, VmSectionVersionOneIsRefused) {
  // A v1 vm section serialized an external-seed count per swarm, a v2 one
  // a server source's break clock and flags, in a v3 one a seeded task's
  // wake was a plain 5-minute sample with no pending change, and a v4 one
  // wrote a whole file record per entry; this build refuses all four with
  // the section-version diagnostic.
  const auto cfg = small_config(5);
  snapshot::CloudWorld world(cfg, options());
  world.run(500);
  const std::string current = world.save_to_buffer();
  const std::size_t vm =
      section_frame(current, snapshot::section_id(snapshot::Subsystem::kVm));
  ASSERT_EQ(current[vm + 4], 5);  // the vm section's version, little-endian
  for (const char version : {1, 2, 3, 4}) {
    std::string old = current;
    old[vm + 4] = version;
    try {
      snapshot::CloudWorld restored(cfg, options(), old);
      FAIL() << "a vm v" << int{version} << " section restored";
    } catch (const SnapshotError& e) {
      const std::string what(e.what());
      EXPECT_NE(what.find("version mismatch: checkpoint has v" +
                          std::to_string(version)),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(WorldTest, WorldSectionVersionOneIsRefused) {
  // A v1 world section held every outcome record; v2 holds their count
  // and running CRC, and the records trail in the log section.
  const auto cfg = small_config(5);
  snapshot::CloudWorld world(cfg, options());
  world.run(500);
  std::string old = world.save_to_buffer();
  const std::size_t at =
      section_frame(old, snapshot::section_id(snapshot::Subsystem::kWorld));
  ASSERT_EQ(old[at + 4], 2);  // the world section's version, little-endian
  old[at + 4] = 1;
  try {
    snapshot::CloudWorld restored(cfg, options(), old);
    FAIL() << "a world v1 section restored";
  } catch (const SnapshotError& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("version mismatch: checkpoint has v1"),
              std::string::npos)
        << what;
  }
}

// `ckpt` with section `id`'s payload replaced by `payload`, the frame's
// length and CRC patched to match, so only a cross-check can reject it.
std::string with_section_payload(const std::string& ckpt, std::uint32_t id,
                                 const std::string& payload) {
  const std::size_t at = section_frame(ckpt, id);
  std::uint64_t old_len = 0;
  for (int i = 7; i >= 0; --i) {
    old_len = (old_len << 8) | static_cast<unsigned char>(ckpt[at + 8 + i]);
  }
  std::string out =
      ckpt.substr(0, at + 20) + payload + ckpt.substr(at + 20 + old_len);
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32c(payload);
  for (int i = 0; i < 8; ++i) {
    out[at + 8 + i] = static_cast<char>(len >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    out[at + 16 + i] = static_cast<char>(crc >> (8 * i));
  }
  return out;
}

TEST_F(WorldTest, LogThatDisagreesWithTheWorldSectionIsRefused) {
  const auto cfg = small_config(5);
  snapshot::CloudWorld world(cfg, options());
  world.run(4000);
  ASSERT_GT(world.outcomes().size(), 1u);
  const std::string ckpt = world.save_to_buffer();
  // The log is the last frame: an id outside the subsystem sections.
  const std::size_t log = section_frame(ckpt, 2);
  const std::string records = ckpt.substr(log + 20);
  ASSERT_EQ(with_section_payload(ckpt, 2, records), ckpt);

  // One record edited: the first record's task id (after its u16 tag).
  std::string edited = records;
  edited[2] = static_cast<char>(edited[2] ^ 0x01);
  // Every record twice: a count the world section does not record.
  for (const std::string& payload : {edited, records + records}) {
    try {
      snapshot::CloudWorld restored(cfg, options(),
                                    with_section_payload(ckpt, 2, payload));
      ADD_FAILURE() << "a log that disagrees with the world section restored";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(static_cast<int>(e.kind()),
                static_cast<int>(snapshot::SnapshotErrorKind::kCorrupt));
      EXPECT_EQ(e.section(), 2u);
      const std::string what(e.what());
      EXPECT_NE(what.find("outcome log (section 0x00000002)"),
                std::string::npos)
          << what;
    }
  }
}

// The tasks section names files by catalog index. load() refuses an
// in-flight file past the catalog, a waiter filed under another file and an
// active fetch whose outcome names a file past the catalog, each with the
// field named. The section is written field by field, as
// XuanfengCloud::save lays it out, into a real cloud checkpoint.
TEST(SnapshotCloudTest, LoadRefusesTaskFilesTheCatalogLacks) {
  const workload::Catalog catalog = sized_catalog({1000, 2000, 3000, 4000});
  const proto::SourceParams sources;
  const cloud::CloudConfig config;
  struct Waiter {
    workload::FileIndex file;
  };
  struct Section {
    std::vector<std::pair<workload::FileIndex, std::vector<Waiter>>> inflight;
    std::vector<workload::FileIndex> fetches;  // each fetch's outcome file
  };
  const auto tasks_payload = [](const Section& t) {
    SnapshotWriter w;
    w.begin_section(1, 1);
    w.u64(10, t.inflight.size());
    for (const auto& [file, waiters] : t.inflight) {
      w.u32(11, file);
      w.u64(12, waiters.size());
      for (const Waiter& waiter : waiters) {
        workload::WorkloadRecord rec;
        rec.task_id = 7;
        rec.file = waiter.file;
        workload::save_workload_record(w, rec);
        w.u8(14, static_cast<std::uint8_t>(net::Isp::kTelecom));
        w.f64(15, 1000.0);
        w.i64(13, 0);
      }
    }
    w.u64(20, t.fetches.size());
    for (const workload::FileIndex file : t.fetches) {
      w.u64(21, 1);
      workload::TaskOutcome outcome;
      outcome.task_id = 8;
      outcome.file = file;
      workload::save_task_outcome(w, outcome);
      w.b(50, true);
      w.u8(51, static_cast<std::uint8_t>(net::Isp::kTelecom));
      w.b(52, true);
      w.f64(53, 1000.0);
      w.u32(54, 0);
      w.b(55, false);
      w.f64(23, 1.08);
    }
    w.end_section();
    return w.take().substr(8 + 20);  // past the file and frame headers
  };

  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(5);
  const cloud::XuanfengCloud source(sim, net, catalog, sources, config, rng);
  SnapshotWriter w;
  source.save(w);
  const std::string ckpt = w.take();
  const std::uint32_t tasks = snapshot::section_id(snapshot::Subsystem::kTasks);
  const auto load = [&](const Section& t) {
    sim::Simulator sim2;
    net::Network net2(sim2);
    Rng rng2(5);
    cloud::XuanfengCloud cloud(sim2, net2, catalog, sources, config, rng2);
    SnapshotReader r(with_section_payload(ckpt, tasks, tasks_payload(t)));
    cloud.load(r, nullptr);
    return cloud.inflight_predownload_count();
  };

  // The well-formed baseline loads.
  EXPECT_EQ(load({{{1, {{1}, {1}}}}, {}}), 1u);

  struct Case {
    Section section;
    std::string why;
  };
  const std::vector<Case> cases = {
      {{{{4, {}}}, {}}, "in-flight file 4 is past the catalog's 4 files"},
      {{{{1, {{1}, {2}}}}, {}},
       "waiter request.file 2 differs from its in-flight file 1"},
      {{{}, {4}}, "active fetch outcome file 4 is past the catalog's 4 files"},
  };
  for (const Case& c : cases) {
    try {
      load(c.section);
      ADD_FAILURE() << "loaded a tasks section with " << c.why;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), snapshot::SnapshotErrorKind::kCorrupt);
      EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
          << e.what();
    }
  }
}

// A checkpoint restores only under the configuration it was taken with:
// a restore under a different admission policy or swarm model would run
// the rest of the week under rules the first half never saw.
void expect_config_mismatch(const analysis::ExperimentConfig& taken,
                            const analysis::ExperimentConfig& restored,
                            const snapshot::WorldOptions& options) {
  snapshot::CloudWorld world(taken, options);
  world.run(500);
  const std::string ckpt = world.save_to_buffer();
  try {
    snapshot::CloudWorld resumed(restored, options, ckpt);
    ADD_FAILURE() << "restored under a different configuration";
  } catch (const SnapshotError& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("fingerprint mismatch"), std::string::npos) << what;
  }
}

TEST_F(WorldTest, RestoreUnderOtherAdmissionPolicyIsRefused) {
  const auto cfg = small_config(5);
  auto degraded = cfg;
  degraded.cloud.degraded_admission = !cfg.cloud.degraded_admission;
  expect_config_mismatch(cfg, degraded, options());
}

TEST_F(WorldTest, RestoreUnderOtherSwarmModelIsRefused) {
  const auto cfg = small_config(5);
  auto sparser = cfg;
  sparser.sources.swarm.base_seed_mean = cfg.sources.swarm.base_seed_mean / 2;
  expect_config_mismatch(cfg, sparser, options());
}

TEST_F(WorldTest, RestoreUnderOtherProtocolMixIsRefused) {
  const auto cfg = small_config(5);
  auto fewer_torrents = cfg;
  fewer_torrents.catalog.bittorrent_fraction = 0.30;
  expect_config_mismatch(cfg, fewer_torrents, options());
}

TEST_F(WorldTest, RestoreUnderOtherUserBandwidthIsRefused) {
  const auto cfg = small_config(5);
  auto faster = cfg;
  faster.users.bandwidth_median = 2 * cfg.users.bandwidth_median;
  expect_config_mismatch(cfg, faster, options());
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
  snapshot::CloudWorld resumed(cfg, opts, snapshot::read_snapshot_file(path));
  resumed.run();
  EXPECT_EQ(resumed.save_to_buffer(), final_expected);
}

}  // namespace
}  // namespace odr
