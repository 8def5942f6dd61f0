// Micro-benchmarks of the core substrates (google-benchmark).
//
// These measure the building blocks whose throughput bounds experiment
// wall-time: the event queue, the max-min fair solver, MD5 hashing, the
// popularity profile, catalog build and sampler, request generation, and
// the swarm advance.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/md5.h"
#include "proto/swarm.h"
#include "util/rng.h"
#include "analysis/replay.h"
#include "workload/catalog.h"
#include "workload/popularity.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    odr::sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at((i * 7919) % 100000, [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MaxMinFairReallocation(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  // Set up once, outside the timed loop. The n flows start on an unlimited
  // link, each on the O(1) fast path; narrowing the link to half their
  // summed caps then costs one solve and leaves every later start a full
  // solve of the link.
  odr::sim::Simulator sim;
  odr::net::Network net(sim);
  const odr::net::LinkId link = net.add_link("l", odr::net::kUnlimitedRate);
  for (int i = 0; i < flows; ++i) {
    net.start_flow({{link}, 1ull << 32, 1e5 + i * 997.0, nullptr});
  }
  net.set_link_capacity(link, 5e4 * flows);
  for (auto _ : state) {
    // One more flow triggers a full solve of the link.
    const odr::net::FlowHandle extra =
        net.start_flow({{link}, 1ull << 32, 5e5, nullptr});
    state.PauseTiming();
    net.cancel_flow(extra);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinFairReallocation)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

// Full re-solves of one saturated link whose flows all cross it alone —
// a cloud upload cluster. range(0) flows with caps from 100 to 500 kB/s
// (1,000 distinct values, so ties at 10,000 flows) share a link of
// 200 kB/s per flow, so some run at their
// caps and the rest at the fair level. Each iteration starts one more such
// flow and cancels it: two full solves of the link. Items are flows
// solved, so ns per flow = 1e9 / items_per_second. 75 flows is a cluster
// link's load at divisor 100, 10,000 at divisor 1.
void BM_SaturatedLinkResolve(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  odr::sim::Simulator sim;
  odr::net::Network net(sim);
  const odr::net::LinkId link = net.add_link("cluster", odr::net::kUnlimitedRate);
  const auto cap_of = [](std::int64_t i) {
    return 1e5 + static_cast<double>(i * 7919 % 1000) * 400.0;
  };
  for (int i = 0; i < flows; ++i) {
    net.start_flow({{link}, 1ull << 40, cap_of(i), nullptr});
  }
  net.set_link_capacity(link, 2e5 * flows);
  std::int64_t next = flows;
  for (auto _ : state) {
    const odr::net::FlowHandle extra =
        net.start_flow({{link}, 1ull << 40, cap_of(next++), nullptr});
    net.cancel_flow(extra);
  }
  state.SetItemsProcessed(state.iterations() * (2 * flows + 1));
}
BENCHMARK(BM_SaturatedLinkResolve)->Arg(75)->Arg(10000);

// Cancel-heavy queue: half the scheduled events are cancelled before the
// run, exercising the lazy-deletion tombstones and heap compaction.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    odr::sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    std::vector<odr::sim::EventHandle> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(sim.schedule_at((i * 7919) % 100000, [] {}));
    }
    for (int i = 0; i < n; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10000)->Arg(100000);

// The completion-reschedule pattern on a standing queue of range(0) events
// (38,196 is the peak pending count of the divisor-1 week): each cycle
// cancels a pending event, pushes its replacement, steps the earliest
// event and pushes that one's successor, so the queue never shrinks. A
// batch of kBatch cycles is timed phase by phase; the counters are ns per
// cancel, per push and per step.
void BM_EventQueueReschedule(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kBatch = 256;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  odr::sim::Simulator sim;
  std::uint64_t lcg = 20151028;
  const auto delay = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<odr::SimTime>(1 + (lcg >> 40) % 1000000);
  };
  std::vector<std::size_t> fired;
  fired.reserve(kBatch);
  // One pending event per index; running it reports its index.
  std::vector<odr::sim::EventHandle> pending(n);
  const auto arm = [&](std::size_t i) {
    pending[i] =
        sim.schedule_after(delay(), [&fired, i] { fired.push_back(i); });
  };
  for (std::size_t i = 0; i < n; ++i) arm(i);
  std::size_t next_victim = 0;
  double cancel_ns = 0.0, push_ns = 0.0, step_ns = 0.0;
  const auto ns_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  for (auto _ : state) {
    // kBatch consecutive indices are distinct, pending, and scattered in
    // time, since every index's time is drawn at random.
    const std::size_t first = next_victim;
    next_victim = (next_victim + kBatch) % n;
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) {
      benchmark::DoNotOptimize(sim.cancel(pending[(first + k) % n]));
    }
    cancel_ns += ns_since(t0);
    t0 = Clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) arm((first + k) % n);
    push_ns += ns_since(t0);
    fired.clear();
    t0 = Clock::now();
    for (std::size_t k = 0; k < kBatch; ++k) {
      benchmark::DoNotOptimize(sim.step());
    }
    step_ns += ns_since(t0);
    t0 = Clock::now();
    for (const std::size_t i : fired) arm(i);
    push_ns += ns_since(t0);
  }
  const double cycles = static_cast<double>(state.iterations() * kBatch);
  state.counters["cancel_ns"] = cancel_ns / cycles;
  state.counters["push_ns"] = push_ns / (2.0 * cycles);
  state.counters["step_ns"] = step_ns / cycles;
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_EventQueueReschedule)->Arg(38196);

// Steady-state dispatch: a ring of events that reschedule themselves,
// measuring per-event overhead (slot reuse + heap push/pop) with a queue
// that never grows.
void BM_EventDispatchSteadyState(benchmark::State& state) {
  odr::sim::Simulator sim;
  const int ring = 64;
  long long remaining = 0;
  std::function<void()> hop;  // shared body; each event reschedules once
  hop = [&] {
    if (--remaining > 0) sim.schedule_after(1, [&] { hop(); });
  };
  for (auto _ : state) {
    state.PauseTiming();
    remaining = static_cast<long long>(state.range(0));
    for (int i = 0; i < ring; ++i) sim.schedule_after(1, [&] { hop(); });
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatchSteadyState)->Arg(100000);

// A full solve walks one link: k links with f flows each; cancelling one
// flow must re-solve only its own link's f flows, not all k*f.
void BM_ComponentScopedCancel(benchmark::State& state) {
  const int components = static_cast<int>(state.range(0));
  const int flows_per = 32;
  // Uncapped flows share their link, so every start and cancel re-solves
  // the link: flows_per - 1 resident flows plus one victim.
  odr::sim::Simulator sim;
  odr::net::Network net(sim);
  std::vector<odr::net::LinkId> links;
  for (int c = 0; c < components; ++c) {
    std::string name("l");
    name.append(std::to_string(c));
    links.push_back(net.add_link(name, 1e9));
    for (int i = 1; i < flows_per; ++i) {
      net.start_flow({{links.back()}, 1ull << 32, odr::net::kUnlimitedRate,
                      nullptr});
    }
  }
  std::vector<odr::net::FlowHandle> victims;
  for (auto _ : state) {
    state.PauseTiming();
    victims.clear();
    for (const odr::net::LinkId link : links) {
      victims.push_back(net.start_flow(
          {{link}, 1ull << 32, odr::net::kUnlimitedRate, nullptr}));
    }
    state.ResumeTiming();
    // One cancel per link; each should cost O(flows_per), independent of
    // the number of other links.
    for (const odr::net::FlowHandle h : victims) net.cancel_flow(h);
  }
  state.SetItemsProcessed(state.iterations() * components);
}
BENCHMARK(BM_ComponentScopedCancel)->Arg(4)->Arg(64)->Arg(512);

void BM_Md5Throughput(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(odr::Md5::of(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(64)->Arg(4096)->Arg(1 << 20);

// The catalog's per-request file draw (guide table over the cumulative
// request weights).
void BM_CatalogSampleRequest(benchmark::State& state) {
  odr::workload::CatalogParams params;
  params.num_files = static_cast<std::size_t>(state.range(0));
  params.total_weekly_requests = 7.25 * static_cast<double>(state.range(0));
  odr::Rng build_rng(1);
  const odr::workload::Catalog catalog(params, build_rng);
  odr::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.sample_request(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogSampleRequest)->Arg(5635)->Arg(563517);

// The popularity profile's three bisections, once per iteration.
void BM_PopularityProfileBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    odr::workload::PopularityProfile profile(n, 7.25 * static_cast<double>(n));
    benchmark::DoNotOptimize(profile.counts().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopularityProfileBuild)->Arg(5635)->Arg(563517);

// The whole catalog build of range(0) files (divisor 100 and divisor 1):
// popularity profile, per-file draws, MD5 content ids and links.
void BM_CatalogBuild(benchmark::State& state) {
  const double divisor =
      static_cast<double>(odr::analysis::kMeasuredFiles) /
      static_cast<double>(state.range(0));
  const odr::analysis::ExperimentConfig config =
      odr::analysis::make_scaled_config(divisor, 20151028);
  for (auto _ : state) {
    odr::Rng rng(config.seed);
    const odr::workload::Catalog catalog(config.catalog, rng);
    benchmark::DoNotOptimize(catalog.files().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CatalogBuild)->Arg(5635)->Arg(563517)->Unit(benchmark::kMillisecond);

// RequestGenerator::generate for range(0) requests (divisor 100 and divisor
// 1), arrival sort included; the catalog and users are built once.
void BM_RequestGenerate(benchmark::State& state) {
  const double divisor = 4084417.0 / static_cast<double>(state.range(0));
  const odr::analysis::ExperimentConfig config =
      odr::analysis::make_scaled_config(divisor, 20151028);
  odr::Rng build_rng(config.seed);
  const odr::workload::Catalog catalog(config.catalog, build_rng);
  const odr::workload::UserPopulation users(config.users, build_rng);
  const odr::workload::RequestGenerator generator(config.requests);
  for (auto _ : state) {
    odr::Rng rng = build_rng;
    benchmark::DoNotOptimize(generator.generate(catalog, users, rng).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RequestGenerate)->Arg(40844)->Arg(4084417)->Unit(benchmark::kMillisecond);

// One 5-minute swarm advance at weekly popularity range(0): the cost is
// O(1) in the swarm's population (~0.33·pop^1.1 seeds, 0.22·pop leechers).
void BM_SwarmAdvance(benchmark::State& state) {
  odr::Rng rng(3);
  odr::proto::SwarmParams params;
  odr::proto::Swarm swarm(odr::proto::Protocol::kBitTorrent,
                          static_cast<double>(state.range(0)), params, rng);
  for (auto _ : state) {
    swarm.advance(5 * odr::kMinute, rng);
    benchmark::DoNotOptimize(swarm.downloader_rate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwarmAdvance)->Arg(1)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
