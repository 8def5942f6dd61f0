// Observability overhead guard (runs as the `obs_overhead` ctest).
//
// The contract of src/obs is that the runtime-disabled state — no observer
// installed, every ODR_* macro reduced to one global load and a branch, no
// after-event hook on the simulator — costs nothing measurable. This bench
// interleaves repetitions of the same short cloud week in two states:
//
//   disabled: no ambient observer (the default for every library user);
//   enabled:  a full observer (metrics + tracing + flight + sampler);
//   spans:    spans + calibration on but with every retention knob at
//             zero (unsampled) — the per-task journal's bookkeeping floor.
//
// Taking the minimum wall-clock per state discards scheduler noise.
// Acceptance: the disabled runs must not be slower than the fully-enabled
// runs by more than 2% (plus a small absolute epsilon for timer jitter) —
// the disabled path does strictly less work, so if this fails the "off"
// state has grown real overhead. The enabled/disabled and spans/disabled
// ratios are reported for the record but not gated: enabled modes are
// allowed to cost.
//
// A second, exact gate counts heap allocations (this binary replaces the
// global operator new with a counting shim): warm steady-state event
// dispatch with no observer installed must perform ZERO allocations —
// small-capture callbacks live inline in the engine's slab slots.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/replay.h"
#include "net/network.h"
#include "obs/observer.h"
#include "serve/service_loop.h"
#include "sim/simulator.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"

// ---------------------------------------------------------------------------
// Allocation counter. This binary replaces the global operator new/delete
// with counting shims so the steady-state check below can assert an exact
// allocation count (zero), not just "not much slower".
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace odr;

double run_week_seconds(const analysis::ExperimentConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = analysis::run_cloud_replay(config);
  const auto t1 = std::chrono::steady_clock::now();
  // Touch the result so the replay cannot be elided.
  if (result.outcomes.empty()) std::fputs("empty replay\n", stderr);
  return std::chrono::duration<double>(t1 - t0).count();
}

// Steady-state event dispatch with no observer installed must allocate
// NOTHING: callbacks with small captures live inline in the slab slots
// (SmallFunc SBO), freed slots and heap capacity are reused, and the
// disabled ODR_* macros expand to a load and a branch. The first pass warms
// the slab/heap/id-map; the second pass is the measured one.
std::uint64_t disabled_dispatch_allocations() {
  sim::Simulator sim;
  std::uint64_t acc = 0;
  const int n = 20000;
  auto pass = [&] {
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(sim.now() + 1 + (i * 7919) % 1000,
                      [&acc, i] { acc += static_cast<std::uint64_t>(i); });
    }
    sim.run();
  };
  pass();  // warm-up: grows every container to steady-state capacity
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  pass();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (acc == 0) std::fputs("impossible\n", stderr);  // keep `acc` observable
  return after - before;
}

// The flow plane's warm steady state must be allocation-free too
// (DESIGN.md §16): flows live in a slab pool, link membership in pooled
// intrusive adjacency nodes, flow-id lookup in a flat table, and each
// link's cap order in vectors that keep their capacity — so a measured
// churn pass (start, solve, complete, retire, slot reuse) over a warmed
// network must perform ZERO heap allocations. The FlowSpecs for the
// measured pass are pre-built outside the measured window: a completion
// callback is the caller's cost.
std::uint64_t flow_plane_steady_allocations() {
  sim::Simulator sim;
  net::Network net(sim);
  net::LinkId legs[4];
  for (int i = 0; i < 4; ++i) {
    legs[i] = net.add_link("leg" + std::to_string(i), 2e5 + 1e4 * i);
  }
  std::uint64_t completed = 0;
  const int n = 2048;
  auto make_specs = [&] {
    std::vector<net::Network::FlowSpec> specs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& s = specs[static_cast<std::size_t>(i)];
      s.link = legs[i % 4];
      s.bytes = static_cast<Bytes>(1000 + (i * 7919) % 9000);
      s.rate_cap = (i % 3 == 0) ? 150.0 : net::kUnlimitedRate;
      s.on_complete = [&completed](net::FlowId) { ++completed; };
    }
    return specs;
  };
  // Two waves per pass: wave 2 reuses the slots, adjacency nodes, and
  // completion events wave 1 released, which is the recycling under test.
  auto churn = [&](std::vector<net::Network::FlowSpec> specs) {
    const std::size_t half = specs.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      net.start_flow(std::move(specs[i]));
    }
    sim.run();
    for (std::size_t i = half; i < specs.size(); ++i) {
      net.start_flow(std::move(specs[i]));
    }
    sim.run();
  };
  churn(make_specs());  // warm-up: grows pools and solver scratch
  std::vector<net::Network::FlowSpec> specs = make_specs();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  churn(std::move(specs));
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (completed == 0) std::fputs("no completions\n", stderr);
  return after - before;
}

// With in-run state hashing OFF (the default), snapshot::CloudWorld::run
// must be a zero-cost wrapper over the engine: no per-invocation
// allocations, no chunking bookkeeping. Determinism makes the workload's
// own allocation count identical between a single drain and an
// event-by-event drain of the same config, so any allocation the wrapper
// performs per run() call shows up as a difference between the two counts
// (the stepped world calls run() thousands of times, the single world
// once).
std::uint64_t hashing_off_added_allocations(
    const analysis::ExperimentConfig& config) {
  snapshot::WorldOptions opts;
  opts.audit_at_checkpoint = false;  // audits allocate scratch; not under test
  snapshot::CloudWorld single(config, opts);
  snapshot::CloudWorld stepped(config, opts);

  const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
  single.run();
  const std::uint64_t single_allocs =
      g_allocations.load(std::memory_order_relaxed) - a0;

  const std::uint64_t b0 = g_allocations.load(std::memory_order_relaxed);
  while (stepped.run(1) != 0) {
  }
  const std::uint64_t stepped_allocs =
      g_allocations.load(std::memory_order_relaxed) - b0;

  return stepped_allocs > single_allocs ? stepped_allocs - single_allocs
                                        : single_allocs - stepped_allocs;
}

// The live-service telemetry plane's OFF states must be free too. With an
// ambient observer whose spans, metrics-ts exporter, and sampler are all
// disabled, a ServiceLoop run hits every ODR_SPAN / ODR_METRICS_TS call
// site (arrival verdicts, dispatch, completions) — each must reduce to a
// load and a null branch, and the warm registry must serve ODR_COUNT /
// ODR_GAUGE lookups without creating. Determinism makes the workload's own
// operator-new count identical between fresh runs of the same config, so
// any difference between the observer-free run and the warm observer run
// is overhead added by the disabled telemetry path.
std::uint64_t serve_run_allocations(const serve::ServeConfig& cfg) {
  serve::ServiceLoop loop(cfg);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const serve::ServeResult r = loop.run();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (r.offered == 0) std::fputs("empty serve run\n", stderr);
  return after - before;
}

std::uint64_t serve_off_state_added_allocations(double divisor,
                                                std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.world.experiment = analysis::make_scaled_config(divisor, seed);
  cfg.world.experiment.cloud.degraded_admission = true;
  cfg.max_inflight = 16;
  cfg.queue_capacity = 64;
  cfg.traffic.phases.push_back({6 * kHour, 0.01});

  const std::uint64_t bare = serve_run_allocations(cfg);

  obs::ObsConfig ocfg;
  ocfg.tracing = false;
  ocfg.spans = false;        // admission-verdict spans off
  ocfg.metrics_ts = false;   // windowed exporter off
  ocfg.sample_period = 0;    // sampler disabled entirely
  ocfg.dump_on_fault_fired = false;
  ocfg.dump_on_overload = false;
  obs::ScopedObserver scoped(ocfg);
  serve_run_allocations(cfg);  // warm: first use creates the serve.* counters
  const std::uint64_t with_obs = serve_run_allocations(cfg);
  return with_obs > bare ? with_obs - bare : bare - with_obs;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Wall-clock overhead of the observability layer's disabled state.");
  args.flag("divisor", "4000", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("reps", "5", "repetitions per state (min is taken)");
  args.flag("json", "BENCH_obs_overhead.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const analysis::ExperimentConfig config = analysis::make_scaled_config(
      divisor, static_cast<std::uint64_t>(args.get_int("seed")));
  const int reps = static_cast<int>(args.get_int("reps", 1, INT_MAX));

  // One untimed warm-up per state (page cache, allocator arenas).
  run_week_seconds(config);
  {
    obs::ScopedObserver warm;
    run_week_seconds(config);
  }

  double t_disabled = 1e100, t_enabled = 1e100, t_spans = 1e100;
  for (int r = 0; r < reps; ++r) {
    t_disabled = std::min(t_disabled, run_week_seconds(config));
    {
      obs::ObsConfig ocfg;  // everything on, including tracing
      ocfg.dump_on_fault_fired = false;
      obs::ScopedObserver scoped(ocfg);
      t_enabled = std::min(t_enabled, run_week_seconds(config));
    }
    {
      // Spans enabled but unsampled: every lifecycle event is journaled
      // and folded, nothing is retained. Isolates the journal's fixed
      // per-task cost from the sampling/retention cost.
      obs::ObsConfig ocfg;
      ocfg.dump_on_fault_fired = false;
      ocfg.tracing = false;
      ocfg.spans = true;
      ocfg.calibration = true;
      ocfg.span_reservoir = 0;
      ocfg.span_keep_slowest = 0;
      ocfg.span_keep_failed_cap = 0;
      obs::ScopedObserver scoped(ocfg);
      t_spans = std::min(t_spans, run_week_seconds(config));
    }
  }

  const double overhead_enabled =
      t_disabled > 0.0 ? t_enabled / t_disabled - 1.0 : 0.0;
  const double overhead_spans =
      t_disabled > 0.0 ? t_spans / t_disabled - 1.0 : 0.0;
  constexpr double kRelSlack = 0.02;   // the 2% acceptance bound
  constexpr double kAbsSlackS = 0.05;  // timer jitter floor
  const bool time_pass =
      t_disabled <= t_enabled * (1.0 + kRelSlack) + kAbsSlackS;

  // Exact gate: warm dispatch with no observer performs zero allocations.
  const std::uint64_t dispatch_allocs = disabled_dispatch_allocations();
  const bool alloc_pass = dispatch_allocs == 0;

  // Exact gate: warm flow churn (start/solve/complete/retire with slot
  // reuse) allocates nothing inside the network engine.
  const std::uint64_t flow_allocs = flow_plane_steady_allocations();
  const bool flow_pass = flow_allocs == 0;

  // Exact gate: the hashing-off CloudWorld::run wrapper adds zero
  // allocations per invocation over the direct engine drain.
  const std::uint64_t hash_off_allocs = hashing_off_added_allocations(config);
  const bool hash_off_pass = hash_off_allocs == 0;

  // Exact gate: a serve run under a telemetry-disabled observer (spans,
  // metrics-ts, sampler all off) allocates exactly as much as with no
  // observer at all.
  const std::uint64_t serve_off_allocs = serve_off_state_added_allocations(
      divisor, static_cast<std::uint64_t>(args.get_int("seed")));
  const bool serve_off_pass = serve_off_allocs == 0;
  const bool pass =
      time_pass && alloc_pass && flow_pass && hash_off_pass && serve_off_pass;

  std::printf("obs overhead, min of %d reps at 1/%s scale:\n", reps,
              args.get("divisor").c_str());
  std::printf("  disabled (no observer):    %8.3f s\n", t_disabled);
  std::printf("  enabled (full observer):   %8.3f s  (%+.1f%% vs disabled)\n",
              t_enabled, 100.0 * overhead_enabled);
  std::printf("  spans (on, unsampled):     %8.3f s  (%+.1f%% vs disabled)\n",
              t_spans, 100.0 * overhead_spans);
  std::printf(
      "acceptance: disabled state within 2%% of the enabled run: %s\n",
      time_pass ? "PASS" : "FAIL");
  std::printf(
      "acceptance: warm disabled dispatch allocates nothing: %s (%llu)\n",
      alloc_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(dispatch_allocs));
  std::printf(
      "acceptance: warm flow-plane churn allocates nothing: %s (%llu)\n",
      flow_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(flow_allocs));
  std::printf(
      "acceptance: hashing-off CloudWorld::run adds zero allocations: %s "
      "(%llu)\n",
      hash_off_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(hash_off_allocs));
  std::printf(
      "acceptance: telemetry-off serve run adds zero allocations: %s (%llu)\n",
      serve_off_pass ? "PASS" : "FAIL",
      static_cast<unsigned long long>(serve_off_allocs));

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "obs_overhead")
        .field("divisor", divisor)
        .field("reps", static_cast<std::int64_t>(reps))
        .field("disabled_s", t_disabled)
        .field("enabled_s", t_enabled)
        .field("enabled_overhead", overhead_enabled)
        .field("spans_unsampled_s", t_spans)
        .field("spans_unsampled_overhead", overhead_spans)
        .field("disabled_dispatch_allocations", dispatch_allocs)
        .field("flow_plane_steady_allocations", flow_allocs)
        .field("hashing_off_added_allocations", hash_off_allocs)
        .field("serve_off_state_added_allocations", serve_off_allocs)
        .field("pass", pass)
        .end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return pass ? 0 : 1;
}
