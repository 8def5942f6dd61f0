// perfbench: the measuring process of the repository benchmark.
//
//   perfbench --workload cloud_week|odr_week|checkpoint_week --seed N
//             --seconds S --trace 0|1
//
// One single-threaded process runs one workload, repeating it for at least
// S seconds of wall time, checks its outputs, and prints its raw samples
// as one JSON object on stdout. Every sample is thread CPU time (see
// Clock). After every untraced repetition it also times a few passes of a
// fixed yardstick (see Yardstick), by which perfbench/benchstats.py divides
// the timings. Untraced repetitions cycle through a panel
// of consecutive workload seeds starting at N, each replayed at least once,
// because a week's cost varies by tens of percent from seed to seed;
// traced repetitions all use seed N. Set-up, checkpoint and restore samples
// are taken a few after every untraced repetition, so they spread over the
// whole run. perfbench/run.py builds this binary and reduces the samples to
// the metrics BENCHMARK.json names; the workload rationale is in
// perfbench/README.md.
//
// Only public entry points are driven: snapshot::CloudWorld,
// snapshot::StateHasher, snapshot::audit, analysis::run_strategy_replay and
// the workload generators. --trace 0 times untraced repetitions only.
// --trace 1 alternates untraced and traced repetitions (an obs::Observer
// installed with tracing and the sampler off): work counts come from the
// traced ones, timings from the untraced ones.
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "core/decision.h"
#include "obs/observer.h"
#include "snapshot/audit.h"
#include "snapshot/state_hash.h"
#include "snapshot/world.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

namespace {

using namespace odr;

// The measuring thread's CPU time, which every timing sample reads. On a
// VM shared with other tenants the host takes a vCPU away for milliseconds
// at a time when its cores are oversubscribed. The guest kernel accounts
// that stolen time apart (paravirtual steal time) and leaves it out of a
// thread's CPU clock, as it leaves out the time the thread waited behind
// other processes of the guest; on the wall clock both read as a slower
// program. The work is single-threaded, CPU-bound and does no I/O, so its
// CPU time is its cost. A core shared with a busy neighbour still runs the
// thread slower, and that the CPU clock does count.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(std::int64_t{ts.tv_sec} * 1'000'000'000 +
                               ts.tv_nsec));
  }
};
// Only the run's length is wall time: it bounds how long a run takes.
using WallClock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// The CPUs this process may run on, taken in turn every kPeriodUs of wall
// time. On a VM the host places each vCPU on a core of its choosing, so at
// any moment some vCPUs run up to ~1.5x slower than others, and which ones
// moves within minutes; part of that is a busy neighbour on the same core,
// which the CPU clock counts. The scheduler leaves a busy single thread on
// one vCPU, so an unpinned repetition times whichever vCPU it landed on. A
// thread moved every few milliseconds times the same mix of all of them in
// every repetition and sample, inside opaque calls such as the ODR replay
// too. The move runs in a SIGALRM handler, so the process stays
// single-threaded.
namespace rotation {

constexpr long kPeriodUs = 10000;
int cpus[CPU_SETSIZE];
int cpu_count = 0;
volatile std::sig_atomic_t next_cpu = 0;

void on_alarm(int) {
  const int saved_errno = errno;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next_cpu], &set);
  next_cpu = (next_cpu + 1) % cpu_count;
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
  errno = saved_errno;
}

// A no-op with fewer than two allowed CPUs.
void start() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus[cpu_count++] = cpu;
  }
  if (cpu_count < 2) return;
  struct sigaction action {};
  action.sa_handler = on_alarm;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGALRM, &action, nullptr) != 0) return;
  const itimerval period{{0, kPeriodUs}, {0, kPeriodUs}};
  (void)setitimer(ITIMER_REAL, &period, nullptr);
}

void stop() {
  const itimerval off{};
  (void)setitimer(ITIMER_REAL, &off, nullptr);
}

}  // namespace rotation

// A fixed piece of work that shares no code with the simulator: a pointer
// chase through an 8 MiB random cycle (cache and memory latency) and
// pops and pushes on a 64k-entry binary heap (branchy compute). Its CPU
// time tracks how fast the machine runs right now, which drifts by tens
// of percent over minutes with the load other tenants put on the same
// cores; no change to the simulator moves it. Its buffers are allocated
// once, before any week runs, so the simulator's heap cannot move it
// either.
class Yardstick {
 public:
  Yardstick() : next_(kChaseSlots), heap_(kHeapSize) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < kChaseSlots; ++i) next_[i] = i;
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
      x = mix(x);
      std::swap(next_[i], next_[x % i]);
    }
    for (std::uint64_t& h : heap_) h = x = mix(x);
    std::make_heap(heap_.begin(), heap_.end());
  }

  // One pass, in CPU seconds (about 30 ms on a 4-core x86 VM).
  double measure() {
    const auto t0 = Clock::now();
    std::uint32_t p = pos_;
    for (std::uint32_t i = 0; i < kChaseSteps; ++i) p = next_[p];
    pos_ = p;
    std::uint64_t x = p;
    for (std::uint32_t i = 0; i < kHeapOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = x = mix(x ^ heap_.back());
      std::push_heap(heap_.begin(), heap_.end());
    }
    sink_ = sink_ ^ x;
    return seconds_since(t0);
  }

 private:
  static constexpr std::uint32_t kChaseSlots = 2u << 20;
  static constexpr std::uint32_t kChaseSteps = 200'000;
  static constexpr std::size_t kHeapSize = 1u << 16;
  static constexpr std::uint32_t kHeapOps = 40'000;

  static std::uint64_t mix(std::uint64_t z) {  // splitmix64
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> heap_;
  std::uint32_t pos_ = 0;
  volatile std::uint64_t sink_ = 0;
};

// checkpoint_week: events between checkpoints, and every how many
// checkpoints the world is killed and restored from the latest buffer.
constexpr std::uint64_t kChunkEvents = 1000;
constexpr std::uint64_t kRestoreEvery = 8;
// Samples a full panel leaves at least, split evenly over its repetitions
// (see after_rep). cloud_week and odr_week probe the seed's divisor-200
// world, the one checkpoint_week starts from, at its first event for the
// checkpoint metrics: 100 checkpoints leave ten samples beyond p90.
constexpr double kProbeDivisor = 200.0;
constexpr std::uint64_t kProbeCheckpoints = 100;
constexpr std::uint64_t kProbeRestores = 11;
constexpr std::uint64_t kSetupSamples = 12;
// Yardstick passes after every untraced repetition.
constexpr std::uint64_t kYardstickSamples = 4;

enum class Workload { kCloudWeek, kOdrWeek, kCheckpointWeek };

struct WorkloadSpec {
  std::string_view name;
  Workload id;
  double divisor;
  // Workload seeds an untraced run cycles through; every one is replayed
  // at least once. The more a workload's cost varies by seed, the more
  // seeds: cloud_week seeds differ by up to 1.8x, odr_week seeds by 1.3x,
  // checkpoint_week seeds by 1.1x. One cycle takes about 25–45 s on a
  // 4-core x86 VM, which keeps the 70 runs of a benchmark check within an
  // hour even when the VM runs 25% slow.
  std::uint64_t panel;
};
constexpr WorkloadSpec kWorkloads[] = {
    {"cloud_week", Workload::kCloudWeek, 100.0, 6},
    {"odr_week", Workload::kOdrWeek, 100.0, 7},
    {"checkpoint_week", Workload::kCheckpointWeek, 200.0, 3},
};

// Work counters read from a traced repetition's registry.
constexpr const char* kCounters[] = {
    "sim.events.executed",       "net.solver.runs",
    "net.solver.iterations",     "net.flows.started",
    "net.flows.cancelled",       "proto.swarm.ticks",
    "ap.predownloads.submitted", "core.executor.reroutes",
    "cloud.tasks.submitted",     "cloud.tasks.cache_hits",
    "cloud.upload.admitted",     "cloud.upload.rejected",
    "cloud.upload.shed",         "cloud.vm.tasks.started",
};

struct Rep {
  std::uint64_t seed = 0;
  bool traced = false;
  bool failed = false;
  std::uint64_t tasks = 0;
  double run_s = 0.0;       // event loop (odr_week: the whole replay call)
  double finalize_s = 0.0;
  double snapshot_s = 0.0;  // checkpoints + restores inside the repetition
  double total_s = 0.0;     // build start to finalize end
  // Samples of this repetition's seed, kept per repetition so the reduction
  // can weigh every seed once; it reads untraced repetitions only.
  std::vector<double> setup_s, restore_s;
  // Yardstick passes right after the repetition and its samples.
  std::vector<double> yardstick_s;
};

struct Checkpoint {
  double save_ms = 0.0, hash_ms = 0.0, audit_ms = 0.0;
  std::size_t bytes = 0;
  bool clean = true;  // the auditor found no violated invariant
  double total_ms() const { return save_ms + hash_ms + audit_ms; }
};

// Everything one process measures and checks.
struct Run {
  Workload workload = Workload::kCloudWeek;
  std::vector<Rep> reps;
  // Timing samples, from untraced work only.
  std::vector<double> workload_build_s;
  std::vector<double> checkpoint_ms, save_ms, hash_ms, audit_ms;
  std::vector<double> checkpoint_bytes;
  // Work counts of the first traced repetition; later ones must agree.
  std::map<std::string, double> counts;
  std::map<std::string, std::string> fingerprints;
  std::vector<std::string> failures;
  bool process_failed = false;  // a check outside any repetition failed

  // A failed check fails its repetition, or the whole process when `rep`
  // is null.
  void check(Rep* rep, bool ok, const std::string& what) {
    if (ok) return;
    failures.push_back(what);
    if (rep != nullptr) {
      rep->failed = true;
    } else {
      process_failed = true;
    }
  }

  // Records `value` under `key` for the repetition's seed the first time;
  // any later disagreement is a determinism failure.
  void same(Rep& rep, const std::string& name, const std::string& value) {
    const std::string key = name + "@" + std::to_string(rep.seed);
    const auto [it, inserted] = fingerprints.emplace(key, value);
    check(&rep, inserted || it->second == value,
          key + " differs between repetitions: " + it->second + " vs " + value);
  }

  void record(const Checkpoint& c) {
    checkpoint_ms.push_back(c.total_ms());
    save_ms.push_back(c.save_ms);
    hash_ms.push_back(c.hash_ms);
    audit_ms.push_back(c.audit_ms);
    checkpoint_bytes.push_back(static_cast<double>(c.bytes));
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Every request 1..n has exactly one outcome (generated task ids are
// chronological, 1-based).
template <typename Outcome>
bool one_outcome_each(const std::vector<Outcome>& outcomes, std::size_t n) {
  if (outcomes.size() != n) return false;
  std::vector<char> seen(n + 1, 0);
  for (const Outcome& o : outcomes) {
    if (o.task_id < 1 || o.task_id > n || seen[o.task_id] != 0) return false;
    seen[o.task_id] = 1;
  }
  return true;
}

// The §4 week as analysis::run_cloud_replay runs it: no checkpoint tick.
snapshot::WorldOptions no_tick() {
  snapshot::WorldOptions o;
  o.checkpoint_period = 0;
  o.audit_at_checkpoint = false;
  return o;
}

obs::ObsConfig traced_config(bool calibration) {
  obs::ObsConfig c;
  c.tracing = false;
  c.sample_period = 0;
  c.spans = calibration;
  c.calibration = calibration;
  return c;
}

// The workload half of a world build, through the public generators in
// the order the replay functions call them. `line_rate` > 0 clamps user
// lines the way the §6 testbed does.
std::vector<workload::WorkloadRecord> build_workload(
    const analysis::ExperimentConfig& config, Rate line_rate) {
  Rng rng(config.seed);
  const workload::Catalog catalog(config.catalog, rng);
  workload::UserModelParams user_params = config.users;
  if (line_rate > 0.0) {
    user_params.bandwidth_max =
        std::min(user_params.bandwidth_max, line_rate * kTransportEfficiency);
  }
  const workload::UserPopulation users(user_params, rng);
  return workload::RequestGenerator(config.requests)
      .generate(catalog, users, rng);
}

// Save, state hash and audit: one checkpoint. The saved bytes land in
// `buffer`.
Checkpoint take_checkpoint(const snapshot::CloudWorld& world,
                           std::string& buffer) {
  Checkpoint c;
  const auto t0 = Clock::now();
  buffer = world.save_to_buffer();
  const auto t1 = Clock::now();
  (void)snapshot::StateHasher::hash(world);
  const auto t2 = Clock::now();
  c.clean = snapshot::audit(world).empty();
  const auto t3 = Clock::now();
  c.save_ms = 1e3 * seconds_between(t0, t1);
  c.hash_ms = 1e3 * seconds_between(t1, t2);
  c.audit_ms = 1e3 * seconds_between(t2, t3);
  c.bytes = buffer.size();
  return c;
}

const char* route_class(core::Route route) {
  switch (route) {
    case core::Route::kCloud:
    case core::Route::kCloudPreDownloadFirst: return "core.routes.cloud";
    case core::Route::kSmartAp: return "core.routes.ap";
    case core::Route::kCloudThenSmartAp: return "core.routes.hybrid";
    case core::Route::kUserDevice: return "core.routes.direct";
  }
  return "core.routes.direct";
}

// Adds the traced repetition's registry counters to `counts` and holds the
// result to the first traced repetition's.
void record_counts(Run& run, Rep& rep, const obs::Observer& observer,
                   std::map<std::string, double> counts) {
  const obs::Registry& m = observer.metrics();
  for (const char* name : kCounters) {
    const obs::Counter* c = m.find_counter(name);
    counts[name] = c != nullptr ? static_cast<double>(c->value()) : 0.0;
  }
  const Histogram* flows = m.find_histogram("net.solver.component_flows");
  counts["net.solver.component_flows.p50"] = flows ? flows->quantile(0.50) : 0.0;
  counts["net.solver.component_flows.p99"] = flows ? flows->quantile(0.99) : 0.0;
  counts["tasks"] = static_cast<double>(rep.tasks);
  if (run.counts.empty()) {
    run.counts = std::move(counts);
  } else {
    run.check(&rep, counts == run.counts,
              "work counts differ between traced repetitions");
  }
}

void cloud_week_rep(Run& run, const analysis::ExperimentConfig& config,
                    bool traced) {
  std::optional<obs::ScopedObserver> observer;
  if (traced) observer.emplace(traced_config(/*calibration=*/true));
  Rep rep;
  rep.seed = config.seed;
  rep.traced = traced;
  const auto t0 = Clock::now();
  snapshot::CloudWorld world(config, no_tick());
  const auto t1 = Clock::now();
  world.run();
  const auto t2 = Clock::now();
  const analysis::CloudReplayResult result = world.finalize();
  const auto t3 = Clock::now();
  rep.run_s = seconds_between(t1, t2);
  rep.finalize_s = seconds_between(t2, t3);
  rep.total_s = seconds_between(t0, t3);
  rep.tasks = result.requests.size();

  run.check(&rep, one_outcome_each(result.outcomes, rep.tasks),
            "cloud_week: a request without exactly one outcome");
  run.same(rep, "outcome_fingerprint",
           hex(analysis::outcome_fingerprint(result.outcomes)));
  if (traced) {
    const obs::CalibrationReport cal = (*observer)->calibration()->report();
    record_counts(run, rep, **observer,
                  {{"core.routes.cloud", static_cast<double>(rep.tasks)},
                   {"calibration.gated_pass",
                    static_cast<double>(cal.gated_pass)},
                   {"calibration.gated_total",
                    static_cast<double>(cal.gated_total)}});
    run.check(&rep, cal.pass() && cal.gated_total > 0,
              "cloud_week: calibration drift, " +
                  std::to_string(cal.gated_pass) + " of " +
                  std::to_string(cal.gated_total) + " gated statistics pass");
  }
  run.reps.push_back(rep);
}

void odr_week_rep(Run& run, const analysis::ExperimentConfig& config,
                  bool traced) {
  std::optional<obs::ScopedObserver> observer;
  if (traced) observer.emplace(traced_config(/*calibration=*/false));
  Rep rep;
  rep.seed = config.seed;
  rep.traced = traced;
  analysis::StrategyReplayConfig replay;
  replay.experiment = config;
  replay.strategy = core::Strategy::kOdr;
  const auto t0 = Clock::now();
  const analysis::StrategyReplayResult result =
      analysis::run_strategy_replay(replay);
  rep.run_s = rep.total_s = seconds_since(t0);
  // The replay builds its workload inside the call; rebuild it through the
  // same generator calls to learn which requests it served.
  rep.tasks = build_workload(config, replay.premises_line_rate).size();

  run.check(&rep, one_outcome_each(result.outcomes, rep.tasks),
            "odr_week: a request without exactly one outcome");
  run.same(rep, "exec_fingerprint",
           hex(analysis::exec_outcome_fingerprint(result.outcomes)));
  if (traced) {
    std::map<std::string, double> routes = {{"core.routes.cloud", 0.0},
                                            {"core.routes.ap", 0.0},
                                            {"core.routes.hybrid", 0.0},
                                            {"core.routes.direct", 0.0}};
    for (const core::ExecOutcome& o : result.outcomes) {
      routes[route_class(o.route)] += 1.0;
    }
    record_counts(run, rep, **observer, std::move(routes));
  }
  run.reps.push_back(rep);
}

struct Reference {
  std::string fingerprint;
  std::uint64_t state_hash = 0;
};

// The uninterrupted week that checkpoint_week must end identical to.
Reference uninterrupted(const analysis::ExperimentConfig& config) {
  snapshot::CloudWorld world(config, no_tick());
  world.run();
  return {hex(analysis::outcome_fingerprint(world.finalize().outcomes)),
          world.hash_now().combined};
}

void checkpoint_week_rep(Run& run, const analysis::ExperimentConfig& config,
                         bool traced, const Reference& reference) {
  std::optional<obs::ScopedObserver> observer;
  if (traced) observer.emplace(traced_config(/*calibration=*/false));
  Rep rep;
  rep.seed = config.seed;
  rep.traced = traced;
  std::vector<Checkpoint> checkpoints;
  bool clean = true;
  const auto t0 = Clock::now();
  auto world = std::make_unique<snapshot::CloudWorld>(config, no_tick());
  std::string buffer;
  for (;;) {
    const auto a = Clock::now();
    const std::uint64_t n = world->run(kChunkEvents);
    rep.run_s += seconds_since(a);
    if (n < kChunkEvents) break;  // the week drained
    const Checkpoint c = take_checkpoint(*world, buffer);
    clean = clean && c.clean;
    rep.snapshot_s += c.total_ms() / 1e3;
    checkpoints.push_back(c);
    if (checkpoints.size() % kRestoreEvery == 0) {
      world.reset();  // the kill
      const auto b = Clock::now();
      world = std::make_unique<snapshot::CloudWorld>(config, no_tick(), buffer);
      rep.restore_s.push_back(seconds_since(b));
      rep.snapshot_s += rep.restore_s.back();
    }
  }
  const auto t1 = Clock::now();
  const analysis::CloudReplayResult result = world->finalize();
  const auto t2 = Clock::now();
  rep.finalize_s = seconds_between(t1, t2);
  rep.total_s = seconds_between(t0, t2);
  rep.tasks = result.requests.size();

  const std::string fingerprint =
      hex(analysis::outcome_fingerprint(result.outcomes));
  run.check(&rep, clean, "checkpoint_week: the auditor reported a violation");
  run.check(&rep, one_outcome_each(result.outcomes, rep.tasks),
            "checkpoint_week: a request without exactly one outcome");
  run.check(&rep, fingerprint == reference.fingerprint,
            "checkpoint_week: outcome fingerprint " + fingerprint +
                " != uninterrupted " + reference.fingerprint);
  run.check(&rep, world->hash_now().combined == reference.state_hash,
            "checkpoint_week: final state hash differs from the "
            "uninterrupted run's");
  run.same(rep, "outcome_fingerprint", fingerprint);
  run.same(rep, "checkpoints", std::to_string(checkpoints.size()));
  if (traced) {
    record_counts(run, rep, **observer,
                  {{"core.routes.cloud", static_cast<double>(rep.tasks)}});
  } else {
    for (const Checkpoint& c : checkpoints) run.record(c);
  }
  run.reps.push_back(rep);
}

// Runs after every untraced repetition and takes that repetition's share of
// the set-up samples and, on cloud_week and odr_week, of the checkpoint and
// restore samples. Spreading them over the run matters: the VM's speed
// drifts by tens of percent within a minute, so samples taken back to back
// in one second all time that second. cloud_week and odr_week take no
// checkpoints in their weeks; they probe the seed's divisor-200 §4 world at
// its first event instead, which costs half as much as their own. That
// first build after a week is not timed: it runs on the heap the week just
// released and reads slower than a build after a build.
void after_rep(Run& run, Rep& rep, const WorkloadSpec& spec,
               const analysis::ExperimentConfig& config, bool trace) {
  const auto share = [&](std::uint64_t total) {
    return (total + spec.panel - 1) / spec.panel;
  };
  {
    const analysis::ExperimentConfig probe =
        analysis::make_scaled_config(kProbeDivisor, config.seed);
    const snapshot::CloudWorld world(probe, no_tick());
    if (spec.id != Workload::kCheckpointWeek) {
      std::string buffer;
      for (std::uint64_t i = 0; i < share(kProbeCheckpoints); ++i) {
        const Checkpoint c = take_checkpoint(world, buffer);
        run.check(nullptr, c.clean, "probe: the auditor reported a violation");
        run.record(c);
      }
      const std::uint64_t expected = world.hash_now().combined;
      for (std::uint64_t i = 0; i < share(kProbeRestores); ++i) {
        const auto t0 = Clock::now();
        const snapshot::CloudWorld restored(probe, no_tick(), buffer);
        rep.restore_s.push_back(seconds_since(t0));
        run.check(nullptr, restored.hash_now().combined == expected,
                  "probe: a restored world hashes differently from its source");
      }
    }
  }
  for (std::uint64_t i = 0; i < share(kSetupSamples); ++i) {
    const auto t0 = Clock::now();
    if (spec.id == Workload::kOdrWeek) {
      (void)build_workload(config,
                           analysis::StrategyReplayConfig{}.premises_line_rate);
      rep.setup_s.push_back(seconds_since(t0));
      run.workload_build_s.push_back(rep.setup_s.back());
      continue;
    }
    {
      const snapshot::CloudWorld world(config, no_tick());
      rep.setup_s.push_back(seconds_since(t0));
    }
    if (trace) {
      const auto t1 = Clock::now();
      (void)build_workload(config, 0.0);
      run.workload_build_s.push_back(seconds_since(t1));
    }
  }
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;  // KiB on Linux
}

void write_series(JsonWriter& j, const std::string& name,
                  const std::vector<double>& xs) {
  j.key(name).begin_array();
  for (const double x : xs) j.value(x);
  j.end_array();
}

void print_json(const Run& run, std::string_view workload) {
  JsonWriter j;
  j.begin_object().field("workload", std::string(workload));
  j.key("reps").begin_array();
  for (const Rep& r : run.reps) {
    j.begin_object()
        .field("seed", r.seed)
        .field("traced", r.traced)
        .field("failed", r.failed)
        .field("tasks", r.tasks)
        .field("run_s", r.run_s)
        .field("finalize_s", r.finalize_s)
        .field("snapshot_s", r.snapshot_s)
        .field("total_s", r.total_s);
    write_series(j, "setup_s", r.setup_s);
    write_series(j, "restore_s", r.restore_s);
    write_series(j, "yardstick_s", r.yardstick_s);
    j.end_object();
  }
  j.end_array();
  write_series(j, "workload_build_s", run.workload_build_s);
  write_series(j, "checkpoint_ms", run.checkpoint_ms);
  write_series(j, "save_ms", run.save_ms);
  write_series(j, "hash_ms", run.hash_ms);
  write_series(j, "audit_ms", run.audit_ms);
  write_series(j, "checkpoint_bytes", run.checkpoint_bytes);
  j.key("counts").begin_object();
  for (const auto& [name, v] : run.counts) j.field(name, v);
  j.end_object();
  j.key("fingerprints").begin_object();
  for (const auto& [name, v] : run.fingerprints) j.field(name, v);
  j.end_object();
  j.key("failures").begin_array();
  for (const std::string& f : run.failures) j.value(f);
  j.end_array();
  j.field("process_failed", run.process_failed)
      .field("peak_rss_bytes", peak_rss_bytes())
      .end_object();
  std::printf("%s\n", j.str().c_str());
}

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 0;
  int trace = -1;
};

// Full-token unsigned decimal: no sign, no blanks, no trailing characters.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

bool usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cloud_week|odr_week|checkpoint_week --seed N --seconds S "
               "--trace 0|1\n",
               problem.c_str());
  return false;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = nullptr;
      for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == value) o.workload = &w;
      }
      if (o.workload == nullptr) return usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      std::uint64_t seed = 0;
      if (!parse_u64(value, seed)) return usage("malformed seed '" + value + "'");
      o.seed = seed;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, o.seconds) || o.seconds < 1 || o.seconds > 3600) {
        return usage("--seconds must be a whole number in [1, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      o.trace = value == "1" ? 1 : 0;
    } else {
      return usage("unknown flag '" + flag + "'");
    }
  }
  if (o.workload == nullptr || !o.seed || o.seconds == 0 || o.trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  Run run;
  run.workload = opt.workload->id;
  const bool trace = opt.trace == 1;
  const std::uint64_t panel = trace ? 1 : opt.workload->panel;
  rotation::start();
  try {
    // checkpoint_week's uninterrupted weeks, one per seed, untimed.
    std::map<std::uint64_t, Reference> references;
    Yardstick yardstick;
    // --trace 1 runs (untraced, traced) pairs, so both sides of
    // obs.overhead_ratio see the same machine state.
    const auto start = WallClock::now();
    bool traced = false;
    std::uint64_t reps = 0;
    do {
      const analysis::ExperimentConfig config = analysis::make_scaled_config(
          opt.workload->divisor, *opt.seed + reps % panel);
      switch (run.workload) {
        case Workload::kCloudWeek: cloud_week_rep(run, config, traced); break;
        case Workload::kOdrWeek: odr_week_rep(run, config, traced); break;
        case Workload::kCheckpointWeek: {
          auto it = references.find(config.seed);
          if (it == references.end()) {
            it = references.emplace(config.seed, uninterrupted(config)).first;
          }
          checkpoint_week_rep(run, config, traced, it->second);
          break;
        }
      }
      if (!traced) {
        after_rep(run, run.reps.back(), *opt.workload, config, trace);
        for (std::uint64_t i = 0; i < kYardstickSamples; ++i) {
          run.reps.back().yardstick_s.push_back(yardstick.measure());
        }
      }
      ++reps;
      if (trace) traced = !traced;
    } while (WallClock::now() - start < std::chrono::seconds(opt.seconds) ||
             reps < panel || traced);
  } catch (const std::exception& e) {
    run.check(nullptr, false, std::string("exception: ") + e.what());
  }
  rotation::stop();
  print_json(run, opt.workload->name);
  return 0;
}
