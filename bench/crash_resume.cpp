// Kill-and-resume recovery harness: the headline crash-consistency check.
//
// Runs the calibrated cloud week twice per fault plan: once uninterrupted
// (the reference), then K more times where the process is "killed" at a
// random event index — the world object is destroyed mid-week exactly as a
// SIGKILL would leave it — and brought back from the latest on-disk
// checkpoint. Because checkpoints capture the ENTIRE mutable world
// (simulator queue, RNG streams, network flows, cloud caches, VM tasks,
// fault machinery, the next arrival), the resumed run must reach a final
// state that is BIT-IDENTICAL to the uninterrupted one: same outcome
// stream, same final serialized world. Plan 0 is the fault-free week; plan
// 3 keeps the severe chaos plan (10%/h VM crashes all week + a 6-hour
// upload-cluster outage) active across the kill, proving recovery composes
// with fault injection. Results land in BENCH_crash_resume.json.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/replay.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "snapshot/snapshotter.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace odr;

// FNV-1a over the outcome stream; byte-identical runs hash equal.
void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

std::uint64_t outcome_fingerprint(const std::vector<cloud::TaskOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& o : outcomes) {
    mix(h, o.task_id);
    mix(h, static_cast<std::uint64_t>(o.pre.success));
    mix(h, static_cast<std::uint64_t>(o.pre.finish_time));
    mix(h, o.pre.traffic_bytes);
    mix(h, static_cast<std::uint64_t>(o.fetched));
    mix(h, static_cast<std::uint64_t>(o.fetch.rejected));
    mix(h, static_cast<std::uint64_t>(o.fetch.finish_time));
  }
  return h;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

struct KillRecord {
  std::uint64_t kill_index = 0;
  double kill_fraction = 0.0;
  std::uint64_t checkpoints_at_kill = 0;
  bool checkpoint_used = false;
  std::uint64_t events_after_resume = 0;
  bool bit_identical = false;
  bool outcomes_match = false;
  // Taxonomy verdict for this kill: kNone on a clean pass,
  // kFingerprintMismatch when the resumed world drifted, or whatever
  // classify_replay_failure says when the resume itself threw.
  analysis::ReplayFailureKind kind = analysis::ReplayFailureKind::kNone;
  std::string error;
};

struct PlanResult {
  int plan = 0;
  std::string label;
  std::uint64_t baseline_events = 0;
  std::uint64_t baseline_fingerprint = 0;
  std::vector<KillRecord> kills;
};

PlanResult run_plan(int plan, const std::string& label, double divisor,
                    std::uint64_t seed, int kills, SimTime period,
                    const std::string& ckpt_path, Rng& rng) {
  analysis::ExperimentConfig config = analysis::make_scaled_config(divisor, seed);
  if (plan > 0) {
    config.cloud.degraded_admission = true;
    config.fault_plan = fault::make_chaos_plan(plan);
  }

  // The reference and every victim run with the same checkpoint period, so
  // their event streams (checkpoint ticks included) are identical; only the
  // reference skips the file writes.
  snapshot::WorldOptions opts;
  opts.checkpoint_period = period;
  opts.audit_at_checkpoint = true;

  PlanResult pr;
  pr.plan = plan;
  pr.label = label;

  snapshot::CloudWorld reference(config, opts);
  pr.baseline_events = reference.run();
  const std::string final_state = reference.save_to_buffer();
  pr.baseline_fingerprint = outcome_fingerprint(reference.finalize().outcomes);

  snapshot::WorldOptions victim_opts = opts;
  victim_opts.checkpoint_path = ckpt_path;

  for (int k = 0; k < kills; ++k) {
    KillRecord rec;
    rec.kill_fraction = rng.uniform(0.2, 0.95);
    rec.kill_index = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(rec.kill_fraction *
                                      static_cast<double>(pr.baseline_events)));
    std::remove(ckpt_path.c_str());
    try {
      {
        // The victim dies here: scope exit discards all in-memory state, the
        // way a SIGKILL would. Only the checkpoint file survives.
        snapshot::CloudWorld victim(config, victim_opts);
        victim.run(rec.kill_index);
        rec.checkpoints_at_kill = victim.checkpoints_written();
      }
      rec.checkpoint_used = file_exists(ckpt_path);
      std::unique_ptr<snapshot::CloudWorld> revived;
      if (rec.checkpoint_used) {
        revived =
            snapshot::Restorer::restore_file(config, victim_opts, ckpt_path);
      } else {
        // Killed before the first checkpoint landed: recovery restarts the
        // deterministic week from scratch, which must converge all the same.
        revived = std::make_unique<snapshot::CloudWorld>(config, victim_opts);
      }
      rec.events_after_resume = revived->run();
      rec.bit_identical = revived->save_to_buffer() == final_state;
      rec.outcomes_match =
          outcome_fingerprint(revived->finalize().outcomes) ==
          pr.baseline_fingerprint;
      if (!rec.bit_identical || !rec.outcomes_match) {
        rec.kind = analysis::ReplayFailureKind::kFingerprintMismatch;
      }
    } catch (const std::exception& e) {
      // A throw during resume is a distinct failure mode from a silent
      // divergence; classify it (SnapshotCorrupt, AuditFailure, ...) so the
      // report names what actually broke.
      rec.kind = analysis::classify_replay_failure(e);
      rec.error = e.what();
    }
    pr.kills.push_back(rec);
  }
  std::remove(ckpt_path.c_str());
  return pr;
}

// Determinism guard for the observability layer: observability must be
// pure derived state, so (a) a week observed with full tracing + metrics +
// sampling serializes byte-identically to the same week unobserved, and
// (b) a kill-and-resume cycle under full observability still reconverges
// to the unobserved reference bits and outcome stream.
struct ObsGuardResult {
  bool ref_matches_unobserved = false;
  bool checkpoint_used = false;
  bool resume_bit_identical = false;
  bool outcomes_match = false;
  bool pass() const {
    return ref_matches_unobserved && checkpoint_used && resume_bit_identical &&
           outcomes_match;
  }
};

ObsGuardResult run_obs_guard(double divisor, std::uint64_t seed, SimTime period,
                             const std::string& ckpt_path) {
  analysis::ExperimentConfig config =
      analysis::make_scaled_config(divisor, seed);
  config.cloud.degraded_admission = true;
  config.fault_plan = fault::make_chaos_plan(3);

  snapshot::WorldOptions opts;
  opts.checkpoint_period = period;
  opts.audit_at_checkpoint = true;

  // Unobserved reference: explicitly uninstall any ambient observer.
  std::string plain_state;
  std::uint64_t plain_fingerprint = 0;
  std::uint64_t plain_events = 0;
  {
    obs::Observer* prev = obs::current();
    obs::set_current(nullptr);
    snapshot::CloudWorld reference(config, opts);
    plain_events = reference.run();
    plain_state = reference.save_to_buffer();
    plain_fingerprint = outcome_fingerprint(reference.finalize().outcomes);
    obs::set_current(prev);
  }

  ObsGuardResult g;
  obs::ObsConfig ocfg;  // full observability: tracing, metrics, sampler
  ocfg.trace_max_events = 1u << 16;
  ocfg.dump_on_fault_fired = false;  // chaos plan 3 fires constantly
  // PR 4 surface: per-task spans + the calibration monitor must also be
  // state-transparent — journaling every lifecycle event and streaming
  // estimates must not perturb a single serialized byte, through the
  // checkpoint kill+resume below included.
  ocfg.spans = true;
  ocfg.calibration = true;
  obs::ScopedObserver scoped(ocfg);

  {
    snapshot::CloudWorld observed(config, opts);
    observed.run();
    g.ref_matches_unobserved = observed.save_to_buffer() == plain_state;
  }

  snapshot::WorldOptions victim_opts = opts;
  victim_opts.checkpoint_path = ckpt_path;
  std::remove(ckpt_path.c_str());
  {
    snapshot::CloudWorld victim(config, victim_opts);
    victim.run(std::max<std::uint64_t>(1, plain_events / 2));
  }
  g.checkpoint_used = file_exists(ckpt_path);
  std::unique_ptr<snapshot::CloudWorld> revived;
  if (g.checkpoint_used) {
    revived = snapshot::Restorer::restore_file(config, victim_opts, ckpt_path);
  } else {
    revived = std::make_unique<snapshot::CloudWorld>(config, victim_opts);
  }
  revived->run();
  g.resume_bit_identical = revived->save_to_buffer() == plain_state;
  g.outcomes_match =
      outcome_fingerprint(revived->finalize().outcomes) == plain_fingerprint;
  std::remove(ckpt_path.c_str());
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Kill the cloud week at random event indices and resume from the "
      "latest checkpoint; the final state must be bit-identical.");
  args.flag("divisor", "2000", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("kills", "3", "kill points per fault plan");
  args.flag("kill-seed", "4242", "rng seed for kill-point placement");
  args.flag("period-hours", "6", "checkpoint period (simulated hours)");
  args.flag("ckpt", "crash_resume.ckpt", "checkpoint file path");
  args.flag("json", "BENCH_crash_resume.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const int kills = static_cast<int>(args.get_int("kills"));
  const SimTime period = args.get_int("period-hours") * kHour;
  Rng kill_rng(static_cast<std::uint64_t>(args.get_int("kill-seed")));

  // Bench-wide observer: accumulates the metrics registry across every run
  // below (snapshotted into the JSON output). Tracing stays off here — the
  // obs guard runs its own fully-traced observer — and fault dumps are off
  // because the chaos plans fire faults by design.
  obs::ObsConfig bench_obs;
  bench_obs.tracing = false;
  bench_obs.dump_on_fault_fired = false;
  obs::ScopedObserver bench(bench_obs);

  std::vector<PlanResult> plans;
  plans.push_back(run_plan(0, "fault-free", divisor, seed, kills, period,
                           args.get("ckpt"), kill_rng));
  plans.push_back(run_plan(3, "severe-chaos", divisor, seed, kills, period,
                           args.get("ckpt"), kill_rng));

  TextTable table({"plan", "kill@", "frac", "ckpts", "from-ckpt", "resumed ev",
                   "bit-identical", "outcomes", "kind"});
  bool all_identical = true;
  int from_checkpoint = 0, total_kills = 0;
  for (const auto& p : plans) {
    for (const auto& k : p.kills) {
      const auto kind_name = analysis::replay_failure_kind_name(k.kind);
      table.add_row({p.label, std::to_string(k.kill_index),
                     TextTable::pct(k.kill_fraction),
                     std::to_string(k.checkpoints_at_kill),
                     k.checkpoint_used ? "yes" : "no",
                     std::to_string(k.events_after_resume),
                     k.bit_identical ? "PASS" : "FAIL",
                     k.outcomes_match ? "PASS" : "FAIL",
                     std::string(kind_name)});
      if (!k.error.empty()) {
        std::fprintf(stderr, "kill @%llu (%s) FAILED: [%.*s] %s\n",
                     static_cast<unsigned long long>(k.kill_index),
                     p.label.c_str(), static_cast<int>(kind_name.size()),
                     kind_name.data(), k.error.c_str());
      }
      all_identical = all_identical &&
                      k.kind == analysis::ReplayFailureKind::kNone;
      from_checkpoint += k.checkpoint_used ? 1 : 0;
      ++total_kills;
    }
  }
  std::fputs(banner("Crash/resume: " + std::to_string(total_kills) +
                    " random kills across fault plans (1/" +
                    args.get("divisor") + " scale)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  ObsGuardResult guard;
  try {
    guard = run_obs_guard(divisor, seed, period, args.get("ckpt"));
  } catch (const std::exception& e) {
    const auto kind = analysis::classify_replay_failure(e);
    const auto name = analysis::replay_failure_kind_name(kind);
    std::fprintf(stderr, "obs guard FAILED: [%.*s] %s\n",
                 static_cast<int>(name.size()), name.data(), e.what());
    // guard stays all-false and fails the acceptance below.
  }

  const bool enough_kills = total_kills >= 5;
  const bool checkpoint_path_exercised = from_checkpoint > 0;
  const bool pass = all_identical && enough_kills &&
                    checkpoint_path_exercised && guard.pass();
  std::printf("\nacceptance: every resume bit-identical to the reference: %s\n",
              all_identical ? "PASS" : "FAIL");
  std::printf("acceptance: >= 5 kill points (%d run, %d from a checkpoint): %s\n",
              total_kills, from_checkpoint, enough_kills ? "PASS" : "FAIL");
  std::printf(
      "acceptance: full observability is state-transparent "
      "(ref=%s ckpt=%s resume=%s outcomes=%s): %s\n",
      guard.ref_matches_unobserved ? "ok" : "DIVERGED",
      guard.checkpoint_used ? "ok" : "missing",
      guard.resume_bit_identical ? "ok" : "DIVERGED",
      guard.outcomes_match ? "ok" : "DIVERGED", guard.pass() ? "PASS" : "FAIL");
  if (!pass) {
    bench->flight().auto_dump(obs::FlightRecorder::DumpTrigger::kBenchAbort,
                              "crash_resume acceptance failed");
  }

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "crash_resume")
        .field("divisor", divisor)
        .field("seed", seed)
        .field("kills_per_plan", kills)
        .field("checkpoint_period_hours",
               static_cast<std::int64_t>(period / kHour));
    j.key("plans").begin_array();
    for (const auto& p : plans) {
      j.begin_object()
          .field("plan", p.plan)
          .field("label", p.label)
          .field("baseline_events", p.baseline_events);
      j.key("kills").begin_array();
      for (const auto& k : p.kills) {
        j.begin_object()
            .field("kill_index", k.kill_index)
            .field("kill_fraction", k.kill_fraction)
            .field("checkpoints_at_kill", k.checkpoints_at_kill)
            .field("checkpoint_used", k.checkpoint_used)
            .field("events_after_resume", k.events_after_resume)
            .field("bit_identical", k.bit_identical)
            .field("outcomes_match", k.outcomes_match)
            .field("failure_kind",
                   std::string(analysis::replay_failure_kind_name(k.kind)))
            .end_object();
      }
      j.end_array().end_object();
    }
    j.end_array();
    j.key("obs_guard")
        .begin_object()
        .field("ref_matches_unobserved", guard.ref_matches_unobserved)
        .field("checkpoint_used", guard.checkpoint_used)
        .field("resume_bit_identical", guard.resume_bit_identical)
        .field("outcomes_match", guard.outcomes_match)
        .field("pass", guard.pass())
        .end_object();
    j.key("metrics");
    bench->write_metrics_json(j);
    j.field("pass", pass).end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return pass ? 0 : 1;
}
