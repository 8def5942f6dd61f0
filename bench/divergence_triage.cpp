// Divergence-triage acceptance harness: prove the bisector localizes a
// single-event divergence exactly, in O(log n) hash comparisons.
//
// The harness manufactures the smallest possible reproducibility bug: one
// extra RNG draw injected at a known event index (the hidden
// debug_burn_rng_at_event config hook — the draw perturbs nothing but the
// generator's position, exactly the kind of silent drift a refactor can
// introduce). It then hands the clean and burned configs to
// snapshot::bisect_divergence and asserts the report pins
//
//   - the exact first divergent event ordinal (burn_at + 1: the burn fires
//     before that event executes, so it is the first event whose
//     post-state hash can differ),
//   - the exact (time, id) of that event, precomputed from a clean run,
//   - the burn's own footprint: hashed after the burn fires and before
//     that event runs, the burned world differs from the clean one in the
//     rng sub-hash alone (what the divergent event then splits depends on
//     what it draws: a clean world that draws one value more in it
//     realigns the generators), and
//   - a phase-2 comparison count within the 1 + ceil(log2(records)) gate.
//
// A control bisection of the config against itself must come back
// IDENTICAL in a single comparison. Exit is nonzero on any miss, with the
// taxonomy name (HashMismatch expected) in the output.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/failure_kind.h"
#include "analysis/replay.h"
#include "snapshot/bisect.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"

namespace {

using namespace odr;

// The option set bisect worlds run under (see bisect.cc): checkpoint ticks
// on the default period, no audits, no files. The baseline world used to
// size the week and precompute the expected event must match it so the
// event streams are identical.
snapshot::WorldOptions baseline_options() {
  snapshot::WorldOptions o;
  o.audit_at_checkpoint = false;
  return o;
}

std::uint64_t log2_ceil(std::uint64_t n) {
  std::uint64_t bits = 0;
  while ((1ull << bits) < n) ++bits;
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Inject one extra rng draw at a known event and assert the bisector "
      "pins exactly that event.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("burn-frac", "0.4",
            "where in the week to inject the extra draw (fraction of events)");
  args.flag("hash-every", "500", "hash cadence for the bisection runs");
  args.flag("json", "BENCH_divergence_triage.json",
            "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double burn_frac = args.get_double("burn-frac");
  const auto hash_every =
      static_cast<std::uint64_t>(args.get_int("hash-every", 1));
  if (burn_frac <= 0.0 || burn_frac >= 1.0) {
    std::fprintf(stderr, "divergence_triage: --burn-frac must be in (0, 1)\n");
    return 1;
  }

  const analysis::ExperimentConfig clean =
      analysis::make_scaled_config(divisor, seed);

  // Size the week and pick the injection point.
  std::uint64_t total_events = 0;
  {
    snapshot::CloudWorld world(clean, baseline_options());
    total_events = world.run();
  }
  const std::uint64_t burn_at = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(burn_frac *
                                    static_cast<double>(total_events)));

  // Precompute the expected first divergent event: the burn fires before
  // event #(burn_at + 1) executes, and up to that point both runs share
  // one event stream, so the clean run knows its (time, id) exactly.
  SimTime expected_time = 0;
  std::uint64_t expected_id = 0;
  {
    snapshot::CloudWorld world(clean, baseline_options());
    world.run(burn_at + 1);
    expected_time = world.sim().last_event_time();
    expected_id = world.sim().last_event_id();
  }

  analysis::ExperimentConfig burned = clean;
  burned.debug_burn_rng_at_event = burn_at;

  snapshot::BisectOptions options;
  options.hash_every_events = hash_every;

  std::printf(
      "week: %llu events at 1/%s scale; injecting one extra rng draw after "
      "event %llu (cadence %llu)\n",
      static_cast<unsigned long long>(total_events),
      args.get("divisor").c_str(), static_cast<unsigned long long>(burn_at),
      static_cast<unsigned long long>(hash_every));

  snapshot::BisectReport report;
  snapshot::BisectReport control;
  try {
    report = snapshot::bisect_divergence(clean, burned, options);
    control = snapshot::bisect_divergence(clean, clean, options);
  } catch (const std::exception& e) {
    const auto kind = analysis::classify_replay_failure(e);
    const auto name = analysis::replay_failure_kind_name(kind);
    std::fprintf(stderr, "divergence_triage: [%.*s] %s\n",
                 static_cast<int>(name.size()), name.data(), e.what());
    return 1;
  }

  const std::uint64_t comparison_gate =
      1 + log2_ceil(std::max<std::uint64_t>(1, report.journal_records));
  const bool diverged_ok =
      report.diverged &&
      report.kind == analysis::DivergenceKind::kHashMismatch;
  const bool event_ok = report.first_divergent_event == burn_at + 1;
  const bool time_id_ok =
      report.event_time == expected_time && report.event_id == expected_id;
  bool subsystem_ok = !report.subsystems.empty();
  {
    snapshot::CloudWorld a(clean, baseline_options());
    snapshot::CloudWorld b(burned, baseline_options());
    a.run(burn_at);
    b.run(burn_at);
    b.burn_rng_if_due();
    subsystem_ok = subsystem_ok &&
                   snapshot::divergent_subsystems(a.hash_now(), b.hash_now()) ==
                       std::vector<snapshot::Subsystem>{snapshot::Subsystem::kRng};
  }
  const bool logn_ok = report.hash_comparisons <= comparison_gate;
  const bool control_ok = !control.diverged && control.hash_comparisons == 1;
  const bool pass = diverged_ok && event_ok && time_id_ok && subsystem_ok &&
                    logn_ok && control_ok;

  const auto kind_name = analysis::replay_failure_kind_name(report.kind);
  std::printf("bisect: %s\n", report.detail.c_str());
  std::printf("acceptance: divergence detected as [%.*s]: %s\n",
              static_cast<int>(kind_name.size()), kind_name.data(),
              diverged_ok ? "PASS" : "FAIL");
  std::printf("acceptance: first divergent event #%llu == burn_at+1 (%llu): %s\n",
              static_cast<unsigned long long>(report.first_divergent_event),
              static_cast<unsigned long long>(burn_at + 1),
              event_ok ? "PASS" : "FAIL");
  std::printf(
      "acceptance: event (time %lld, id %llu) == expected (%lld, %llu): %s\n",
      static_cast<long long>(report.event_time),
      static_cast<unsigned long long>(report.event_id),
      static_cast<long long>(expected_time),
      static_cast<unsigned long long>(expected_id),
      time_id_ok ? "PASS" : "FAIL");
  std::printf("acceptance: the burn alone splits only the rng sub-hash: %s\n",
              subsystem_ok ? "PASS" : "FAIL");
  std::printf("acceptance: %llu hash comparisons <= 1+ceil(log2(%llu)) = %llu: %s\n",
              static_cast<unsigned long long>(report.hash_comparisons),
              static_cast<unsigned long long>(report.journal_records),
              static_cast<unsigned long long>(comparison_gate),
              logn_ok ? "PASS" : "FAIL");
  std::printf("acceptance: self-bisection IDENTICAL in 1 comparison: %s\n",
              control_ok ? "PASS" : "FAIL");

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "divergence_triage")
        .field("divisor", divisor)
        .field("seed", seed)
        .field("total_events", total_events)
        .field("burn_at", burn_at)
        .field("hash_every", hash_every)
        .field("journal_records", report.journal_records)
        .field("hash_comparisons", report.hash_comparisons)
        .field("comparison_gate", comparison_gate)
        .field("first_divergent_event", report.first_divergent_event)
        .field("event_time", static_cast<std::int64_t>(report.event_time))
        .field("event_id", report.event_id)
        .field("kind", std::string(kind_name))
        .field("detail", report.detail)
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
