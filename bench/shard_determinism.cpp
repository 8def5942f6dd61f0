// Sharded-engine determinism gate.
//
// The sharded event engine (sim::Simulator::set_shard_count) claims to be
// EXACT: any shard count must reproduce the single-shard run bit-for-bit.
// This harness proves it the hard way — it replays the calibrated cloud
// week unsharded with in-run state hashing on, then replays it at each
// requested shard count and demands
//
//   1. the identical outcome fingerprint,
//   2. the identical task count, and
//   3. the identical state-hash journal: every StateHash record (clock,
//      event counters, and all eleven per-subsystem CRCs) equal at every
//      cadence point, not just the final state.
//
// Any mismatch names the first divergent record and subsystem and exits
// nonzero, which makes the binary a CI job (see sharded-determinism in
// ci.yml) as well as a local triage tool.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "obs/observer.h"
#include "snapshot/state_hash.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace odr;

struct ShardRun {
  std::size_t shards = 1;
  std::uint64_t fingerprint = 0;
  std::size_t tasks = 0;
  std::vector<snapshot::StateHash> hashes;
};

ShardRun run_week(double divisor, std::uint64_t seed, std::size_t shards,
                  std::uint64_t hash_every) {
  obs::ObsConfig run_obs;
  run_obs.tracing = false;
  run_obs.dump_on_fault_fired = false;
  obs::ScopedObserver obs(run_obs);

  analysis::ExperimentConfig config = analysis::make_scaled_config(divisor, seed);
  config.engine_shards = shards;

  snapshot::WorldOptions options;
  options.checkpoint_period = 0;  // no ticks: the hash cadence drives sampling
  options.audit_at_checkpoint = false;
  options.hash_every_events = hash_every;

  snapshot::CloudWorld world(config, options);
  world.run();

  ShardRun r;
  r.shards = shards;
  const analysis::CloudReplayResult result = world.finalize();
  r.fingerprint = analysis::outcome_fingerprint(result.outcomes);
  r.tasks = result.outcomes.size();
  r.hashes = world.hashes();
  return r;
}

// Index of the first mismatching journal record, or -1 when the journals
// are identical (length included).
long first_divergence(const std::vector<snapshot::StateHash>& a,
                      const std::vector<snapshot::StateHash>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return static_cast<long>(i);
  }
  if (a.size() != b.size()) return static_cast<long>(n);
  return -1;
}

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Replay the cloud week sharded and demand bit-identical fingerprints "
      "and state-hash journals vs the unsharded run.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "workload seed");
  args.flag("shards", "2,4", "comma-separated shard counts to verify");
  args.flag("hash-every", "2000", "state-hash cadence in executed events");
  args.flag("json", "BENCH_shard_determinism.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto hash_every = static_cast<std::uint64_t>(args.get_int("hash-every"));
  const std::vector<std::size_t> shard_counts = parse_counts(args.get("shards"));
  if (divisor < 1.0 || hash_every == 0 || shard_counts.empty()) {
    std::fprintf(stderr, "need divisor >= 1, hash-every > 0, and shard counts\n");
    return 1;
  }

  const ShardRun base = run_week(divisor, seed, 1, hash_every);
  std::printf("baseline: divisor %.0f, %zu tasks, fingerprint %016llx, "
              "%zu hash records\n",
              divisor, base.tasks,
              static_cast<unsigned long long>(base.fingerprint),
              base.hashes.size());

  TextTable table({"shards", "tasks", "fingerprint", "journal"});
  bool ok = true;
  std::vector<ShardRun> runs;
  for (const std::size_t shards : shard_counts) {
    const ShardRun r = run_week(divisor, seed, shards, hash_every);
    const bool fp_ok = r.fingerprint == base.fingerprint && r.tasks == base.tasks;
    const long div_at = first_divergence(base.hashes, r.hashes);
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    table.add_row({std::to_string(r.shards), std::to_string(r.tasks), fp,
                   div_at < 0 ? "identical"
                              : "DIVERGED@" + std::to_string(div_at)});
    if (!fp_ok || div_at >= 0) {
      ok = false;
      std::fprintf(stderr, "MISMATCH at %zu shards:", shards);
      if (!fp_ok) std::fprintf(stderr, " fingerprint/task-count differs;");
      if (div_at >= 0) {
        std::fprintf(stderr, " journal diverges at record %ld", div_at);
        const std::size_t i = static_cast<std::size_t>(div_at);
        if (i < base.hashes.size() && i < r.hashes.size()) {
          for (snapshot::Subsystem s :
               snapshot::divergent_subsystems(base.hashes[i], r.hashes[i])) {
            std::fprintf(stderr, " [%s]",
                         std::string(snapshot::subsystem_name(s)).c_str());
          }
        }
      }
      std::fprintf(stderr, "\n");
    }
    runs.push_back(r);
  }

  std::fputs(banner("Sharded-engine determinism (divisor " +
                    args.get("divisor") + ", hash cadence " +
                    args.get("hash-every") + ")")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%s\n", ok ? "all sharded runs bit-identical to baseline"
                           : "SHARDED RUN DIVERGED FROM BASELINE");

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object()
        .field("bench", "shard_determinism")
        .field("divisor", divisor)
        .field("seed", seed)
        .field("hash_every", hash_every)
        .field("baseline_tasks", static_cast<std::uint64_t>(base.tasks))
        .field("hash_records", static_cast<std::uint64_t>(base.hashes.size()))
        .field("ok", ok);
    j.key("runs").begin_array();
    for (const ShardRun& r : runs) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      j.begin_object()
          .field("shards", static_cast<std::uint64_t>(r.shards))
          .field("tasks", static_cast<std::uint64_t>(r.tasks))
          .field("fingerprint", std::string(fp))
          .field("identical", r.fingerprint == base.fingerprint &&
                                  first_divergence(base.hashes, r.hashes) < 0)
          .end_object();
    }
    j.end_array().end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    }
  }
  return ok ? 0 : 1;
}
