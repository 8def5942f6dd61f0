// Hedged request cloning vs plain ODR under capacity pressure.
//
// Cloning buys tail latency with duplicated ("synchronized") service:
// every hedged task occupies two backends until the loser is cancelled,
// so the interesting curves are cloud utilization and completion latency
// as purchased capacity shrinks. Plain ODR degrades by queueing; hedged
// ODR keeps the p95/p99 flat while it still has budget, then gracefully
// degrades to single-path once the shared retry/hedge budget runs dry.
//
// Output: a human table plus BENCH_fig_cloning.json with one row per
// (capacity scale, strategy) cell.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "util/args.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

struct Cell {
  double capacity_scale = 1.0;
  std::string strategy;
  std::size_t tasks = 0;
  std::size_t successes = 0;
  double success_rate = 0.0;
  double utilization = 0.0;  // delivered upload bytes / purchasable bytes
  double impeded_fraction = 0.0;
  double e2e_p50_min = 0.0;
  double e2e_p95_min = 0.0;
  double e2e_p99_min = 0.0;
  std::uint64_t hedge_pairs = 0;
  std::uint64_t hedge_primary_wins = 0;
  std::uint64_t hedge_secondary_wins = 0;
  std::uint64_t hedge_both_failed = 0;
  std::uint64_t hedge_budget_denied = 0;
  std::uint64_t hedge_cancelled_clones = 0;
  double hedge_wasted_gb = 0.0;
  std::uint64_t vm_retry_budget_denied = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args(
      "Hedged cloning vs plain ODR: utilization and completion-latency "
      "curves as cloud capacity shrinks.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  args.flag("budget", "1", "1 = enable the shared retry/hedge budget");
  args.flag("json", "BENCH_fig_cloning.json", "output JSON (empty to skip)");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool budget_on = args.get_int("budget") != 0;

  // `tight` starves the shared retry/hedge budget (a week's refill covers
  // only a fraction of the tasks) to chart the graceful-degradation path:
  // once the bucket runs dry the remaining tasks silently fall back to
  // plain single-path ODR instead of being rejected.
  auto run = [&](double scale, core::Strategy strategy, bool tight) {
    analysis::StrategyReplayConfig cfg;
    cfg.experiment = analysis::make_scaled_config(divisor, seed);
    cfg.experiment.cloud.total_upload_capacity *= scale;
    cfg.experiment.cloud.retry_budget_enabled = budget_on || tight;
    if (tight) {
      cfg.experiment.cloud.retry_budget_global_capacity = 256.0;
      cfg.experiment.cloud.retry_budget_global_refill_per_hour = 8.0;
    }
    cfg.strategy = strategy;
    const auto result = analysis::run_strategy_replay(cfg);

    Cell c;
    c.capacity_scale = scale;
    c.strategy = std::string(core::strategy_name(strategy));
    if (tight) c.strategy += "(tight)";
    c.tasks = result.outcomes.size();
    EmpiricalCdf e2e;
    Bytes upload = 0;
    std::size_t impeded = 0, fetch_successes = 0;
    for (const auto& o : result.outcomes) {
      if (o.success) {
        ++c.successes;
        e2e.add(to_minutes(o.ready_time - o.request_time));
      }
      if (o.success && o.fetch_rate > 0) {
        ++fetch_successes;
        if (o.impeded) ++impeded;
      }
      upload += o.cloud_upload_bytes;
    }
    c.success_rate = c.tasks == 0 ? 0.0
                                  : static_cast<double>(c.successes) /
                                        static_cast<double>(c.tasks);
    const double purchasable =
        result.cloud_capacity * to_seconds(result.duration);
    c.utilization =
        purchasable <= 0.0 ? 0.0 : static_cast<double>(upload) / purchasable;
    c.impeded_fraction = fetch_successes == 0
                             ? 0.0
                             : static_cast<double>(impeded) /
                                   static_cast<double>(fetch_successes);
    if (!e2e.empty()) {
      c.e2e_p50_min = e2e.quantile(0.50);
      c.e2e_p95_min = e2e.quantile(0.95);
      c.e2e_p99_min = e2e.quantile(0.99);
    }
    c.hedge_pairs = result.hedge_pairs;
    c.hedge_primary_wins = result.hedge_primary_wins;
    c.hedge_secondary_wins = result.hedge_secondary_wins;
    c.hedge_both_failed = result.hedge_both_failed;
    c.hedge_budget_denied = result.hedge_budget_denied;
    c.hedge_cancelled_clones = result.hedge_cancelled_clones;
    c.hedge_wasted_gb = static_cast<double>(result.hedge_wasted_bytes) / 1e9;
    c.vm_retry_budget_denied = result.vm_retry_budget_denied;
    return c;
  };

  const std::vector<double> scales = {1.0, 0.5, 0.25};
  std::vector<Cell> cells;
  for (const double scale : scales) {
    cells.push_back(run(scale, core::Strategy::kOdr, false));
    cells.push_back(run(scale, core::Strategy::kHedged, false));
    cells.push_back(run(scale, core::Strategy::kHedged, true));
  }

  TextTable table({"capacity", "strategy", "success", "util", "impeded",
                   "e2e p50 (min)", "e2e p95", "e2e p99", "pairs",
                   "2nd wins", "budget denied", "wasted (GB)"});
  for (const auto& c : cells) {
    table.add_row({TextTable::num(c.capacity_scale, 2), c.strategy,
                   TextTable::pct(c.success_rate),
                   TextTable::pct(c.utilization),
                   TextTable::pct(c.impeded_fraction),
                   TextTable::num(c.e2e_p50_min, 1),
                   TextTable::num(c.e2e_p95_min, 1),
                   TextTable::num(c.e2e_p99_min, 1),
                   TextTable::num(static_cast<double>(c.hedge_pairs), 0),
                   TextTable::num(
                       static_cast<double>(c.hedge_secondary_wins), 0),
                   TextTable::num(
                       static_cast<double>(c.hedge_budget_denied), 0),
                   TextTable::num(c.hedge_wasted_gb, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    JsonWriter j;
    j.begin_object();
    j.field("bench", "fig_cloning");
    j.field("divisor", divisor);
    j.field("seed", seed);
    j.field("budget_enabled", budget_on);
    j.key("rows").begin_array();
    for (const auto& c : cells) {
      j.begin_object();
      j.field("capacity_scale", c.capacity_scale);
      j.field("strategy", c.strategy);
      j.field("tasks", static_cast<std::uint64_t>(c.tasks));
      j.field("successes", static_cast<std::uint64_t>(c.successes));
      j.field("success_rate", c.success_rate);
      j.field("utilization", c.utilization);
      j.field("impeded_fraction", c.impeded_fraction);
      j.field("e2e_p50_min", c.e2e_p50_min);
      j.field("e2e_p95_min", c.e2e_p95_min);
      j.field("e2e_p99_min", c.e2e_p99_min);
      j.field("hedge_pairs", c.hedge_pairs);
      j.field("hedge_primary_wins", c.hedge_primary_wins);
      j.field("hedge_secondary_wins", c.hedge_secondary_wins);
      j.field("hedge_both_failed", c.hedge_both_failed);
      j.field("hedge_budget_denied", c.hedge_budget_denied);
      j.field("hedge_cancelled_clones", c.hedge_cancelled_clones);
      j.field("hedge_wasted_gb", c.hedge_wasted_gb);
      j.field("vm_retry_budget_denied", c.vm_retry_budget_denied);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    if (j.write_file(json_path)) {
      std::printf("results written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
