// Ablation: cache-replacement policy for the cloud storage pool (§2.1).
//
// The paper states the pool evicts "in an LRU manner". This ablation
// replays a multi-week request stream (content churn included) over
// LRU / LFU / FIFO / GDSF at several pool capacities and reports hit
// ratios — showing where the production choice sits.
#include <cstdio>
#include <limits>

#include "analysis/replay.h"
#include "cloud/cache_policy.h"
#include "util/args.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Cache replacement policy ablation for the storage pool.");
  args.flag("divisor", "200", "scale divisor vs the measured system");
  args.flag("weeks", "5", "request weeks replayed (first weeks warm)");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));

  workload::CatalogParams cp;
  cp.num_files = static_cast<std::size_t>(analysis::kMeasuredFiles / divisor);
  cp.total_weekly_requests = 4084417 / divisor;
  const workload::Catalog catalog(cp, rng);

  workload::UserModelParams up;
  up.num_users = static_cast<std::size_t>(783944 / divisor);
  const workload::UserPopulation users(up, rng);

  // Access stream: several weeks of requests (older weeks are the warmup
  // the production pool has seen).
  const int weeks = static_cast<int>(
      args.get_int("weeks", 1, std::numeric_limits<int>::max()));
  std::vector<workload::FileIndex> stream;
  workload::RequestGenParams gp;
  gp.num_requests = static_cast<std::size_t>(cp.total_weekly_requests);
  const workload::RequestGenerator generator(gp);
  for (int w = 0; w < weeks; ++w) {
    Rng week_rng = rng.fork();
    for (const auto& r : generator.generate(catalog, users, week_rng)) {
      stream.push_back(r.file);
    }
  }

  // Capacity sweep relative to the one-week working set.
  Bytes week_bytes = 0;
  for (const auto& f : catalog.files()) week_bytes += f.size;
  std::printf("catalog bytes: %.1f TB; accesses: %zu over %d weeks\n",
              static_cast<double>(week_bytes) / 1e12, stream.size(), weeks);

  TextTable table({"capacity / catalog", "LRU", "LFU", "FIFO", "GDSF"});
  for (double frac : {0.05, 0.15, 0.4, 0.8, 1.5}) {
    std::vector<std::string> row = {TextTable::pct(frac, 0)};
    for (auto policy :
         {cloud::CachePolicy::kLru, cloud::CachePolicy::kLfu,
          cloud::CachePolicy::kFifo, cloud::CachePolicy::kGdsf}) {
      cloud::PolicyCache cache(policy,
                               static_cast<Bytes>(frac * week_bytes));
      // Measure hits on the final week only (earlier weeks warm).
      const std::size_t measure_from = stream.size() * (weeks - 1) / weeks;
      std::uint64_t hits = 0, total = 0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const bool hit =
            cache.access(stream[i], catalog.file(stream[i]).size);
        if (i >= measure_from) {
          ++total;
          hits += hit ? 1 : 0;
        }
      }
      row.push_back(TextTable::pct(static_cast<double>(hits) /
                                   static_cast<double>(total)));
    }
    table.add_row(row);
  }
  std::fputs(banner("Final-week hit ratio by policy and pool capacity "
                    "(paper's pool: LRU, ~2 PB for a ~1.6 PB weekly "
                    "working set, 89% hits)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
