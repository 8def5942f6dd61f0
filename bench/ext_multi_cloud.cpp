// Extension bench: ODR over multiple clouds (§6.1).
//
// Three independent cloud deployments modeled after the paper's §2.1
// landscape:
//   - "Xuanfeng"  : the baseline free service;
//   - "Xunlei"    : paid ($1.50/mo), more upload capacity, similar pool;
//   - "CloudDisk" : free, bigger storage pool, leaner upload capacity.
// Each warms its cache independently (different operators cache different
// histories), so the union covers more content than any single pool.
// The selector selects per request; the single-cloud baseline always uses
// "Xuanfeng".
#include <cstdio>
#include <memory>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "core/multi_cloud.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/table.h"
#include "workload/request_gen.h"

using namespace odr;

namespace {

struct RunResult {
  std::vector<workload::TaskOutcome> outcomes;
  double union_hit_ratio = 0.0;
  std::uint64_t rejections = 0;
};

RunResult run_case(double divisor, std::uint64_t seed, bool multi) {
  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(seed);

  auto cfg = analysis::make_scaled_config(divisor, seed);
  workload::Catalog catalog(cfg.catalog, rng);
  workload::UserPopulation users(cfg.users, rng);
  workload::RequestGenerator generator(cfg.requests);
  const auto requests = generator.generate(catalog, users, rng);

  RunResult result;
  result.outcomes.reserve(requests.size());
  const auto keep = [&result](const workload::TaskOutcome& o) {
    result.outcomes.push_back(o);
  };

  // Three differently-shaped clouds, all reporting into `result`.
  std::vector<std::unique_ptr<cloud::XuanfengCloud>> clouds;
  auto add_cloud = [&](double capacity_scale, double storage_scale) {
    cloud::CloudConfig cc = cfg.cloud;
    cc.total_upload_capacity *= capacity_scale;
    cc.storage_capacity = static_cast<Bytes>(
        static_cast<double>(cc.storage_capacity) * storage_scale);
    clouds.push_back(std::make_unique<cloud::XuanfengCloud>(
        sim, net, catalog, cfg.sources, cc, rng, keep));
  };
  add_cloud(1.0, 1.0);   // Xuanfeng
  add_cloud(1.5, 1.0);   // Xunlei: paid, more uplink
  add_cloud(0.7, 2.0);   // CloudDisk: big pool, lean uplink

  // Independent warm histories: each operator saw different past demand.
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    Rng warm(seed * 31 + i);
    for (int w = 0; w < cfg.warmup_weeks; ++w) {
      for (std::size_t k = 0; k < cfg.requests.num_requests; ++k) {
        const auto idx = catalog.sample_request(warm);
        const auto& f = catalog.file(idx);
        if (!f.born_before_trace) continue;
        if (clouds[i]->storage().contains(idx)) continue;
        if (warm.bernoulli(analysis::warm_success_probability(
                f.expected_weekly_requests))) {
          clouds[i]->warm_cache(idx);
        }
      }
    }
  }

  core::MultiCloudSelector selector(
      {clouds[0].get(), clouds[1].get(), clouds[2].get()});

  std::uint64_t union_hits = 0;
  for (const auto& request : requests) {
    sim.schedule_at(request.request_time, [&, request] {
      std::size_t target = 0;
      if (multi) {
        const auto choice =
            selector.choose(request.file, users.user(request.user_id).isp);
        target = choice.cloud;
      }
      if (selector.cached_anywhere(request.file)) ++union_hits;
      // The receiving cloud's content database counts the request.
      clouds[target]->content_db().record_request(request.file, sim.now());
      clouds[target]->submit(request, users.user(request.user_id));
    });
  }
  sim.run();

  result.union_hit_ratio =
      static_cast<double>(union_hits) / static_cast<double>(requests.size());
  for (const auto& c : clouds) {
    result.rejections += c->uploads().rejected_count();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("ODR across multiple clouds (Xuanfeng + Xunlei + "
                 "CloudDisk).");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const double divisor = args.get_double("divisor", 1.0, analysis::kMaxDivisor);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  TextTable table({"mode", "cache hits", "pre-dl failures", "impeded",
                   "rejections"});
  for (const bool multi : {false, true}) {
    const RunResult r = run_case(divisor, seed, multi);
    std::size_t hits = 0, failures = 0, impeded = 0, fetched = 0;
    for (const auto& o : r.outcomes) {
      if (o.pre.cache_hit) ++hits;
      if (!o.pre.success) ++failures;
      if (o.pre.success) {
        ++fetched;
        if (o.fetch.rejected ||
            o.fetch.average_rate < kbps_to_rate(125.0)) {
          ++impeded;
        }
      }
    }
    const double n = static_cast<double>(r.outcomes.size());
    table.add_row({multi ? "multi-cloud selector" : "single cloud (Xuanfeng)",
                   TextTable::pct(hits / n),
                   TextTable::pct(failures / n),
                   TextTable::pct(fetched == 0
                                      ? 0.0
                                      : static_cast<double>(impeded) / fetched),
                   std::to_string(r.rejections)});
  }
  std::fputs(banner("Single cloud vs multi-cloud redirection (union of "
                    "independent caches + load spreading)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
