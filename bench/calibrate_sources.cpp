// Calibration harness: per-popularity behaviour of the source models.
//
// Runs isolated DownloadTasks against SwarmSource/ServerSource across a
// popularity sweep and prints failure ratio and speed quantiles per point.
// This is the tool used to fit the swarm parameters to the paper's
// anchors (42% unpopular AP failure, ~25 KBps median miss speed, 2.37
// MBps max), and it documents how the shipped defaults behave.
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "net/network.h"
#include "proto/download.h"
#include "proto/source.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/catalog.h"

using namespace odr;

int main(int argc, char** argv) {
  ArgParser args("Sweep source-model behaviour across popularity.");
  args.flag("trials", "300", "downloads per popularity point");
  args.flag("size_mb", "115", "file size in MB (paper median)");
  args.flag("line_kbps", "2500", "downloader line rate in KBps");
  args.flag("seed", "7", "random seed");
  if (!args.parse(argc, argv)) return 1;

  const int trials = static_cast<int>(args.get_int("trials", 1, INT_MAX));
  constexpr std::int64_t kMaxSizeMb =
      INT64_MAX / static_cast<std::int64_t>(kMB);
  const Bytes size =
      static_cast<Bytes>(args.get_int("size_mb", 1, kMaxSizeMb)) * kMB;
  const Rate line = kbps_to_rate(args.get_double("line_kbps", DBL_MIN));

  const std::vector<double> pops = {0.5, 1, 2, 4, 7, 15, 30, 84, 200, 1000};
  proto::SourceParams sources;

  TextTable table({"popularity/wk", "failure", "p25 KBps", "median KBps",
                   "p90 KBps", "max KBps", "med delay min"});
  for (double pop : pops) {
    sim::Simulator sim;
    net::Network net(sim);
    Rng rng(static_cast<std::uint64_t>(args.get_int("seed")) + 1000 *
            static_cast<std::uint64_t>(pop * 10));
    int failures = 0;
    EmpiricalCdf speed, delay;
    std::vector<std::unique_ptr<proto::DownloadTask>> tasks;
    for (int t = 0; t < trials; ++t) {
      auto source = proto::make_source(proto::Protocol::kBitTorrent, pop,
                                       sources, rng);
      proto::DownloadTask::Config cfg;
      cfg.rate_ceiling = line;
      tasks.push_back(std::make_unique<proto::DownloadTask>(
          sim, net, std::move(source), size, cfg,
          [&](const proto::DownloadResult& r) {
            if (!r.success) ++failures;
            speed.add(rate_to_kbps(r.average_rate));
            if (r.success) delay.add(to_minutes(r.duration()));
          }));
      tasks.back()->start(rng);
    }
    sim.run();
    table.add_row({TextTable::num(pop, 1),
                   TextTable::pct(static_cast<double>(failures) / trials),
                   TextTable::num(speed.quantile(0.25), 0),
                   TextTable::num(speed.median(), 0),
                   TextTable::num(speed.quantile(0.9), 0),
                   TextTable::num(speed.max(), 0),
                   TextTable::num(delay.median(), 0)});
  }
  std::fputs(banner("Swarm (BitTorrent) behaviour by weekly popularity").c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  // Catalog popularity composition at the default 1/400 experiment scale:
  // how much request mass sits at each expected-weekly-count level.
  {
    Rng rng(11);
    workload::CatalogParams cp;
    cp.num_files = 1408;
    cp.total_weekly_requests = 10211;
    workload::Catalog catalog(cp, rng);
    const std::vector<double> bounds = {0, 1, 2, 4, 7, 20, 84, 1e9};
    std::vector<double> file_share(bounds.size() - 1, 0.0);
    std::vector<double> req_share(bounds.size() - 1, 0.0);
    for (const auto& f : catalog.files()) {
      for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
        if (f.expected_weekly_requests >= bounds[b] &&
            f.expected_weekly_requests < bounds[b + 1]) {
          file_share[b] += 1.0;
          req_share[b] += f.expected_weekly_requests;
          break;
        }
      }
    }
    TextTable comp({"expected req/wk", "file share", "request share"});
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
      comp.add_row({TextTable::num(bounds[b], 0) + "-" +
                        TextTable::num(bounds[b + 1], 0),
                    TextTable::pct(file_share[b] / catalog.size()),
                    TextTable::pct(req_share[b] / cp.total_weekly_requests)});
    }
    std::fputs(banner("Catalog popularity composition (1/400 scale)").c_str(),
               stdout);
    std::fputs(comp.render().c_str(), stdout);
  }

  // HTTP/FTP behaviour.
  {
    sim::Simulator sim;
    net::Network net(sim);
    Rng rng(99);
    int failures = 0;
    EmpiricalCdf speed;
    std::vector<std::unique_ptr<proto::DownloadTask>> tasks;
    for (int t = 0; t < trials; ++t) {
      auto source =
          proto::make_source(proto::Protocol::kHttp, 10.0, sources, rng);
      proto::DownloadTask::Config cfg;
      cfg.rate_ceiling = line;
      tasks.push_back(std::make_unique<proto::DownloadTask>(
          sim, net, std::move(source), size, cfg,
          [&](const proto::DownloadResult& r) {
            if (!r.success) ++failures;
            speed.add(rate_to_kbps(r.average_rate));
          }));
      tasks.back()->start(rng);
    }
    sim.run();
    std::printf("\nHTTP/FTP: failure %.1f%% (paper: ~13%% of AP HTTP tasks), "
                "median %.0f KBps\n",
                100.0 * failures / trials, speed.median());
  }
  return 0;
}
