// Quickstart: one offline-downloading request end to end.
//
// Builds a miniature world (catalog, users, cloud, a smart AP), asks the
// ODR redirector where one request should go, executes the decision, and
// prints what happened at each stage. Start here to see the public API.
#include <cstdio>
#include <optional>

#include "ap/smart_ap.h"
#include "cloud/xuanfeng.h"
#include "core/executor.h"
#include "core/strategy.h"
#include "net/isp.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

int main() {
  using namespace odr;

  // 1. The simulation substrate: a discrete-event clock and a flow-level
  //    network with max-min fair bandwidth sharing.
  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(42);

  // 2. The world: a small file catalog with the paper's popularity/size/
  //    protocol mix, and a user population with China's 2015 ISP and
  //    access-bandwidth mix.
  workload::CatalogParams catalog_params;
  catalog_params.num_files = 2000;
  catalog_params.total_weekly_requests = 14500;
  workload::Catalog catalog(catalog_params, rng);

  workload::UserModelParams user_params;
  user_params.num_users = 500;
  workload::UserPopulation users(user_params, rng);

  // 3. The proxies: a scaled Xuanfeng-like cloud and a Newifi smart AP in
  //    its shipping configuration (USB flash drive, NTFS).
  cloud::CloudConfig cloud_config;
  cloud_config.total_upload_capacity = gbps_to_rate(0.15);
  proto::SourceParams sources;
  // The cloud and the AP report every outcome to the executor built in
  // step 5.
  std::optional<core::Executor> executor;
  cloud::XuanfengCloud cloud(sim, net, catalog, sources, cloud_config, rng,
                             [&executor](const workload::TaskOutcome& o) {
                               executor->on_cloud_outcome(o);
                             });
  for (const auto& f : catalog.files()) {
    if (f.born_before_trace && f.rank % 3 != 0) cloud.warm_cache(f.index);
  }

  ap::SmartApConfig ap_config;  // defaults to Newifi + USB flash + NTFS
  ap::SmartAp ap(sim, net, ap_config, sources, rng,
                 [&executor](std::uint64_t id, const proto::DownloadResult& r) {
                   executor->on_ap_outcome(id, r);
                 });

  // 4. One request: generate a tiny trace and take its first record.
  workload::RequestGenParams gen_params;
  gen_params.num_requests = 1;
  gen_params.duration = kMinute;
  workload::RequestGenerator generator(gen_params);
  const auto trace = generator.generate(catalog, users, rng);
  const workload::WorkloadRecord& request = trace.front();
  const workload::User& user = users.user(request.user_id);
  const workload::FileInfo& file = catalog.file(request.file);

  std::printf("Request: file rank %u (%s, %.0f MB, %s), user in %s at %.0f "
              "KBps\n",
              file.rank,
              std::string(workload::file_type_name(file.type)).c_str(),
              static_cast<double>(file.size) / kMB,
              std::string(proto::protocol_name(file.protocol)).c_str(),
              std::string(net::isp_name(user.isp)).c_str(),
              rate_to_kbps(user.access_bandwidth));

  // 5. Ask ODR where this request should be served, then execute.
  executor.emplace(sim, net, catalog, cloud, sources, core::RedirectorParams{},
                   rng, [](const core::ExecOutcome& outcome) {
                     std::printf(
                         "Outcome: %s; e2e %.1f min; fetch %.0f KBps%s\n",
                         outcome.success ? "success" : "FAILED",
                         to_minutes(outcome.ready_time - outcome.request_time),
                         rate_to_kbps(outcome.fetch_rate),
                         outcome.impeded ? " (impeded)" : "");
                   });
  const core::DecisionInput input = executor->make_input(request, user, &ap);
  const core::Decision decision = executor->redirector().decide(input);

  std::printf("ODR input: weekly popularity %.0f, cached=%s\n",
              input.weekly_popularity, input.cached_in_cloud ? "yes" : "no");
  std::printf("ODR decision: %s (%s)\n",
              std::string(core::route_name(decision.route)).c_str(),
              std::string(decision.rationale).c_str());

  executor->execute(decision, request, user, &ap);
  sim.run();
  return 0;
}
