// Example: talking to ODR the way a browser does (§6.1).
//
// Drives the OdrService front end with a handful of download links — a
// magnet link, an ed2k link, an HTTP link, and a malformed one — from
// users in different ISPs with different gear, printing the JSON each
// submission would receive.
#include <cstdio>

#include "core/service.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

int main() {
  using namespace odr;

  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(2015);

  workload::CatalogParams cp;
  cp.num_files = 3000;
  cp.total_weekly_requests = 21750;
  workload::Catalog catalog(cp, rng);

  // The demo only asks ODR for decisions: no task runs, so no sink.
  cloud::XuanfengCloud cloud(sim, net, catalog, proto::SourceParams{},
                             cloud::CloudConfig{}, rng, nullptr);
  // Warm the cloud: cache the head of the catalog and give the content DB
  // a week of history.
  for (const auto& f : catalog.files()) {
    if (f.rank <= 600 && f.born_before_trace) cloud.warm_cache(f.index);
  }
  {
    Rng warm(7);
    for (int i = 0; i < 20000; ++i) {
      cloud.content_db().record_request(catalog.sample_request(warm),
                                        -kWeek + i * (kWeek / 20000));
    }
  }

  core::Redirector redirector;
  core::OdrService service(redirector, cloud, catalog,
                           net::IpResolver::china_2015());

  struct Demo {
    const char* who;
    core::ServiceRequest request;
  };
  std::vector<Demo> demos;

  // A Telecom user with a MiWiFi asking for the hottest file (P2P).
  core::ServiceRequest r1;
  r1.link = catalog.file(0).source_link;
  r1.client_ip = "219.150.44.7";
  r1.access_bandwidth = mbps_to_rate(20.0);
  r1.ap_model = "MiWiFi";
  r1.ap_device = ap::DeviceType::kSataHdd;
  r1.ap_filesystem = ap::Filesystem::kExt4;
  demos.push_back({"Telecom user, MiWiFi, hottest file", r1});

  // A rural user outside the four ISPs wanting a mid-catalog cached file.
  core::ServiceRequest r2;
  r2.link = catalog.file(300).source_link;
  r2.client_ip = "8.8.8.8";
  r2.access_bandwidth = kbps_to_rate(600.0);
  r2.ap_model = "Newifi";
  r2.ap_device = ap::DeviceType::kUsbFlash;
  r2.ap_filesystem = ap::Filesystem::kNtfs;
  demos.push_back({"out-of-ISP user, Newifi (NTFS flash), mid-catalog file", r2});

  // A Unicom user with no AP asking for an unknown magnet link.
  core::ServiceRequest r3;
  r3.link = "magnet:?xt=urn:btih:ffffffffffffffffffffffffffffffffffffffff"
            "&dn=obscure%20file";
  r3.client_ip = "123.112.0.9";
  r3.access_bandwidth = kbps_to_rate(300.0);
  r3.ap_model = "";
  demos.push_back({"Unicom user, no AP, unknown magnet", r3});

  // A malformed link.
  core::ServiceRequest r4;
  r4.link = "obviously-not-a-link";
  r4.client_ip = "219.150.44.7";
  r4.access_bandwidth = kbps_to_rate(300.0);
  demos.push_back({"malformed submission", r4});

  std::string cookie;
  for (const auto& demo : demos) {
    core::ServiceRequest request = demo.request;
    const auto resp = service.handle(request, sim.now());
    if (cookie.empty() && !resp.cookie.empty()) cookie = resp.cookie;
    std::printf("\n--- %s\n    %s\n==> %s\n", demo.who,
                request.link.c_str(), resp.to_json().c_str());
  }

  // Cookie reuse: the first user asks again with only the link.
  core::ServiceRequest again;
  again.link = catalog.file(2500).source_link;  // a tail file
  again.client_ip = "219.150.44.7";
  again.cookie = cookie;
  const auto resp = service.handle(again, sim.now());
  std::printf("\n--- same user, cookie only, tail file\n    %s\n==> %s\n",
              again.link.c_str(), resp.to_json().c_str());
  return 0;
}
