// ODR decision engine — the paper's primary contribution (Fig 15).
//
// Given a request's popularity (queried from the content database), its
// protocol, the cloud cache state, and the user's auxiliary information
// (access bandwidth, ISP, smart-AP storage configuration), ODR picks the
// route expected to avoid all four bottlenecks:
//
//   Bottleneck 1 — cloud fetch impeded (<125 KBps) by the ISP barrier,
//                  low user access bandwidth, or cloud congestion;
//   Bottleneck 2 — cloud upload bandwidth wasted on highly popular files;
//   Bottleneck 3 — smart APs failing on unpopular files (starved swarms);
//   Bottleneck 4 — AP storage device/filesystem throttling pre-downloads.
//
// ODR never carries file bytes itself; it only returns a routing decision.
#pragma once

#include <optional>
#include <string_view>

#include "ap/storage_device.h"
#include "net/isp.h"
#include "proto/protocol.h"
#include "util/units.h"
#include "workload/file.h"

namespace odr::core {

// Where the user should download from (the leaves of Fig 15).
enum class Route : std::uint8_t {
  // Fetch from the cloud (cache hit or after cloud pre-download).
  kCloud = 0,
  // Download directly from the original data source on the user's device.
  kUserDevice = 1,
  // The smart AP pre-downloads from the original source; the user then
  // fetches over the LAN.
  kSmartAp = 2,
  // The smart AP pre-downloads *from the cloud*, shielding the user from a
  // bandwidth-bottlenecked cloud path; the user then fetches over the LAN.
  kCloudThenSmartAp = 3,
  // The file is not cached and not highly popular: let the cloud
  // pre-download first, then ask ODR again (Fig 15's middle branch).
  kCloudPreDownloadFirst = 4,
};

constexpr std::string_view route_name(Route r) {
  switch (r) {
    case Route::kCloud: return "cloud";
    case Route::kUserDevice: return "user-device";
    case Route::kSmartAp: return "smart-ap";
    case Route::kCloudThenSmartAp: return "cloud+smart-ap";
    case Route::kCloudPreDownloadFirst: return "cloud-predownload-first";
  }
  return "?";
}

// The auxiliary information ODR collects from the user plus the two
// database lookups (§6.1).
struct DecisionInput {
  double weekly_popularity = 0.0;  // content-DB lookup
  bool cached_in_cloud = false;    // cloud cache state
  proto::Protocol protocol = proto::Protocol::kBitTorrent;
  Rate user_access_bandwidth = 0.0;
  net::Isp user_isp = net::Isp::kOther;
  bool has_smart_ap = false;
  std::optional<odr::ap::DeviceType> ap_device;
  std::optional<odr::ap::Filesystem> ap_filesystem;
};

struct Decision {
  Route route = Route::kCloud;
  // Which bottleneck this decision primarily guards against (0 = none).
  int addressed_bottleneck = 0;
  // Speculatively clone the task onto a second backend and race the two
  // (the HedgedFetch strategy); the executor picks the secondary route and
  // may ignore the request when no disjoint backend or budget is
  // available.
  bool hedge = false;
  // Why, in words: always a static literal.
  std::string_view rationale;
};

struct RedirectorParams {
  // HD-streaming line (§4.2): a fetch below this is "impeded".
  Rate playback_rate = kbps_to_rate(125.0);
  // The NTFS/USB-flash write ceiling (Table 2): below this access
  // bandwidth the AP storage never bottlenecks, so prefer the AP.
  Rate ap_storage_floor = 0.93e6;
  // Line rate at which AP storage restrictions certainly bite (§6.1).
  Rate full_line_rate = mbps_to_rate(20.0);
  // Whether the Bottleneck-1 test considers the user's ISP (ablation knob;
  // always true in the real ODR).
  bool consider_isp_barrier = true;
};

class Redirector {
 public:
  explicit Redirector(RedirectorParams params = {}) : params_(params) {}

  Decision decide(const DecisionInput& input) const;

  // True when the AP's storage configuration throttles a fast line
  // (Bottleneck 4 test of Fig 15).
  bool ap_storage_bottleneck(const DecisionInput& input) const;
  // True when a cloud fetch is expected to be impeded (Bottleneck 1 test).
  bool cloud_path_bottleneck(const DecisionInput& input) const;

  const RedirectorParams& params() const { return params_; }

 private:
  RedirectorParams params_;
};

}  // namespace odr::core
