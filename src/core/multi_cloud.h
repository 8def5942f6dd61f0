// Multi-cloud redirection (§6.1's stated enhancement).
//
// "The performance of ODR would be further enhanced if it is able to use
// multiple cloud services (e.g., Xuanfeng + Xunlei + Baidu CloudDisk) at
// once." This selector fronts several independent cloud deployments
// (distinct storage pools, upload clusters, admission control) and picks,
// per request:
//   1. among clouds that already CACHE the file, the one with the most
//      upload headroom toward the user's ISP (dodging both a pre-download
//      and Bottleneck 1);
//   2. otherwise, the cloud with the most headroom overall (its
//      pre-download + fetch path is least likely to be congested).
//
// ODR remains deployment-agnostic: the selector only reads public state
// (cache membership, cluster headroom) — no cloud-side modification.
#pragma once

#include <cstddef>
#include <vector>

#include "cloud/xuanfeng.h"
#include "net/isp.h"

namespace odr::core {

class MultiCloudSelector {
 public:
  // Clouds must outlive the selector and share one catalog, so a file
  // index names the same file in each.
  explicit MultiCloudSelector(std::vector<cloud::XuanfengCloud*> clouds);

  struct Choice {
    std::size_t cloud = 0;
    bool cached = false;   // chosen cloud already has the file
    Rate headroom = 0.0;   // upload headroom considered for the choice
  };

  Choice choose(workload::FileIndex file, net::Isp user_isp) const;

  std::size_t size() const { return clouds_.size(); }
  cloud::XuanfengCloud& cloud(std::size_t i) { return *clouds_.at(i); }

  // Union cache membership across all clouds.
  bool cached_anywhere(workload::FileIndex file) const;

 private:
  // Headroom of `c` toward a user in `isp`: the home cluster's free
  // capacity for major-ISP users, the best cluster otherwise.
  static Rate headroom_for(const cloud::XuanfengCloud& c, net::Isp isp);

  std::vector<cloud::XuanfengCloud*> clouds_;
};

}  // namespace odr::core
