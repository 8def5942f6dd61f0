#include "core/multi_cloud.h"

#include <cassert>

#include "net/isp.h"

namespace odr::core {

MultiCloudSelector::MultiCloudSelector(
    std::vector<cloud::XuanfengCloud*> clouds)
    : clouds_(std::move(clouds)) {
  assert(!clouds_.empty());
}

Rate MultiCloudSelector::headroom_for(const cloud::XuanfengCloud& c,
                                      net::Isp isp) {
  const auto& uploads = c.uploads();
  if (net::is_major_isp(isp)) {
    return uploads.cluster_capacity(isp) - uploads.cluster_reserved(isp);
  }
  Rate best = 0.0;
  for (net::Isp major : net::kMajorIsps) {
    best = std::max(best, uploads.cluster_capacity(major) -
                              uploads.cluster_reserved(major));
  }
  return best;
}

bool MultiCloudSelector::cached_anywhere(workload::FileIndex file) const {
  for (const auto* c : clouds_) {
    if (c->storage().contains(file)) return true;
  }
  return false;
}

MultiCloudSelector::Choice MultiCloudSelector::choose(
    workload::FileIndex file, net::Isp user_isp) const {
  Choice best_cached;
  bool have_cached = false;
  Choice best_any;
  Rate best_any_headroom = -1.0;

  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    const cloud::XuanfengCloud& c = *clouds_[i];
    const Rate headroom = headroom_for(c, user_isp);
    const bool cached = c.storage().contains(file);
    if (cached && (!have_cached || headroom > best_cached.headroom)) {
      have_cached = true;
      best_cached = Choice{i, true, headroom};
    }
    if (headroom > best_any_headroom) {
      best_any_headroom = headroom;
      best_any = Choice{i, false, headroom};
    }
  }
  return have_cached ? best_cached : best_any;
}

}  // namespace odr::core
