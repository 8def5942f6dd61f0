#include "cloud/upload_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "net/isp.h"
#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::cloud {
namespace {

enum : std::uint16_t {
  kTagRngBase = 1,  // ..6
  kTagClusterLink = 10,
  kTagClusterCapacity = 11,
  kTagClusterReserved = 12,
  kTagClusterHealthy = 13,
  kTagAdmitted = 20,
  kTagRejected = 21,
  kTagPrivileged = 22,
  kTagRejectedByClass = 23,
  kTagShed = 24,
  kTagOversubscribed = 25,
};

// Degraded cross-ISP path for users OUTSIDE the four major ISPs (the ISP
// barrier proper): per-fetch cap drawn lognormally. Median ~45 KBps keeps
// nearly all barrier-limited fetches under the 125 KBps HD-streaming
// line, matching §4.2's attribution.
constexpr Rate kBarrierMedian = kbps_to_rate(45.0);
constexpr double kBarrierSigma = 0.7;

// Cross-ISP cap for major-ISP users spilled to an alternative cluster at
// peak: Xuanfeng picks the lowest-latency alternative, and major-ISP
// interconnects are far better than small-ISP transit, so this is only
// moderately degraded.
constexpr Rate kSpilloverMedian = kbps_to_rate(260.0);
constexpr double kSpilloverSigma = 0.8;

}  // namespace

UploadScheduler::UploadScheduler(net::Network& net, const CloudConfig& config,
                                 Rng& rng)
    : net_(net), config_(config), rng_(rng.fork()) {
  for (std::size_t i = 0; i < net::kMajorIsps.size(); ++i) {
    const net::Isp isp = net::kMajorIsps[i];
    Cluster& c = clusters_[i];
    c.capacity = config_.total_upload_capacity * config_.isp_upload_share[i];
    c.link = net_.add_link(
        "upload-cluster-" + std::string(net::isp_name(isp)), c.capacity);
  }
}

UploadScheduler::Cluster& UploadScheduler::cluster_for(net::Isp isp) {
  const auto idx = static_cast<std::size_t>(isp);
  assert(idx < clusters_.size());
  return clusters_[idx];
}

const UploadScheduler::Cluster& UploadScheduler::cluster_for(
    net::Isp isp) const {
  const auto idx = static_cast<std::size_t>(isp);
  assert(idx < clusters_.size());
  return clusters_[idx];
}

Rate UploadScheduler::cluster_capacity(net::Isp isp) const {
  return cluster_for(isp).capacity;
}

Rate UploadScheduler::cluster_reserved(net::Isp isp) const {
  return cluster_for(isp).reserved;
}

net::LinkId UploadScheduler::cluster_link(net::Isp isp) const {
  return cluster_for(isp).link;
}

void UploadScheduler::set_cluster_healthy(net::Isp isp, bool healthy) {
  cluster_for(isp).healthy = healthy;
}

bool UploadScheduler::cluster_healthy(net::Isp isp) const {
  return cluster_for(isp).healthy;
}

bool UploadScheduler::degraded() const {
  for (const Cluster& c : clusters_) {
    if (!c.healthy) return true;
  }
  return false;
}

Rate UploadScheduler::sample_barrier_rate() {
  return kBarrierMedian * std::exp(rng_.normal(0.0, kBarrierSigma));
}

Rate UploadScheduler::sample_spillover_rate() {
  return kSpilloverMedian * std::exp(rng_.normal(0.0, kSpilloverSigma));
}

FetchPlan UploadScheduler::reject(workload::PopularityClass popularity) {
  ++rejected_;
  ++rejected_by_class_[static_cast<std::size_t>(popularity)];
  ODR_COUNT("cloud.upload.rejected");
  ODR_TRACE_INSTANT(kCloud, "upload.reject");
  return FetchPlan{};
}

FetchPlan UploadScheduler::plan_fetch(net::Isp user_isp, Rate desired_rate,
                                      workload::PopularityClass popularity) {
  desired_rate = std::min(desired_rate, kMaxFetchRate);
  const Rate floor = std::min(config_.admission_floor, desired_rate);

  // Degraded-mode load shedding: while a cluster is out, preserve the
  // surviving headroom for (highly-)popular fetches by shedding unpopular
  // ones once healthy headroom falls below the shed threshold.
  if (config_.degraded_admission && degraded() &&
      popularity == workload::PopularityClass::kUnpopular) {
    Rate healthy_capacity = 0.0, healthy_headroom = 0.0;
    for (const Cluster& c : clusters_) {
      if (!c.healthy) continue;
      healthy_capacity += c.capacity;
      healthy_headroom += std::max(0.0, c.capacity - c.reserved);
    }
    if (healthy_capacity <= 0.0 ||
        healthy_headroom < config_.shed_headroom * healthy_capacity) {
      ++shed_;
      ODR_COUNT("cloud.upload.shed");
      return reject(popularity);
    }
  }

  // 1. Privileged path: a server inside the user's own ISP. The fetch is
  //    served at whatever headroom remains (never squeezing active
  //    transfers), as long as that clears the admission floor.
  if (net::is_major_isp(user_isp)) {
    Cluster& home = cluster_for(user_isp);
    const Rate headroom = home.capacity - home.reserved;
    if (home.healthy && headroom >= floor) {
      const Rate rate = std::min(desired_rate, headroom);
      home.reserved += rate;
      ++admitted_;
      ++privileged_;
      ODR_COUNT("cloud.upload.admitted");
      ODR_COUNT("cloud.upload.privileged");
      return FetchPlan{true, user_isp, true, rate, home.link, false};
    }
  }

  // 2. Cross-ISP path: out-of-ISP users hit the barrier proper; major-ISP
  //    users spilled at peak (or failed over from an unhealthy home
  //    cluster) reach the lowest-latency alternative cluster.
  const Rate cross_cap = net::is_major_isp(user_isp)
                             ? sample_spillover_rate()
                             : sample_barrier_rate();
  const Rate degraded_rate = std::min(desired_rate, cross_cap);
  net::Isp best = net::Isp::kOther;
  Rate best_headroom = 0.0;
  for (net::Isp isp : net::kMajorIsps) {
    if (isp == user_isp) continue;  // home cluster already found full
    const Cluster& c = cluster_for(isp);
    if (!c.healthy) continue;
    const Rate headroom = c.capacity - c.reserved;
    if (headroom > best_headroom) {
      best_headroom = headroom;
      best = isp;
    }
  }
  if (best != net::Isp::kOther &&
      best_headroom >= std::min(floor, degraded_rate)) {
    const Rate rate = std::min(degraded_rate, best_headroom);
    Cluster& c = cluster_for(best);
    c.reserved += rate;
    ++admitted_;
    ODR_COUNT("cloud.upload.admitted");
    ODR_COUNT("cloud.upload.cross_isp");
    return FetchPlan{true, best, false, rate, c.link, false};
  }

  // 3. Peak-hour exhaustion. Default policy: reject rather than degrade
  //    active fetches. Degraded-mode policy: a highly-popular fetch is
  //    never rejected — admit it oversubscribed at the floor rate on the
  //    least-loaded healthy cluster and let the uplink max-min share.
  if (config_.degraded_admission &&
      popularity == workload::PopularityClass::kHighlyPopular) {
    net::Isp target = net::Isp::kOther;
    double best_load = std::numeric_limits<double>::infinity();
    for (net::Isp isp : net::kMajorIsps) {
      const Cluster& c = cluster_for(isp);
      if (!c.healthy || c.capacity <= 0.0) continue;
      const double load = c.reserved / c.capacity;
      if (load < best_load) {
        best_load = load;
        target = isp;
      }
    }
    if (target != net::Isp::kOther) {
      Cluster& c = cluster_for(target);
      const Rate rate = std::max(floor, kbps_to_rate(1.0));
      c.reserved += rate;
      ++admitted_;
      ++oversubscribed_;
      ODR_COUNT("cloud.upload.admitted");
      ODR_COUNT("cloud.upload.oversubscribed");
      const bool priv = target == user_isp;
      if (priv) ++privileged_;
      return FetchPlan{true, target, priv, rate, c.link, true};
    }
  }

  return reject(popularity);
}

void UploadScheduler::release(const FetchPlan& plan) {
  if (!plan.admitted) return;
  Cluster& c = cluster_for(plan.cluster);
  c.reserved = std::max(0.0, c.reserved - plan.rate);
}

void UploadScheduler::save(snapshot::SnapshotWriter& w) const {
  save_rng(w, kTagRngBase, rng_);
  for (const Cluster& c : clusters_) {
    w.u32(kTagClusterLink, c.link);
    w.f64(kTagClusterCapacity, c.capacity);
    w.f64(kTagClusterReserved, c.reserved);
    w.b(kTagClusterHealthy, c.healthy);
  }
  w.u64(kTagAdmitted, admitted_);
  w.u64(kTagRejected, rejected_);
  w.u64(kTagPrivileged, privileged_);
  for (std::uint64_t n : rejected_by_class_) w.u64(kTagRejectedByClass, n);
  w.u64(kTagShed, shed_);
  w.u64(kTagOversubscribed, oversubscribed_);
}

void UploadScheduler::load(snapshot::SnapshotReader& r) {
  load_rng(r, kTagRngBase, rng_);
  for (Cluster& c : clusters_) {
    const net::LinkId link = r.u32(kTagClusterLink);
    if (link != c.link) {
      throw snapshot::SnapshotError(
          "upload scheduler: cluster link id mismatch — topology was not "
          "rebuilt identically");
    }
    c.capacity = r.f64(kTagClusterCapacity);
    c.reserved = r.f64(kTagClusterReserved);
    c.healthy = r.b(kTagClusterHealthy);
  }
  admitted_ = r.u64(kTagAdmitted);
  rejected_ = r.u64(kTagRejected);
  privileged_ = r.u64(kTagPrivileged);
  for (std::uint64_t& n : rejected_by_class_) n = r.u64(kTagRejectedByClass);
  shed_ = r.u64(kTagShed);
  oversubscribed_ = r.u64(kTagOversubscribed);
}

}  // namespace odr::cloud
