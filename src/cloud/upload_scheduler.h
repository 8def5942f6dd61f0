// Upload clusters, privileged-path construction, and admission control.
//
// §2.1: Xuanfeng deploys uploading servers inside the four major ISPs and
// always tries to serve a fetch from a server in the user's own ISP (the
// privileged path, immune to the ISP barrier). Fallbacks:
//   - user outside the four ISPs            -> cross-ISP path (degraded);
//   - home cluster out of upload bandwidth  -> alternative cluster,
//                                              cross-ISP path (degraded);
//   - every cluster exhausted               -> the request is REJECTED
//     rather than degrading active downloads (the 1.5% of §4.2).
//
// Admission is reservation-based: an admitted fetch reserves its expected
// rate on the serving cluster's uplink for its duration, so active
// transfers never slow down when new ones arrive — exactly the
// no-degradation policy the paper describes.
//
// Fault tolerance: each cluster carries a health bit the fault layer can
// clear (upload-server outage). Unhealthy clusters are skipped by path
// construction — fetches fail over to the healthiest alternative. With
// CloudConfig::degraded_admission on, admission additionally degrades
// gracefully instead of collapsing into rejections: unpopular-class load
// is shed first while the system is impaired, and highly-popular fetches
// are never rejected (worst case they are admitted oversubscribed at the
// floor rate and the uplink max-min shares).
#pragma once

#include <array>
#include <cstdint>

#include "cloud/config.h"
#include "net/isp.h"
#include "net/network.h"
#include "util/rng.h"
#include "workload/file.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::cloud {

// Per-session fetch speed ceiling: 50 Mbps (§2.1). plan_fetch clamps every
// desired rate to it; XuanfengCloud clamps before drawing a slowdown.
inline constexpr Rate kMaxFetchRate = mbps_to_rate(50.0);

struct FetchPlan {
  bool admitted = false;
  net::Isp cluster = net::Isp::kOther;  // serving cluster (if admitted)
  bool privileged = false;              // same-ISP path, no barrier
  Rate rate = 0.0;                      // reserved rate == flow cap
  net::LinkId cluster_link = 0;
  bool oversubscribed = false;  // degraded-mode floor admission
};

class UploadScheduler {
 public:
  UploadScheduler(net::Network& net, const CloudConfig& config, Rng& rng);

  // Plans a fetch for a user in `user_isp` wanting `desired_rate`; the
  // file's popularity class steers degraded-mode admission (ignored under
  // the default reject-at-peak policy). Reserves bandwidth on the chosen
  // cluster when admitted.
  FetchPlan plan_fetch(net::Isp user_isp, Rate desired_rate,
                       workload::PopularityClass popularity =
                           workload::PopularityClass::kUnpopular);

  // Releases an admitted plan's reservation (call exactly once).
  void release(const FetchPlan& plan);

  // Fault-layer hook: marks a cluster's upload servers down/up. An
  // unhealthy cluster admits nothing; already-admitted flows stall on the
  // (separately faulted) link and resume when it recovers.
  void set_cluster_healthy(net::Isp isp, bool healthy);
  bool cluster_healthy(net::Isp isp) const;
  bool degraded() const;  // any cluster currently unhealthy

  Rate cluster_capacity(net::Isp isp) const;
  Rate cluster_reserved(net::Isp isp) const;
  net::LinkId cluster_link(net::Isp isp) const;

  std::uint64_t admitted_count() const { return admitted_; }
  std::uint64_t rejected_count() const { return rejected_; }
  std::uint64_t privileged_count() const { return privileged_; }
  std::uint64_t rejected_count(workload::PopularityClass c) const {
    return rejected_by_class_[static_cast<std::size_t>(c)];
  }
  std::uint64_t shed_count() const { return shed_; }
  std::uint64_t oversubscribed_count() const { return oversubscribed_; }

  // Samples a degraded cross-ISP path cap (exposed for tests): the barrier
  // proper (out-of-ISP users) and the milder alternative-cluster spillover.
  Rate sample_barrier_rate();
  Rate sample_spillover_rate();

  // Snapshot support: round-trips the rng, per-cluster reservations and
  // health bits, and the admission counters. Cluster links/capacities come
  // from deterministic reconstruction and are verified on load.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);

 private:
  struct Cluster {
    net::LinkId link = 0;
    Rate capacity = 0.0;
    Rate reserved = 0.0;
    bool healthy = true;
  };

  Cluster& cluster_for(net::Isp isp);
  const Cluster& cluster_for(net::Isp isp) const;
  FetchPlan reject(workload::PopularityClass popularity);

  net::Network& net_;
  CloudConfig config_;
  Rng rng_;
  std::array<Cluster, 4> clusters_;  // indexed by major ISP enum value
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t privileged_ = 0;
  std::array<std::uint64_t, 3> rejected_by_class_{};
  std::uint64_t shed_ = 0;
  std::uint64_t oversubscribed_ = 0;
};

}  // namespace odr::cloud
