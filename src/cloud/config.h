// Cloud configuration (Xuanfeng-like system, §2.1).
//
// Defaults are a 1/20-scale instance of the measured deployment: the real
// system served ~4.08M tasks/week from ~2 PB of storage and 30 Gbps of
// purchased upload bandwidth. Scaling requests and capacities by the same
// factor preserves the ratios that drive every result (cache-hit ratio,
// rejection at peak, bandwidth burden shape).
#pragma once

#include <array>
#include <cstddef>

#include "net/isp.h"
#include "util/units.h"

namespace odr::cloud {

struct CloudConfig {
  // Storage pool: 2 PB caching ~5M files, LRU-replaced (§2.1). At 1/20
  // scale of the weekly workload this is 100 TB.
  Bytes storage_capacity = 100 * kTB;

  // Pre-downloader VMs (each with PreDownloaderPool's ~20 Mbps, §2.1).
  std::size_t predownloader_count = 1500;

  // Upload clusters: 30 Gbps purchased across the four major ISPs (§4.2),
  // scaled 1/20 -> 1.5 Gbps, split roughly like the user base.
  Rate total_upload_capacity = gbps_to_rate(1.5);
  std::array<double, 4> isp_upload_share = {0.30, 0.44, 0.18, 0.08};
  // ^ indexed by Isp::kUnicom, kTelecom, kMobile, kCernet

  // Admission floor: a fetch is admitted only when the serving cluster can
  // give it at least this rate; below that, Xuanfeng rejects the request
  // outright rather than degrade active downloads (§2.1).
  Rate admission_floor = kbps_to_rate(125.0);

  // Residual "network dynamics / system bugs" slowdowns (§4.2 attributes
  // 6.1% of impeded fetches to unknown causes); the slowdown factor's
  // range lives beside XuanfengCloud::begin_fetch.
  double dynamics_prob = 0.068;

  // --- fault tolerance (see DESIGN.md "Fault model & degradation policy") --

  // Pre-download retry budget for infrastructure faults (VM crash,
  // checksum mismatch after the task's own verify retries). Source-model
  // failures (starved swarm, dead origin) are terminal as in §4.1 — the
  // content is the problem, not the infrastructure. A crashed task
  // re-enters the VM queue at the FRONT after PreDownloaderPool's
  // exponential backoff.
  std::uint32_t predownload_max_retries = 3;

  // Degraded-mode admission control. Off by default so the calibrated §4
  // replays keep Xuanfeng's measured reject-at-peak policy; the chaos
  // harness turns it on. When on:
  //   - highly-popular fetches are NEVER rejected — if every cluster is
  //     saturated they are admitted oversubscribed at the admission floor
  //     (the link then max-min shares, degrading rather than refusing);
  //   - while any cluster is unhealthy, unpopular-class fetches are shed
  //     preemptively once healthy headroom drops below shed_headroom.
  bool degraded_admission = false;
  double shed_headroom = 0.30;

  // Shared retry/hedge token budget (core::RetryBudget): VM front-requeue
  // retries and hedged request clones draw from ONE pool, bounding the
  // load amplification either can cause during an incident. Off by
  // default — every acquire is granted without touching state, so the
  // calibrated §4 replays and their golden fingerprints are unchanged.
  // An exhausted budget degrades the caller to its plain single-attempt
  // path; it never rejects the underlying task. Per-user buckets keep
  // core::RetryBudget::Config's defaults.
  bool retry_budget_enabled = false;
  double retry_budget_global_capacity = 256.0;
  double retry_budget_global_refill_per_hour = 128.0;
};

}  // namespace odr::cloud
