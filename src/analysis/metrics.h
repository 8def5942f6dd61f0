// Metric collectors shared by benches and examples.
//
// Each collector consumes trace records / outcomes and produces exactly
// the series a figure or table of the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/executor.h"
#include "obs/attribution.h"
#include "util/histogram.h"
#include "util/stats.h"
#include "util/units.h"
#include "workload/trace.h"

namespace odr::analysis {

// Order-sensitive FNV-1a hash over every outcome's decisive fields
// (task id, pre-download success/finish/traffic, fetch success/rejection/
// finish); two byte-identical replays hash equal. The chaos and perf
// harnesses and the determinism tests share this exact definition — golden
// values are pinned against it, so any change is a format break.
std::uint64_t outcome_fingerprint(
    const std::vector<workload::TaskOutcome>& outcomes);

// The same FNV-1a idiom over executor outcomes (strategy replays): task
// id, success/cause/rejection, ready time, fetch bytes/route, and the
// hedge verdict. Pinned by the hedged-week golden in determinism_test.
std::uint64_t exec_outcome_fingerprint(
    const std::vector<core::ExecOutcome>& outcomes);

// --- Fig 8 / Fig 9: speed and delay CDFs -----------------------------------

struct SpeedDelayCdfs {
  EmpiricalCdf predownload_speed_kbps;  // cache hits excluded (as in Fig 8)
  EmpiricalCdf fetch_speed_kbps;
  EmpiricalCdf e2e_speed_kbps;
  EmpiricalCdf predownload_delay_min;   // cache hits excluded (as in Fig 9)
  EmpiricalCdf fetch_delay_min;
  EmpiricalCdf e2e_delay_min;
};

SpeedDelayCdfs collect_speed_delay(
    const std::vector<workload::TaskOutcome>& outcomes);

// --- Fig 10: popularity vs pre-download failure ratio -----------------------

struct FailureBucket {
  double popularity_lo = 0.0;
  double popularity_hi = 0.0;
  std::size_t requests = 0;
  std::size_t failures = 0;
  double failure_ratio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(failures) /
                               static_cast<double>(requests);
  }
};

// Buckets pre-download failure by measured weekly popularity.
std::vector<FailureBucket> failure_by_popularity(
    const std::vector<workload::TaskOutcome>& outcomes,
    const std::vector<double>& bucket_bounds);

// Failure ratio per popularity class {unpopular, popular, highly popular}.
struct ClassFailure {
  std::size_t requests[3] = {0, 0, 0};
  std::size_t failures[3] = {0, 0, 0};
  double ratio(workload::PopularityClass c) const;
  double share_of_requests(workload::PopularityClass c) const;
};
ClassFailure failure_by_class(
    const std::vector<workload::TaskOutcome>& outcomes);

// --- shared failure taxonomy -------------------------------------------------

struct ApTaskResult;  // analysis/replay.h

// Builds the (stage, cause, popularity) failure taxonomy from plain cloud
// outcome records, with the same keying as the span-fed obs::Attribution
// instance: admission rejections land on the "admission" stage,
// pre-download failures on "vm_fetch", delivery failures on
// "upload_fetch". Benches that ran without a live observer get the exact
// breakdown (and renderer) the attribution engine would have produced.
obs::FailureTaxonomy taxonomy_from_outcomes(
    const std::vector<workload::TaskOutcome>& outcomes);

// Same, for AP testbed replay tasks (every failure is an "ap_fetch").
obs::FailureTaxonomy taxonomy_from_ap_tasks(
    const std::vector<ApTaskResult>& tasks);

// --- Fig 11: cloud upload bandwidth burden ----------------------------------

struct BurdenSeries {
  TimeSeries all;             // every fetch (rejected ones estimated)
  TimeSeries highly_popular;  // fetches of highly popular files
  Rate purchased_capacity = 0.0;
};

BurdenSeries burden_series(const std::vector<workload::TaskOutcome>& outcomes,
                           SimTime duration, SimTime bin, Rate capacity,
                           Rate rejected_estimate_rate);

// --- §4.2 impeded-fetch decomposition ---------------------------------------

struct ImpededBreakdown {
  std::size_t fetch_attempts = 0;  // pre-download succeeded
  std::size_t impeded = 0;         // below 125 KBps (or rejected)
  std::size_t by_isp_barrier = 0;
  std::size_t by_low_bandwidth = 0;
  std::size_t by_rejection = 0;
  std::size_t by_unknown = 0;
  double impeded_fraction() const {
    return fetch_attempts == 0 ? 0.0
                               : static_cast<double>(impeded) /
                                     static_cast<double>(fetch_attempts);
  }
};

ImpededBreakdown impeded_breakdown(
    const std::vector<workload::TaskOutcome>& outcomes,
    const workload::UserPopulation& users, Rate playback_rate);

// --- traffic cost (§4.1/§4.2) ------------------------------------------------

struct TrafficCost {
  Bytes p2p_file_bytes = 0;
  Bytes p2p_traffic_bytes = 0;
  Bytes http_file_bytes = 0;
  Bytes http_traffic_bytes = 0;
  Bytes user_fetch_file_bytes = 0;
  Bytes user_fetch_traffic_bytes = 0;
  double p2p_overhead() const;   // traffic / file size (expect ~1.96)
  double http_overhead() const;  // expect ~1.07-1.10
  double user_overhead() const;
};

TrafficCost traffic_cost(const std::vector<workload::TaskOutcome>& outcomes,
                         const workload::Catalog& catalog);

// --- §6.2 / Fig 16: strategy-level bottleneck metrics ------------------------

struct StrategyMetrics {
  std::string name;
  std::size_t tasks = 0;
  std::size_t successes = 0;
  // Bottleneck 1: fraction of successful real-time fetches that are impeded.
  double impeded_fraction = 0.0;
  // Bottleneck 2: the cloud's upload burden, plus totals. The peak is the
  // week's largest 5-minute bin, so one burst moves it; the 95th
  // percentile of the hourly bins is the robust comparison.
  Rate peak_cloud_burden = 0.0;
  Rate p95_hourly_cloud_burden = 0.0;
  Bytes total_cloud_upload = 0;
  double rejected_fraction = 0.0;
  // Bottleneck 3: pre-download failure ratio on unpopular files.
  double unpopular_failure = 0.0;
  double overall_failure = 0.0;
  // Bottleneck 4: fraction of tasks throttled by AP storage (fetch-path
  // write ceiling below both the line rate and the source rate).
  double storage_throttled = 0.0;
  // Fig 17 inputs.
  EmpiricalCdf fetch_speed_kbps;
  Summary e2e_delay_min;
};

StrategyMetrics strategy_metrics(const std::string& name,
                                 const std::vector<core::ExecOutcome>& outcomes,
                                 SimTime duration,
                                 double storage_throttled_fraction);

}  // namespace odr::analysis
