#include "analysis/metrics.h"

#include <algorithm>
#include <cassert>

#include "analysis/replay.h"

namespace odr::analysis {

std::uint64_t outcome_fingerprint(
    const std::vector<workload::TaskOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& o : outcomes) {
    mix(o.task_id);
    mix(static_cast<std::uint64_t>(o.pre.success));
    mix(static_cast<std::uint64_t>(o.pre.finish_time));
    mix(o.pre.traffic_bytes);
    mix(static_cast<std::uint64_t>(o.fetched));
    mix(static_cast<std::uint64_t>(o.fetch.rejected));
    mix(static_cast<std::uint64_t>(o.fetch.finish_time));
  }
  return h;
}

std::uint64_t exec_outcome_fingerprint(
    const std::vector<core::ExecOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& o : outcomes) {
    mix(o.task_id);
    mix(static_cast<std::uint64_t>(o.route));
    mix(static_cast<std::uint64_t>(o.success));
    mix(static_cast<std::uint64_t>(o.cause));
    mix(static_cast<std::uint64_t>(o.rejected));
    mix(static_cast<std::uint64_t>(o.ready_time));
    mix(o.cloud_upload_bytes);
    mix(static_cast<std::uint64_t>(o.hedged));
    mix(static_cast<std::uint64_t>(o.hedge_secondary_won));
  }
  return h;
}

SpeedDelayCdfs collect_speed_delay(
    const std::vector<workload::TaskOutcome>& outcomes) {
  SpeedDelayCdfs out;
  for (const auto& o : outcomes) {
    // Pre-download CDFs exclude cache hits (their delay is zero by
    // construction), exactly as Figs 8-9 do.
    if (!o.pre.cache_hit) {
      out.predownload_speed_kbps.add(rate_to_kbps(o.pre.average_rate));
      out.predownload_delay_min.add(
          to_minutes(o.pre.finish_time - o.pre.start_time));
    }
    if (o.pre.success) {
      const double fetch_rate =
          o.fetch.rejected ? 0.0 : rate_to_kbps(o.fetch.average_rate);
      out.fetch_speed_kbps.add(fetch_rate);
      if (!o.fetch.rejected) {
        out.fetch_delay_min.add(
            to_minutes(o.fetch.finish_time - o.fetch.start_time));
        const SimTime e2e = (o.pre.finish_time - o.pre.start_time) +
                            (o.fetch.finish_time - o.fetch.start_time);
        out.e2e_delay_min.add(to_minutes(e2e));
        out.e2e_speed_kbps.add(
            rate_to_kbps(average_rate(o.fetch.acquired_bytes, e2e)));
      }
    }
  }
  return out;
}

std::vector<FailureBucket> failure_by_popularity(
    const std::vector<workload::TaskOutcome>& outcomes,
    const std::vector<double>& bucket_bounds) {
  assert(bucket_bounds.size() >= 2);
  std::vector<FailureBucket> buckets(bucket_bounds.size() - 1);
  for (std::size_t i = 0; i + 1 < bucket_bounds.size(); ++i) {
    buckets[i].popularity_lo = bucket_bounds[i];
    buckets[i].popularity_hi = bucket_bounds[i + 1];
  }
  for (const auto& o : outcomes) {
    const double pop = o.weekly_popularity;
    for (auto& b : buckets) {
      if (pop >= b.popularity_lo && pop < b.popularity_hi) {
        ++b.requests;
        if (!o.pre.success) ++b.failures;
        break;
      }
    }
  }
  return buckets;
}

double ClassFailure::ratio(workload::PopularityClass c) const {
  const auto i = static_cast<std::size_t>(c);
  return requests[i] == 0 ? 0.0
                          : static_cast<double>(failures[i]) /
                                static_cast<double>(requests[i]);
}

double ClassFailure::share_of_requests(workload::PopularityClass c) const {
  const auto i = static_cast<std::size_t>(c);
  const std::size_t total = requests[0] + requests[1] + requests[2];
  return total == 0 ? 0.0
                    : static_cast<double>(requests[i]) /
                          static_cast<double>(total);
}

ClassFailure failure_by_class(
    const std::vector<workload::TaskOutcome>& outcomes) {
  ClassFailure out;
  for (const auto& o : outcomes) {
    const auto i = static_cast<std::size_t>(o.popularity);
    ++out.requests[i];
    if (!o.pre.success) ++out.failures[i];
  }
  return out;
}

obs::FailureTaxonomy taxonomy_from_outcomes(
    const std::vector<workload::TaskOutcome>& outcomes) {
  obs::FailureTaxonomy taxonomy;
  for (const auto& o : outcomes) {
    const std::string_view pop = workload::popularity_class_name(o.popularity);
    if (!o.pre.success) {
      taxonomy.add("vm_fetch", proto::failure_cause_name(o.pre.failure_cause),
                   pop);
    } else if (o.fetch.rejected) {
      taxonomy.add("admission",
                   proto::failure_cause_name(proto::FailureCause::kRejected),
                   pop);
    } else if (!o.fetched) {
      taxonomy.add("upload_fetch",
                   proto::failure_cause_name(proto::FailureCause::kNone), pop);
    }
  }
  return taxonomy;
}

obs::FailureTaxonomy taxonomy_from_ap_tasks(
    const std::vector<ApTaskResult>& tasks) {
  obs::FailureTaxonomy taxonomy;
  for (const auto& t : tasks) {
    if (t.result.success) continue;
    taxonomy.add("ap_fetch", proto::failure_cause_name(t.result.cause),
                 workload::popularity_class_name(
                     workload::classify_popularity(t.weekly_popularity)));
  }
  return taxonomy;
}

BurdenSeries burden_series(const std::vector<workload::TaskOutcome>& outcomes,
                           SimTime duration, SimTime bin, Rate capacity,
                           Rate rejected_estimate_rate) {
  BurdenSeries series{TimeSeries(0, duration, bin),
                      TimeSeries(0, duration, bin), capacity};
  for (const auto& o : outcomes) {
    if (!o.pre.success) continue;
    if (o.fetch.rejected) {
      // Fig 11 estimates the burden the rejected fetches *would* have
      // caused at the average fetch speed (504 KBps in the paper).
      if (rejected_estimate_rate > 0.0) {
        const Bytes size = o.pre.acquired_bytes;
        const SimTime would_take = from_seconds(
            static_cast<double>(size) / rejected_estimate_rate);
        series.all.add_transfer(o.fetch.start_time,
                                o.fetch.start_time + would_take, size);
      }
      continue;
    }
    series.all.add_transfer(o.fetch.start_time, o.fetch.finish_time,
                            o.fetch.acquired_bytes);
    if (o.popularity == workload::PopularityClass::kHighlyPopular) {
      series.highly_popular.add_transfer(o.fetch.start_time,
                                         o.fetch.finish_time,
                                         o.fetch.acquired_bytes);
    }
  }
  return series;
}

ImpededBreakdown impeded_breakdown(
    const std::vector<workload::TaskOutcome>& outcomes,
    const workload::UserPopulation& users, Rate playback_rate) {
  ImpededBreakdown out;
  for (const auto& o : outcomes) {
    if (!o.pre.success) continue;
    ++out.fetch_attempts;
    const bool impeded =
        o.fetch.rejected || o.fetch.average_rate < playback_rate;
    if (!impeded) continue;
    ++out.impeded;
    // Attribution priority mirrors §4.2's decomposition: rejection, then
    // the ISP barrier, then low access bandwidth, then "unknown".
    if (o.fetch.rejected) {
      ++out.by_rejection;
      continue;
    }
    const workload::User& user = users.user(o.user_id);
    if (!net::is_major_isp(user.isp)) {
      ++out.by_isp_barrier;
    } else if (user.access_bandwidth < playback_rate) {
      ++out.by_low_bandwidth;
    } else {
      ++out.by_unknown;
    }
  }
  return out;
}

double TrafficCost::p2p_overhead() const {
  return p2p_file_bytes == 0 ? 0.0
                             : static_cast<double>(p2p_traffic_bytes) /
                                   static_cast<double>(p2p_file_bytes);
}
double TrafficCost::http_overhead() const {
  return http_file_bytes == 0 ? 0.0
                              : static_cast<double>(http_traffic_bytes) /
                                    static_cast<double>(http_file_bytes);
}
double TrafficCost::user_overhead() const {
  return user_fetch_file_bytes == 0
             ? 0.0
             : static_cast<double>(user_fetch_traffic_bytes) /
                   static_cast<double>(user_fetch_file_bytes);
}

TrafficCost traffic_cost(const std::vector<workload::TaskOutcome>& outcomes,
                         const workload::Catalog& catalog) {
  TrafficCost out;
  for (const auto& o : outcomes) {
    // Pre-download traffic: only actual downloads (no cache hits), and only
    // the first waiter of an in-flight-deduplicated download, so the ratio
    // is traffic over *unique* downloaded bytes as in §4.1.
    if (!o.pre.cache_hit && o.pre.success && o.pre.traffic_bytes > 0) {
      if (proto::is_p2p(catalog.file(o.file).protocol)) {
        out.p2p_file_bytes += o.pre.acquired_bytes;
        out.p2p_traffic_bytes += o.pre.traffic_bytes;
      } else {
        out.http_file_bytes += o.pre.acquired_bytes;
        out.http_traffic_bytes += o.pre.traffic_bytes;
      }
    }
    if (o.fetched) {
      out.user_fetch_file_bytes += o.fetch.acquired_bytes;
      out.user_fetch_traffic_bytes += o.fetch.traffic_bytes;
    }
  }
  return out;
}

StrategyMetrics strategy_metrics(const std::string& name,
                                 const std::vector<core::ExecOutcome>& outcomes,
                                 SimTime duration,
                                 double storage_throttled_fraction) {
  StrategyMetrics m;
  m.name = name;
  m.tasks = outcomes.size();
  m.storage_throttled = storage_throttled_fraction;

  TimeSeries burden(0, duration, 5 * kMinute);
  TimeSeries hourly(0, duration, kHour);
  std::size_t impeded = 0, realtime = 0, rejected = 0;
  std::size_t unpopular = 0, unpopular_failed = 0, failed = 0;
  std::vector<double> e2e_delays;
  for (const auto& o : outcomes) {
    if (o.success) {
      ++m.successes;
      m.fetch_speed_kbps.add(rate_to_kbps(o.fetch_rate));
      e2e_delays.push_back(to_minutes(o.ready_time - o.request_time));
    } else {
      ++failed;
    }
    if (o.rejected) ++rejected;
    // Real-time user experience: tasks where the user watches the fetch.
    ++realtime;
    if (o.impeded) ++impeded;
    if (o.popularity == workload::PopularityClass::kUnpopular) {
      ++unpopular;
      if (!o.success) ++unpopular_failed;
    }
    if (o.cloud_upload_bytes > 0) {
      m.total_cloud_upload += o.cloud_upload_bytes;
      burden.add_transfer(o.cloud_upload_start, o.cloud_upload_finish,
                          o.cloud_upload_bytes);
      hourly.add_transfer(o.cloud_upload_start, o.cloud_upload_finish,
                          o.cloud_upload_bytes);
    }
  }
  m.impeded_fraction =
      realtime == 0 ? 0.0 : static_cast<double>(impeded) / realtime;
  m.rejected_fraction =
      m.tasks == 0 ? 0.0 : static_cast<double>(rejected) / m.tasks;
  m.overall_failure =
      m.tasks == 0 ? 0.0 : static_cast<double>(failed) / m.tasks;
  m.unpopular_failure =
      unpopular == 0 ? 0.0
                     : static_cast<double>(unpopular_failed) / unpopular;
  m.peak_cloud_burden = burden.peak_rate();
  m.p95_hourly_cloud_burden = hourly.rate_quantile(0.95);
  m.e2e_delay_min = summarize(std::move(e2e_delays));
  return m;
}

}  // namespace odr::analysis
