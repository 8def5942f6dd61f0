#include "analysis/obs_wiring.h"

#include <string>

#include "cloud/predownloader.h"
#include "cloud/storage_pool.h"
#include "cloud/upload_scheduler.h"
#include "cloud/xuanfeng.h"
#include "core/circuit_breaker.h"
#include "net/isp.h"
#include "net/network.h"
#include "obs/observer.h"
#include "proto/protocol.h"
#include "sim/simulator.h"
#include "workload/file.h"

namespace odr::analysis {

void wire_sim_observability(sim::Simulator& sim, SimTime horizon) {
  obs::Observer* obs = obs::current();
  if (obs == nullptr) {
    // A previous run may have left its hook on a reused simulator; with no
    // observer to feed there is nothing to do per event.
    sim.clear_after_event_hook();
    return;
  }
  obs->set_now(sim.now());
  obs->begin_run();  // fresh journal/attribution per world build or restore
  obs->enable_sampler(sim.now(), horizon);
  // The hook captures the observer, not the other way round: the observer
  // outlives the world, and a rebuilt world installs a fresh hook.
  sim.set_after_event_hook([obs, &sim] { obs->on_sim_event(sim.now()); });
}

void wire_cloud_observability(sim::Simulator& sim, net::Network& net,
                              cloud::XuanfengCloud& cloud, SimTime horizon) {
  wire_sim_observability(sim, horizon);
  obs::Observer* obs = obs::current();
  if (obs == nullptr) return;
  obs::GaugeSampler* sampler = obs->sampler();
  if (sampler == nullptr) return;  // sample_period <= 0: sampler disabled

  sampler->add_probe("net.flows.live", obs::Cat::kNet, [&net] {
    return static_cast<double>(net.active_flow_count());
  });
  sampler->add_probe("cloud.vm.active", obs::Cat::kCloud, [&cloud] {
    return static_cast<double>(cloud.predownloaders().active());
  });
  sampler->add_probe("cloud.vm.queued", obs::Cat::kCloud, [&cloud] {
    return static_cast<double>(cloud.predownloaders().queued());
  });
  sampler->add_probe("cloud.pool.used_gb", obs::Cat::kCloud, [&cloud] {
    return static_cast<double>(cloud.storage().used_bytes()) / 1e9;
  });
  sampler->add_probe("cloud.pool.hit_ratio", obs::Cat::kCloud,
                     [&cloud] { return cloud.storage().hit_ratio(); });
  sampler->add_probe("cloud.inflight_predownloads", obs::Cat::kCloud,
                     [&cloud] {
                       return static_cast<double>(
                           cloud.inflight_predownload_count());
                     });
  sampler->add_probe("cloud.active_fetches", obs::Cat::kCloud, [&cloud] {
    return static_cast<double>(cloud.active_fetch_count());
  });
  for (net::Isp isp : net::kMajorIsps) {
    sampler->add_probe(
        "cloud.upload.util." + std::string(net::isp_name(isp)),
        obs::Cat::kCloud, [&cloud, isp] {
          const Rate cap = cloud.uploads().cluster_capacity(isp);
          if (cap <= 0.0) return 0.0;
          return cloud.uploads().cluster_reserved(isp) / cap;
        });
  }
}

void wire_breaker_probe(const char* name,
                        const core::CircuitBreaker& breaker) {
  obs::Observer* obs = obs::current();
  if (obs == nullptr || obs->sampler() == nullptr) return;
  obs->sampler()->add_probe(name, obs::Cat::kCore, [&breaker] {
    switch (breaker.current_state()) {
      case core::CircuitBreaker::State::kClosed: return 0.0;
      case core::CircuitBreaker::State::kHalfOpen: return 0.5;
      case core::CircuitBreaker::State::kOpen: return 1.0;
    }
    return 0.0;
  });
}

void finish_cloud_task_span(const workload::TaskOutcome& o) {
  obs::Observer* obs = obs::current();
  if (obs == nullptr) return;
  obs::TaskJournal* journal = obs->journal();
  if (journal == nullptr) return;
  obs::SpanTerminal term;
  term.cache_hit = o.pre.cache_hit;
  term.pre_success = o.pre.success;
  term.popularity = workload::popularity_class_name(o.popularity);
  if (!o.pre.success) {
    term.outcome = obs::SpanOutcome::kFailed;
    term.cause = proto::failure_cause_name(o.pre.failure_cause);
    journal->on_finish(o.task_id, o.pre.finish_time, term);
    return;
  }
  if (o.fetch.rejected) {
    term.outcome = obs::SpanOutcome::kRejected;
    term.cause = proto::failure_cause_name(proto::FailureCause::kRejected);
    journal->on_finish(o.task_id, o.fetch.finish_time, term);
    return;
  }
  term.outcome =
      o.fetched ? obs::SpanOutcome::kSuccess : obs::SpanOutcome::kFailed;
  term.fetch_kbps = rate_to_kbps(o.fetch.average_rate);
  // End-to-end speed over pre + fetch wall time, matching
  // analysis::collect_speed_delay.
  const SimTime e2e = (o.pre.finish_time - o.pre.start_time) +
                      (o.fetch.finish_time - o.fetch.start_time);
  term.e2e_kbps = rate_to_kbps(average_rate(o.fetch.acquired_bytes, e2e));
  journal->on_finish(o.task_id, o.fetch.finish_time, term);
}

}  // namespace odr::analysis
