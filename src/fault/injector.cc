#include "fault/injector.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "net/isp.h"
#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::fault {
namespace {

enum : std::uint16_t {
  kTagRng = 1,  // ..6
  kTagSavedCapCount = 11,
  kTagSavedCapLink = 12,
  kTagSavedCapRate = 13,
  kTagStatsFired = 14,
  kTagStatsRecovered = 15,
  kTagPlanSpecCount = 20,
  kTagSpecKind = 21,
  kTagSpecStart = 22,
  kTagSpecDuration = 23,
  kTagSpecRate = 24,
  kTagSpecSeverity = 25,
  kTagSpecIsp = 26,
  kTagSpecFlapPeriod = 27,
  kTagPendingCount = 30,
  kTagPendingIndex = 31,
  kTagPendingPhase = 32,
  kTagPendingDegraded = 33,
  kTagPendingEvent = 34,
};

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, Rng& rng)
    : sim_(sim), rng_(rng.fork()) {}

void FaultInjector::attach_cloud(cloud::XuanfengCloud& cloud,
                                 net::Network& net) {
  attach_predownloaders(&cloud.predownloaders());
  attach_uploads(&cloud.uploads());
  attach_storage(&cloud.storage());
  attach_network(&net);
}

void FaultInjector::load(const FaultPlan& plan) {
  plan_ = plan;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    arm_at(i, kPhaseActivate, plan_.faults[i].start);
  }
}

std::uint64_t FaultInjector::total_fired() const {
  std::uint64_t total = 0;
  for (const KindStats& s : stats_) total += s.fired;
  return total;
}

void FaultInjector::arm_at(std::size_t index, Phase phase, SimTime at) {
  const sim::EventId event =
      sim_.schedule_at(at, [this, index, phase] { fire(index, phase); }).id;
  pending_[{index, static_cast<std::uint8_t>(phase)}] = PendingEvent{event};
}

void FaultInjector::arm_after(std::size_t index, Phase phase, SimTime delay,
                              bool degraded) {
  const sim::EventId event =
      sim_.schedule_after(delay, [this, index, phase] { fire(index, phase); })
          .id;
  pending_[{index, static_cast<std::uint8_t>(phase)}] =
      PendingEvent{event, degraded};
}

void FaultInjector::fire(std::size_t index, Phase phase) {
  auto it = pending_.find({index, static_cast<std::uint8_t>(phase)});
  assert(it != pending_.end());
  const bool degraded = it->second.degraded;
  pending_.erase(it);
  const FaultSpec& spec = plan_.faults[index];
  switch (phase) {
    case kPhaseActivate:
      activate(index, spec);
      break;
    case kPhaseRecover:
      recover(spec);
      break;
    case kPhaseCrashTick:
      crash_tick(index, spec);
      break;
    case kPhaseFlap:
      flap_toggle(index, spec, degraded);
      break;
  }
}

void FaultInjector::activate(std::size_t index, const FaultSpec& spec) {
  ODR_COUNT("fault.activations");
  ODR_TRACE_INSTANT(kFault, "fault.activate");
  if (auto* odr_obs = obs::current()) {
    const std::string kind(fault_kind_name(spec.kind));
    odr_obs->flight().note(odr_obs->now(), obs::Cat::kFault,
                           obs::Severity::kWarn, "fault.activate:" + kind,
                           static_cast<double>(index), spec.severity);
    odr_obs->flight().auto_dump(
        obs::FlightRecorder::DumpTrigger::kFaultFired, kind);
  }
  switch (spec.kind) {
    case FaultKind::kVmCrash:
    case FaultKind::kApCrash:
      // Sampled over the window; the first tick lands one period in.
      arm_after(index, kPhaseCrashTick, kCrashTickPeriod);
      return;

    case FaultKind::kUploadClusterOutage: {
      if (uploads_ == nullptr) return;
      uploads_->set_cluster_healthy(spec.isp, false);
      if (net_ != nullptr) {
        const net::LinkId link = uploads_->cluster_link(spec.isp);
        saved_capacity_.emplace(link, net_->link_capacity(link));
        net_->set_link_capacity(link, 0.0);  // in-flight fetches stall
      }
      ++mutable_stats(spec.kind).fired;
      arm_after(index, kPhaseRecover, spec.duration);
      return;
    }

    case FaultKind::kLinkDegradation: {
      if (uploads_ == nullptr || net_ == nullptr) return;
      const net::LinkId link = uploads_->cluster_link(spec.isp);
      saved_capacity_.emplace(link, net_->link_capacity(link));
      ++mutable_stats(spec.kind).fired;
      flap_toggle(index, spec, /*degraded=*/true);
      arm_after(index, kPhaseRecover, spec.duration);
      return;
    }

    case FaultKind::kStorageNodeLoss:
      if (storage_ == nullptr) return;
      storage_->evict_fraction(spec.severity);
      ++mutable_stats(spec.kind).fired;
      // One-shot: the pool re-warms organically, nothing to recover.
      ++mutable_stats(spec.kind).recovered;
      return;

    case FaultKind::kChecksumCorruption:
      if (pool_ == nullptr) return;
      pool_->set_corruption_prob(spec.rate);
      ++mutable_stats(spec.kind).fired;
      arm_after(index, kPhaseRecover, spec.duration);
      return;
  }
}

void FaultInjector::recover(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kVmCrash:
    case FaultKind::kApCrash:
      break;  // the tick chain notices the window end itself

    case FaultKind::kUploadClusterOutage:
      if (uploads_ != nullptr) {
        uploads_->set_cluster_healthy(spec.isp, true);
        if (net_ != nullptr) {
          const net::LinkId link = uploads_->cluster_link(spec.isp);
          auto it = saved_capacity_.find(link);
          if (it != saved_capacity_.end()) {
            net_->set_link_capacity(link, it->second);
            saved_capacity_.erase(it);
          }
        }
      }
      break;

    case FaultKind::kLinkDegradation:
      if (uploads_ != nullptr && net_ != nullptr) {
        const net::LinkId link = uploads_->cluster_link(spec.isp);
        auto it = saved_capacity_.find(link);
        if (it != saved_capacity_.end()) {
          net_->set_link_capacity(link, it->second);
          saved_capacity_.erase(it);
        }
      }
      break;

    case FaultKind::kStorageNodeLoss:
      break;  // one-shot, recovered at activation

    case FaultKind::kChecksumCorruption:
      if (pool_ != nullptr) pool_->set_corruption_prob(0.0);
      break;
  }
  ++mutable_stats(spec.kind).recovered;
  ODR_COUNT("fault.recoveries");
  ODR_FLIGHT(kFault, kInfo, "fault.recover",
             static_cast<double>(static_cast<int>(spec.kind)));
}

void FaultInjector::crash_tick(std::size_t index, const FaultSpec& spec) {
  const SimTime window_end = spec.start + spec.duration;
  if (sim_.now() > window_end) {
    ++mutable_stats(spec.kind).recovered;
    return;
  }
  const double tick_hours =
      static_cast<double>(kCrashTickPeriod) / static_cast<double>(kHour);
  const double prob = spec.rate * tick_hours;

  if (spec.kind == FaultKind::kVmCrash) {
    if (pool_ != nullptr && prob > 0.0) {
      mutable_stats(spec.kind).fired += pool_->inject_crashes(prob, rng_);
    }
  } else {  // kApCrash
    for (ap::SmartAp* ap : aps_) {
      if (prob > 0.0 && !ap->rebooting() && rng_.bernoulli(prob)) {
        ap->crash();
        ++mutable_stats(spec.kind).fired;
      }
    }
  }
  arm_after(index, kPhaseCrashTick, kCrashTickPeriod);
}

void FaultInjector::flap_toggle(std::size_t index, const FaultSpec& spec,
                                bool degraded) {
  const SimTime window_end = spec.start + spec.duration;
  if (sim_.now() >= window_end) return;  // recover() restores capacity
  const net::LinkId link = uploads_->cluster_link(spec.isp);
  const auto it = saved_capacity_.find(link);
  if (it == saved_capacity_.end()) return;  // already recovered
  const Rate full = it->second;
  net_->set_link_capacity(link, degraded ? full * spec.severity : full);
  if (spec.flap_period > 0) {
    arm_after(index, kPhaseFlap, spec.flap_period, !degraded);
  }
}

void FaultInjector::save_snapshot(snapshot::SnapshotWriter& w) const {
  save_rng(w, kTagRng, rng_);

  std::vector<net::LinkId> links;
  links.reserve(saved_capacity_.size());
  for (const auto& [link, rate] : saved_capacity_) links.push_back(link);
  std::sort(links.begin(), links.end());
  w.u64(kTagSavedCapCount, links.size());
  for (net::LinkId link : links) {
    w.u32(kTagSavedCapLink, link);
    w.f64(kTagSavedCapRate, saved_capacity_.at(link));
  }

  for (const KindStats& s : stats_) {
    w.u64(kTagStatsFired, s.fired);
    w.u64(kTagStatsRecovered, s.recovered);
  }

  // The plan itself, so a restore against a different plan fails loudly
  // rather than firing the wrong faults.
  w.u64(kTagPlanSpecCount, plan_.faults.size());
  for (const FaultSpec& spec : plan_.faults) {
    w.u8(kTagSpecKind, static_cast<std::uint8_t>(spec.kind));
    w.i64(kTagSpecStart, spec.start);
    w.i64(kTagSpecDuration, spec.duration);
    w.f64(kTagSpecRate, spec.rate);
    w.f64(kTagSpecSeverity, spec.severity);
    w.u8(kTagSpecIsp, static_cast<std::uint8_t>(spec.isp));
    w.i64(kTagSpecFlapPeriod, spec.flap_period);
  }

  w.u64(kTagPendingCount, pending_.size());
  for (const auto& [key, entry] : pending_) {
    w.u64(kTagPendingIndex, key.first);
    w.u8(kTagPendingPhase, key.second);
    w.b(kTagPendingDegraded, entry.degraded);
    w.u64(kTagPendingEvent, entry.event);
  }
}

void FaultInjector::load_snapshot(snapshot::SnapshotReader& r) {
  load_rng(r, kTagRng, rng_);

  saved_capacity_.clear();
  const std::uint64_t caps = r.u64(kTagSavedCapCount);
  for (std::uint64_t i = 0; i < caps; ++i) {
    const net::LinkId link = r.u32(kTagSavedCapLink);
    saved_capacity_.emplace(link, r.f64(kTagSavedCapRate));
  }

  for (KindStats& s : stats_) {
    s.fired = r.u64(kTagStatsFired);
    s.recovered = r.u64(kTagStatsRecovered);
  }

  const std::uint64_t specs = r.u64(kTagPlanSpecCount);
  if (specs != plan_.faults.size()) {
    throw snapshot::SnapshotError(
        "fault injector: checkpoint plan has a different fault count than "
        "the loaded plan");
  }
  for (const FaultSpec& spec : plan_.faults) {
    const auto kind = static_cast<FaultKind>(r.u8(kTagSpecKind));
    const SimTime start = r.i64(kTagSpecStart);
    const SimTime duration = r.i64(kTagSpecDuration);
    const double rate = r.f64(kTagSpecRate);
    const double severity = r.f64(kTagSpecSeverity);
    const auto isp = static_cast<net::Isp>(r.u8(kTagSpecIsp));
    const SimTime flap_period = r.i64(kTagSpecFlapPeriod);
    if (kind != spec.kind || start != spec.start ||
        duration != spec.duration || rate != spec.rate ||
        severity != spec.severity || isp != spec.isp ||
        flap_period != spec.flap_period) {
      throw snapshot::SnapshotError(
          "fault injector: checkpoint was taken under a different fault "
          "plan — refusing to resume");
    }
  }

  pending_.clear();
  const std::uint64_t count = r.u64(kTagPendingCount);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t index = r.u64(kTagPendingIndex);
    const std::uint8_t phase_raw = r.u8(kTagPendingPhase);
    const bool degraded = r.b(kTagPendingDegraded);
    const sim::EventId event = r.u64(kTagPendingEvent);
    if (index >= plan_.faults.size() || phase_raw > kPhaseFlap) {
      throw snapshot::SnapshotError(
          "fault injector: pending event references an unknown spec/phase");
    }
    const auto phase = static_cast<Phase>(phase_raw);
    sim_.rearm(event, [this, index, phase] { fire(index, phase); });
    pending_[{index, phase_raw}] = PendingEvent{event, degraded};
  }
}

}  // namespace odr::fault
