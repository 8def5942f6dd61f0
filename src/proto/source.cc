#include "proto/source.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "snapshot/format.h"

namespace odr::proto {
namespace {

// Field tags for serialized source state (inline in the owner's section).
enum : std::uint16_t {
  kTagSourceKind = 20,
  kTagSourceProtocol = 21,
  kTagServerRate = 22,
  kTagServerOverhead = 23,
  kTagServerFatalAfter = 30,
  kTagSwarmChangeIn = 31,
};

enum : std::uint8_t { kKindServer = 0, kKindSwarm = 1 };

}  // namespace

ServerSource::ServerSource(Protocol protocol, const ServerParams& params,
                           Rng& rng)
    : protocol_(protocol) {
  assert(!is_p2p(protocol));
  rate_ = params.rate_median * std::exp(rng.normal(0.0, params.rate_sigma));
  overhead_ = rng.uniform(params.overhead_lo, params.overhead_hi);
  const bool breaks = rng.bernoulli(params.connection_break_prob);
  const bool fatal = rng.bernoulli(params.non_resumable_prob);
  const SimTime break_after =
      breaks ? from_seconds(rng.exponential(to_seconds(params.break_after_mean)))
             : kTimeNever;
  // A resumable break resumes at once: only a fatal one is an event.
  fatal_after_ = fatal ? break_after : kTimeNever;
}

SwarmSource::SwarmSource(Protocol protocol, double weekly_popularity,
                         const SwarmParams& params, Rng& rng)
    : swarm_(protocol, weekly_popularity, params, rng) {}

SimTime SwarmSource::next_change(Rng& rng) {
  if (swarm_.seeds() == 0) return change_in_ = swarm_.next_seed_gap(rng);
  change_in_ = swarm_.next_change_gap(rng);
  if (change_in_ == kTimeNever) return kTimeNever;
  const SimTime samples = (change_in_ + kTickPeriod - 1) / kTickPeriod;
  return std::max<SimTime>(1, samples) * kTickPeriod;
}

void SwarmSource::advance(SimTime dt, Rng& rng) {
  assert(change_in_ <= dt);
  if (swarm_.seeds() == 0) {
    swarm_.seed_arrives(change_in_, rng);
  } else {
    swarm_.change_once(rng);
  }
  swarm_.advance(dt - change_in_, rng);
}

std::unique_ptr<Source> make_source(Protocol protocol, double weekly_popularity,
                                    const SourceParams& params, Rng& rng) {
  if (is_p2p(protocol)) {
    return std::make_unique<SwarmSource>(protocol, weekly_popularity,
                                         params.swarm, rng);
  }
  return std::make_unique<ServerSource>(protocol, params.server, rng);
}

void ServerSource::save(snapshot::SnapshotWriter& w) const {
  w.u8(kTagSourceKind, kKindServer);
  w.u8(kTagSourceProtocol, static_cast<std::uint8_t>(protocol_));
  w.f64(kTagServerRate, rate_);
  w.f64(kTagServerOverhead, overhead_);
  w.i64(kTagServerFatalAfter, fatal_after_);
}

std::unique_ptr<ServerSource> ServerSource::restored(
    Protocol protocol, snapshot::SnapshotReader& r) {
  auto s = std::unique_ptr<ServerSource>(new ServerSource(protocol));
  s->rate_ = r.f64(kTagServerRate);
  s->overhead_ = r.f64(kTagServerOverhead);
  s->fatal_after_ = r.i64(kTagServerFatalAfter);
  return s;
}

void SwarmSource::save(snapshot::SnapshotWriter& w) const {
  w.u8(kTagSourceKind, kKindSwarm);
  w.u8(kTagSourceProtocol, static_cast<std::uint8_t>(protocol()));
  swarm_.save(w);
  w.i64(kTagSwarmChangeIn, change_in_);
}

std::unique_ptr<SwarmSource> SwarmSource::restored(
    Protocol protocol, const SwarmParams& params, snapshot::SnapshotReader& r) {
  auto s = std::unique_ptr<SwarmSource>(
      new SwarmSource(Swarm::restored(protocol, params, r)));
  s->change_in_ = r.i64(kTagSwarmChangeIn);
  return s;
}

void save_source(snapshot::SnapshotWriter& w, const Source& source) {
  source.save(w);
}

std::unique_ptr<Source> restore_source(snapshot::SnapshotReader& r,
                                       const SourceParams& params) {
  const std::uint8_t kind = r.u8(kTagSourceKind);
  const auto protocol = static_cast<Protocol>(r.u8(kTagSourceProtocol));
  switch (kind) {
    case kKindServer:
      return ServerSource::restored(protocol, r);
    case kKindSwarm:
      return SwarmSource::restored(protocol, params.swarm, r);
    default:
      throw snapshot::SnapshotError("unknown source kind " +
                                    std::to_string(kind) + " in checkpoint");
  }
}

}  // namespace odr::proto
