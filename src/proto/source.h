// Data-source models: where a requested file actually lives.
//
// A Source answers the downloader three questions: how fast can you serve
// me right now, when can that rate next change by itself, and when, if
// ever, do you drop the transfer fatally. Two concrete sources exist,
// matching the workload's protocol split (§3):
//   SwarmSource  — BitTorrent/eMule swarm (popularity-coupled populations):
//                  the downloader sees a seeded swarm's rate at 5-minute
//                  samples, and wakes only at the first sample after the
//                  swarm's next birth or death; a seedless swarm serves
//                  nothing until the exact time of its next seed arrival;
//   ServerSource — HTTP/FTP origin server: a constant rate, and a fatal
//                  drop of a non-resumable transfer at one sampled time.
//
// Both the cloud's pre-downloader VMs and the smart APs download through
// the same Source models — the paper's observation that APs "work in a
// similar way as the pre-downloaders" (§5.2) is true by construction here,
// with the differences (access bandwidth, storage write ceiling) applied
// by the DownloadTask configuration.
#pragma once

#include <memory>
#include <utility>

#include "proto/protocol.h"
#include "proto/swarm.h"
#include "util/rng.h"
#include "util/units.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::proto {

class Source {
 public:
  virtual ~Source() = default;

  // Serializes the concrete source's sampled constants and mutable state.
  // Restored via restore_source() below.
  virtual void save(snapshot::SnapshotWriter& w) const = 0;

  // Current service rate cap for one downloader (bytes/sec).
  virtual Rate current_rate() const = 0;

  // When the rate can next change by itself, from now: kTimeNever for a
  // constant rate, or the exact delay to the next change. Asked once after
  // every advance (and at start); it may draw from `rng`.
  virtual SimTime next_change(Rng& /*rng*/) { return kTimeNever; }

  // Brings the state forward by `dt`, the time since the last advance (or
  // the start). The downloader calls it at the delay next_change()
  // returned — never in between.
  virtual void advance(SimTime /*dt*/, Rng& /*rng*/) {}

  // Transfer time after which the source drops the attempt fatally (a
  // non-resumable HTTP/FTP break); kTimeNever if it never does. The
  // downloader fails the attempt at exactly that time, with
  // FailureCause::kPoorHttpConnection.
  virtual SimTime fatal_after() const { return kTimeNever; }

  // Total network traffic per file byte (>= 1; includes protocol overhead
  // and, for P2P, mandatory tit-for-tat uploads). §4.1: 1.07-1.10 for
  // HTTP/FTP, ~1.96 average for P2P.
  virtual double traffic_factor() const = 0;

  virtual Protocol protocol() const = 0;
};

struct ServerParams {
  // Origin service rate: lognormal median / sigma. HTTP and FTP servers
  // are "usually stable with more predictable performance" (§3).
  Rate rate_median = kbps_to_rate(210.0);
  double rate_sigma = 0.9;
  // Probability per attempt that the connection eventually breaks.
  double connection_break_prob = 0.35;
  // Probability that a broken transfer cannot be resumed (fatal). A
  // resumable break resumes at once and never changes the rate, so only
  // the fatal ones have any effect.
  double non_resumable_prob = 0.75;
  // When a break occurs, it happens after Exp(mean) of transfer time.
  SimTime break_after_mean = 8 * kMinute;
  // Header overhead range (§4.1: 7-10%).
  double overhead_lo = 1.07;
  double overhead_hi = 1.10;
};

class ServerSource final : public Source {
 public:
  ServerSource(Protocol protocol, const ServerParams& params, Rng& rng);

  Rate current_rate() const override { return rate_; }
  SimTime fatal_after() const override { return fatal_after_; }
  double traffic_factor() const override { return overhead_; }
  Protocol protocol() const override { return protocol_; }

  void save(snapshot::SnapshotWriter& w) const override;
  static std::unique_ptr<ServerSource> restored(Protocol protocol,
                                                snapshot::SnapshotReader& r);

 private:
  // Restore path: fields come from the checkpoint, no sampling.
  explicit ServerSource(Protocol protocol) : protocol_(protocol) {}

  Protocol protocol_;
  Rate rate_;
  double overhead_;
  SimTime fatal_after_;
};

class SwarmSource final : public Source {
 public:
  // The downloader sees a seeded swarm's populations, and so its rate,
  // only at samples this far apart, counted from the last advance.
  static constexpr SimTime kTickPeriod = 5 * kMinute;

  SwarmSource(Protocol protocol, double weekly_popularity,
              const SwarmParams& params, Rng& rng);

  Rate current_rate() const override { return swarm_.downloader_rate(); }
  // A seedless swarm serves nothing until its next seed arrives, the
  // exact delay returned. A seeded swarm keeps its populations, and so its
  // rate, until its next birth or death T; the samples before T would all
  // see the same rate, so the delay is the first sample at or after T,
  // max(1, ⌈T / kTickPeriod⌉) · kTickPeriod.
  SimTime next_change(Rng& rng) override;
  // Applies the pending change at T (a seed arrival, or one birth or
  // death), then the exact M/M/∞ transition over the rest of `dt`. The
  // populations at every sample therefore have the same joint law as an
  // advance at every sample.
  void advance(SimTime dt, Rng& rng) override;
  // Swarms never fail fatally by themselves; starvation surfaces as a
  // stagnation timeout in the downloader, classified as insufficient seeds.
  double traffic_factor() const override { return swarm_.traffic_factor(); }
  Protocol protocol() const override { return swarm_.protocol(); }

  Swarm& swarm() { return swarm_; }
  const Swarm& swarm() const { return swarm_; }

  void save(snapshot::SnapshotWriter& w) const override;
  static std::unique_ptr<SwarmSource> restored(Protocol protocol,
                                               const SwarmParams& params,
                                               snapshot::SnapshotReader& r);

 private:
  explicit SwarmSource(Swarm swarm) : swarm_(std::move(swarm)) {}

  Swarm swarm_;
  // T: the time from the last advance to the pending change, drawn by
  // next_change().
  SimTime change_in_ = kTimeNever;
};

// All source-model tunables in one place; experiments pass one of these
// around so a calibration is a single value.
struct SourceParams {
  SwarmParams swarm;
  ServerParams server;
};

// Creates the right Source for a file's protocol and popularity.
std::unique_ptr<Source> make_source(Protocol protocol, double weekly_popularity,
                                    const SourceParams& params, Rng& rng);

// Snapshot counterparts of make_source: save_source writes a kind marker
// plus the concrete source's state; restore_source rebuilds it without
// consuming RNG draws.
void save_source(snapshot::SnapshotWriter& w, const Source& source);
std::unique_ptr<Source> restore_source(snapshot::SnapshotReader& r,
                                       const SourceParams& params);

}  // namespace odr::proto
