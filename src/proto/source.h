// Data-source models: where a requested file actually lives.
//
// A Source answers one question for the downloader that polls it: "how fast
// can you serve me right now?" — plus whether it has failed fatally. Two
// concrete sources exist, matching the workload's protocol split (§3):
//   SwarmSource  — BitTorrent/eMule swarm (popularity-coupled populations);
//   ServerSource — HTTP/FTP origin server (stable rate, occasional fatal
//                  drops of non-resumable transfers).
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

  // Advances internal state by dt; called on the downloader's tick.
  virtual void tick(SimTime dt, Rng& rng) = 0;

  // A fatal source-side failure (e.g. non-resumable HTTP drop). Once true
  // the download cannot complete, regardless of stagnation timers.
  virtual bool fatal() const = 0;
  virtual FailureCause fatal_cause() const = 0;

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
  // Probability that a broken transfer cannot be resumed (fatal).
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

  Rate current_rate() const override { return broken_ ? 0.0 : rate_; }
  void tick(SimTime dt, Rng& rng) override;
  bool fatal() const override { return fatal_; }
  FailureCause fatal_cause() const override {
    return fatal_ ? FailureCause::kPoorHttpConnection : FailureCause::kNone;
  }
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
  bool will_break_;
  bool break_is_fatal_;
  SimTime break_after_;
  SimTime elapsed_ = 0;
  bool broken_ = false;
  bool fatal_ = false;
};

class SwarmSource final : public Source {
 public:
  SwarmSource(Protocol protocol, double weekly_popularity,
              const SwarmParams& params, Rng& rng);

  Rate current_rate() const override { return swarm_.downloader_rate(); }
  void tick(SimTime dt, Rng& rng) override { swarm_.tick(dt, rng); }
  // Swarms never fail fatally by themselves; starvation surfaces as a
  // stagnation timeout in the downloader, classified as insufficient seeds.
  bool fatal() const override { return false; }
  FailureCause fatal_cause() const override { return FailureCause::kNone; }
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
