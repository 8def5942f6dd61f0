#include "proto/download.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/observer.h"
#include "snapshot/format.h"

namespace odr::proto {
namespace {

// Field tags for serialized DownloadTask state (inline in owner's section).
enum : std::uint16_t {
  kTagFileSize = 60,
  kTagRateCeiling = 61,
  kTagCorruptionProb = 68,
  kTagFlow = 70,
  kTagEvent = 71,
  kTagStartedAt = 72,
  kTagLastAdvance = 73,
  kTagLastProgressBytes = 74,
  kTagLastProgressAt = 75,
  kTagPeakRate = 76,
  kTagRunning = 77,
  kTagDone = 78,
  kTagRoundBytes = 79,
  kTagVerifiedBytes = 80,
  kTagDiscardedBytes = 81,
  kTagChecksumRetries = 82,
};

}  // namespace

DownloadTask::DownloadTask(sim::Simulator& sim, net::Network& net,
                           std::unique_ptr<Source> source, Bytes file_size,
                           Config config, DoneFn on_done)
    : sim_(sim),
      net_(net),
      source_(std::move(source)),
      file_size_(file_size),
      config_(std::move(config)),
      on_done_(std::move(on_done)) {
  assert(source_ != nullptr);
  assert(file_size_ > 0);
}

DownloadTask::~DownloadTask() {
  // Destroying a running task tears it down silently: the owner is going
  // away, so the completion callback must not fire.
  if (running_) {
    on_done_ = nullptr;
    abort();
  }
}

Rate DownloadTask::effective_cap() const {
  return std::min(source_->current_rate(), config_.rate_ceiling);
}

void DownloadTask::open_round(Bytes bytes) {
  net::Network::FlowSpec spec;
  spec.bytes = round_bytes_ = bytes;
  spec.rate_cap = effective_cap();
  spec.on_complete = [this](net::FlowId) { on_flow_complete(); };
  flow_ = net_.start_flow(std::move(spec));
}

void DownloadTask::start(Rng& rng) {
  assert(!running_ && !done_);
  rng_ = &rng;
  running_ = true;
  started_at_ = sim_.now();
  last_advance_ = sim_.now();
  last_progress_at_ = sim_.now();
  last_progress_bytes_ = 0.0;

  open_round(file_size_);
  peak_rate_ = net_.flow_stats(flow_).current_rate;
  schedule_next();
}

void DownloadTask::schedule_next() {
  SimTime at = started_at_ + std::min(kHardTimeout, source_->fatal_after());
  const SimTime change = source_->next_change(*rng_);
  if (change != kTimeNever) at = std::min(at, sim_.now() + change);
  // Download flows are pathless, so they run at exactly their cap (0 at or
  // below the network's minimum rate). Until the source changes, a stalled
  // flow cannot move and the stagnation rule fires at its deadline; a
  // moving one keeps moving.
  if (net_.flow_stats(flow_).current_rate <= 0.0) {
    at = std::min(at, last_progress_at_ + kStagnationTimeout);
  }
  event_ = sim_.schedule_at(at, [this] { on_event(); });
}

Bytes DownloadTask::bytes_done() {
  if (flow_.id == net::kInvalidFlow) return done_ ? file_size_ : 0;
  return std::min<Bytes>(file_size_,
                         verified_bytes_ + net_.flow_stats(flow_).bytes_done);
}

void DownloadTask::on_event() {
  event_ = {};
  if (!running_) return;

  // Events by class: a server source (its fatal break or hard timeout), a
  // swarm waking from no rate (a seed arrival or a deadline), a seeded
  // swarm's sample after a birth or death.
  ODR_COUNT(!is_p2p(source_->protocol()) ? "proto.ticks.server"
            : source_->current_rate() > 0.0 ? "proto.ticks.swarm_seeded"
                                            : "proto.ticks.swarm_seedless");
  const SimTime now = sim_.now();
  if (now - started_at_ >= source_->fatal_after()) {
    // The server cannot resume partial transfers: the attempt is dead.
    finish(false, FailureCause::kPoorHttpConnection);
    return;
  }

  const net::FlowStats stats = net_.flow_stats(flow_);
  peak_rate_ = std::max(peak_rate_, stats.peak_rate);

  // Stagnation rule: if no forward progress for kStagnationTimeout, the
  // attempt is declared failed (§4.1). "Progress" is any byte movement
  // since the last observation.
  const FailureCause timeout_cause = is_p2p(source_->protocol())
                                         ? FailureCause::kInsufficientSeeds
                                         : FailureCause::kPoorHttpConnection;
  const double progressed =
      static_cast<double>(stats.bytes_done) - last_progress_bytes_;
  if (progressed > 0.5) {
    last_progress_bytes_ = static_cast<double>(stats.bytes_done);
    last_progress_at_ = now;
  } else if (now - last_progress_at_ >= kStagnationTimeout) {
    finish(false, timeout_cause);
    return;
  }
  if (now - started_at_ >= kHardTimeout) {
    finish(false, timeout_cause);
    return;
  }

  // No deadline fired, so this is the source's own change: advance it and
  // re-cap the flow.
  source_->advance(now - last_advance_, *rng_);
  last_advance_ = now;
  net_.set_flow_cap(flow_, effective_cap());
  schedule_next();
}

// The flow delivered the current round's bytes; verify the MD5 before
// declaring success. A corrupted round is re-fetched: P2P piece hashes
// localize the damage so only ~10% of the round is re-downloaded, while
// HTTP/FTP must restart the whole file.
void DownloadTask::on_flow_complete() {
  // The network retires a flow before invoking its completion callback,
  // so its stats are gone by now; the delivered round is exactly the
  // byte count this task requested when it opened the flow.
  const Bytes round = round_bytes_;
  flow_ = {};

  const bool corrupted = config_.corruption_prob > 0.0 && rng_ != nullptr &&
                         rng_->bernoulli(config_.corruption_prob);
  if (!corrupted) {
    verified_bytes_ = file_size_;
    finish(true, FailureCause::kNone);
    return;
  }
  if (checksum_retries_ >= kMaxChecksumRetries) {
    discarded_bytes_ += round;
    finish(false, FailureCause::kChecksumMismatch);
    return;
  }
  ++checksum_retries_;
  ODR_COUNT("proto.checksum.retries");
  ODR_TRACE_INSTANT(kProto, "checksum.retry");
  if (config_.obs_file_index != Config::kNoObsFile) {
    ODR_SPAN(note_file_retry(config_.obs_file_index));
  }

  Bytes refetch;
  if (is_p2p(source_->protocol())) {
    // Per-piece hashes: keep the good 90%, re-fetch the corrupt pieces.
    refetch = std::max<Bytes>(1, round / 10);
    verified_bytes_ = std::min(file_size_, verified_bytes_ + (round - refetch));
    discarded_bytes_ += refetch;
  } else {
    // Whole-file hash only: nothing salvageable, restart from zero.
    refetch = file_size_;
    verified_bytes_ = 0;
    discarded_bytes_ += round;
  }

  open_round(refetch);
  // The new flow's byte counter restarts at zero; re-arm progress tracking
  // so the stagnation rule measures the retry round on its own terms.
  last_progress_bytes_ = 0.0;
  last_progress_at_ = sim_.now();
}

void DownloadTask::abort() {
  if (!running_) return;
  finish(false, FailureCause::kAborted);
}

void DownloadTask::fail_externally(FailureCause cause) {
  if (!running_) return;
  finish(false, cause);
}

void DownloadTask::finish(bool success, FailureCause cause) {
  assert(running_);
  running_ = false;
  done_ = true;

  DownloadResult result;
  result.success = success;
  result.cause = cause;
  result.started_at = started_at_;
  result.finished_at = sim_.now();
  result.file_size = file_size_;

  if (flow_.id != net::kInvalidFlow) {
    const net::FlowStats stats = net_.flow_stats(flow_);
    result.bytes_downloaded =
        std::min<Bytes>(file_size_, verified_bytes_ + stats.bytes_done);
    peak_rate_ = std::max(peak_rate_, stats.peak_rate);
    net_.cancel_flow(flow_);
    flow_ = {};
  } else {
    result.bytes_downloaded = verified_bytes_;
  }
  if (success) result.bytes_downloaded = file_size_;

  sim_.cancel(event_);
  event_ = {};

  // Discarded (corrupt) bytes crossed the wire too; they count as traffic.
  result.traffic_bytes = static_cast<Bytes>(
      std::llround(static_cast<double>(result.bytes_downloaded +
                                       discarded_bytes_) *
                   source_->traffic_factor()));
  result.peak_rate = peak_rate_;
  result.checksum_retries = checksum_retries_;
  const SimTime elapsed = result.duration();
  result.average_rate =
      success ? average_rate(result.file_size, elapsed)
              : average_rate(result.bytes_downloaded, elapsed);

  ODR_COUNT(success ? "proto.downloads.succeeded" : "proto.downloads.failed");
  ODR_HIST("proto.download.duration_s", 0.0, 24.0 * 3600.0, 48,
           to_seconds(elapsed));
  ODR_TRACE_COMPLETE(kProto, success ? "download.ok" : "download.fail",
                     started_at_, sim_.now());

  // Last statement: the owner may destroy this task inside the callback,
  // so the callback must not live in it while it runs.
  const DoneFn done = std::move(on_done_);
  if (done) done(result);
}

void DownloadTask::save(snapshot::SnapshotWriter& w) const {
  save_source(w, *source_);
  w.u64(kTagFileSize, file_size_);
  w.f64(kTagRateCeiling, config_.rate_ceiling);
  w.f64(kTagCorruptionProb, config_.corruption_prob);
  w.u64(kTagFlow, flow_.id);
  w.u64(kTagEvent, event_.id);
  w.i64(kTagStartedAt, started_at_);
  w.i64(kTagLastAdvance, last_advance_);
  w.f64(kTagLastProgressBytes, last_progress_bytes_);
  w.i64(kTagLastProgressAt, last_progress_at_);
  w.f64(kTagPeakRate, peak_rate_);
  w.b(kTagRunning, running_);
  w.b(kTagDone, done_);
  w.u64(kTagRoundBytes, round_bytes_);
  w.u64(kTagVerifiedBytes, verified_bytes_);
  w.u64(kTagDiscardedBytes, discarded_bytes_);
  w.u32(kTagChecksumRetries, checksum_retries_);
}

std::unique_ptr<DownloadTask> DownloadTask::restore(
    sim::Simulator& sim, net::Network& net, snapshot::SnapshotReader& r,
    const SourceParams& sources, DoneFn on_done, Rng& rng) {
  std::unique_ptr<Source> source = restore_source(r, sources);
  const Bytes file_size = r.u64(kTagFileSize);
  Config config;
  config.rate_ceiling = r.f64(kTagRateCeiling);
  config.corruption_prob = r.f64(kTagCorruptionProb);
  auto task = std::make_unique<DownloadTask>(sim, net, std::move(source),
                                             file_size, config,
                                             std::move(on_done));
  DownloadTask& t = *task;
  t.rng_ = &rng;
  const net::FlowId flow = r.u64(kTagFlow);
  const sim::EventId event = r.u64(kTagEvent);
  t.started_at_ = r.i64(kTagStartedAt);
  t.last_advance_ = r.i64(kTagLastAdvance);
  t.last_progress_bytes_ = r.f64(kTagLastProgressBytes);
  t.last_progress_at_ = r.i64(kTagLastProgressAt);
  t.peak_rate_ = r.f64(kTagPeakRate);
  t.running_ = r.b(kTagRunning);
  t.done_ = r.b(kTagDone);
  t.round_bytes_ = r.u64(kTagRoundBytes);
  t.verified_bytes_ = r.u64(kTagVerifiedBytes);
  t.discarded_bytes_ = r.u64(kTagDiscardedBytes);
  t.checksum_retries_ = r.u32(kTagChecksumRetries);

  if (event != sim::kInvalidEvent) {
    t.event_ = sim.rearm(event, [&t] { t.on_event(); });
  }
  if (flow != net::kInvalidFlow) {
    t.flow_ = net.reattach_on_complete(
        flow, [&t](net::FlowId) { t.on_flow_complete(); });
  }
  return task;
}

}  // namespace odr::proto
