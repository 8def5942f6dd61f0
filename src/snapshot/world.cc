#include "snapshot/world.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

#include "analysis/obs_wiring.h"
#include "obs/observer.h"
#include "snapshot/audit.h"
#include "snapshot/format.h"
#include "util/crc32.h"
#include "util/md5.h"
#include "workload/file.h"
#include "workload/request_gen.h"
#include "workload/snapshot.h"

namespace odr::snapshot {
namespace {

// The meta section opens a world checkpoint; one section per Subsystem
// follows (format.h), then the outcome log and the cache window, which are
// not Subsystems.
inline constexpr std::uint32_t kSectionMeta = 1;
inline constexpr std::uint32_t kSectionLog = 2;
inline constexpr std::uint32_t kSectionCacheWindow = 3;
// v2: one section per subsystem follows, each its own sub-hash (v1 held a
// composite cloud-state section, then the fault and world sections).
inline constexpr std::uint32_t kMetaVersion = 2;
// The fault section started at v1 with meta v2.
inline constexpr std::uint32_t kFaultVersion = 1;
// v2: the outcome count and the log's running CRC; v1 held the records,
// so every hash re-serialized the whole outcome history.
inline constexpr std::uint32_t kWorldVersion = 2;
inline constexpr std::uint32_t kLogVersion = 1;
// The content DB's window records, then the storage pool's entries MRU
// first; the caches section (v2) holds their counts and digests.
inline constexpr std::uint32_t kCacheWindowVersion = 1;

enum : std::uint16_t {
  kTagFingerprint = 1,
  kTagRequestCount = 2,
  kTagNow = 3,
  kTagHasInjector = 10,
  kTagOutcomeCount = 20,
  kTagOutcomeCrc = 21,
  kTagNextArrival = 33,
  kTagCheckpointEvent = 40,
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       WorldOptions options)
    : config_(config), options_(std::move(options)), net_(sim_) {
  build(true);
  arm_checkpoint_tick();
}

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       workload::Trace trace)
    : config_(config), net_(sim_) {
  options_.checkpoint_period = 0;
  Rng rng(config_.seed);
  // Arrivals replay in time order, and a fixed order keeps the rebuild below
  // independent of the listing order.
  std::vector<workload::WorkloadRecord>& requests = trace.requests;
  workload::sort_by_arrival(requests);

  // --- Rebuild the catalog from the files the requests name. ---------------
  workload::FileIndex max_file = 0;
  workload::UserId max_user = 0;
  for (const auto& r : requests) {
    max_file = std::max(max_file, r.file);
    max_user = std::max(max_user, r.user_id);
  }
  std::vector<workload::FileInfo> files(max_file + 1);
  std::vector<double> counts(max_file + 1, 0.0);
  for (const auto& r : requests) {
    counts[r.file] += 1.0;
    workload::FileInfo& f = files[r.file];
    if (f.index == workload::kInvalidFile) {
      workload::FileInfo& recorded = trace.files.at(r.file);
      f.index = r.file;
      f.rank = r.file + 1;
      f.type = recorded.type;
      f.size = std::max<Bytes>(1, recorded.size);
      f.protocol = recorded.protocol;
      f.source_link = std::move(recorded.source_link);
      f.content_id = Md5::of(f.source_link);
      // A trace carries no pre-trace history: guess which files predate it
      // so warming (below) relies on the measured counts only.
      f.born_before_trace = rng.bernoulli(1.0 - 0.55);
    }
  }
  for (workload::FileIndex i = 0; i <= max_file; ++i) {
    if (files[i].index == workload::kInvalidFile) {
      // Unreferenced index: fill a placeholder so indices stay dense.
      files[i].index = i;
      files[i].rank = i + 1;
      files[i].size = 1;
    }
    files[i].expected_weekly_requests = counts[i];
  }
  catalog_ = std::make_shared<workload::Catalog>(std::move(files));

  // --- Sample a population, then overlay the users the requests name. ------
  workload::UserModelParams user_params = config_.users;
  user_params.num_users = static_cast<std::size_t>(max_user) + 1;
  users_ = std::make_shared<workload::UserPopulation>(user_params, rng);
  for (const auto& r : requests) {
    const workload::User& recorded = trace.users.at(r.user_id);
    workload::User& u = users_->mutable_user(r.user_id);
    u.isp = recorded.isp;
    u.ip = recorded.ip;
    // An unreported bandwidth keeps the sampled one, and stays unreported.
    const Rate bandwidth = recorded.reported_bandwidth();
    u.reports_bandwidth = bandwidth > 0.0;
    if (u.reports_bandwidth) u.access_bandwidth = bandwidth;
  }

  start_cloud(rng, requests.size());
  requests_ = std::move(requests);
  duration_ = schedule_week(rng) + kDay;
}

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       WorldOptions options, const std::string& buffer)
    : config_(config), options_(std::move(options)), net_(sim_) {
  build(false);
  // No fresh checkpoint tick here: the checkpointed one is rearmed below,
  // keeping the resumed event stream identical to the uninterrupted run.
  load_from(buffer);
  last_save_bytes_ = buffer.size();
}

// Every rng draw and every schedule call happens in a fixed order, so a
// restored CloudWorld regenerates the same immutable tables (and event
// ids) the checkpoint was taken over.
void CloudWorld::build(bool warm) {
  Rng rng(config_.seed);
  catalog_ = std::make_shared<workload::Catalog>(config_.catalog, rng);
  users_ = std::make_shared<workload::UserPopulation>(config_.users, rng);
  start_cloud(rng, warm ? config_.requests.num_requests : 0);
  requests_ = workload::RequestGenerator(config_.requests)
                  .generate(*catalog_, *users_, rng);
  duration_ = config_.requests.duration;
  schedule_week(rng);
}

void CloudWorld::start_cloud(Rng& rng, std::size_t warm_requests) {
  cloud_.emplace(sim_, net_, *catalog_, config_.sources, config_.cloud, rng,
                 [this](const workload::TaskOutcome& outcome) {
                   analysis::finish_cloud_task_span(outcome);
                   outcomes_.push_back(outcome);
                 });
  // Warm the pool and content DB with the preceding weeks' history. The
  // fork happens even when the warm-up is skipped, so the main stream's
  // later draws do not depend on it.
  Rng warm_rng = rng.fork();
  if (warm_requests > 0) {
    analysis::warm_cloud(*cloud_, *catalog_, warm_requests,
                         config_.warmup_weeks, warm_rng);
  }
}

SimTime CloudWorld::schedule_week(Rng& rng) {
  outcomes_.clear();
  outcomes_.reserve(requests_.size());

  // Fault layer: constructed (and its rng stream forked) only when the
  // plan is non-empty, and only after the workload is final — so the same
  // seed yields the identical request stream under every plan, and
  // fault-free replays keep their exact rng sequence.
  if (!config_.fault_plan.empty()) {
    injector_.emplace(sim_, rng);
    injector_->attach_cloud(*cloud_, net_);
    injector_->load(config_.fault_plan);
  }

  // Each arrival keeps the id it would have had if the whole (time-ordered)
  // week were scheduled here, but only queues its successor when it fires.
  first_arrival_ = sim_.reserve(requests_.size());
  next_arrival_ = 0;
  if (!requests_.empty()) {
    sim_.schedule_reserved(first_arrival_, requests_.front().request_time,
                           [this] { on_arrival(); });
  }
  const SimTime horizon = requests_.empty() ? 0 : requests_.back().request_time;

  // Observability is wired against the rebuilt world but carries no state
  // of its own into the checkpoint: metrics/traces are derived, and the
  // sampler polls from the after-event hook instead of scheduling events,
  // so checkpoints stay byte-identical with or without an observer.
  analysis::wire_cloud_observability(sim_, net_, *cloud_, horizon + kDay);
  return horizon;
}

void CloudWorld::arm_checkpoint_tick() {
  if (options_.checkpoint_period > 0) {
    checkpoint_event_ = sim_.schedule_after(options_.checkpoint_period,
                                            [this] { checkpoint_tick(); })
                            .id;
  }
}

void CloudWorld::on_arrival() {
  const workload::WorkloadRecord& request = requests_[next_arrival_++];
  if (next_arrival_ < requests_.size()) {
    sim_.schedule_reserved(first_arrival_ + next_arrival_,
                           requests_[next_arrival_].request_time,
                           [this] { on_arrival(); });
  }
  // The world receives each user request, so it records it (§6.1).
  cloud_->content_db().record_request(request.file, sim_.now());
  cloud_->submit(request, users_->user(request.user_id));
}

std::uint64_t CloudWorld::run(std::uint64_t max_events) {
  const std::uint64_t burn_at = config_.debug_burn_rng_at_event;
  const std::uint64_t cadence = options_.hash_every_events;
  // With neither hashing nor a burn this is one sim_.run(max_events) call
  // with zero added allocations (pinned by bench/obs_overhead).
  std::uint64_t done = 0;
  while (done < max_events) {
    burn_rng_if_due();
    std::uint64_t chunk = max_events - done;
    if (cadence != 0) {
      chunk = std::min(chunk, cadence - sim_.executed_count() % cadence);
    }
    if (burn_at != 0 && !rng_burned_) {
      chunk = std::min(chunk, burn_at - sim_.executed_count());
    }
    const std::uint64_t n = sim_.run(chunk);
    done += n;
    if (cadence != 0 && n > 0 && sim_.executed_count() % cadence == 0) {
      hashes_.push_back(hash_now());
    }
    if (n < chunk) {
      // Queue drained. Record the final state so end-of-run hashes are
      // comparable even when the drain point is off-cadence.
      if (cadence != 0 && n > 0) hashes_.push_back(hash_now());
      break;
    }
  }
  return done;
}

void CloudWorld::burn_rng_if_due() {
  // The injected divergence: one extra draw from the cloud's rng stream at
  // the event boundary after `debug_burn_rng_at_event` events. The guard
  // flag (not a counter comparison alone) makes it fire exactly once even
  // across multiple run() calls.
  const std::uint64_t burn_at = config_.debug_burn_rng_at_event;
  if (burn_at == 0 || rng_burned_ || sim_.executed_count() < burn_at) return;
  cloud_->debug_burn_rng_draw();
  rng_burned_ = true;
}

StateHash CloudWorld::hash_now() const { return StateHasher::hash(*this); }

void CloudWorld::checkpoint_tick() {
  checkpoint_event_ = sim::kInvalidEvent;
  // Reschedule BEFORE saving, so the checkpoint carries the next tick and
  // a resumed run keeps the identical checkpoint cadence (and event ids).
  // No reschedule once the queue is otherwise empty: the tick must not
  // keep a finished week alive.
  if (sim_.pending_count() > 0 && options_.checkpoint_period > 0) {
    checkpoint_event_ = sim_.schedule_after(options_.checkpoint_period,
                                            [this] { checkpoint_tick(); })
                            .id;
  }
  if (options_.audit_at_checkpoint) {
    const std::vector<std::string> problems = audit(*this);
    if (!problems.empty()) {
      std::string msg = "world audit failed at t=" +
                        std::to_string(sim_.now()) + ":";
      for (const std::string& p : problems) msg += "\n  - " + p;
      ODR_FLIGHT(kSnapshot, kError, "audit.failed",
                 static_cast<double>(problems.size()));
      if (auto* odr_obs = obs::current()) {
        odr_obs->flight().auto_dump(
            obs::FlightRecorder::DumpTrigger::kAuditFailure, problems.front());
      }
      throw SnapshotError(msg, SnapshotErrorKind::kAudit);
    }
  }
  if (!options_.checkpoint_path.empty()) {
    write_snapshot_file(options_.checkpoint_path, save_to_buffer());
    ++checkpoints_written_;
    ODR_COUNT("snapshot.checkpoints.written");
    ODR_TRACE_INSTANT(kSnapshot, "checkpoint");
    ODR_FLIGHT(kSnapshot, kInfo, "checkpoint.written",
               static_cast<double>(checkpoints_written_));
  }
}

std::uint64_t CloudWorld::config_fingerprint() const {
  // FNV-1a over the config scalars that shape the deterministic build and
  // the run: every workload-generation (catalog, popularity, size, user,
  // request), CloudConfig and SourceParams field among them. A
  // checkpoint only makes sense over the exact world it was taken from;
  // restoring under a different config must fail before any state loads.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  auto mix_f = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(config_.seed);
  const workload::CatalogParams& cat = config_.catalog;
  mix(cat.num_files);
  mix_f(cat.total_weekly_requests);
  mix_f(cat.video_fraction);
  mix_f(cat.software_fraction);
  mix_f(cat.bittorrent_fraction);
  mix_f(cat.emule_fraction);
  mix_f(cat.http_fraction);
  const workload::PopularityProfileParams& pop = cat.popularity;
  mix_f(pop.head_file_share);
  mix_f(pop.head_request_share);
  mix_f(pop.mid_file_share);
  mix_f(pop.mid_request_share);
  mix_f(pop.head_boundary_count);
  mix_f(pop.mid_boundary_count);
  mix_f(pop.tail_min_count);
  mix_f(pop.max_top_share);
  mix_f(cat.new_file_fraction);
  const workload::SizeModelParams& size = cat.size;
  mix_f(size.small_fraction);
  mix(size.small_min);
  mix(size.small_max);
  mix_f(size.small_log_median);
  mix_f(size.small_log_sigma);
  mix(size.large_max);
  mix_f(size.large_log_median);
  mix_f(size.large_log_sigma);
  mix_f(size.video_scale);
  mix_f(size.software_scale);
  mix_f(size.other_scale);
  const workload::UserModelParams& users = config_.users;
  mix(users.num_users);
  mix_f(users.telecom);
  mix_f(users.unicom);
  mix_f(users.mobile);
  mix_f(users.cernet);
  mix_f(users.bandwidth_median);
  mix_f(users.bandwidth_sigma);
  mix_f(users.bandwidth_min);
  mix_f(users.bandwidth_max);
  mix_f(users.reports_bandwidth_prob);
  mix_f(users.activity_alpha);
  const workload::RequestGenParams& req = config_.requests;
  mix(req.num_requests);
  mix(static_cast<std::uint64_t>(req.duration));
  mix_f(req.diurnal_amplitude);
  mix_f(req.peak_hour);
  mix_f(req.daily_growth);
  const cloud::CloudConfig& c = config_.cloud;
  mix(c.storage_capacity);
  mix(c.predownloader_count);
  mix_f(c.total_upload_capacity);
  for (double share : c.isp_upload_share) mix_f(share);
  mix_f(c.admission_floor);
  mix_f(c.dynamics_prob);
  mix(c.predownload_max_retries);
  mix(c.degraded_admission);
  mix_f(c.shed_headroom);
  mix(c.retry_budget_enabled);
  mix_f(c.retry_budget_global_capacity);
  mix_f(c.retry_budget_global_refill_per_hour);
  const proto::SwarmParams& sw = config_.sources.swarm;
  mix_f(sw.seeds_per_popularity);
  mix_f(sw.seeds_popularity_exponent);
  mix_f(sw.base_seed_mean);
  mix_f(sw.leechers_per_popularity);
  mix(static_cast<std::uint64_t>(sw.peer_lifetime));
  mix_f(sw.seed_upload_median);
  mix_f(sw.seed_upload_sigma);
  mix_f(sw.seed_log_gain);
  mix_f(sw.leecher_exchange_factor);
  mix_f(sw.seedbox_scale);
  mix_f(sw.seedbox_rate_lo);
  mix_f(sw.seedbox_rate_hi);
  mix_f(sw.traffic_factor_lo);
  mix_f(sw.traffic_factor_hi);
  mix_f(sw.emule_scale);
  const proto::ServerParams& sv = config_.sources.server;
  mix_f(sv.rate_median);
  mix_f(sv.rate_sigma);
  mix_f(sv.connection_break_prob);
  mix_f(sv.non_resumable_prob);
  mix(static_cast<std::uint64_t>(sv.break_after_mean));
  mix_f(sv.overhead_lo);
  mix_f(sv.overhead_hi);
  mix(static_cast<std::uint64_t>(config_.warmup_weeks));
  mix(config_.debug_burn_rng_at_event);
  mix(config_.fault_plan.faults.size());
  for (const fault::FaultSpec& s : config_.fault_plan.faults) {
    mix(static_cast<std::uint64_t>(s.kind));
    mix(static_cast<std::uint64_t>(s.start));
    mix(static_cast<std::uint64_t>(s.duration));
    mix_f(s.rate);
    mix_f(s.severity);
    mix(static_cast<std::uint64_t>(s.isp));
    mix(static_cast<std::uint64_t>(s.flap_period));
  }
  mix(static_cast<std::uint64_t>(options_.checkpoint_period));
  return h;
}

std::string CloudWorld::save_to_buffer() const {
  if (rng_burned_ &&
      sim_.executed_count() == config_.debug_burn_rng_at_event) {
    // A restore re-fires a burn whose boundary it sits on (see load_from).
    throw SnapshotError(
        "world: the rng burn fired and its next event has not run; a "
        "checkpoint here would burn twice on restore",
        SnapshotErrorKind::kUsage);
  }
  // The power of two a buffer doubling from 64 KiB would end at for the
  // last checkpoint and an eighth more, reserved at once: doubling copies
  // the buffer at every power of two it crosses.
  SnapshotWriter w(std::bit_ceil(std::max(
      std::size_t{1} << 16, last_save_bytes_ + last_save_bytes_ / 8)));
  w.begin_section(kSectionMeta, kMetaVersion);
  w.u64(kTagFingerprint, config_fingerprint());
  w.u64(kTagRequestCount, requests_.size());
  w.i64(kTagNow, sim_.now());
  w.end_section();

  save_subsystems(w);
  // The payload CRC end_section computes equals the running CRC the world
  // section holds: the same records, serialized the same way.
  w.begin_section(kSectionLog, kLogVersion);
  for (const workload::TaskOutcome& o : outcomes_) {
    workload::save_task_outcome(w, o);
  }
  w.end_section();
  w.begin_section(kSectionCacheWindow, kCacheWindowVersion);
  cloud_->content_db().save_window(w);
  cloud_->storage().save_entries(w);
  w.end_section();
  last_save_bytes_ = w.size();
  return w.take();
}

std::uint32_t CloudWorld::log_crc() const {
  if (logged_ < outcomes_.size()) {
    SnapshotWriter w{SnapshotWriter::FieldsOnly{}};
    for (std::size_t i = logged_; i < outcomes_.size(); ++i) {
      workload::save_task_outcome(w, outcomes_[i]);
    }
    const std::string records = w.take();
    log_crc_ = crc32c_extend(log_crc_, records.data(), records.size());
    logged_ = outcomes_.size();
  }
  return log_crc_;
}

void CloudWorld::save_subsystems(SnapshotWriter& w) const {
  w.begin_section(section_id(Subsystem::kEvents),
                  sim::Simulator::kSnapshotVersion);
  sim_.save(w);
  w.end_section();

  w.begin_section(section_id(Subsystem::kFlows),
                  net::Network::kSnapshotVersion);
  net_.save(w);
  w.end_section();

  cloud_->save(w);

  w.begin_section(section_id(Subsystem::kFault), kFaultVersion);
  w.b(kTagHasInjector, injector_.has_value());
  if (injector_) injector_->save_snapshot(w);
  w.end_section();

  w.begin_section(section_id(Subsystem::kWorld), kWorldVersion);
  w.u64(kTagOutcomeCount, outcomes_.size());
  w.u32(kTagOutcomeCrc, log_crc());
  w.u64(kTagNextArrival, next_arrival_);
  w.u64(kTagCheckpointEvent, checkpoint_event_);
  w.end_section();
}

void CloudWorld::load_from(const std::string& buffer) {
  SnapshotReader r(buffer);

  r.require_section(kSectionMeta, kMetaVersion);
  const std::uint64_t fingerprint = r.u64(kTagFingerprint);
  if (fingerprint != config_fingerprint()) {
    throw SnapshotError(
        "world: checkpoint was taken under a different experiment "
        "configuration (fingerprint mismatch) — refusing to restore");
  }
  const std::uint64_t request_count = r.u64(kTagRequestCount);
  if (request_count != requests_.size()) {
    throw SnapshotError("world: checkpoint request count " +
                        std::to_string(request_count) +
                        " != rebuilt workload size " +
                        std::to_string(requests_.size()));
  }
  (void)r.i64(kTagNow);
  r.end_section();

  // sim_.load wipes the queue build() just filled and parks the
  // checkpointed events in the rearm table; everything after this point
  // reclaims its own events by id.
  r.require_section(section_id(Subsystem::kEvents),
                    sim::Simulator::kSnapshotVersion);
  sim_.load(r);
  r.end_section();

  r.require_section(section_id(Subsystem::kFlows),
                    net::Network::kSnapshotVersion);
  net_.load(r);
  r.end_section();

  cloud_->load(r);

  r.require_section(section_id(Subsystem::kFault), kFaultVersion);
  const bool has_injector = r.b(kTagHasInjector);
  if (has_injector != injector_.has_value()) {
    throw SnapshotError(
        "world: checkpoint and config disagree about the fault injector");
  }
  if (injector_) injector_->load_snapshot(r);
  r.end_section();

  r.require_section(section_id(Subsystem::kWorld), kWorldVersion);
  const std::uint64_t outcome_count = r.u64(kTagOutcomeCount);
  const std::uint32_t outcome_crc = r.u32(kTagOutcomeCrc);

  // build() reserved the checkpointed run's arrival ids; a build that
  // diverged fails this rearm() or leaves an unclaimed event below.
  next_arrival_ = static_cast<std::size_t>(r.u64(kTagNextArrival));
  if (next_arrival_ > requests_.size()) {
    throw SnapshotError("world: next arrival index out of range");
  }
  if (next_arrival_ < requests_.size()) {
    sim_.rearm(first_arrival_ + next_arrival_, [this] { on_arrival(); });
  }

  checkpoint_event_ = r.u64(kTagCheckpointEvent);
  if (checkpoint_event_ != sim::kInvalidEvent) {
    sim_.rearm(checkpoint_event_, [this] { checkpoint_tick(); });
  }
  r.end_section();

  // Entering the log checked its frame CRC against its payload; a frame
  // CRC equal to the world section's running CRC then vouches for the
  // records without a second pass over them.
  r.require_section(kSectionLog, kLogVersion);
  outcomes_.clear();
  outcomes_.reserve(requests_.size());
  while (!r.section_done()) {
    outcomes_.push_back(workload::load_task_outcome(r));
  }
  r.end_section();
  if (outcomes_.size() != outcome_count || r.section_crc() != outcome_crc) {
    throw SnapshotError(
        "world: the outcome log (section " + hex32(kSectionLog) + ") holds " +
            std::to_string(outcomes_.size()) + " records with CRC " +
            hex32(r.section_crc()) + ", but the world section records " +
            std::to_string(outcome_count) + " with CRC " + hex32(outcome_crc) +
            " — refusing a log that is not this world's",
        SnapshotErrorKind::kCorrupt, kSectionLog);
  }
  log_crc_ = outcome_crc;
  logged_ = outcomes_.size();

  // The caches section restored the counts and digests; the records and
  // entries are checked against them.
  r.require_section(kSectionCacheWindow, kCacheWindowVersion);
  cloud_->content_db().load_window(r);
  cloud_->storage().load_entries(r);
  r.end_section();

  if (!r.at_end()) {
    throw SnapshotError("world: trailing data after the final section");
  }
  if (sim_.unclaimed_rearm_count() != 0) {
    std::string msg = "world: " +
                      std::to_string(sim_.unclaimed_rearm_count()) +
                      " checkpointed event(s) were never rearmed (orphaned):";
    for (sim::EventId id : sim_.unclaimed_rearm_ids()) {
      msg += " #" + std::to_string(id);
    }
    throw SnapshotError(msg);
  }
  if (net_.flows_awaiting_callback() != 0) {
    throw SnapshotError(
        "world: " + std::to_string(net_.flows_awaiting_callback()) +
        " restored flow(s) never had their completion callback re-attached");
  }

  // The burn flag is not serialized; reconstruct it from the restored
  // event count. Strictly-greater: a checkpoint taken exactly at the burn
  // boundary was written before the burn fires (it fires at the next
  // run()-loop iteration), so the resumed run must still perform it.
  rng_burned_ = config_.debug_burn_rng_at_event != 0 &&
                sim_.executed_count() > config_.debug_burn_rng_at_event;

  // The observer (if any) survived the restore; resync its clock to the
  // restored simulated time and log the event for crash forensics.
  if (auto* odr_obs = obs::current()) odr_obs->set_now(sim_.now());
  ODR_COUNT("snapshot.restores");
  ODR_FLIGHT(kSnapshot, kInfo, "world.restored", to_seconds(sim_.now()));
}

analysis::CloudReplayResult CloudWorld::finalize() const& {
  return harvest(requests_, outcomes_);
}

analysis::CloudReplayResult CloudWorld::finalize() && {
  return harvest(std::move(requests_), std::move(outcomes_));
}

analysis::CloudReplayResult CloudWorld::harvest(
    std::vector<workload::WorkloadRecord> requests,
    std::vector<workload::TaskOutcome> outcomes) const {
  analysis::CloudReplayResult result;
  result.requests = std::move(requests);
  result.outcomes = std::move(outcomes);
  result.users = users_;
  result.catalog = catalog_;

  // Report the paper's popularity (full-week request count), not the
  // trailing count the content DB saw at decision time (which under-counts
  // early requests).
  const std::vector<double> week_counts =
      workload::week_request_counts(result.requests, catalog_->size());
  for (auto& o : result.outcomes) {
    o.weekly_popularity = week_counts[o.file];
    o.popularity = workload::classify_popularity(o.weekly_popularity);
  }

  result.cache_hit_ratio = cloud_->storage().hit_ratio();
  result.fetch_rejections = cloud_->uploads().rejected_count();
  result.fetch_admissions = cloud_->uploads().admitted_count();
  result.privileged_paths = cloud_->uploads().privileged_count();
  result.vm_crashes = cloud_->predownloaders().crash_count();
  result.vm_retries = cloud_->predownloaders().retry_count();
  result.vm_retries_exhausted = cloud_->predownloaders().retries_exhausted();
  result.shed_fetches = cloud_->uploads().shed_count();
  result.oversubscribed_fetches = cloud_->uploads().oversubscribed_count();
  result.storage_fault_evictions = cloud_->storage().fault_evictions();
  for (std::size_t c = 0; c < result.rejections_by_class.size(); ++c) {
    result.rejections_by_class[c] = cloud_->uploads().rejected_count(
        static_cast<workload::PopularityClass>(c));
  }
  if (injector_) result.faults_fired = injector_->total_fired();
  result.duration = duration_;
  result.cloud_capacity = config_.cloud.total_upload_capacity;
  return result;
}

}  // namespace odr::snapshot

namespace odr::analysis {
CloudReplayResult run_cloud_replay(const ExperimentConfig& config) {
  // A fresh run has no use for checkpoint ticks (or the audit they drive).
  snapshot::WorldOptions options;
  options.checkpoint_period = 0;
  snapshot::CloudWorld world(config, std::move(options));
  world.run();
  return std::move(world).finalize();
}

CloudReplayResult run_cloud_replay_from_trace(workload::Trace trace,
                                              const ExperimentConfig& config) {
  snapshot::CloudWorld world(config, std::move(trace));
  world.run();
  return std::move(world).finalize();
}

}  // namespace odr::analysis
