#include "snapshot/world.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "analysis/obs_wiring.h"
#include "obs/observer.h"
#include "snapshot/audit.h"
#include "snapshot/format.h"
#include "util/md5.h"
#include "workload/file.h"
#include "workload/request_gen.h"
#include "workload/snapshot.h"

namespace odr::snapshot {
namespace {

// Section ids of a world checkpoint, in file order.
enum : std::uint32_t {
  kSectionMeta = 1,
  kSectionCloudState = 2,
  kSectionFault = 3,
  kSectionWorld = 4,
};
inline constexpr std::uint32_t kMetaVersion = 1;
inline constexpr std::uint32_t kCloudVersion = 1;
inline constexpr std::uint32_t kFaultVersion = 1;
// v2: the next arrival's index replaces v1's list of every pending arrival.
inline constexpr std::uint32_t kWorldVersion = 2;

enum : std::uint16_t {
  kTagFingerprint = 1,
  kTagRequestCount = 2,
  kTagNow = 3,
  kTagHasInjector = 10,
  kTagOutcomeCount = 20,
  kTagOutcomeTaskId = 21,
  kTagOutcomeFetched = 22,
  kTagOutcomePopularity = 23,
  kTagOutcomeClass = 24,
  kTagOutcomePrivileged = 25,
  kTagNextArrival = 33,
  kTagCheckpointEvent = 40,
};

void save_outcome(SnapshotWriter& w, const cloud::TaskOutcome& o) {
  w.u64(kTagOutcomeTaskId, o.task_id);
  workload::save_predownload_record(w, o.pre);
  workload::save_fetch_record(w, o.fetch);
  w.b(kTagOutcomeFetched, o.fetched);
  w.f64(kTagOutcomePopularity, o.weekly_popularity);
  w.u8(kTagOutcomeClass, static_cast<std::uint8_t>(o.popularity));
  w.b(kTagOutcomePrivileged, o.privileged_path);
}

cloud::TaskOutcome load_outcome(SnapshotReader& r) {
  cloud::TaskOutcome o;
  o.task_id = r.u64(kTagOutcomeTaskId);
  o.pre = workload::load_predownload_record(r);
  o.fetch = workload::load_fetch_record(r);
  o.fetched = r.b(kTagOutcomeFetched);
  o.weekly_popularity = r.f64(kTagOutcomePopularity);
  o.popularity = static_cast<workload::PopularityClass>(r.u8(kTagOutcomeClass));
  o.privileged_path = r.b(kTagOutcomePrivileged);
  return o;
}

}  // namespace

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       WorldOptions options)
    : config_(config), options_(std::move(options)), net_(sim_) {
  build();
  arm_checkpoint_tick();
}

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       std::vector<workload::WorkloadRecord> trace)
    : config_(config), net_(sim_) {
  options_.checkpoint_period = 0;
  Rng rng(config_.seed);
  // Arrivals replay in time order, and a fixed order keeps the rebuild below
  // (and finalize()'s task-id lookup) independent of the listing order.
  workload::sort_by_arrival(trace);

  // --- Reconstruct the file catalog from the trace. -------------------------
  workload::FileIndex max_file = 0;
  workload::UserId max_user = 0;
  for (const auto& r : trace) {
    max_file = std::max(max_file, r.file);
    max_user = std::max(max_user, r.user_id);
  }
  std::vector<workload::FileInfo> files(max_file + 1);
  std::vector<double> counts(max_file + 1, 0.0);
  for (const auto& r : trace) {
    counts[r.file] += 1.0;
    workload::FileInfo& f = files[r.file];
    if (f.index == workload::kInvalidFile) {
      f.index = r.file;
      f.rank = r.file + 1;
      f.type = r.file_type;
      f.size = std::max<Bytes>(1, r.file_size);
      f.protocol = r.protocol;
      f.source_link = r.source_link;
      f.content_id = Md5::of(r.source_link);
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

  // --- Reconstruct the user population. -------------------------------------
  workload::UserModelParams user_params = config_.users;
  user_params.num_users = static_cast<std::size_t>(max_user) + 1;
  users_ = std::make_shared<workload::UserPopulation>(user_params, rng);
  // Overlay recorded attributes on the sampled defaults.
  for (const auto& r : trace) {
    workload::User& u = users_->mutable_user(r.user_id);
    u.isp = r.isp;
    u.ip = r.ip;
    if (r.access_bandwidth > 0.0) {
      u.access_bandwidth = r.access_bandwidth;
      u.reports_bandwidth = true;
    }
  }

  start_cloud(rng, trace.size());
  requests_ = std::move(trace);
  duration_ = schedule_week(rng) + kDay;
}

CloudWorld::CloudWorld(const analysis::ExperimentConfig& config,
                       WorldOptions options, const std::string& buffer)
    : config_(config), options_(std::move(options)), net_(sim_) {
  build();
  // No fresh checkpoint tick here: the checkpointed one is rearmed below,
  // keeping the resumed event stream identical to the uninterrupted run.
  load_from(buffer);
}

// Every rng draw and every schedule call happens in a fixed order, so a
// restored CloudWorld regenerates the same immutable tables (and event
// ids) the checkpoint was taken over.
void CloudWorld::build() {
  Rng rng(config_.seed);
  catalog_ = std::make_shared<workload::Catalog>(config_.catalog, rng);
  users_ = std::make_shared<workload::UserPopulation>(config_.users, rng);
  start_cloud(rng, config_.requests.num_requests);
  requests_ = workload::RequestGenerator(config_.requests)
                  .generate(*catalog_, *users_, rng);
  duration_ = config_.requests.duration;
  schedule_week(rng);
}

void CloudWorld::start_cloud(Rng& rng, std::size_t warm_requests) {
  cloud_.emplace(sim_, net_, *catalog_, config_.sources, config_.cloud, rng);
  // Warm the pool and content DB with the preceding weeks' history.
  Rng warm_rng = rng.fork();
  analysis::warm_cloud(*cloud_, *catalog_, warm_requests,
                       config_.warmup_weeks, warm_rng);
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
                                            [this] { checkpoint_tick(); });
  }
}

cloud::XuanfengCloud::OutcomeFn CloudWorld::outcome_sink() {
  return [this](const cloud::TaskOutcome& outcome) {
    analysis::finish_cloud_task_span(outcome);
    outcomes_.push_back(outcome);
  };
}

void CloudWorld::on_arrival() {
  const workload::WorkloadRecord& request = requests_[next_arrival_++];
  if (next_arrival_ < requests_.size()) {
    sim_.schedule_reserved(first_arrival_ + next_arrival_,
                           requests_[next_arrival_].request_time,
                           [this] { on_arrival(); });
  }
  cloud_->submit(request, users_->user(request.user_id), outcome_sink());
}

std::uint64_t CloudWorld::run(std::uint64_t max_events) {
  const std::uint64_t burn_at = config_.debug_burn_rng_at_event;
  const std::uint64_t cadence = options_.hash_every_events;
  // With neither hashing nor a burn this is one sim_.run(max_events) call
  // with zero added allocations (pinned by bench/obs_overhead).
  std::uint64_t done = 0;
  while (done < max_events) {
    if (burn_at != 0 && !rng_burned_ && sim_.executed_count() >= burn_at) {
      // The injected divergence: one extra draw from the cloud's rng
      // stream at the event boundary after `burn_at` events. The guard
      // flag (not a counter comparison alone) makes it fire exactly once
      // even across multiple run() calls.
      cloud_->debug_burn_rng_draw();
      rng_burned_ = true;
    }
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
      record_hash();
    }
    if (n < chunk) {
      // Queue drained. Record the final state so end-of-run hashes are
      // comparable even when the drain point is off-cadence.
      if (cadence != 0 && n > 0) record_hash();
      break;
    }
  }
  return done;
}

void CloudWorld::record_hash() {
  const StateHash h = StateHasher::hash(*this);
  // Dedupe: a drain landing exactly on cadence, or a checkpoint tick
  // coinciding with an event-count boundary, would otherwise double-record.
  if (!hashes_.empty() && hashes_.back().executed == h.executed) return;
  hashes_.push_back(h);
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
                                            [this] { checkpoint_tick(); });
  }
  if (options_.audit_at_checkpoint) {
    const std::vector<std::string> problems = audit(*this);
    if (!problems.empty()) {
      std::string msg = "world audit failed at t=" +
                        std::to_string(sim_.now()) + ":";
      for (const std::string& p : problems) msg += "\n  - " + p;
      ODR_FLIGHT(kSnapshot, kError, "audit.failed",
                 static_cast<double>(problems.size()));
      ODR_OBS(if (auto* odr_obs = obs::current()) {
        odr_obs->flight().auto_dump(
            obs::FlightRecorder::DumpTrigger::kAuditFailure, problems.front());
      })
      throw SnapshotError(msg, SnapshotErrorKind::kAudit);
    }
  }
  if (options_.hash_at_checkpoint) record_hash();
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
  // FNV-1a over the config scalars that shape the deterministic build. A
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
  mix(config_.catalog.num_files);
  mix_f(config_.catalog.total_weekly_requests);
  mix(config_.users.num_users);
  mix(config_.requests.num_requests);
  mix(static_cast<std::uint64_t>(config_.requests.duration));
  mix(config_.cloud.storage_capacity);
  mix(config_.cloud.predownloader_count);
  mix_f(config_.cloud.total_upload_capacity);
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
  SnapshotWriter w;

  w.begin_section(kSectionMeta, kMetaVersion);
  w.u64(kTagFingerprint, config_fingerprint());
  w.u64(kTagRequestCount, requests_.size());
  w.i64(kTagNow, sim_.now());
  w.end_section();

  w.begin_section(kSectionCloudState, kCloudVersion);
  sim_.save(w);
  net_.save(w);
  cloud_->save(w);
  w.end_section();

  w.begin_section(kSectionFault, kFaultVersion);
  save_fault_state(w);
  w.end_section();

  w.begin_section(kSectionWorld, kWorldVersion);
  save_world_state(w);
  w.end_section();

  return w.take();
}

void CloudWorld::save_fault_state(SnapshotWriter& w) const {
  w.b(kTagHasInjector, injector_.has_value());
  if (injector_) injector_->save_snapshot(w);
}

void CloudWorld::save_world_state(SnapshotWriter& w) const {
  w.u64(kTagOutcomeCount, outcomes_.size());
  for (const cloud::TaskOutcome& o : outcomes_) save_outcome(w, o);
  w.u64(kTagNextArrival, next_arrival_);
  w.u64(kTagCheckpointEvent, checkpoint_event_);
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

  r.require_section(kSectionCloudState, kCloudVersion);
  // sim_.load wipes the queue build() just filled and parks the
  // checkpointed events in the rearm table; everything after this point
  // reclaims its own events by id.
  sim_.load(r);
  net_.load(r);
  cloud_->load(r, outcome_sink());
  r.end_section();

  r.require_section(kSectionFault, kFaultVersion);
  const bool has_injector = r.b(kTagHasInjector);
  if (has_injector != injector_.has_value()) {
    throw SnapshotError(
        "world: checkpoint and config disagree about the fault injector");
  }
  if (injector_) injector_->load_snapshot(r);
  r.end_section();

  r.require_section(kSectionWorld, kWorldVersion);
  outcomes_.clear();
  const std::uint64_t outcome_count = r.u64(kTagOutcomeCount);
  outcomes_.reserve(requests_.size());
  for (std::uint64_t i = 0; i < outcome_count; ++i) {
    outcomes_.push_back(load_outcome(r));
  }

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
  ODR_OBS(if (auto* odr_obs = obs::current()) {
    odr_obs->set_now(sim_.now());
  })
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
    std::vector<cloud::TaskOutcome> outcomes) const {
  analysis::CloudReplayResult result;
  result.requests = std::move(requests);
  result.outcomes = std::move(outcomes);
  result.users = users_;
  result.catalog = catalog_;

  // Report the paper's popularity (full-week request count), not the
  // trailing count the content DB saw at decision time (which under-counts
  // early requests).
  {
    std::unordered_map<workload::FileIndex, double> week_counts;
    for (const auto& req : result.requests) week_counts[req.file] += 1.0;
    for (auto& o : result.outcomes) {
      if (o.task_id < 1 || o.task_id > result.requests.size()) continue;
      o.weekly_popularity = week_counts[result.requests[o.task_id - 1].file];
      o.popularity = workload::classify_popularity(o.weekly_popularity);
    }
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

CloudReplayResult run_cloud_replay_from_trace(
    std::vector<workload::WorkloadRecord> requests,
    const ExperimentConfig& config) {
  snapshot::CloudWorld world(config, std::move(requests));
  world.run();
  return std::move(world).finalize();
}

}  // namespace odr::analysis
