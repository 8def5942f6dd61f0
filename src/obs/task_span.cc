#include "obs/task_span.h"

#include <algorithm>

#include "obs/attribution.h"
#include "obs/calibration_monitor.h"
#include "obs/metrics_ts.h"
#include "util/json.h"

namespace odr::obs {

namespace {

// splitmix64: the reservoir's deterministic admission hash. NOT a sim Rng
// stream — observability must never perturb simulation randomness.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kAdmission: return "admission";
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kVmQueue: return "vm_queue";
    case Stage::kVmFetch: return "vm_fetch";
    case Stage::kUploadFetch: return "upload_fetch";
    case Stage::kApFetch: return "ap_fetch";
    case Stage::kDirectFetch: return "direct_fetch";
    case Stage::kLanFetch: return "lan_fetch";
    case Stage::kHedge: return "hedge";
  }
  return "?";
}

std::string_view span_outcome_name(SpanOutcome o) {
  switch (o) {
    case SpanOutcome::kOpen: return "open";
    case SpanOutcome::kSuccess: return "success";
    case SpanOutcome::kFailed: return "failed";
    case SpanOutcome::kRejected: return "rejected";
  }
  return "?";
}

std::string_view span_origin_name(SpanOrigin o) {
  switch (o) {
    case SpanOrigin::kCloud: return "cloud";
    case SpanOrigin::kAp: return "ap";
    case SpanOrigin::kDirect: return "direct";
  }
  return "?";
}

SimTime TaskSpan::stage_total(Stage s) const {
  SimTime total = 0;
  for (const auto& i : stages) {
    if (i.stage == s) total += i.duration();
  }
  return total;
}

SimTime TaskSpan::stages_total() const {
  SimTime total = 0;
  for (const auto& i : stages) total += i.duration();
  return total;
}

Stage TaskSpan::dominant_stage() const {
  SimTime per_stage[kStageCount] = {};
  for (const auto& i : stages) {
    per_stage[static_cast<std::size_t>(i.stage)] += i.duration();
  }
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStageCount; ++s) {
    if (per_stage[s] > per_stage[best]) best = s;
  }
  return static_cast<Stage>(best);
}

void TaskSpan::write_json(JsonWriter& j) const {
  j.begin_object()
      .field("task_id", task_id)
      .field("origin", std::string(span_origin_name(origin)))
      .field("submitted_us", static_cast<std::int64_t>(submitted_at))
      .field("finished_us", static_cast<std::int64_t>(finished_at))
      .field("outcome", std::string(span_outcome_name(outcome)))
      .field("cause", std::string(cause))
      .field("popularity", std::string(popularity))
      .field("cache_hit", cache_hit)
      .field("pre_success", pre_success)
      .field("fetch_kbps", fetch_kbps)
      .field("e2e_kbps", e2e_kbps)
      .field("retries", static_cast<std::uint64_t>(retries))
      .field("reroutes", static_cast<std::uint64_t>(reroutes))
      .field("dominant_stage", std::string(stage_name(dominant_stage())));
  j.key("stages").begin_array();
  for (const auto& i : stages) {
    j.begin_object()
        .field("stage", std::string(stage_name(i.stage)))
        .field("begin_us", static_cast<std::int64_t>(i.begin))
        .field("end_us", static_cast<std::int64_t>(i.end))
        .field("attempt", static_cast<std::uint64_t>(i.attempt))
        .end_object();
  }
  j.end_array().end_object();
}

TaskJournal::TaskJournal(const ObsConfig& config)
    : reservoir_size_(config.span_reservoir),
      keep_slowest_(config.span_keep_slowest),
      keep_failed_cap_(config.span_keep_failed_cap) {}

void TaskJournal::set_sinks(Attribution* attribution,
                            CalibrationMonitor* monitor) {
  attribution_ = attribution;
  monitor_ = monitor;
}

void TaskJournal::set_metrics_ts(MetricsTimeSeries* metrics_ts) {
  metrics_ts_ = metrics_ts;
}

void TaskJournal::begin_run() {
  open_pool_.clear();
  open_index_.clear();
  file_retries_.clear();
  reservoir_.clear();
  slowest_.clear();
  kept_failed_.clear();
  finished_ = 0;
  kept_dropped_ = 0;
}

std::uint32_t TaskJournal::find_open(std::uint64_t task_id) const {
  const std::uint32_t* slot = open_index_.find(task_id + 1);
  return slot != nullptr ? *slot : util::SlabPool<TaskSpan>::kNoSlot;
}

std::uint32_t TaskJournal::open_slot(std::uint64_t task_id, bool* inserted) {
  const std::uint32_t existing = find_open(task_id);
  if (existing != util::SlabPool<TaskSpan>::kNoSlot) {
    *inserted = false;
    return existing;
  }
  // Recycled slots hand back the previous occupant's span; reset every
  // field but keep the stages vector's capacity (the whole point of
  // pooling spans — steady state appends into already-owned storage).
  const std::uint32_t slot = open_pool_.acquire();
  TaskSpan& span = open_pool_[slot];
  auto stages = std::move(span.stages);
  stages.clear();
  span = TaskSpan{};
  span.stages = std::move(stages);
  open_index_.put(task_id + 1, slot);
  *inserted = true;
  return slot;
}

void TaskJournal::on_submit(std::uint64_t task_id, SimTime t,
                            SpanOrigin origin) {
  bool inserted = false;
  const std::uint32_t slot = open_slot(task_id, &inserted);
  if (!inserted) return;  // the first opener wins (executor before cloud)
  TaskSpan& span = open_pool_[slot];
  span.task_id = task_id;
  span.origin = origin;
  span.submitted_at = t;
}

void TaskJournal::on_stage(std::uint64_t task_id, Stage s, SimTime begin,
                           SimTime end) {
  bool inserted = false;
  const std::uint32_t slot = open_slot(task_id, &inserted);
  TaskSpan& span = open_pool_[slot];
  if (inserted) {
    // Mid-flight task revived from a checkpoint: open a span covering the
    // resumed portion only.
    span.task_id = task_id;
    span.submitted_at = begin;
  }
  StageInterval interval;
  interval.stage = s;
  interval.begin = begin;
  interval.end = std::max(begin, end);
  for (const auto& prev : span.stages) {
    if (prev.stage == s) ++interval.attempt;
  }
  span.stages.push_back(interval);
}

void TaskJournal::on_retry(std::uint64_t task_id, std::uint32_t n) {
  const std::uint32_t slot = find_open(task_id);
  if (slot != util::SlabPool<TaskSpan>::kNoSlot) open_pool_[slot].retries += n;
}

void TaskJournal::on_reroute(std::uint64_t task_id) {
  const std::uint32_t slot = find_open(task_id);
  if (slot != util::SlabPool<TaskSpan>::kNoSlot) ++open_pool_[slot].reroutes;
}

void TaskJournal::on_cache_hit(std::uint64_t task_id) {
  const std::uint32_t slot = find_open(task_id);
  if (slot != util::SlabPool<TaskSpan>::kNoSlot) {
    open_pool_[slot].cache_hit = true;
  }
}

void TaskJournal::note_file_retry(std::uint64_t file_index, std::uint32_t n) {
  if (std::uint32_t* count = file_retries_.find(file_index + 1)) {
    *count += n;
  } else {
    file_retries_.put(file_index + 1, n);
  }
}

std::uint32_t TaskJournal::take_file_retries(std::uint64_t file_index) {
  const std::uint32_t* count = file_retries_.find(file_index + 1);
  if (count == nullptr) return 0;
  const std::uint32_t n = *count;
  file_retries_.erase(file_index + 1);
  return n;
}

void TaskJournal::on_finish(std::uint64_t task_id, SimTime t,
                            const SpanTerminal& term) {
  const std::uint32_t slot = find_open(task_id);
  if (slot == util::SlabPool<TaskSpan>::kNoSlot) {
    // Already finished (executor wrapper + replay sink both fire) — or a
    // post-restore completion of a task whose stages all pre-dated the
    // kill. The former must be a no-op; the latter is indistinguishable,
    // and skipping it errs on the side of never double-counting.
    return;
  }
  TaskSpan& span = open_pool_[slot];
  span.finished_at = std::max(t, span.submitted_at);
  span.outcome = term.outcome;
  span.cause = term.cause;
  span.popularity = term.popularity;
  span.cache_hit = span.cache_hit || term.cache_hit;
  span.pre_success = term.pre_success;
  span.fetch_kbps = term.fetch_kbps;
  span.e2e_kbps = term.e2e_kbps;
  ++finished_;

  if (attribution_ != nullptr) attribution_->fold(span);
  if (monitor_ != nullptr) monitor_->on_span(span);
  if (metrics_ts_ != nullptr) metrics_ts_->fold(span);
  keep(span);
  // The retention sets COPY the span; the pooled original (and its stages
  // capacity) goes back on the freelist for the next open.
  open_index_.erase(task_id + 1);
  open_pool_.release(slot);
}

void TaskJournal::keep(const TaskSpan& span) {
  const bool terminal_keep = span.outcome == SpanOutcome::kFailed ||
                             span.outcome == SpanOutcome::kRejected;
  if (terminal_keep) {
    if (kept_failed_.size() < keep_failed_cap_) {
      kept_failed_.push_back(span);
    } else {
      ++kept_dropped_;
    }
    return;  // already retained; no need to sample it again
  }
  if (reservoir_size_ > 0) {
    // Bottom-k by hash: a finish-order-independent uniform sample.
    const std::uint64_t h = mix64(span.task_id);
    auto by_key = [](const Keyed& a, const Keyed& b) { return a.key < b.key; };
    if (reservoir_.size() < reservoir_size_) {
      reservoir_.push_back({h, span});
      std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
    } else if (h < reservoir_.front().key) {
      std::pop_heap(reservoir_.begin(), reservoir_.end(), by_key);
      reservoir_.back() = {h, span};
      std::push_heap(reservoir_.begin(), reservoir_.end(), by_key);
    }
  }
  if (keep_slowest_ > 0) {
    const std::uint64_t d = static_cast<std::uint64_t>(span.stages_total());
    auto by_key = [](const Keyed& a, const Keyed& b) { return a.key > b.key; };
    if (slowest_.size() < keep_slowest_) {
      slowest_.push_back({d, span});
      std::push_heap(slowest_.begin(), slowest_.end(), by_key);
    } else if (d > slowest_.front().key) {
      std::pop_heap(slowest_.begin(), slowest_.end(), by_key);
      slowest_.back() = {d, span};
      std::push_heap(slowest_.begin(), slowest_.end(), by_key);
    }
  }
}

std::vector<TaskSpan> TaskJournal::sampled() const {
  std::vector<TaskSpan> out;
  out.reserve(kept_failed_.size() + reservoir_.size() + slowest_.size());
  for (const auto& s : kept_failed_) out.push_back(s);
  for (const auto& k : reservoir_) out.push_back(k.span);
  for (const auto& k : slowest_) out.push_back(k.span);
  std::sort(out.begin(), out.end(), [](const TaskSpan& a, const TaskSpan& b) {
    return a.task_id < b.task_id;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const TaskSpan& a, const TaskSpan& b) {
                          return a.task_id == b.task_id;
                        }),
            out.end());
  std::sort(out.begin(), out.end(), [](const TaskSpan& a, const TaskSpan& b) {
    return a.submitted_at != b.submitted_at ? a.submitted_at < b.submitted_at
                                            : a.task_id < b.task_id;
  });
  return out;
}

void TaskJournal::write_summary_fields(JsonWriter& j) const {
  j.field("finished", finished_)
      .field("open", static_cast<std::uint64_t>(open_index_.size()))
      .field("sampled", static_cast<std::uint64_t>(sampled().size()))
      .field("kept_failed", static_cast<std::uint64_t>(kept_failed_.size()))
      .field("kept_dropped", kept_dropped_);
}

void TaskJournal::write_json(JsonWriter& j) const {
  j.begin_object();
  j.field("schema", "odr.spans.v1");
  write_summary_fields(j);
  j.key("spans").begin_array();
  for (const auto& s : sampled()) s.write_json(j);
  j.end_array();
  j.end_object();
}

bool TaskJournal::write_file(const std::string& path) const {
  JsonWriter j;
  write_json(j);
  return j.write_file(path);
}

}  // namespace odr::obs
