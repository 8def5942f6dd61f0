// Tests for src/obs: metric registry, sim-time tracer, flight recorder,
// gauge sampler, the ambient Observer, and the determinism contract (an
// installed observer must not change a replay's outcomes).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "gtest/gtest.h"
#include "obs/attribution.h"
#include "obs/calibration_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/metrics_ts.h"
#include "obs/observer.h"
#include "obs/sampler.h"
#include "obs/task_span.h"
#include "obs/trace.h"
#include "snapshot/world.h"
#include "util/json.h"
#include "util/units.h"

namespace odr::obs {
namespace {

// --- registry --------------------------------------------------------------

TEST(RegistryTest, CounterFindOrCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("a.b"), nullptr);
  reg.counter("a.b").inc();
  reg.counter("a.b").inc(4);
  ASSERT_NE(reg.find_counter("a.b"), nullptr);
  EXPECT_EQ(reg.find_counter("a.b")->value(), 5u);
  EXPECT_EQ(reg.counter_count(), 1u);
}

TEST(RegistryTest, GaugeSetAndAdd) {
  Registry reg;
  reg.gauge("g").set(2.5);
  reg.gauge("g").add(-1.0);
  ASSERT_NE(reg.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 1.5);
}

TEST(RegistryTest, HistogramShapeFixedByFirstCall) {
  Registry reg;
  Histogram& h = reg.histogram("h", 0.0, 10.0, 5);
  // A later call with a different shape must return the SAME histogram.
  Histogram& again = reg.histogram("h", 0.0, 100.0, 50);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bins(), 5u);
  EXPECT_EQ(reg.histogram_count(), 1u);
}

TEST(RegistryTest, ReferencesStayValidAcrossGrowth) {
  Registry reg;
  Counter& a = reg.counter("stable");
  for (int i = 0; i < 1000; ++i) {
    std::string name = "filler.";
    name += std::to_string(i);
    reg.counter(name).inc();
  }
  // Node-based storage: the early reference must not have moved.
  EXPECT_EQ(&reg.counter("stable"), &a);
  a.inc();
  EXPECT_EQ(reg.find_counter("stable")->value(), 1u);
}

TEST(RegistryTest, JsonExportContainsSortedSections) {
  Registry reg;
  reg.counter("z.last").inc(7);
  reg.counter("a.first").inc(1);
  reg.gauge("mid").set(3.0);
  reg.histogram("h", 0.0, 1.0, 2).add(0.75);
  JsonWriter j;
  j.begin_object();
  reg.write_fields(j);
  j.end_object();
  const std::string& s = j.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  // Lexicographic order within the counters object.
  EXPECT_LT(s.find("a.first"), s.find("z.last"));
}

// --- tracer ----------------------------------------------------------------

TEST(TracerTest, RecordsAllThreeShapes) {
  Tracer t(/*enabled=*/true, /*max_events=*/16);
  t.instant(Cat::kFault, "boom", 10);
  t.complete(Cat::kNet, "flow", 5, 25);
  t.counter(Cat::kCloud, "util", 30, 0.5);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer t(/*enabled=*/false, /*max_events=*/16);
  t.instant(Cat::kSim, "x", 0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);  // disabled, not dropped
}

TEST(TracerTest, PerCategorySamplingKeepsOneInN) {
  Tracer t(/*enabled=*/true, /*max_events=*/100);
  t.set_sample_every(Cat::kNet, 3);
  for (int i = 0; i < 9; ++i) t.instant(Cat::kNet, "flow", i);
  EXPECT_EQ(t.size(), 3u);  // events 0, 3, 6
  // Other categories are unaffected.
  t.instant(Cat::kCloud, "x", 0);
  t.instant(Cat::kCloud, "y", 1);
  EXPECT_EQ(t.size(), 5u);
}

TEST(TracerTest, CapacityOverflowIsCountedNotSilent) {
  Tracer t(/*enabled=*/true, /*max_events=*/2);
  for (int i = 0; i < 5; ++i) t.instant(Cat::kSim, "e", i);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(TracerTest, JsonHasLaneMetadataAndEventFields) {
  Tracer t(/*enabled=*/true, /*max_events=*/16);
  t.complete(Cat::kProto, "dl", 100, 250);
  t.instant(Cat::kAp, "crash", 400);
  JsonWriter j;
  t.write_json(j);
  const std::string& s = j.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"displayTimeUnit\""), std::string::npos);
  // One thread_name metadata record per category lane.
  std::size_t lanes = 0, pos = 0;
  while ((pos = s.find("thread_name", pos)) != std::string::npos) {
    ++lanes;
    ++pos;
  }
  EXPECT_EQ(lanes, kCatCount);
  EXPECT_NE(s.find("\"dur\":150"), std::string::npos);   // 250 - 100
  EXPECT_NE(s.find("\"ts\":400"), std::string::npos);
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  constexpr std::size_t kNotes = FlightRecorder::kCapacity + 1;
  FlightRecorder fr(ObsConfig{});
  for (std::size_t i = 0; i < kNotes; ++i) {
    std::string what = "e";
    what += std::to_string(i);
    fr.note(static_cast<SimTime>(i) * kSec, Cat::kCloud, Severity::kInfo,
            std::move(what), static_cast<double>(i));
  }
  EXPECT_EQ(fr.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(fr.total_noted(), kNotes);
  EXPECT_TRUE(fr.wrapped());
  const std::vector<FlightEntry> e = fr.entries();
  ASSERT_EQ(e.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(e.front().what, "e1");  // e0 overwritten
  EXPECT_EQ(e.back().what, "e" + std::to_string(kNotes - 1));
  EXPECT_DOUBLE_EQ(e.back().a, static_cast<double>(kNotes - 1));
}

TEST(FlightRecorderTest, NotWrappedBelowCapacity) {
  FlightRecorder fr(ObsConfig{});
  fr.note(0, Cat::kSim, Severity::kInfo, "only");
  EXPECT_FALSE(fr.wrapped());
  EXPECT_EQ(fr.entries().size(), 1u);
}

TEST(FlightRecorderTest, TriggerMaskGatesAutoDumps) {
  ObsConfig c;
  c.dump_on_fault_fired = false;
  c.dump_path = testing::TempDir() + "fr_mask";
  FlightRecorder fr(c);
  fr.note(0, Cat::kFault, Severity::kWarn, "fault");
  EXPECT_FALSE(fr.auto_dump(FlightRecorder::DumpTrigger::kFaultFired, "off"));
  EXPECT_EQ(fr.dumps_written(), 0u);
  EXPECT_TRUE(fr.auto_dump(FlightRecorder::DumpTrigger::kAuditFailure, "on"));
  EXPECT_EQ(fr.dumps_written(), 1u);
}

TEST(FlightRecorderTest, AutoDumpBudgetCapsAllButManual) {
  ObsConfig c;
  c.dump_path = testing::TempDir() + "fr_budget";
  FlightRecorder fr(c);
  fr.note(0, Cat::kFault, Severity::kWarn, "f");
  for (std::uint64_t i = 0; i < FlightRecorder::kMaxAutoDumps; ++i) {
    EXPECT_TRUE(fr.auto_dump(FlightRecorder::DumpTrigger::kFaultFired, "n"))
        << i;
  }
  EXPECT_FALSE(fr.auto_dump(FlightRecorder::DumpTrigger::kFaultFired, "cap"));
  // Manual dumps ignore the budget.
  EXPECT_TRUE(fr.auto_dump(FlightRecorder::DumpTrigger::kManual, "manual"));
  EXPECT_EQ(fr.dumps_written(), FlightRecorder::kMaxAutoDumps + 1);
}

TEST(FlightRecorderTest, FileDumpUsesNumberedTriggerNames) {
  ObsConfig c;
  c.dump_path = testing::TempDir() + "fr_file";
  FlightRecorder fr(c);
  fr.note(kSec, Cat::kSnapshot, Severity::kError, "audit", 2, 3);
  ASSERT_TRUE(fr.auto_dump(FlightRecorder::DumpTrigger::kAuditFailure, "r"));
  const std::string path = c.dump_path + ".0.audit_failure.json";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, TextRenderMentionsTriggerAndEntries) {
  FlightRecorder fr(ObsConfig{});
  fr.note(2 * kSec, Cat::kCore, Severity::kWarn, "breaker.trip", 1);
  const std::string text =
      fr.render_text(FlightRecorder::DumpTrigger::kManual, "look");
  EXPECT_NE(text.find("trigger=manual"), std::string::npos);
  EXPECT_NE(text.find("breaker.trip"), std::string::npos);
}

// --- gauge sampler ---------------------------------------------------------

TEST(GaugeSamplerTest, OneSamplePerPeriodBin) {
  GaugeSampler s(/*start=*/0, /*end=*/10 * kMinute, /*period=*/kMinute);
  int calls = 0;
  s.add_probe("p", Cat::kCloud, [&calls] { return double(++calls); });
  s.on_time(0);             // bin 0
  s.on_time(10 * kSec);     // same bin: no sample
  s.on_time(50 * kSec);     // still bin 0: no sample
  s.on_time(kMinute);       // bin 1
  EXPECT_EQ(s.samples_taken(), 2u);
  EXPECT_EQ(calls, 2);
}

TEST(GaugeSamplerTest, SparseEventsJumpToNextBoundary) {
  GaugeSampler s(0, 10 * kMinute, kMinute);
  s.add_probe("p", Cat::kNet, [] { return 1.0; });
  s.on_time(0);
  // A long quiet stretch: the next event lands mid-bin-5. Exactly one
  // sample is taken and the due time jumps past it.
  s.on_time(5 * kMinute + 10 * kSec);
  EXPECT_EQ(s.samples_taken(), 2u);
  s.on_time(5 * kMinute + 30 * kSec);  // same bin: nothing
  EXPECT_EQ(s.samples_taken(), 2u);
  s.on_time(6 * kMinute);
  EXPECT_EQ(s.samples_taken(), 3u);
}

TEST(GaugeSamplerTest, StopsAtWindowEnd) {
  GaugeSampler s(0, 2 * kMinute, kMinute);
  s.add_probe("p", Cat::kSim, [] { return 1.0; });
  s.on_time(0);
  s.on_time(2 * kMinute);  // == end: out of window
  s.on_time(kWeek);
  EXPECT_EQ(s.samples_taken(), 1u);
}

TEST(GaugeSamplerTest, SeriesLookupAndValues) {
  GaugeSampler s(0, 3 * kMinute, kMinute);
  double v = 10.0;
  s.add_probe("load", Cat::kCloud, [&v] { return v; });
  s.on_time(0);
  v = 20.0;
  s.on_time(kMinute);
  EXPECT_EQ(s.series("missing"), nullptr);
  const TimeSeries* ts = s.series("load");
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->bin_total(0), 10.0);
  EXPECT_DOUBLE_EQ(ts->bin_total(1), 20.0);
}

TEST(GaugeSamplerTest, MirrorsSamplesIntoTracerCounters) {
  GaugeSampler s(0, 2 * kMinute, kMinute);
  Tracer t(true, 16);
  s.set_tracer(&t);
  s.add_probe("g", Cat::kAp, [] { return 7.0; });
  s.on_time(0);
  EXPECT_EQ(t.size(), 1u);
}

// --- observer + ambient installation --------------------------------------

TEST(ObserverTest, ScopedObserverInstallsAndRestoresNested) {
  EXPECT_EQ(current(), nullptr);
  {
    ScopedObserver outer;
    EXPECT_EQ(current(), outer.get());
    {
      ScopedObserver inner;
      EXPECT_EQ(current(), inner.get());
    }
    EXPECT_EQ(current(), outer.get());
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(ObserverTest, MetricsJsonDocumentShape) {
  ScopedObserver obs;
  obs->metrics().counter("x").inc();
  obs->enable_sampler(0, kHour);
  JsonWriter j;
  obs->write_metrics_json(j);
  const std::string& s = j.str();
  EXPECT_NE(s.find("odr.metrics.v1"), std::string::npos);
  EXPECT_NE(s.find("\"sampler\""), std::string::npos);
  EXPECT_NE(s.find("\"trace\""), std::string::npos);
  EXPECT_NE(s.find("\"flight\""), std::string::npos);
}

TEST(ObserverTest, OnSimEventAdvancesClockAndCounts) {
  ScopedObserver obs;
  obs->on_sim_event(42 * kSec);
  obs->on_sim_event(43 * kSec);
  EXPECT_EQ(obs->now(), 43 * kSec);
  EXPECT_EQ(obs->metrics().find_counter("sim.events.executed")->value(), 2u);
}

TEST(ObserverMacrosTest, NoOpWithoutObserverInstalled) {
  ASSERT_EQ(current(), nullptr);
  // Must not crash, allocate registries, or do anything observable.
  ODR_COUNT("ghost");
  ODR_COUNT_N("ghost", 10);
  ODR_GAUGE("ghost", 1.0);
  ODR_HIST("ghost", 0, 1, 2, 0.5);
  ODR_TRACE_INSTANT(kSim, "ghost");
  ODR_TRACE_COMPLETE(kSim, "ghost", 0, 1);
  ODR_FLIGHT(kSim, kInfo, "ghost", 1.0);
  SUCCEED();
}

TEST(ObserverMacrosTest, FeedTheAmbientObserver) {
  ScopedObserver obs;
  obs->set_now(5 * kSec);
  ODR_COUNT("m.count");
  ODR_COUNT_N("m.count", 2);
  ODR_GAUGE("m.gauge", 1.25);
  ODR_HIST("m.hist", 0, 10, 5, 3.0);
  ODR_TRACE_INSTANT(kBench, "mark");
  ODR_FLIGHT(kBench, kWarn, "note", 4.0, 8.0);
  EXPECT_EQ(obs->metrics().find_counter("m.count")->value(), 3u);
  EXPECT_DOUBLE_EQ(obs->metrics().find_gauge("m.gauge")->value(), 1.25);
  EXPECT_EQ(obs->metrics().find_histogram("m.hist")->bin_count(1), 1u);
  EXPECT_EQ(obs->tracer().size(), 1u);
  ASSERT_EQ(obs->flight().size(), 1u);
  EXPECT_EQ(obs->flight().entries().front().t, 5 * kSec);
  EXPECT_DOUBLE_EQ(obs->flight().entries().front().b, 8.0);
}

TEST(ObserverMacrosTest, ScopedSpanEmitsCompleteEvent) {
  ScopedObserver obs;
  obs->set_now(100);
  {
    ODR_TRACE_SPAN(kCore, "work");
    obs->set_now(250);  // sim time advances while the span is open
  }
  EXPECT_EQ(obs->tracer().size(), 1u);
  JsonWriter j;
  obs->tracer().write_json(j);
  EXPECT_NE(j.str().find("\"dur\":150"), std::string::npos);
}

// --- task spans ------------------------------------------------------------

ObsConfig span_config(std::size_t reservoir, std::size_t slowest,
                      std::size_t failed_cap) {
  ObsConfig c;
  c.spans = true;
  c.span_reservoir = reservoir;
  c.span_keep_slowest = slowest;
  c.span_keep_failed_cap = failed_cap;
  return c;
}

SpanTerminal success_terminal() {
  SpanTerminal t;
  t.outcome = SpanOutcome::kSuccess;
  t.popularity = "popular";
  return t;
}

SpanTerminal failed_terminal(std::string_view cause = "insufficient-seeds") {
  SpanTerminal t;
  t.outcome = SpanOutcome::kFailed;
  t.cause = cause;
  t.pre_success = false;
  t.popularity = "unpopular";
  return t;
}

TEST(TaskJournalTest, StageIntervalsAccumulateAndDominantStage) {
  TaskJournal j(span_config(8, 0, 8));
  j.on_submit(1, 0, SpanOrigin::kCloud);
  j.on_stage(1, Stage::kVmQueue, 0, kMinute);
  j.on_stage(1, Stage::kVmFetch, kMinute, 10 * kMinute);
  j.on_finish(1, 10 * kMinute, success_terminal());

  const auto kept = j.sampled();
  ASSERT_EQ(kept.size(), 1u);
  const TaskSpan& s = kept.front();
  EXPECT_EQ(s.stage_total(Stage::kVmQueue), kMinute);
  EXPECT_EQ(s.stage_total(Stage::kVmFetch), 9 * kMinute);
  EXPECT_EQ(s.stages_total(), 10 * kMinute);
  EXPECT_EQ(s.dominant_stage(), Stage::kVmFetch);
  EXPECT_EQ(s.wall(), 10 * kMinute);
  EXPECT_EQ(s.outcome, SpanOutcome::kSuccess);
}

TEST(TaskJournalTest, ReenteredStageNumbersAttempts) {
  // A VM crash mid-fetch: the stage is re-entered after a retry, and a
  // breaker reroute is noted on the same task.
  TaskJournal j(span_config(8, 0, 8));
  j.on_submit(7, 0, SpanOrigin::kCloud);
  j.on_stage(7, Stage::kVmFetch, 0, 5 * kMinute);  // killed mid-stage
  j.on_retry(7);
  j.on_reroute(7);
  j.on_stage(7, Stage::kVmFetch, 5 * kMinute, 9 * kMinute);
  j.on_finish(7, 9 * kMinute, success_terminal());

  const auto kept = j.sampled();
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_EQ(kept.front().stages.size(), 2u);
  EXPECT_EQ(kept.front().stages[0].attempt, 0u);
  EXPECT_EQ(kept.front().stages[1].attempt, 1u);
  EXPECT_EQ(kept.front().retries, 1u);
  EXPECT_EQ(kept.front().reroutes, 1u);
}

TEST(TaskJournalTest, SecondFinishAndUnknownIdAreNoOps) {
  // The executor's done-wrapper and a replay outcome sink can both fire
  // for the same task; only the first close may fold into attribution.
  Attribution attr;
  TaskJournal j(span_config(8, 0, 8));
  j.set_sinks(&attr, nullptr);
  j.on_submit(1, 0, SpanOrigin::kCloud);
  j.on_finish(1, kMinute, success_terminal());
  j.on_finish(1, 2 * kMinute, failed_terminal());  // must not re-fold
  j.on_finish(99, kMinute, success_terminal());    // never submitted
  EXPECT_EQ(j.finished(), 1u);
  EXPECT_EQ(attr.folded(), 1u);
  EXPECT_EQ(j.open_spans(), 0u);
}

TEST(TaskJournalTest, CacheHitIsStickyAcrossFinish) {
  // The pool's verdict arrives via on_cache_hit; the executor's terminal
  // can't see it and reports cache_hit=false. The OR must survive.
  TaskJournal j(span_config(8, 0, 8));
  j.on_submit(3, 0, SpanOrigin::kCloud);
  j.on_cache_hit(3);
  SpanTerminal term = success_terminal();
  term.cache_hit = false;
  j.on_finish(3, kMinute, term);
  const auto kept = j.sampled();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.front().cache_hit);
}

TEST(TaskJournalTest, ReservoirIsIndependentOfFinishOrder) {
  auto run = [](bool reverse) {
    TaskJournal j(span_config(8, 0, 0));
    for (int k = 0; k < 32; ++k) {
      const std::uint64_t id = reverse ? 32u - k : 1u + k;
      j.on_submit(id, k * kSec, SpanOrigin::kCloud);
      j.on_finish(id, k * kSec + kMinute, success_terminal());
    }
    std::vector<std::uint64_t> ids;
    for (const auto& s : j.sampled()) ids.push_back(s.task_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto forward = run(false);
  EXPECT_EQ(forward.size(), 8u);
  EXPECT_EQ(forward, run(true));
}

TEST(TaskJournalTest, FailedSpansAlwaysKeptUntilCapThenCounted) {
  TaskJournal j(span_config(0, 0, 3));
  for (std::uint64_t id = 1; id <= 5; ++id) {
    j.on_submit(id, 0, SpanOrigin::kCloud);
    j.on_finish(id, kMinute, failed_terminal());
  }
  EXPECT_EQ(j.sampled().size(), 3u);
  EXPECT_EQ(j.kept_dropped(), 2u);
  EXPECT_EQ(j.finished(), 5u);  // folding is unaffected by retention
}

TEST(TaskJournalTest, SlowestSpansRetainedByStageTime) {
  TaskJournal j(span_config(0, 2, 0));
  const SimTime minutes[] = {1, 5, 3, 9, 2};
  std::uint64_t id = 0;
  for (const SimTime m : minutes) {
    ++id;
    j.on_submit(id, 0, SpanOrigin::kCloud);
    j.on_stage(id, Stage::kVmFetch, 0, m * kMinute);
    j.on_finish(id, m * kMinute, success_terminal());
  }
  const auto kept = j.sampled();
  ASSERT_EQ(kept.size(), 2u);
  // ids 2 (5 min) and 4 (9 min) are the two slowest.
  EXPECT_EQ(kept[0].task_id, 2u);
  EXPECT_EQ(kept[1].task_id, 4u);
}

TEST(TaskJournalTest, FileRetryNotesFanOutOnce) {
  TaskJournal j(span_config(8, 0, 8));
  j.note_file_retry(42, 2);
  j.note_file_retry(42);
  EXPECT_EQ(j.take_file_retries(42), 3u);
  EXPECT_EQ(j.take_file_retries(42), 0u);  // consumed
  EXPECT_EQ(j.take_file_retries(7), 0u);   // never noted
}

TEST(TaskJournalTest, BeginRunResetsAllState) {
  TaskJournal j(span_config(8, 2, 8));
  j.on_submit(1, 0, SpanOrigin::kCloud);
  j.on_finish(1, kMinute, failed_terminal());
  j.on_submit(2, 0, SpanOrigin::kCloud);  // left open (killed mid-flight)
  j.note_file_retry(5);
  j.begin_run();
  EXPECT_EQ(j.finished(), 0u);
  EXPECT_EQ(j.open_spans(), 0u);
  EXPECT_TRUE(j.sampled().empty());
  EXPECT_EQ(j.take_file_retries(5), 0u);
}

TEST(TaskJournalTest, SpansJsonDocumentShape) {
  TaskJournal j(span_config(8, 0, 8));
  j.on_submit(1, 0, SpanOrigin::kCloud);
  j.on_stage(1, Stage::kVmFetch, 0, kMinute);
  j.on_finish(1, kMinute, failed_terminal());
  JsonWriter w;
  j.write_json(w);
  const std::string& s = w.str();
  EXPECT_NE(s.find("odr.spans.v1"), std::string::npos);
  EXPECT_NE(s.find("\"spans\""), std::string::npos);
  EXPECT_NE(s.find("\"vm_fetch\""), std::string::npos);
  EXPECT_NE(s.find("insufficient-seeds"), std::string::npos);
}

// --- attribution -----------------------------------------------------------

TEST(AttributionTest, FailureChargedToLastEnteredStage) {
  Attribution attr;
  attr.begin_run();
  TaskSpan span;
  span.task_id = 1;
  span.outcome = SpanOutcome::kFailed;
  span.cause = "poor-http-connection";
  span.popularity = "unpopular";
  span.stages.push_back({Stage::kVmQueue, 0, kMinute, 0});
  span.stages.push_back({Stage::kVmFetch, kMinute, 3 * kMinute, 0});
  attr.fold(span);
  EXPECT_EQ(attr.failures().count_for_stage("vm_fetch"), 1u);
  EXPECT_EQ(attr.failures().count_for_cause("poor-http-connection"), 1u);
  EXPECT_EQ(attr.failures().count_for_popularity("unpopular"), 1u);
}

TEST(AttributionTest, RejectionChargedToAdmissionRegardlessOfStages) {
  Attribution attr;
  TaskSpan span;
  span.task_id = 2;
  span.outcome = SpanOutcome::kRejected;
  span.cause = "rejected";
  span.popularity = "highly-popular";
  span.stages.push_back({Stage::kVmFetch, 0, kMinute, 0});
  attr.fold(span);
  EXPECT_EQ(attr.failures().count_for_stage("admission"), 1u);
}

TEST(AttributionTest, StageAggregatesAndDominantCounts) {
  Attribution attr;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    TaskSpan span;
    span.task_id = id;
    span.outcome = SpanOutcome::kSuccess;
    span.retries = 1;
    span.stages.push_back({Stage::kVmQueue, 0, kMinute, 0});
    span.stages.push_back(
        {Stage::kUploadFetch, kMinute, SimTime(11) * kMinute, 0});
    attr.fold(span);
  }
  EXPECT_EQ(attr.folded(), 3u);
  EXPECT_EQ(attr.retries(), 3u);
  EXPECT_EQ(attr.stage_tasks(Stage::kVmQueue), 3u);
  EXPECT_EQ(attr.dominant_count(Stage::kUploadFetch), 3u);
  EXPECT_EQ(attr.dominant_count(Stage::kVmQueue), 0u);
  EXPECT_DOUBLE_EQ(attr.stage_total_minutes(Stage::kUploadFetch), 30.0);
  EXPECT_EQ(attr.stage_hist(Stage::kUploadFetch).total_count(), 3u);
}

TEST(FailureTaxonomyTest, RowsSortByCountThenKeyAndSharesSum) {
  FailureTaxonomy tax;
  tax.add("vm_fetch", "insufficient-seeds", "unpopular", 5);
  tax.add("vm_fetch", "poor-http-connection", "unpopular", 2);
  tax.add("admission", "rejected", "popular", 2);
  const auto rows = tax.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].cause, "insufficient-seeds");
  EXPECT_EQ(rows[1].stage, "admission");  // ties break on key ascending
  EXPECT_EQ(tax.total(), 9u);
  EXPECT_DOUBLE_EQ(tax.cause_share("insufficient-seeds"), 5.0 / 9.0);
  EXPECT_DOUBLE_EQ(tax.cause_share("nonexistent"), 0.0);
}

// --- calibration monitor ---------------------------------------------------

CalibrationTarget one_target(StatId id, double target, double tolerance,
                             std::size_t min_samples, bool gated) {
  CalibrationTarget t;
  t.id = id;
  t.key = "cache_hit";
  t.label = "cache hit ratio";
  t.unit = "%";
  t.target = target;
  t.tolerance = tolerance;
  t.min_samples = min_samples;
  t.gated = gated;
  return t;
}

TaskSpan cloud_span(std::uint64_t id, bool cache_hit) {
  TaskSpan s;
  s.task_id = id;
  s.origin = SpanOrigin::kCloud;
  s.outcome = SpanOutcome::kSuccess;
  s.cache_hit = cache_hit;
  s.pre_success = true;
  s.fetch_kbps = 300.0;
  s.e2e_kbps = 250.0;
  s.popularity = "popular";
  return s;
}

TEST(CalibrationMonitorTest, PassWithinBand) {
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 10.0, 4, true)},
                       kHour);
  m.begin_run();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    m.on_span(cloud_span(id, /*cache_hit=*/id % 2 == 0));
  }
  const CalibrationReport rep = m.report();
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.rows[0].estimate, 50.0);
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kPass);
  EXPECT_TRUE(rep.pass());
}

TEST(CalibrationMonitorTest, DriftLatchesOneFlightEventAndFailsReport) {
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 5.0, 4, true)},
                       kHour);
  ObsConfig fc;
  FlightRecorder flight(fc);
  m.set_flight(&flight);
  m.begin_run();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    m.on_span(cloud_span(id, /*cache_hit=*/true));  // estimate: 100%
  }
  m.on_time(kHour);
  m.on_time(3 * kHour);  // latched: no second event for the same stat
  EXPECT_EQ(m.drift_events(), 1u);
  ASSERT_EQ(flight.size(), 1u);
  EXPECT_EQ(flight.entries().front().what, "calibration.drift.cache_hit");
  const CalibrationReport rep = m.report();
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kDrift);
  EXPECT_FALSE(rep.pass());
}

TEST(CalibrationMonitorTest, MidRunCheckTolerates2xBandButReportDoesNot) {
  // Estimate 58% vs target 50 +/- 5: outside the report band (DRIFT) but
  // inside the 2x transient band the periodic check allows mid-run.
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 5.0, 10, true)},
                       kHour);
  m.begin_run();
  std::uint64_t id = 0;
  for (int hit = 0; hit < 29; ++hit) m.on_span(cloud_span(++id, true));
  for (int miss = 0; miss < 21; ++miss) m.on_span(cloud_span(++id, false));
  m.on_time(kHour);
  EXPECT_EQ(m.drift_events(), 0u);
  const CalibrationReport rep = m.report();
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kDrift);
  EXPECT_FALSE(rep.pass());
}

TEST(CalibrationMonitorTest, BelowMinSamplesIsNaNeverDrift) {
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 5.0, 100, true)},
                       kHour);
  m.begin_run();
  for (std::uint64_t id = 1; id <= 4; ++id) m.on_span(cloud_span(id, true));
  m.on_time(kHour);
  EXPECT_EQ(m.drift_events(), 0u);
  const CalibrationReport rep = m.report();
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kNa);
  EXPECT_EQ(rep.gated_total, 0u);
  EXPECT_TRUE(rep.pass());  // nothing measurable, nothing failed
}

TEST(CalibrationMonitorTest, UngatedDriftNeitherFailsNorRaisesEvents) {
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 5.0, 4, false)},
                       kHour);
  ObsConfig fc;
  FlightRecorder flight(fc);
  m.set_flight(&flight);
  m.begin_run();
  for (std::uint64_t id = 1; id <= 4; ++id) m.on_span(cloud_span(id, true));
  m.on_time(kHour);
  EXPECT_EQ(m.drift_events(), 0u);
  EXPECT_EQ(flight.size(), 0u);
  const CalibrationReport rep = m.report();
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kDrift);  // shown
  EXPECT_TRUE(rep.pass());                                       // not gated
}

TEST(CalibrationMonitorTest, ApSpansDoNotPolluteCloudStatistics) {
  CalibrationMonitor m({one_target(StatId::kCacheHit, 50.0, 5.0, 1, true)},
                       kHour);
  m.begin_run();
  TaskSpan ap = cloud_span(1, true);
  ap.origin = SpanOrigin::kAp;
  m.on_span(ap);
  const CalibrationReport rep = m.report();
  EXPECT_EQ(rep.rows[0].samples, 0u);
  EXPECT_EQ(rep.rows[0].status, CalibrationRow::Status::kNa);
}

TEST(CalibrationMonitorTest, PaperTargetTableCoversAtLeastEightGatedStats) {
  // The ISSUE's acceptance: the calibration table tracks >= 8 paper
  // statistics. Keep the canonical table honest.
  const auto targets = paper_calibration_targets();
  std::size_t gated = 0;
  for (const auto& t : targets) {
    if (t.gated) ++gated;
  }
  EXPECT_GE(gated, 8u);
  EXPECT_GE(targets.size(), 10u);
}

TEST(ObserverSpanTest, CalibrationImpliesSpansAndBeginRunResets) {
  ObsConfig c;
  c.calibration = true;  // implies spans
  ScopedObserver obs(c);
  ASSERT_NE(obs->journal(), nullptr);
  ASSERT_NE(obs->attribution(), nullptr);
  ASSERT_NE(obs->calibration(), nullptr);
  obs->journal()->on_submit(1, 0, SpanOrigin::kCloud);
  SpanTerminal term;
  term.outcome = SpanOutcome::kSuccess;
  obs->journal()->on_finish(1, kMinute, term);
  EXPECT_EQ(obs->attribution()->folded(), 1u);
  obs->begin_run();
  EXPECT_EQ(obs->journal()->finished(), 0u);
  EXPECT_EQ(obs->attribution()->folded(), 0u);
}

TEST(ObserverSpanTest, SpansDisabledMeansNoJournal) {
  ScopedObserver obs;  // default config: spans off
  EXPECT_EQ(obs->journal(), nullptr);
  EXPECT_EQ(obs->attribution(), nullptr);
  EXPECT_EQ(obs->calibration(), nullptr);
  // The ODR_SPAN macro must be a safe no-op in this state.
  ODR_SPAN(on_submit(1, 0, SpanOrigin::kCloud));
  SUCCEED();
}

// --- windowed metrics time-series -------------------------------------------

TaskSpan make_finished_span(std::uint64_t id, SimTime finished, Stage heavy,
                            SpanOutcome outcome, std::string_view cause,
                            std::string_view popularity) {
  TaskSpan s;
  s.task_id = id;
  s.submitted_at = 0;
  s.finished_at = finished;
  s.outcome = outcome;
  s.cause = cause;
  s.popularity = popularity;
  s.stages.push_back({heavy, 0, finished, 0});
  return s;
}

TEST(MetricsTimeSeriesTest, WindowsRollAndEmptyWindowsAreEmitted) {
  MetricsTimeSeries mts(nullptr, kMinute);
  mts.begin_serve(kMinute, /*p99_target=*/0);
  mts.on_verdict(10 * kSec, AdmissionVerdict::kAdmitted, 1, 0);
  mts.on_complete(30 * kSec, 5 * kSec, true, 0, 1);
  // Next arrival lands in window 3: windows 1 and 2 are idle but must
  // still be emitted — the trajectory needs every window, not just busy
  // ones (unlike the SLO tracker, which skips idle gaps).
  mts.on_verdict(3 * kMinute + 10 * kSec, AdmissionVerdict::kShed, 0, 0);
  mts.finish(3 * kMinute + 30 * kSec);
  ASSERT_EQ(mts.rows().size(), 4u);
  const auto& rows = mts.rows();
  EXPECT_EQ(rows[0].offered, 1u);
  EXPECT_EQ(rows[0].admitted, 1u);
  EXPECT_EQ(rows[0].completed, 1u);
  EXPECT_EQ(rows[0].succeeded, 1u);
  EXPECT_DOUBLE_EQ(rows[0].p50_seconds, rows[0].p99_seconds);
  EXPECT_EQ(rows[1].offered, 0u);
  EXPECT_EQ(rows[2].offered, 0u);
  EXPECT_EQ(rows[3].shed_unpopular, 1u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].window, i);
    EXPECT_EQ(rows[i].start, static_cast<SimTime>(i) * kMinute);
    EXPECT_EQ(rows[i].end, static_cast<SimTime>(i + 1) * kMinute);
  }
  // finish() is idempotent: a second call closes nothing further.
  mts.finish(3 * kMinute + 30 * kSec);
  EXPECT_EQ(mts.rows().size(), 4u);
}

TEST(MetricsTimeSeriesTest, GaugesCarryForwardAcrossWindowBoundaries) {
  MetricsTimeSeries mts(nullptr, kMinute);
  mts.begin_serve(kMinute, 0);
  mts.on_verdict(10 * kSec, AdmissionVerdict::kAdmitted, /*queue=*/7,
                 /*inflight=*/3);
  mts.on_verdict(2 * kMinute + 10 * kSec, AdmissionVerdict::kAdmitted, 2, 1);
  mts.finish(2 * kMinute + 10 * kSec);
  const auto& rows = mts.rows();
  ASSERT_EQ(rows.size(), 3u);
  // Queue depth does not reset at a window boundary: the idle window 1
  // carries the last observed values, peaks and all.
  EXPECT_EQ(rows[0].queue_depth, 7u);
  EXPECT_EQ(rows[0].peak_queue_depth, 7u);
  EXPECT_EQ(rows[1].queue_depth, 7u);
  EXPECT_EQ(rows[1].peak_inflight, 3u);
  // Window 2 saw a lower value; the peak restarts from the carried level.
  EXPECT_EQ(rows[2].queue_depth, 2u);
  EXPECT_EQ(rows[2].peak_queue_depth, 7u);
}

TEST(MetricsTimeSeriesTest, CounterDeltasSnapshotAndRebaselinePerWindow) {
  Registry reg;
  Counter& granted = reg.counter("core.budget.granted");
  granted.inc(11);  // pre-run total: must not appear in any window delta
  MetricsTimeSeries mts(&reg, kMinute);
  mts.begin_serve(kMinute, 0);
  granted.inc(2);
  mts.on_verdict(kMinute + kSec, AdmissionVerdict::kAdmitted, 0, 0);
  granted.inc(5);
  mts.finish(kMinute + 2 * kSec);
  const auto& rows = mts.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].budget_granted(), 2u);
  EXPECT_EQ(rows[1].budget_granted(), 5u);
  EXPECT_EQ(rows[0].budget_denied(), 0u);  // absent counters read as zero
}

TEST(MetricsTimeSeriesTest, FoldBucketsSpansByWindowVerdictAndStage) {
  MetricsTimeSeries mts(nullptr, kMinute);
  mts.begin_serve(kMinute, 0);
  mts.fold(make_finished_span(1, 10 * kSec, Stage::kApFetch,
                              SpanOutcome::kSuccess, "none", "popular"));
  mts.fold(make_finished_span(2, 20 * kSec, Stage::kApFetch,
                              SpanOutcome::kFailed, "slow-seeds",
                              "unpopular"));
  mts.fold(make_finished_span(3, kMinute + kSec, Stage::kAdmission,
                              SpanOutcome::kRejected, "queue_full",
                              "popular"));
  mts.fold(make_finished_span(4, kMinute + 2 * kSec, Stage::kAdmission,
                              SpanOutcome::kRejected, "shed_unpopular",
                              "unpopular"));
  mts.finish(kMinute + 3 * kSec);
  const auto& rows = mts.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].spans_folded, 2u);
  EXPECT_EQ(rows[0].dominant_stage(), "ap_fetch");
  ASSERT_EQ(rows[0].verdicts.rows().size(), 1u);
  EXPECT_EQ(rows[0].verdicts.rows()[0].stage, "failed");
  EXPECT_EQ(rows[0].verdicts.rows()[0].cause, "slow-seeds");
  // Serve-side rejections split by cause into shed vs dropped verdicts.
  EXPECT_EQ(rows[1].dominant_stage(), "admission");
  ASSERT_EQ(rows[1].verdicts.rows().size(), 2u);
  bool saw_shed = false;
  bool saw_dropped = false;
  for (const auto& r : rows[1].verdicts.rows()) {
    saw_shed = saw_shed || r.stage == "shed";
    saw_dropped = saw_dropped || r.stage == "dropped";
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_dropped);
  // No spans folded into a window leaves the dominant stage unnamed.
  EXPECT_EQ(MetricsTsRow{}.dominant_stage(), "");
}

TEST(MetricsTimeSeriesTest, OverloadLatchesFireOneFlightDumpEach) {
  ObsConfig c;
  c.dump_path = testing::TempDir() + "mts_overload";
  FlightRecorder fr(c);
  MetricsTimeSeries mts(nullptr, kMinute);
  mts.set_flight(&fr);
  mts.begin_serve(kMinute, /*p99_target=*/10 * kSec);
  // Two violating windows; only the FIRST fires the note + auto-dump.
  mts.on_complete(10 * kSec, 100 * kSec, true, 0, 1);
  mts.on_complete(kMinute + 10 * kSec, 100 * kSec, true, 0, 1);
  // First backpressure drop latches saturation; the second is silent.
  mts.on_verdict(kMinute + 20 * kSec, AdmissionVerdict::kDropped, 9, 9);
  mts.on_verdict(kMinute + 30 * kSec, AdmissionVerdict::kDropped, 9, 9);
  mts.finish(2 * kMinute);
  EXPECT_EQ(mts.violation_windows(), 2u);
  EXPECT_EQ(mts.first_violation_window(), 0);
  EXPECT_TRUE(mts.overload_latched());
  EXPECT_TRUE(mts.saturation_latched());
  EXPECT_EQ(fr.dumps_written(), 2u);  // one per latch, not one per window
  bool p99_note = false;
  bool sat_note = false;
  for (const FlightEntry& e : fr.entries()) {
    p99_note = p99_note || e.what == "serve.overload.p99_window";
    sat_note = sat_note || e.what == "serve.overload.queue_saturated";
  }
  EXPECT_TRUE(p99_note);
  EXPECT_TRUE(sat_note);
  // Clean up the two dump files the latches wrote.
  std::remove((c.dump_path + ".0.overload_onset.json").c_str());
  std::remove((c.dump_path + ".1.overload_onset.json").c_str());
}

TEST(MetricsTimeSeriesTest, BeginRunResetsRowsLatchesAndBaselines) {
  Registry reg;
  Counter& granted = reg.counter("core.budget.granted");
  MetricsTimeSeries mts(&reg, kMinute);
  mts.begin_serve(kMinute, 10 * kSec);
  granted.inc(3);
  mts.on_complete(10 * kSec, 100 * kSec, true, 0, 1);  // violation + latch
  mts.finish(10 * kSec);
  EXPECT_FALSE(mts.rows().empty());
  EXPECT_TRUE(mts.overload_latched());

  // A checkpoint restore calls begin_run(): the trajectory restarts empty
  // and the counter baseline re-snapshots, so the pre-kill total of 3 must
  // not surface as window 0's delta after the reset.
  mts.begin_run();
  EXPECT_TRUE(mts.rows().empty());
  EXPECT_EQ(mts.violation_windows(), 0u);
  EXPECT_EQ(mts.first_violation_window(), -1);
  EXPECT_FALSE(mts.overload_latched());
  EXPECT_FALSE(mts.saturation_latched());
  granted.inc(4);
  mts.finish(0);
  ASSERT_EQ(mts.rows().size(), 1u);
  EXPECT_EQ(mts.rows()[0].budget_granted(), 4u);
}

TEST(MetricsTimeSeriesTest, JsonlHasSchemaHeaderAndOneRowPerWindow) {
  MetricsTimeSeries mts(nullptr, kMinute);
  mts.begin_serve(kMinute, 0);
  mts.on_verdict(10 * kSec, AdmissionVerdict::kAdmitted, 1, 1);
  mts.finish(kMinute + kSec);
  std::string out;
  mts.write_jsonl(out);
  // One header line + one line per window, newline-terminated.
  std::size_t lines = 0;
  for (char ch : out) lines += ch == '\n';
  EXPECT_EQ(lines, 1 + mts.rows().size());
  EXPECT_NE(out.find("\"schema\":\"odr.metricsts.v1\""), std::string::npos);
  EXPECT_NE(out.find("\"offered\":1"), std::string::npos);
  EXPECT_NE(out.find("\"core.budget.granted\":0"), std::string::npos);
}

TEST(ObsIntegrationTest, ObserverDoesNotPerturbTheReplay) {
  const auto config = analysis::make_scaled_config(8000.0, 20151028);
  const auto plain = analysis::run_cloud_replay(config);
  const std::uint64_t plain_fp = analysis::outcome_fingerprint(plain.outcomes);

  ScopedObserver obs;  // full default config, tracing on
  const auto observed = analysis::run_cloud_replay(config);
  EXPECT_EQ(analysis::outcome_fingerprint(observed.outcomes), plain_fp);
  EXPECT_EQ(observed.outcomes.size(), plain.outcomes.size());

  // The run actually fed the observer: events were counted, probes were
  // sampled, flows were traced.
  EXPECT_GT(obs->metrics().find_counter("sim.events.executed")->value(), 0u);
  ASSERT_NE(obs->sampler(), nullptr);
  EXPECT_GT(obs->sampler()->samples_taken(), 0u);
  EXPECT_NE(obs->sampler()->series("cloud.pool.hit_ratio"), nullptr);
  EXPECT_GT(obs->tracer().size(), 0u);
}

}  // namespace
}  // namespace odr::obs
