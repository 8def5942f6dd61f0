#!/usr/bin/env python3
"""Self-tests for the benchmark's own math and CLI.

    python3 perfbench/test_benchstats.py

Needs no build: it checks the percentile choice, the base of every ratio,
the per-layer derivations on synthetic samples, that the metric tables agree
with BENCHMARK.json, and that the CLI rejects bad input with a message.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402
import run  # noqa: E402


def rep(tasks=1000, total_s=2.0, run_s=1.5, finalize_s=0.1, snapshot_s=0.0,
        traced=False, failed=False, seed=7, setup_s=(0.2,), restore_s=(0.6,),
        yardstick_s=(benchstats.YARDSTICK_S,)):
    return {"seed": seed, "tasks": tasks, "total_s": total_s, "run_s": run_s,
            "finalize_s": finalize_s, "snapshot_s": snapshot_s,
            "traced": traced, "failed": failed, "setup_s": list(setup_s),
            "restore_s": list(restore_s), "yardstick_s": list(yardstick_s)}


def raw_run(**overrides):
    raw = {
        "reps": [rep(total_s=2.0, setup_s=[0.3], restore_s=[0.5]),
                 rep(total_s=4.0, setup_s=[0.1], restore_s=[0.7]),
                 rep(total_s=1.0, setup_s=[0.2], restore_s=[0.6])],
        "workload_build_s": [0.05, 0.07, 0.06],
        "checkpoint_ms": [float(i) for i in range(1, 111)],
        "save_ms": [1.0, 2.0, 3.0],
        "hash_ms": [4.0, 5.0, 6.0],
        "audit_ms": [0.1, 0.2, 0.3],
        "checkpoint_bytes": [100.0, 300.0, 200.0],
        "counts": {},
        "fingerprints": {"outcome_fingerprint": "00000000000000ab"},
        "failures": [],
        "process_failed": False,
        "peak_rss_bytes": 64 * 2**20,
    }
    raw.update(overrides)
    return raw


COUNTS = {
    "tasks": 1000.0,
    "sim.events.executed": 6000.0,
    "net.solver.runs": 500.0,
    "net.solver.iterations": 9000.0,
    "net.solver.component_flows.p50": 6.5,
    "net.solver.component_flows.p99": 99.0,
    "net.flows.started": 2000.0,
    "net.flows.cancelled": 100.0,
    "proto.swarm.ticks": 3000.0,
    "ap.predownloads.submitted": 42.0,
    "core.executor.reroutes": 0.0,
    "core.routes.cloud": 550.0,
    "core.routes.ap": 320.0,
    "core.routes.hybrid": 110.0,
    "core.routes.direct": 20.0,
    "cloud.tasks.submitted": 800.0,
    "cloud.tasks.cache_hits": 700.0,
    "cloud.upload.admitted": 90.0,
    "cloud.upload.rejected": 6.0,
    "cloud.upload.shed": 4.0,
    "cloud.vm.tasks.started": 120.0,
    "calibration.gated_pass": 9.0,
}


class PercentileChoice(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(benchstats.tail_percentile(110), 90.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(999), 90.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_small_counts_fall_back_to_median_or_nothing(self):
        self.assertEqual(benchstats.tail_percentile(99), 50.0)
        self.assertEqual(benchstats.tail_percentile(20), 50.0)
        self.assertIsNone(benchstats.tail_percentile(19))

    def test_beyond_is_exact_for_fractional_percentiles(self):
        # 99.9 is not exact in binary floating point; 10000 samples leave
        # exactly ten beyond it.
        self.assertEqual(benchstats.beyond(10000, "99.9"), 10)
        self.assertEqual(benchstats.beyond(110, "90"), 11)

    def test_percentile_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(benchstats.percentile(xs, 0), 1.0)
        self.assertEqual(benchstats.percentile(xs, 100), 4.0)
        self.assertEqual(benchstats.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(benchstats.percentile(range(1, 111), 90), 99.1)

    def test_checkpoint_tail_needs_a_hundred_samples(self):
        with self.assertRaises(ValueError):
            benchstats.end_to_end(raw_run(checkpoint_ms=[1.0] * 99))


class RatioBases(unittest.TestCase):
    def test_empty_base_is_zero_not_an_error(self):
        self.assertEqual(benchstats.ratio(5, 0), 0.0)
        self.assertEqual(benchstats.ratio(0, 0), 0.0)

    def test_tasks_per_s_ignores_traced_repetitions(self):
        raw = raw_run(reps=[rep(tasks=1000, total_s=2.0, seed=1),
                            rep(tasks=1000, total_s=4.0, seed=2),
                            rep(tasks=1000, total_s=1.0, seed=3),
                            rep(tasks=1000, total_s=100.0, traced=True)])
        # 3000 tasks over 7 s; the median rate would say 500.
        self.assertEqual(benchstats.end_to_end(raw)["tasks_per_s"], 3000 / 7)

    def test_tasks_per_s_counts_each_seed_once(self):
        reps = [rep(seed=1, total_s=1.0), rep(seed=1, total_s=3.0),
                rep(seed=1, total_s=2.0), rep(seed=2, total_s=2.0),
                rep(seed=3, total_s=4.0)]
        # Seed 1 weighs in once, at its mean of 2 s: 3000 tasks over
        # 2 + 2 + 4 s. Pooling every repetition would give 5000 / 12.
        self.assertEqual(benchstats.tasks_per_s(reps), 3000 / 8)

    def test_setup_and_restore_weigh_every_seed_once(self):
        reps = [rep(seed=1, setup_s=[0.1, 0.1, 0.9], restore_s=[1.0]),
                rep(seed=1, setup_s=[0.1], restore_s=[]),
                rep(seed=2, setup_s=[0.4, 0.6], restore_s=[3.0]),
                rep(seed=3, setup_s=[0.4], restore_s=[2.0]),
                rep(seed=9, setup_s=[9.0], restore_s=[9.0], traced=True)]
        e2e = benchstats.end_to_end(raw_run(reps=reps))
        # Per-seed medians 0.1, 0.5 and 0.4 (seed 1's 0.9 is outvoted by
        # its own samples); their mean, not the median of all seven
        # samples (0.4). Traced repetitions do not count.
        self.assertAlmostEqual(e2e["setup_s"], 1.0 / 3.0)
        self.assertAlmostEqual(e2e["restore_s"], 2.0)

    def test_timings_are_divided_by_the_yardstick_slowdown(self):
        y = benchstats.YARDSTICK_S
        # The machine ran at half speed after the first repetition, at
        # nominal speed after the second.
        reps = [rep(seed=1, total_s=4.0, yardstick_s=[2 * y, 2 * y, 9 * y]),
                rep(seed=2, total_s=1.0, yardstick_s=[y])]
        e2e = benchstats.end_to_end(raw_run(reps=reps))
        # Per repetition: 4 s at half speed count as 2 s.
        self.assertAlmostEqual(e2e["tasks_per_s"], 2000 / 3.0)
        # Samples: the run's median pass is 2 * y.
        self.assertAlmostEqual(e2e["setup_s"], 0.1)
        self.assertAlmostEqual(e2e["restore_s"], 0.3)
        self.assertAlmostEqual(e2e["checkpoint_ms_p50"], 55.5 / 2)

    def test_end_to_end_values(self):
        e2e = benchstats.end_to_end(raw_run())
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["peak_rss_mib"], 64.0)
        self.assertEqual(e2e["restore_s"], 0.6)
        self.assertAlmostEqual(e2e["checkpoint_ms_p50"], 55.5)
        self.assertAlmostEqual(e2e["checkpoint_ms_p90"], 99.1)

    def test_overhead_ratio_is_traced_over_untraced_total(self):
        raw = raw_run(counts=COUNTS,
                      reps=[rep(total_s=2.0), rep(total_s=3.0, traced=True),
                            rep(total_s=2.0), rep(total_s=3.0, traced=True)])
        self.assertEqual(benchstats.per_layer(raw)["obs.overhead_ratio"], 1.5)


class PerLayerDerivations(unittest.TestCase):
    def setUp(self):
        reps = [rep(total_s=2.0, run_s=1.0, snapshot_s=0.5, finalize_s=0.1),
                rep(total_s=4.0, run_s=3.0, snapshot_s=1.0, finalize_s=0.3),
                rep(total_s=3.0, run_s=2.0, snapshot_s=0.9, finalize_s=0.2),
                rep(total_s=9.0, run_s=9.0, traced=True)]
        self.layer = benchstats.per_layer(raw_run(counts=COUNTS, reps=reps))

    def test_net_ratios(self):
        self.assertEqual(self.layer["net.solves_per_task"], 0.5)
        self.assertEqual(self.layer["net.rounds_per_solve"], 18.0)
        self.assertEqual(self.layer["net.rounds_per_task"], 9.0)
        self.assertEqual(self.layer["net.flow_cancel_ratio"], 0.05)
        self.assertEqual(self.layer["net.component_flows_p99"], 99.0)

    def test_sim_uses_untraced_timings(self):
        self.assertEqual(self.layer["sim.events_per_task"], 6.0)
        # Median untraced run_s (2.0 s) over 6000 events.
        self.assertAlmostEqual(self.layer["sim.ns_per_event"], 2e9 / 6000)
        self.assertAlmostEqual(self.layer["sim.run_share"], 2.0 / 3.0)

    def test_route_shares_are_over_all_tasks(self):
        self.assertEqual(self.layer["core.route_share.cloud"], 0.55)
        self.assertEqual(self.layer["core.route_share.ap"], 0.32)
        self.assertEqual(self.layer["core.route_share.hybrid"], 0.11)
        self.assertEqual(self.layer["ap.predownloads"], 42.0)

    def test_cloud_ratio_bases(self):
        # Cache hits over cloud submissions, not over all tasks.
        self.assertEqual(self.layer["cloud.cache_hit_ratio"], 0.875)
        # Admissions over every admission decision, shed ones included.
        self.assertEqual(self.layer["cloud.upload_admit_ratio"], 0.9)
        self.assertEqual(self.layer["cloud.vm_tasks_per_task"], 0.12)

    def test_snapshot_and_analysis(self):
        self.assertEqual(self.layer["snapshot.save_ms_p50"], 2.0)
        self.assertEqual(self.layer["snapshot.bytes_per_checkpoint"], 200.0)
        self.assertEqual(self.layer["snapshot.host_share"], 0.25)
        self.assertEqual(self.layer["analysis.finalize_s"], 0.2)
        self.assertEqual(self.layer["workload.build_s"], 0.06)


class Accounting(unittest.TestCase):
    def test_failed_repetitions_count_their_tasks(self):
        raw = raw_run(reps=[rep(tasks=10), rep(tasks=10, failed=True)])
        self.assertEqual(benchstats.attempted_failed(raw), (20, 10))

    def test_a_process_level_failure_fails_everything(self):
        raw = raw_run(reps=[rep(tasks=10)], process_failed=True)
        self.assertEqual(benchstats.attempted_failed(raw), (10, 10))

    def test_records_flag_only_changed_keys(self):
        observed = benchstats.recorded_items(raw_run(counts={"tasks": 5.0}))
        self.assertEqual(observed, {
            "fingerprint.outcome_fingerprint": "00000000000000ab",
            "count.tasks": 5.0})
        recorded = {"count.tasks": 6.0, "count.other": 1.0}
        self.assertEqual(benchstats.disagreements(recorded, observed),
                         ["count.tasks"])
        self.assertEqual(benchstats.disagreements({}, observed), [])


class MatchesBenchmarkJson(unittest.TestCase):
    def test_names_and_units(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            benchstats.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            benchstats.PER_LAYER_UNITS)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         run.WORKLOADS)


class NoDoomedNames(unittest.TestCase):
    # Settings and helpers the simulator's roadmap deletes; a benchmark that
    # named them would have to change in the change that claims the gain.
    DOOMED = ("engine_shards", "solver_workers", "solver_parallel_min_flows",
              "net_rate_epsilon", "WorkPool", "warm_cloud_for_replay")

    def test_benchmark_sources_do_not_name_them(self):
        here = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(here)):
            path = os.path.join(here, name)
            if name == os.path.basename(__file__) or not os.path.isfile(path):
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for doomed in self.DOOMED:
                self.assertNotIn(doomed, text, f"{name} names {doomed}")


class Cli(unittest.TestCase):
    def rejects(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), self.assertRaises(SystemExit) as cm:
            run.parse_args(argv)
        self.assertNotEqual(cm.exception.code, 0)
        return err.getvalue()

    def test_unknown_workload(self):
        msg = self.rejects(["--workload", "nope", "--seed", "1",
                            "--seconds", "5", "--trace", "0"])
        self.assertIn("invalid choice", msg)

    def test_malformed_seeds(self):
        for seed in ["", "-1", "+1", "1.5", "0x10", " 7", "7 ", "abc",
                     "²", str(2**64)]:
            msg = self.rejects(["--workload", "cloud_week", "--seed", seed,
                                "--seconds", "5", "--trace", "0"])
            self.assertIn("malformed seed", msg)

    def test_bad_seconds_and_trace(self):
        self.rejects(["--workload", "cloud_week", "--seed", "1",
                      "--seconds", "0", "--trace", "0"])
        self.rejects(["--workload", "cloud_week", "--seed", "1",
                      "--seconds", "5", "--trace", "2"])

    def test_accepts_the_full_seed_range(self):
        for seed in ["0", "20151028", str(2**64 - 1)]:
            args = run.parse_args(["--workload", "odr_week", "--seed", seed,
                                   "--seconds", "5", "--trace", "1"])
            self.assertEqual(args.seed, int(seed))


if __name__ == "__main__":
    unittest.main()
