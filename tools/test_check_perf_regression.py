#!/usr/bin/env python3
"""Self-test for check_perf_regression.py (stdlib only, run by CI).

Exercises the gate's verdicts against synthetic JSON: clean pass,
regression, a baseline divisor with no measured run (the silent-skip bug
this guards against), an empty intersection, RSS ceilings, pinned
fingerprints, event counts, solver counts and the other pinned work
counts (completions kept and rescheduled among them), families and value windows. Also checks that the checked-in
baselines pin a fingerprint and every pinned work count for every
perf_scale rung they time.

Usage:
  python3 tools/test_check_perf_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_perf_regression import PINNED_COUNTS  # noqa: E402

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_perf_regression.py")


def run_gate(baseline, results):
    """Writes the two dicts to temp files and runs the gate on them."""
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "baseline.json")
        rpath = os.path.join(tmp, "results.json")
        with open(bpath, "w", encoding="utf-8") as f:
            json.dump(baseline, f)
        with open(rpath, "w", encoding="utf-8") as f:
            json.dump(results, f)
        return subprocess.run(
            [sys.executable, GATE, "--baseline", bpath, "--results", rpath],
            capture_output=True, text=True)


def baseline(divisors, max_ratio=2.0):
    return {"max_ratio": max_ratio,
            "exact_wall_seconds": {k: v for k, v in divisors.items()}}


def results(runs, bench=None, rss=None, fingerprints=None, events=None,
            solver=None, counts=None):
    """rss, fingerprints and events map divisor -> peak_rss_bytes /
    fingerprint / events for the exact-mode runs; solver maps divisor ->
    (solver_runs, solver_iterations); counts maps divisor -> {field:
    count} for further pinned work counts."""
    out = {"runs": []}
    for mode, d, w in runs:
        run = {"mode": mode, "divisor": d, "wall_seconds": w}
        if rss is not None and mode == "exact" and d in rss:
            run["peak_rss_bytes"] = rss[d]
        if fingerprints is not None and mode == "exact" and d in fingerprints:
            run["fingerprint"] = fingerprints[d]
        if events is not None and mode == "exact" and d in events:
            run["events"] = events[d]
        if solver is not None and mode == "exact" and d in solver:
            run["solver_runs"], run["solver_iterations"] = solver[d]
        if counts is not None and mode == "exact" and d in counts:
            run.update(counts[d])
        out["runs"].append(run)
    if bench is not None:
        out["bench"] = bench
    return out


class CheckPerfRegressionTest(unittest.TestCase):
    def test_within_budget_passes(self):
        proc = run_gate(baseline({"400": 10.0, "100": 40.0}),
                        results([("exact", 400, 12.0), ("exact", 100, 50.0)]))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 check(s) within", proc.stdout)

    def test_regression_fails_naming_divisor(self):
        proc = run_gate(baseline({"400": 10.0}),
                        results([("exact", 400, 25.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSED", proc.stdout)
        self.assertIn("400", proc.stderr)

    def test_missing_baseline_key_fails_per_key(self):
        # divisor 100 is in the baseline but was never measured; the gate
        # must fail and name it instead of silently checking less.
        proc = run_gate(baseline({"400": 10.0, "100": 40.0}),
                        results([("exact", 400, 10.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("baseline divisor 100 has no exact-mode run",
                      proc.stderr)

    def test_every_missing_key_is_named(self):
        proc = run_gate(baseline({"400": 10.0, "100": 40.0, "50": 90.0}),
                        results([("exact", 400, 10.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("baseline divisor 50 ", proc.stderr)
        self.assertIn("baseline divisor 100 ", proc.stderr)

    def test_no_overlap_fails(self):
        proc = run_gate(baseline({"400": 10.0}),
                        results([("approx", 400, 5.0)]))
        self.assertEqual(proc.returncode, 1)

    def test_non_baseline_measurements_are_ignored(self):
        proc = run_gate(baseline({"400": 10.0}),
                        results([("exact", 400, 10.0), ("exact", 800, 1.0)]))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    # --- peak-RSS ceilings -------------------------------------------------

    @staticmethod
    def rss_baseline():
        b = baseline({"400": 10.0})
        b["rss_ceiling_bytes"] = {"400": 200 * 2**20}
        return b

    def test_rss_within_ceiling_passes(self):
        proc = run_gate(self.rss_baseline(),
                        results([("exact", 400, 10.0)],
                                rss={400: 150 * 2**20}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("peak RSS", proc.stdout)
        self.assertIn("2 check(s) within", proc.stdout)

    def test_rss_over_ceiling_fails_naming_divisor(self):
        proc = run_gate(self.rss_baseline(),
                        results([("exact", 400, 10.0)],
                                rss={400: 300 * 2**20}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("OVER BUDGET", proc.stdout)
        self.assertIn("rss@400", proc.stderr)

    def test_rss_is_absolute_not_ratio(self):
        # 1 byte over the ceiling fails: no jitter ratio is applied, the
        # headroom lives in the recorded ceiling itself.
        proc = run_gate(self.rss_baseline(),
                        results([("exact", 400, 10.0)],
                                rss={400: 200 * 2**20 + 1}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rss@400", proc.stderr)

    def test_rss_missing_field_fails(self):
        # The bench dropping/renaming peak_rss_bytes must disarm loudly.
        proc = run_gate(self.rss_baseline(),
                        results([("exact", 400, 10.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no peak_rss_bytes", proc.stderr)

    def test_rss_missing_divisor_fails(self):
        b = self.rss_baseline()
        b["rss_ceiling_bytes"]["100"] = 400 * 2**20
        proc = run_gate(b, results([("exact", 400, 10.0)],
                                   rss={400: 100 * 2**20}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("RSS-ceiling divisor 100 has no exact-mode run",
                      proc.stderr)

    def test_rss_only_family_passes(self):
        # A family may budget memory alone (no wall-seconds reference);
        # the "no runs matched" error must not fire.
        b = {"max_ratio": 2.0, "exact_wall_seconds": {},
             "rss_ceiling_bytes": {"400": 200 * 2**20}}
        proc = run_gate(b, results([("exact", 400, 10.0)],
                                   rss={400: 100 * 2**20}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("1 check(s) within", proc.stdout)

    # --- pinned fingerprints -----------------------------------------------

    @staticmethod
    def fp_baseline():
        b = baseline({"400": 10.0})
        b["fingerprints"] = {"400": "6f5e010de740afd6"}
        return b

    def test_fingerprint_match_passes(self):
        proc = run_gate(self.fp_baseline(),
                        results([("exact", 400, 10.0)],
                                fingerprints={400: "6f5e010de740afd6"}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("fingerprint 6f5e010de740afd6", proc.stdout)
        self.assertIn("2 check(s) within", proc.stdout)

    def test_fingerprint_change_fails_naming_divisor(self):
        # Fast and small but a different simulation: wall seconds pass,
        # the fingerprint must not.
        proc = run_gate(self.fp_baseline(),
                        results([("exact", 400, 1.0)],
                                fingerprints={400: "6f5e010de740afd7"}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("CHANGED", proc.stdout)
        self.assertIn("fingerprint@400", proc.stderr)

    def test_fingerprint_missing_field_fails(self):
        proc = run_gate(self.fp_baseline(), results([("exact", 400, 10.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no fingerprint", proc.stderr)
        self.assertIn("fingerprint@400", proc.stderr)

    def test_fingerprint_missing_divisor_fails(self):
        b = self.fp_baseline()
        b["fingerprints"]["100"] = "7d6deaa1025ca321"
        proc = run_gate(b, results([("exact", 400, 10.0)],
                                   fingerprints={400: "6f5e010de740afd6"}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fingerprint divisor 100 has no exact-mode run",
                      proc.stderr)

    # --- pinned event counts -----------------------------------------------

    @staticmethod
    def events_baseline():
        b = baseline({"400": 10.0})
        b["events"] = {"400": 35768}
        return b

    def test_events_match_passes(self):
        proc = run_gate(self.events_baseline(),
                        results([("exact", 400, 10.0)], events={400: 35768}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("events 35768 vs pinned 35768 OK", proc.stdout)
        self.assertIn("2 check(s) within", proc.stdout)

    def test_events_change_fails_naming_divisor(self):
        # Same outcomes, more wakes: the work moved, so the gate must fail
        # even though wall seconds pass.
        proc = run_gate(self.events_baseline(),
                        results([("exact", 400, 1.0)], events={400: 35769}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("CHANGED", proc.stdout)
        self.assertIn("events@400", proc.stderr)

    def test_events_missing_field_fails(self):
        proc = run_gate(self.events_baseline(),
                        results([("exact", 400, 10.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no events count", proc.stderr)
        self.assertIn("events@400", proc.stderr)

    def test_events_missing_divisor_fails(self):
        b = self.events_baseline()
        b["events"]["100"] = 140000
        proc = run_gate(b, results([("exact", 400, 10.0)],
                                   events={400: 35768}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("events divisor 100 has no exact-mode run",
                      proc.stderr)

    # --- pinned solver work -------------------------------------------------

    @staticmethod
    def solver_baseline():
        b = baseline({"400": 10.0})
        b["solver_runs"] = {"400": 1909}
        b["solver_iterations"] = {"400": 26045}
        return b

    def test_solver_counts_match_passes(self):
        proc = run_gate(self.solver_baseline(),
                        results([("exact", 400, 1.0)],
                                solver={400: (1909, 26045)}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("solver_runs 1909 vs pinned 1909 OK", proc.stdout)
        self.assertIn("solver_iterations 26045 vs pinned 26045 OK",
                      proc.stdout)
        self.assertIn("3 check(s) within", proc.stdout)

    def test_solver_iterations_change_fails_naming_field(self):
        # Same solves, one more water-filling step: the solver changed.
        proc = run_gate(self.solver_baseline(),
                        results([("exact", 400, 1.0)],
                                solver={400: (1909, 26046)}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("solver_iterations@400", proc.stderr)
        self.assertNotIn("solver_runs@400", proc.stderr)

    def test_solver_counts_missing_fails(self):
        proc = run_gate(self.solver_baseline(),
                        results([("exact", 400, 1.0)]))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no solver_runs count", proc.stderr)
        self.assertIn("no solver_iterations count", proc.stderr)

    # --- pinned completions, wakes, swarm draws and fast-path updates -------

    WORK_400 = {"completions_kept": 25150, "completions_rescheduled": 4749,
                "ticks_server": 12, "ticks_swarm_seedless": 679,
                "ticks_swarm_seeded": 4819, "swarm_draws": 29168,
                "fast_path_updates": 24457}

    def work_baseline(self):
        b = baseline({"400": 10.0})
        for field, count in self.WORK_400.items():
            b[field] = {"400": count}
        return b

    def test_every_work_count_is_pinned(self):
        self.assertTrue(set(self.WORK_400) <= set(PINNED_COUNTS))

    def test_work_counts_match_passes(self):
        proc = run_gate(self.work_baseline(),
                        results([("exact", 400, 1.0)],
                                counts={400: self.WORK_400}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for field, count in self.WORK_400.items():
            self.assertIn(f"{field} {count} vs pinned {count} OK",
                          proc.stdout)
        self.assertIn("8 check(s) within", proc.stdout)

    def test_each_work_count_change_fails_naming_field(self):
        # One more kept or rescheduled completion, wake, draw or fast-path
        # update: the week's work moved.
        for field in self.WORK_400:
            moved = dict(self.WORK_400, **{field: self.WORK_400[field] + 1})
            proc = run_gate(self.work_baseline(),
                            results([("exact", 400, 1.0)],
                                    counts={400: moved}))
            self.assertEqual(proc.returncode, 1, field)
            self.assertIn(f"{field}@400", proc.stderr)
            for other in set(self.WORK_400) - {field}:
                self.assertNotIn(f"{other}@400", proc.stderr)

    def test_work_count_missing_fails(self):
        for field in ("swarm_draws", "completions_kept",
                      "completions_rescheduled"):
            partial = dict(self.WORK_400)
            del partial[field]
            proc = run_gate(self.work_baseline(),
                            results([("exact", 400, 1.0)],
                                    counts={400: partial}))
            self.assertEqual(proc.returncode, 1, field)
            self.assertIn(f"no {field} count", proc.stderr)

    def test_checked_in_baselines_pin_every_timed_rung(self):
        here = os.path.dirname(os.path.abspath(__file__))
        for name in ("perf_smoke.json", "perf_full.json"):
            path = os.path.join(here, "..", "bench", "baselines", name)
            with open(path, encoding="utf-8") as f:
                b = json.load(f)
            self.assertEqual(set(b["fingerprints"]),
                             set(b["exact_wall_seconds"]), name)
            for key, fp in b["fingerprints"].items():
                self.assertRegex(fp, r"^[0-9a-f]{16}$", f"{name} @ {key}")
            self.assertEqual(set(b["events"]),
                             set(b["exact_wall_seconds"]), name)
            for field in PINNED_COUNTS:
                self.assertEqual(set(b[field]),
                                 set(b["exact_wall_seconds"]),
                                 f"{name} {field}")
                for key, count in b[field].items():
                    self.assertIsInstance(count, int, f"{name} @ {key}")
                    self.assertGreater(count, 0, f"{name} @ {key}")

    # --- benchmark families ------------------------------------------------

    def test_unknown_family_is_accepted_with_note(self):
        # A brand-new bench (serve_load) lands before its baseline exists:
        # the gate must accept the run and say how to arm it, not fail
        # per-key against perf_scale's divisors.
        proc = run_gate(baseline({"400": 10.0}),
                        results([("exact", 4000, 99.0)], bench="serve_load"))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("no baseline recorded for bench family 'serve_load'",
                      proc.stdout)
        self.assertIn("families.serve_load", proc.stdout)

    def test_known_family_is_gated_strictly(self):
        b = baseline({"400": 10.0})
        b["families"] = {"serve_load": {"max_ratio": 2.0,
                                        "exact_wall_seconds": {"4000": 5.0}}}
        ok = run_gate(b, results([("exact", 4000, 6.0)], bench="serve_load"))
        self.assertEqual(ok.returncode, 0, ok.stderr)
        self.assertIn("perf smoke [serve_load]", ok.stdout)
        slow = run_gate(b, results([("exact", 4000, 25.0)],
                                   bench="serve_load"))
        self.assertEqual(slow.returncode, 1)
        self.assertIn("REGRESSED", slow.stdout)

    def test_known_family_missing_key_still_fails(self):
        # Per-key strictness is not loosened for families that DO have a
        # baseline: a recorded divisor with no measured run is an error.
        b = baseline({"400": 10.0})
        b["families"] = {"serve_load": {"exact_wall_seconds": {"4000": 5.0}}}
        proc = run_gate(b, results([("exact", 8000, 1.0)],
                                   bench="serve_load"))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("baseline divisor 4000 has no exact-mode run",
                      proc.stderr)

    def test_absent_bench_field_means_perf_scale(self):
        proc = run_gate(baseline({"400": 10.0}),
                        results([("exact", 400, 12.0)]))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("perf smoke [perf_scale]", proc.stdout)

    # --- value windows and required keys (the serve_load family) -----------

    @staticmethod
    def serve_baseline():
        return {
            "max_ratio": 2.0,
            "exact_wall_seconds": {"400": 10.0},
            "families": {"serve_load": {
                "values": {"knee_tasks_per_sec":
                           {"ref": 0.008, "min_ratio": 0.75,
                            "max_ratio": 1.25}},
                "require": {"knee_found": True,
                            "acceptance.saturation_reached": True},
            }},
        }

    @staticmethod
    def serve_results(knee=0.008, knee_found=True, saturated=True):
        return {"bench": "serve_load", "knee_tasks_per_sec": knee,
                "knee_found": knee_found,
                "acceptance": {"saturation_reached": saturated}}

    def test_serve_family_within_windows_passes(self):
        # No exact-mode runs at all: the family gates on result keys alone,
        # and the "no runs matched" error must not fire.
        proc = run_gate(self.serve_baseline(), self.serve_results())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("perf smoke [serve_load]: 3 check(s)", proc.stdout)

    def test_value_outside_window_fails_naming_key(self):
        # One rung shift in the ladder doubles the knee rate; the 1.25x
        # window must catch it.
        proc = run_gate(self.serve_baseline(), self.serve_results(knee=0.016))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSED", proc.stdout)
        self.assertIn("knee_tasks_per_sec", proc.stderr)

    def test_missing_value_key_fails(self):
        res = self.serve_results()
        del res["knee_tasks_per_sec"]
        proc = run_gate(self.serve_baseline(), res)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no numeric value", proc.stderr)

    def test_required_key_mismatch_fails(self):
        proc = run_gate(self.serve_baseline(),
                        self.serve_results(saturated=False))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("acceptance.saturation_reached", proc.stderr)

    def test_missing_required_key_fails(self):
        # A nested acceptance verdict disappearing from the bench output
        # must disarm loudly, not silently.
        res = self.serve_results()
        del res["acceptance"]
        proc = run_gate(self.serve_baseline(), res)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("required key 'acceptance.saturation_reached' is "
                      "absent", proc.stderr)


if __name__ == "__main__":
    unittest.main()
