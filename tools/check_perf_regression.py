#!/usr/bin/env python3
"""Gate benchmark results against the checked-in perf baseline.

Reads a bench's JSON output and compares every exact-mode run's wall
seconds against bench/baselines/perf_smoke.json. Fails (exit 1) if any
divisor regressed by more than the baseline's max_ratio (2x by default) —
generous enough to absorb runner jitter, tight enough that an accidental
return to the quadratic solver (a >5x slowdown at divisor 100) can never
slip through CI.

The baseline can carry several benchmark FAMILIES (keyed by the results'
"bench" field; an absent field means perf_scale, the original family). A
family that has no baseline recorded yet is accepted with a note instead
of failing per-key: a new bench must be able to land before its reference
numbers exist, without loosening per-key strictness inside families that
do have a baseline — within a known family, a baseline divisor with no
measured run is still a hard failure.

Besides wall seconds, a family spec may gate arbitrary result keys (dotted
paths into the results JSON):

  "values":  {"knee_tasks_per_sec": {"ref": 0.008,
                                     "min_ratio": 0.75, "max_ratio": 1.25}}
  "require": {"knee_found": true, "acceptance.saturation_reached": true}

"values" keys must land within [ref*min_ratio, ref*max_ratio]; "require"
keys must compare equal. Both are per-key strict: a baseline key with no
value in the results is a hard failure, exactly like a missing divisor —
a bench output rename must never silently disarm the gate. serve_load uses
these to pin the saturation-knee offered rate and the acceptance verdicts
(conservation, saturation, deterministic rerun, telemetry conservation) of
the live-service ladder, which are simulated — hence deterministic —
quantities, so their windows can be far tighter than wall-clock ratios.

A family may also budget memory with "rss_ceiling_bytes": a per-divisor
ABSOLUTE ceiling on the exact-mode run's peak_rss_bytes. Ceilings, not
ratios: peak RSS of a deterministic replay is stable run to run (the
recorded ceilings carry ~1.5x headroom over measured), and the failure
mode being guarded — the flow plane or event queue regressing from pooled
slabs back to per-object heap churn — shows up as a multiplicative jump
that no jitter allowance should absorb. Per-key strict like everything
else: a baseline divisor with no measured run, or a measured run missing
peak_rss_bytes, is a hard failure.

A family may also pin "fingerprints": a per-divisor outcome fingerprint
that the exact-mode run must report verbatim. The fingerprint hashes every
task outcome of the replay, so a change means the simulation changed, not
that it got slower; a pinned divisor with no measured run, or a run with
no fingerprint field, is a hard failure like a missing wall-seconds key.

A family may pin "events" the same way: a per-divisor count of simulator
events the exact-mode run executed, which must match exactly. The count is
a pure function of divisor and seed, so it pins the work a week does, not
only its outcome: a change that keeps every outcome but wakes tasks more
often moves it. A missing count or divisor is a hard failure. "solver_runs"
and "solver_iterations" pin the flow solver's work the same way: the full
solves a week runs and their water-filling steps, so a change that keeps
every outcome but re-solves more often, or solves differently, fails.
The wakes of download tasks by source class ("ticks_server",
"ticks_swarm_seedless", "ticks_swarm_seeded"), the swarms' rng draws
("swarm_draws") and the flow plane's fast-path rate updates
("fast_path_updates") are pinned alike; PINNED_COUNTS lists every such
field.

Usage:
  tools/check_perf_regression.py --baseline bench/baselines/perf_smoke.json \
      --results BENCH_perf_scale.json
"""

import argparse
import json
import sys

# Exact per-divisor work counts a family may pin: pure functions of divisor
# and seed, so a measured run must match each one verbatim.
PINNED_COUNTS = (
    "events",
    "solver_runs",
    "solver_iterations",
    "ticks_server",
    "ticks_swarm_seedless",
    "ticks_swarm_seeded",
    "swarm_draws",
    "fast_path_updates",
)


def load_families(baseline):
    """Returns {family: {max_ratio, exact_wall_seconds}} from the baseline.

    Legacy layout (top-level exact_wall_seconds) is the perf_scale family;
    a "families" object adds or overrides further families.
    """
    families = {}
    if "exact_wall_seconds" in baseline:
        families["perf_scale"] = {
            "max_ratio": baseline.get("max_ratio", 2.0),
            "exact_wall_seconds": baseline["exact_wall_seconds"],
            "rss_ceiling_bytes": baseline.get("rss_ceiling_bytes", {}),
            "fingerprints": baseline.get("fingerprints", {}),
            **{field: baseline.get(field, {}) for field in PINNED_COUNTS},
            "values": {},
            "require": {},
        }
    for name, spec in baseline.get("families", {}).items():
        families[name] = {
            "max_ratio": spec.get("max_ratio", baseline.get("max_ratio", 2.0)),
            "exact_wall_seconds": spec.get("exact_wall_seconds", {}),
            "rss_ceiling_bytes": spec.get("rss_ceiling_bytes", {}),
            "fingerprints": spec.get("fingerprints", {}),
            **{field: spec.get(field, {}) for field in PINNED_COUNTS},
            "values": spec.get("values", {}),
            "require": spec.get("require", {}),
        }
    return families


_MISSING = object()


def lookup(results, path):
    """Resolves a dotted path ("acceptance.telemetry") into the results."""
    cur = results
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return _MISSING
        cur = cur[part]
    return cur


def check_pinned(results, results_path, field, what, reference, valid):
    """Holds each pinned divisor's exact run's `field` to `reference`.

    Returns (divisors checked, failure keys, pinned divisors with no run).
    A run whose field fails `valid` is a failure naming `what`.
    """
    checked = set()
    failures = []
    for run in results.get("runs", []):
        if run.get("mode") != "exact":
            continue
        key = "%g" % run["divisor"]
        if key not in reference:
            continue
        checked.add(key)
        measured = run.get(field)
        if not valid(measured):
            print(f"error: exact-mode run at divisor {key} has no "
                  f"{what} in {results_path} — field missing or "
                  f"renamed", file=sys.stderr)
            failures.append(f"{field}@{key}")
            continue
        ok = measured == reference[key]
        print(f"divisor {key:>6}: {field} {measured} vs pinned "
              f"{reference[key]} {'OK' if ok else 'CHANGED'}")
        if not ok:
            failures.append(f"{field}@{key}")
    missing = sorted(set(reference) - checked, key=float)
    for key in missing:
        print(f"error: {field} divisor {key} has no exact-mode run in "
              f"{results_path} — measured run missing or renamed",
              file=sys.stderr)
    return checked, failures, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON")
    parser.add_argument("--results", required=True,
                        help="bench JSON output from this run")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.results, encoding="utf-8") as f:
        results = json.load(f)

    family = str(results.get("bench", "perf_scale"))
    families = load_families(baseline)
    if family not in families:
        print(f"note: no baseline recorded for bench family '{family}' — "
              f"accepting this run; record reference numbers under "
              f"families.{family} in {args.baseline} to arm the gate")
        return 0

    spec = families[family]
    max_ratio = float(spec["max_ratio"])
    reference = {str(k): float(v)
                 for k, v in spec["exact_wall_seconds"].items()}

    checked = set()
    failures = []
    for run in results.get("runs", []):
        if run.get("mode") != "exact":
            continue
        key = "%g" % run["divisor"]
        if key not in reference:
            continue
        checked.add(key)
        wall = float(run["wall_seconds"])
        ref = reference[key]
        ratio = wall / ref if ref > 0 else float("inf")
        status = "OK" if ratio <= max_ratio else "REGRESSED"
        print(f"divisor {key:>6}: {wall:8.2f} s vs baseline {ref:8.2f} s "
              f"({ratio:.2f}x, limit {max_ratio:.1f}x) {status}")
        if ratio > max_ratio:
            failures.append(key)

    # Every baseline divisor must have been measured: a silently-skipped
    # key would let a bench config change (or a renamed divisor) disable
    # the gate without anyone noticing.
    missing = sorted(set(reference) - checked, key=float)
    for key in missing:
        print(f"error: baseline divisor {key} has no exact-mode run in "
              f"{args.results} — measured run missing or renamed",
              file=sys.stderr)

    # Memory budget: absolute per-divisor ceilings on exact-mode peak RSS.
    rss_reference = {str(k): float(v)
                     for k, v in spec["rss_ceiling_bytes"].items()}
    rss_checked = set()
    rss_failures = []
    rss_missing_field = []
    for run in results.get("runs", []):
        if run.get("mode") != "exact":
            continue
        key = "%g" % run["divisor"]
        if key not in rss_reference:
            continue
        if not isinstance(run.get("peak_rss_bytes"), (int, float)) or \
                isinstance(run.get("peak_rss_bytes"), bool):
            print(f"error: exact-mode run at divisor {key} has no "
                  f"peak_rss_bytes in {args.results} — field missing or "
                  f"renamed", file=sys.stderr)
            rss_missing_field.append(key)
            continue
        rss_checked.add(key)
        rss = float(run["peak_rss_bytes"])
        ceiling = rss_reference[key]
        ok = rss <= ceiling
        print(f"divisor {key:>6}: peak RSS {rss / 2**20:8.1f} MiB vs ceiling "
              f"{ceiling / 2**20:8.1f} MiB {'OK' if ok else 'OVER BUDGET'}")
        if not ok:
            rss_failures.append(f"rss@{key}")
    rss_missing = sorted(set(rss_reference) - rss_checked -
                         set(rss_missing_field), key=float)
    for key in rss_missing:
        print(f"error: RSS-ceiling divisor {key} has no exact-mode run in "
              f"{args.results} — measured run missing or renamed",
              file=sys.stderr)

    # Fingerprints and work counts: each pinned divisor's exact run must
    # report them verbatim.
    fp_checked, fp_failures, fp_missing = check_pinned(
        results, args.results, "fingerprint", "fingerprint",
        {str(k): str(v) for k, v in spec["fingerprints"].items()},
        lambda v: isinstance(v, str))
    ev_checked, ev_failures, ev_missing = set(), [], []
    for field in PINNED_COUNTS:
        checked_f, failures_f, missing_f = check_pinned(
            results, args.results, field, f"{field} count",
            {str(k): int(v) for k, v in spec[field].items()},
            lambda v: isinstance(v, int) and not isinstance(v, bool))
        ev_checked |= {f"{field}@{key}" for key in checked_f}
        ev_failures += failures_f
        ev_missing += missing_f

    # Value windows: deterministic result keys held to [ref*min, ref*max].
    value_checks = 0
    value_failures = []
    for path, vspec in sorted(spec["values"].items()):
        measured = lookup(results, path)
        if not isinstance(measured, (int, float)) or isinstance(measured, bool):
            print(f"error: baseline value key '{path}' has no numeric value "
                  f"in {args.results} — output key missing or renamed",
                  file=sys.stderr)
            value_failures.append(path)
            continue
        value_checks += 1
        ref = float(vspec["ref"])
        lo = ref * float(vspec.get("min_ratio", 1.0 / max_ratio))
        hi = ref * float(vspec.get("max_ratio", max_ratio))
        ok = lo <= float(measured) <= hi
        print(f"{path}: {measured:g} vs baseline {ref:g} "
              f"(window [{lo:g}, {hi:g}]) {'OK' if ok else 'REGRESSED'}")
        if not ok:
            value_failures.append(path)

    # Required keys: acceptance verdicts that must compare equal.
    require_checks = 0
    require_failures = []
    for path, expected in sorted(spec["require"].items()):
        measured = lookup(results, path)
        if measured is _MISSING:
            print(f"error: required key '{path}' is absent from "
                  f"{args.results} — output key missing or renamed",
                  file=sys.stderr)
            require_failures.append(path)
            continue
        require_checks += 1
        ok = measured == expected
        print(f"{path}: {measured!r} (required {expected!r}) "
              f"{'OK' if ok else 'FAILED'}")
        if not ok:
            require_failures.append(path)

    if (missing or value_failures or require_failures or rss_missing or
            rss_missing_field or fp_missing or fp_failures or ev_missing or
            ev_failures):
        bad = (failures + value_failures + require_failures + rss_failures +
               fp_failures + ev_failures)
        if bad:
            print(f"perf regression at key(s): {', '.join(bad)}",
                  file=sys.stderr)
        return 1
    if (not checked and value_checks == 0 and require_checks == 0 and
            not rss_checked and not fp_checked and not ev_checked):
        print("error: no runs or result keys matched the baseline",
              file=sys.stderr)
        return 1
    if failures or rss_failures:
        print("perf regression at key(s): "
              f"{', '.join(failures + rss_failures)}", file=sys.stderr)
        return 1
    total = (len(checked) + value_checks + require_checks +
             len(rss_checked) + len(fp_checked) + len(ev_checked))
    print(f"perf smoke [{family}]: {total} check(s) within baseline "
          f"(limit {max_ratio:.1f}x on wall seconds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
