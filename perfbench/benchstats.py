"""Reduction of perfbench's raw samples to the benchmark's metrics.

Pure functions over the JSON object the perfbench binary prints, kept apart
from run.py so test_benchstats.py can check the math without building or
running anything.
"""

import itertools
import math
import statistics
from fractions import Fraction

# Percentiles a timing tail may be reported at, lowest first.
TAIL_CANDIDATES = ("50", "90", "99", "99.9")
# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
# CPU seconds of one yardstick pass (perfbench.cpp) on the 4-core x86 VM
# the bounds were set on, in a calm phase. End-to-end timings are reported
# as if the machine ran at that speed.
YARDSTICK_S = 0.025

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "checkpoint_ms_p50": "ms",
    "checkpoint_ms_p90": "ms",
    "restore_s": "s",
}

PER_LAYER_UNITS = {
    "net.solves_per_task": "solves/task",
    "net.rounds_per_solve": "rounds/solve",
    "net.rounds_per_task": "rounds/task",
    "net.component_flows_p50": "flows",
    "net.component_flows_p99": "flows",
    "net.flow_cancel_ratio": "ratio",
    "sim.events_per_task": "events/task",
    "sim.ns_per_event": "ns",
    "sim.run_share": "ratio",
    "proto.swarm_ticks_per_task": "ticks/task",
    "ap.predownloads": "count",
    "core.route_share.cloud": "ratio",
    "core.route_share.ap": "ratio",
    "core.route_share.hybrid": "ratio",
    "core.reroutes": "count",
    "cloud.cache_hit_ratio": "ratio",
    "cloud.upload_admit_ratio": "ratio",
    "cloud.vm_tasks_per_task": "vm_tasks/task",
    "calibration.gated_pass": "count",
    "workload.build_s": "s",
    "snapshot.save_ms_p50": "ms",
    "snapshot.hash_ms_p50": "ms",
    "snapshot.audit_ms_p50": "ms",
    "snapshot.bytes_per_checkpoint": "B",
    "snapshot.restore_s": "s",
    "snapshot.host_share": "ratio",
    "analysis.finalize_s": "s",
    "obs.overhead_ratio": "ratio",
}


def beyond(n, p):
    """Samples strictly above the p-th percentile rank of n samples."""
    return n - math.ceil(n * Fraction(p) / 100)


def tail_percentile(n):
    """The highest candidate percentile with MIN_BEYOND samples beyond it,
    as a float, or None when not even the median qualifies."""
    best = None
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            best = float(p)
    return best


def percentile(xs, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    rank = (len(s) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def ratio(num, den):
    """num / den, or 0.0 when the base is empty (e.g. no solves at all)."""
    return num / den if den > 0 else 0.0


def untraced(raw):
    return [r for r in raw["reps"] if not r["traced"]]


def traced(raw):
    return [r for r in raw["reps"] if r["traced"]]


def by_seed(reps, key):
    """Each workload seed's values of `key`, one per repetition."""
    groups = {}
    for r in reps:
        groups.setdefault(r["seed"], []).append(r[key])
    return list(groups.values())


def tasks_per_s(reps):
    """The panel's tasks over its CPU seconds from build start to finalize
    end. Each workload seed counts once, with the mean time of its
    repetitions, however often a run replayed it. A mean over the whole
    panel, not a median of per-seed rates: the seeds differ in cost, and a
    median would follow whichever seed happens to sit in the middle."""
    tasks = sum(v[0] for v in by_seed(reps, "tasks"))
    seconds = sum(statistics.fmean(v) for v in by_seed(reps, "total_s"))
    return tasks / seconds


def seed_mean(reps, key):
    """The median of each seed's samples of the list `key`, then the mean
    over the seeds: every seed weighs once, and one odd sample does not move
    its seed."""
    return statistics.fmean(
        statistics.median(itertools.chain.from_iterable(v))
        for v in by_seed(reps, key))


def slowdown(reps):
    """How much slower than nominal the machine ran during `reps`: their
    median yardstick pass over YARDSTICK_S."""
    return statistics.median(itertools.chain.from_iterable(
        r["yardstick_s"] for r in reps)) / YARDSTICK_S


def end_to_end(raw):
    """The end-to-end metrics of an untraced run. Each repetition's time is
    divided by the slowdown the yardstick read right after it, every
    sample timing by the run's slowdown."""
    reps = untraced(raw)
    checkpoints = raw["checkpoint_ms"]
    tail = tail_percentile(len(checkpoints))
    if tail is None or tail < 90:
        raise ValueError(
            f"{len(checkpoints)} checkpoints leave fewer than {MIN_BEYOND} "
            "samples beyond p90")
    steady = [dict(r, total_s=r["total_s"] / slowdown([r])) for r in reps]
    run = slowdown(reps)
    return {
        "tasks_per_s": tasks_per_s(steady),
        "setup_s": seed_mean(reps, "setup_s") / run,
        "peak_rss_mib": raw["peak_rss_bytes"] / 2**20,
        "checkpoint_ms_p50": percentile(checkpoints, 50) / run,
        "checkpoint_ms_p90": percentile(checkpoints, 90) / run,
        "restore_s": seed_mean(reps, "restore_s") / run,
    }


def per_layer(raw):
    """The per-layer metrics of a traced run: counts from the traced
    repetitions, timings from the untraced ones they alternate with."""
    c = raw["counts"]
    tasks = c["tasks"]
    solves = c["net.solver.runs"]
    rounds = c["net.solver.iterations"]
    events = c["sim.events.executed"]
    plain = untraced(raw)

    def median_of(key):
        return statistics.median(r[key] for r in plain)

    def share(key):
        return statistics.median(r[key] / r["total_s"] for r in plain)

    return {
        "net.solves_per_task": ratio(solves, tasks),
        "net.rounds_per_solve": ratio(rounds, solves),
        "net.rounds_per_task": ratio(rounds, tasks),
        "net.component_flows_p50": c["net.solver.component_flows.p50"],
        "net.component_flows_p99": c["net.solver.component_flows.p99"],
        "net.flow_cancel_ratio": ratio(c["net.flows.cancelled"],
                                       c["net.flows.started"]),
        "sim.events_per_task": ratio(events, tasks),
        "sim.ns_per_event": ratio(median_of("run_s") * 1e9, events),
        "sim.run_share": share("run_s"),
        "proto.swarm_ticks_per_task": ratio(c["proto.swarm.ticks"], tasks),
        "ap.predownloads": c["ap.predownloads.submitted"],
        "core.route_share.cloud": ratio(c["core.routes.cloud"], tasks),
        "core.route_share.ap": ratio(c.get("core.routes.ap", 0), tasks),
        "core.route_share.hybrid": ratio(c.get("core.routes.hybrid", 0), tasks),
        "core.reroutes": c["core.executor.reroutes"],
        "cloud.cache_hit_ratio": ratio(c["cloud.tasks.cache_hits"],
                                       c["cloud.tasks.submitted"]),
        "cloud.upload_admit_ratio": ratio(
            c["cloud.upload.admitted"],
            c["cloud.upload.admitted"] + c["cloud.upload.rejected"] +
            c["cloud.upload.shed"]),
        "cloud.vm_tasks_per_task": ratio(c["cloud.vm.tasks.started"], tasks),
        "calibration.gated_pass": c.get("calibration.gated_pass", 0),
        "workload.build_s": statistics.median(raw["workload_build_s"]),
        "snapshot.save_ms_p50": percentile(raw["save_ms"], 50),
        "snapshot.hash_ms_p50": percentile(raw["hash_ms"], 50),
        "snapshot.audit_ms_p50": percentile(raw["audit_ms"], 50),
        "snapshot.bytes_per_checkpoint": statistics.median(raw["checkpoint_bytes"]),
        "snapshot.restore_s": seed_mean(plain, "restore_s"),
        "snapshot.host_share": share("snapshot_s"),
        "analysis.finalize_s": median_of("finalize_s"),
        # Base: the untraced repetitions of the same process.
        "obs.overhead_ratio": ratio(
            statistics.median(r["total_s"] for r in traced(raw)),
            median_of("total_s")),
    }


def attempted_failed(raw):
    """Tasks replayed, and tasks in repetitions that failed a check (all of
    them when a check outside the repetitions failed)."""
    attempted = sum(r["tasks"] for r in raw["reps"])
    if raw["process_failed"] or not raw["reps"]:
        return max(attempted, 1), max(attempted, 1)
    return attempted, sum(r["tasks"] for r in raw["reps"] if r["failed"])


def recorded_items(raw):
    """What must repeat exactly across runs of one build: fingerprints and,
    for traced runs, every work count."""
    items = {f"fingerprint.{k}": v for k, v in raw["fingerprints"].items()}
    items.update({f"count.{k}": v for k, v in raw["counts"].items()})
    return items


def disagreements(recorded, observed):
    """Keys whose observed value differs from an earlier run's record."""
    return sorted(k for k, v in observed.items()
                  if k in recorded and recorded[k] != v)
