#!/usr/bin/env python3
"""Benchmark of the p2pgrid simulator (notes: perfbench/README.md).

    python3 perfbench/run.py --workload rntree-steady --seed 1 --seconds 45 --trace 0

Run from the repository root. Builds perfbench_driver (Release) into
.bench_build, runs it on the named workload and prints a human-readable
report followed, as the last line of standard output, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, measured with tracing off; with --trace 1 they are the
per-layer ones from a traced run.

Exit status: 0 on success; 1 when an output, determinism or trace-neutrality
check failed (the JSON then says "correct": false); 2, without a JSON line,
when the driver could not be built or a run produced no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# A run stops starting processes once DEADLINE_S have gone, whatever
# --seconds says, and kills a process still running at HARD_LIMIT_S, so that
# it ends within three minutes.
DEADLINE_S = 120.0
HARD_LIMIT_S = 175.0

LAYERS = ("chord", "can", "rntree", "grid")
MEM_CLASSES = ("sim_events", "msg_pool", "overlay_tables", "grid_state",
               "rpc_pending", "trace_ring", "metrics")


class BenchError(Exception):
    """A failure that leaves no result to report."""


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
              "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def replicates():
    """Workload name -> independent draws per run, from the driver.

    A draw's makespan is set by its longest job, so one draw's run time and
    wire cost move between seeds; combining draws makes a run's figures steady.
    """
    out = subprocess.run([DRIVER, "--list=1"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return {name: int(count) for name, count in
            (line.split() for line in out.splitlines())}


def run_driver(workload, seed, replicate, traced, timeout):
    cmd = [DRIVER, f"--workload={workload}", f"--seed={seed}",
           f"--replicate={replicate}", f"--trace={int(traced)}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def fingerprint(run):
    """Everything simulated: equal for equal (workload, seed, replicate)."""
    return run["stats"], run["waits"]


def quantile(sorted_values, q):
    """Linear interpolation, as Samples::quantile in src/common/stats.h."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


class Runs:
    """Driver processes of one benchmark run, with the cross-run checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.first = {}  # replicate -> its first untraced run
        self.all = []
        self.violations = []

    def elapsed(self):
        return time.monotonic() - self.started

    def run(self, replicate, traced):
        run = run_driver(self.workload, self.seed, replicate, traced,
                         max(1.0, HARD_LIMIT_S - self.elapsed()))
        tag = f"replicate {replicate}{' traced' if traced else ''}"
        self.violations += [f"{tag}: {v}" for v in run["violations"]]
        # Same seed, same simulation: repeats and traced runs must agree
        # with the first untraced run of the replicate.
        reference = self.first.setdefault(replicate, run)
        if fingerprint(run) != fingerprint(reference):
            self.violations.append(
                f"{tag}: simulated statistics differ from an earlier run of "
                f"the same seed")
        self.all.append(run)
        return run

    def setup_medians(self):
        def med(key):
            return statistics.median(x for r in self.all for x in r[key])
        return med("setup_s"), med("generate_s"), med("build_s")


def end_to_end(runs, seconds, replicates):
    """Untraced runs: every replicate once, then repeats until --seconds."""
    for r in range(replicates):
        runs.run(r, False)
    repeat = 0
    # At least one repeat, so that determinism is checked on every run.
    while repeat == 0 or runs.elapsed() < min(seconds, DEADLINE_S):
        runs.run(repeat % replicates, False)
        repeat += 1

    draws = []
    for r in range(replicates):
        mine = [x for x in runs.all if x["replicate"] == r]
        stats = mine[0]["stats"]
        run_s = statistics.median(x["run_s"] for x in mine)
        draws.append({
            "run_s": run_s,
            "events_per_s": stats["events"] / run_s,
            "rss": statistics.median(x["peak_rss_mb"] for x in mine),
            "wait_mean": statistics.fmean(mine[0]["waits"]),
            "msgs_per_job": stats["msgs_sent"] / mine[0]["jobs"],
            "bytes_per_job": stats["bytes_sent"] / mine[0]["jobs"],
            "jobs": mine[0]["jobs"],
            "completed": stats["jobs_completed"],
            "waits": mine[0]["waits"],
        })
    jobs = sum(d["jobs"] for d in draws)
    completed = sum(d["completed"] for d in draws)
    waits = sorted(w for d in draws for w in d["waits"])

    # Per-draw figures are combined by their median: under churn a few draws
    # in a run cost several times the others, and the median over draws moves
    # about half as much between seeds as the mean does. Wait quantiles are
    # taken over the jobs of all draws, so p99 has enough samples beyond it.
    def median(key):
        return statistics.median(d[key] for d in draws)

    metrics = {
        "setup_s": (runs.setup_medians()[0], "s"),
        "run_s": (median("run_s"), "s"),
        "events_per_s": (median("events_per_s"), "1/s"),
        "peak_rss_mb": (median("rss"), "MB"),
        "job_wait_mean_s": (median("wait_mean"), "s"),
        "job_wait_p50_s": (quantile(waits, 0.5), "s"),
        "job_wait_p99_s": (quantile(waits, 0.99), "s"),
        "jobs_completed_frac": (completed / jobs, "ratio"),
        "wire_msgs_per_job": (median("msgs_per_job"), "msg/job"),
        "wire_bytes_per_job": (median("bytes_per_job"), "B/job"),
    }
    return metrics, jobs, jobs - completed


def per_layer(runs, seconds):
    """Pairs of untraced and traced runs of replicate 0 until --seconds."""
    pairs = []
    while not pairs or (runs.elapsed() < seconds and runs.elapsed() < DEADLINE_S):
        pairs.append((runs.run(0, False), runs.run(0, True)))
    traced = [t for _, t in pairs]
    run = traced[0]
    stats = run["stats"]

    def med(f):
        return statistics.median(f(t) for t in traced)

    handler = {l: med(lambda t, l=l: t["layers"][l]["handler_s"]) for l in LAYERS}
    traced_run_s = med(lambda t: t["run_s"])
    attributed = sum(handler.values())
    _, generate_s, build_s = runs.setup_medians()
    sent = stats["msgs_sent"]
    metrics = {
        "workload.generate_s": (generate_s, "s"),
        "grid.build_s": (build_s, "s"),
        "sim.events": (stats["events"], "count"),
        "sim.queue_peak": (stats["queue_peak"], "count"),
        "sim.tombstone_peak": (stats["tombstone_peak"], "count"),
        "sim.other_s": (traced_run_s - attributed, "s"),
        "net.msgs_sent": (sent, "count"),
        "net.bytes_sent": (stats["bytes_sent"], "B"),
        "net.delivered_frac": (stats["msgs_delivered"] / sent if sent else 1.0, "ratio"),
        "net.dropped_dead": (stats["dropped_dead"], "count"),
        "net.batches_sent": (stats["batches_sent"], "count"),
        "net.batch_parts_sent": (stats["batch_parts_sent"], "count"),
        "net.pool_reuse_frac": (run["pool_reuse_frac"], "ratio"),
        "can.pushes": (stats["can_pushes"], "count"),
        "can.forwards": (stats["can_forwards"], "count"),
        "can.routes_failed": (stats["can_routes_failed"], "count"),
        "rntree.match_hops_mean": (stats["match_hops_mean"], "hops"),
        "grid.injection_hops_mean": (stats["injection_hops_mean"], "hops"),
        "grid.requeues": (stats["requeues"], "count"),
        "grid.resubmissions": (stats["resubmissions"], "count"),
        "grid.owner_recoveries": (stats["owner_recoveries"], "count"),
        "grid.run_recoveries": (stats["run_recoveries"], "count"),
        "metrics.bytes": (run["metrics_bytes"], "B"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead": (statistics.median(t["run_s"] / u["run_s"] for u, t in pairs), "ratio"),
        "trace.attributed_frac": (attributed / traced_run_s, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.msgs"] = (run["layers"][layer]["calls"], "count")
        metrics[f"{layer}.handler_s"] = (handler[layer], "s")
    for cls in MEM_CLASSES:
        metrics[f"mem.{cls}_bytes"] = (run["mem"][cls], "B")
    return metrics, run["jobs"], run["jobs"] - stats["jobs_completed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        draws = replicates()
        if args.workload not in draws:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(sorted(draws))}")
        runs = Runs(args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed = per_layer(runs, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(
                runs, args.seconds, draws[args.workload])
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    first = runs.all[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{first['build_type']} build, {first['compiler']}, "
          f"nproc={first['nproc']}, {first['nodes']} nodes, "
          f"{first['jobs']} jobs per replicate, {len(runs.all)} driver runs "
          f"in {runs.elapsed():.1f} s; jobs: {attempted} submitted, "
          f"{attempted - failed} completed, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    if args.trace:
        print(f"  attributed: sum of layer handler_s / traced run_s = "
              f"{metrics['trace.attributed_frac'][0]:.3f}, "
              f"unattributed sim.other_s = {metrics['sim.other_s'][0]:.3f} s")
    for v in runs.violations:
        print(f"  CHECK FAILED: {v}")
    correct = not runs.violations
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
