"""formaldisk benchmark: one seeded workload per call, timed and checked.

    python3 bench/run.py --workload twisted-taylor --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; it imports formaldisk from
``src/``. Every workload runs in fresh interpreters started here: a few
that only set up (to measure set-up time) and one that also runs the timed
passes. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. The lines before it name every metric with its unit and
record the environment. The exit code is 0 only when every op passed its
check. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# names only: this process imports neither formaldisk nor numpy, so that
# the set-up time it measures is the child's alone
WORKLOADS = ("twisted-taylor", "algebra-trials", "mc-integrate")
SETUP_ONLY_RUNS = 10
BUDGET_S = 170.0       # the whole call, so that it ends well within 180 s


class BenchError(Exception):
    pass


def start_child(args, scratch, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--started", repr(time.monotonic())]
    # a session of its own, so that a timeout can stop its pool workers too
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)


def run_child(args, scratch, deadline, setup_only=False):
    proc = start_child(args, scratch, setup_only)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload process exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError("workload process exited with %d" % proc.returncode)
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(p / 100.0 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers every reaped
    # descendant, pool workers included
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def latencies(ops):
    """Latency per op: the median of its timings in the run."""
    timings = {}
    for _, label, t, _ in ops:
        timings.setdefault(label, []).append(t)
    return sorted(statistics.median(ts) for ts in timings.values())


def end_to_end(main, setups):
    """End-to-end metrics as name -> (value, unit, note)."""
    times = latencies(main["ops"])
    per_pass = main["ops_per_pass"]
    # the highest percentile with ten ops of every pass beyond it; a pass
    # of fewer than 20 ops has no such tail and reports its slowest op
    tail_p = 100.0 * (1.0 - 10.0 / per_pass) if per_pass >= 20 else 100.0
    passes = main["passes"]
    return {
        "setup_s": (statistics.median(setups), "s",
                    "median of %d set-ups" % len(setups)),
        "wall_s": (statistics.median(passes), "s",
                   "median of %d passes of %d ops" % (len(passes), per_pass)),
        "op_p50_ms": (1e3 * statistics.median(times), "ms",
                      "median of %d ops" % len(times)),
        "op_tail_ms": (1e3 * percentile(times, tail_p), "ms",
                       "p%.1f of %d ops" % (tail_p, len(times))),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process and its children"),
    }


def workload_metrics(main):
    """Figures that only one workload has; printed, not gated."""
    by_group = {}
    for group, _, t, _ in main["ops"]:
        by_group.setdefault(group, []).append(t)
    out = {}
    if "headline" in by_group:
        out["headline_s"] = (statistics.median(by_group["headline"]), "s",
                             "d=4 s=4 |gamma|=4")
    work = main.get("work", {})
    for group, name in (("1w", "mc_samples_per_s_1w"),
                        ("nw", "mc_samples_per_s_nw")):
        if group in by_group:
            rate = work["samples"] * len(by_group[group]) / sum(by_group[group])
            out[name] = (rate, "1/s", "%d worker(s)" % work["workers"][group])
    return out


def print_metrics(kind, metrics):
    for name, (value, unit, note) in metrics.items():
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("%-7s %-40s %14s %-6s %s" % (kind, name, shown, unit, note))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "formaldisk", "__init__.py")):
        print("bench: no formaldisk sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_run"))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setups.append(run_child(args, scratch, deadline, True)["setup_s"])
        main_run = run_child(args, scratch, deadline)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass
    setups.append(main_run["setup_s"])

    ops = main_run["ops"] + main_run.get("traced_ops", [])
    failed = sum(1 for *_, ok in ops if not ok)
    idle = main_run.get("idle_hot_layers", [])
    env = dict(main_run["env"], cores=len(os.sched_getaffinity(0)),
               commit=git_commit(), seed=args.seed)
    print("bench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        metrics = {name: (value, unit, "")
                   for name, (value, unit) in main_run["per_layer"].items()}
        print_metrics("layer", metrics)
        extra = {}
    else:
        metrics = end_to_end(main_run, setups)
        print_metrics("metric", metrics)
        extra = workload_metrics(main_run)
        extra["ops_failed_frac"] = (failed / len(ops), "ratio", "")
        print_metrics("report", extra)
    for layer in idle:
        print("bench: layer %s is predicted hot on %s but recorded no calls"
              % (layer, args.workload), file=sys.stderr)
    correct = failed == 0 and not idle
    print("record " + json.dumps(
        {"workload": args.workload, "env": env,
         "metrics": {k: v[0] for k, v in {**metrics, **extra}.items()}},
        sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
