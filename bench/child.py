"""One workload in a fresh interpreter; started by run.py, not by hand.

Builds the workload's inputs from the seed, runs one warm-up op, and
reports the set-up time measured from the moment run.py started this
interpreter. Unless ``--setup-only`` is given, it then runs passes of ops
until ``--seconds`` would be exceeded (always at least one pass) and, with
``--trace 1``, one more traced pass of the same ops as the first. The
result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import formaldisk  # noqa: E402
import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, index, ops, tracer=None):
    """Run one pass; append (group, label, seconds, ok) per op; return its time."""
    gc.collect()
    start = perf_counter()
    for op in workload.pass_ops(index):
        if tracer is not None:
            tracer.group = op.group
        t0 = perf_counter()
        try:
            ok = bool(op.run())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        ops.append((op.group, op.label, perf_counter() - t0, ok))
        if not ok:
            print("op failed its check: %s %s" % (workload.name, op.label),
                  file=sys.stderr)
    return perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    workload.warm_up()
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s,
              "env": {"python": platform.python_version(),
                      "numpy": numpy.__version__,
                      "formaldisk": formaldisk.__version__}}
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return 0

    ops, passes = [], []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes), ops))
        if len(passes) == 1:
            # distinct ops in a pass; an op run more than once is one op
            ops_per_pass = len({label for _, label, _, _ in ops})
        elapsed = perf_counter() - start
        if elapsed + statistics.median(passes) > args.seconds:
            break
    result.update(ops=ops, passes=passes, ops_per_pass=ops_per_pass,
                  work=getattr(workload, "work", {}))

    if args.trace:
        tracer = tracing.Tracer()
        traced_ops = []
        tracer.install(extra_modules=[workloads])
        try:
            traced_s = run_pass(workload, 0, traced_ops, tracer)
        finally:
            tracer.restore()
        idle = [layer for layer in workload.hot_layers
                if tracer.layer_calls(layer) == 0]
        result.update(
            traced_ops=traced_ops, idle_hot_layers=idle,
            per_layer=tracing.per_layer_metrics(tracer, traced_s / passes[0]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
