"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steadiness.py --workload algebra-trials --seeds 0 1 2 3 4

Spread is the distance between the first and third quartile of the
end-to-end values, as ``statistics.quantiles(values, n=4)`` gives them,
divided by their median. Each spread is compared with a third of the
metric's bound in BENCHMARK.json. Raw results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print("seed %d: exit %d" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)

    print("%-14s %12s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    steady = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) > 1 else 0.0
        steady &= name == "setup_s" or s < bound / 3
        print("%-14s %12.5g %8.4f %8.4f" % (name, statistics.median(values),
                                            s, bound / 3))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
