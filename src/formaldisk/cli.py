"""Batch front-end: graphs, weights, verification suites, reports.

Exit codes: 0 success, 1 a verification suite failed, 2 refused input:
a bad number, an unreadable config or graph file, an unwritable --out.
All reports are UTF-8 JSON, stable for a fixed configuration except
for the "timings" field.  Each command checks its input, computes and
returns (report, exit code); on input it refuses it raises ValueError
or OSError, and main alone prints the error and writes the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .series import DEFAULT_CAP, TruncatedSeries
from .polyvector import PolyVectorField
from .graphs import (AdmissibleGraph, enumerate_graphs, gamma0, graph_count,
                     opposite_wheel)
from .weights import (check_seed, check_size, mc_weight, mc_weight_cached,
                      moduli_dimension, wheel_weight_closed)
from .formality import MaurerCartanData, closed_form_map, twisted_first_taylor
from . import suites as suites_mod

DEFAULT_CACHE = "weights.jsonl"
# `graphs` builds its whole list before it writes: 125,970 graphs take
# 6-10 s and 550-640 MB
MAX_GRAPHS = 200_000
# `weights closed N` and `todd --order N` print exact rationals, and
# Python prints no int of more than 4,300 digits: W_l's first passes at
# l = 1558, the Todd coefficients' at n = 1424.  `todd --order 1400`
# takes 81 s, `weights closed 1400` 21 s.
MAX_ORDER = 1400


def _load_config(path):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as exc:
        raise ValueError("cannot read config: %s" % exc) from None
    return cfg


def _at_least_one(key, value):
    if value < 1:
        raise ValueError("%s must be at least 1, got %d" % (key, value))
    return value


def _order(value, low):
    """An order of `weights closed` or `todd`: from low to MAX_ORDER."""
    if value < low:
        raise ValueError("order must be at least %d, got %d" % (low, value))
    if value > MAX_ORDER:
        raise ValueError("order must be at most MAX_ORDER = %d, got %d: "
                         "past it the report has integers too long to "
                         "print" % (MAX_ORDER, value))
    return value


def _config_int(config, key, default):
    """The config file's integer `key`; 2.0 and "2" pass, 2.7 and true not."""
    value = config.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("%s must be an integer" % key)
    return int(value)


def _setting(value, config, key, default):
    """The command-line value, else the config file's, else the default.

    Every setting read this way is a count, so values below 1 are
    rejected rather than replaced.
    """
    if value is None:
        value = _config_int(config, key, default)
    return _at_least_one(key, value)


def _report(kind, config, **fields):
    return dict(schema=1, toolkit=__version__, kind=kind, config=config,
                **fields)


def _eta_operator_json(op):
    return {",".join(map(str, eta)) or "-": payload.to_json()
            for eta, payload in sorted(op.parts.items())}


def _standard_pair(d, s, cap):
    """omega_alpha = t_{alpha%d+1} t_{(alpha+1)%d+1} d/dt_alpha."""
    if s > d:
        raise ValueError("need s <= d for the standard twisting family")
    fields = []
    for alpha in range(1, s + 1):
        a = alpha % d + 1
        b = (alpha + 1) % d + 1
        coeff = (TruncatedSeries.variable(d, a, cap)
                 * TruncatedSeries.variable(d, b, cap))
        fields.append(PolyVectorField(d, 0, {(alpha,): coeff}))
    return MaurerCartanData(fields)


def _cmd_graphs(args, config):
    graph_count(args.n, args.m, args.epsilon, MAX_GRAPHS)  # raises past it
    graphs = enumerate_graphs(args.n, args.m, args.epsilon)
    return _report("graphs", {"n": args.n, "m": args.m,
                              "epsilon": args.epsilon},
                   count=len(graphs), graphs=[g.to_json() for g in graphs]), 0


def _resolve_graph(args):
    picks = [args.wheel is not None, args.gamma0 is not None,
             bool(args.graph)]
    if sum(picks) != 1:
        raise ValueError("choose exactly one of --wheel, --gamma0, --graph")
    # the named graphs' sizes are checked before their edges are built
    if args.wheel is not None:
        check_size(0, 2 * args.wheel)
        return opposite_wheel(args.wheel)
    if args.gamma0 is not None:
        check_size(args.gamma0, args.gamma0)
        return gamma0(args.gamma0)
    with open(args.graph, "r", encoding="utf-8") as fh:
        return AdmissibleGraph.from_json(json.load(fh))


def _cmd_weights(args, config):
    if args.mode == "closed":
        _order(args.order, 1)
        return _report("weights-closed", {"order": args.order}, weights={
            "W_%d" % l: str(wheel_weight_closed(l))
            for l in range(1, args.order + 1)}), 0
    graph = _resolve_graph(args)
    moduli_dimension(graph)  # mc_weight's own checks, before any work
    samples = _setting(args.samples, config, "samples", 200_000)
    workers = _setting(args.workers, config, "workers", 1)
    seed = check_seed(args.seed if args.seed is not None
                      else _config_int(config, "seed", 0))
    started = time.time()
    if args.no_cache:
        est, cached = mc_weight(graph, samples, seed=seed,
                                workers=workers), False
    else:
        est, cached = mc_weight_cached(graph, samples, seed=seed,
                                       workers=workers,
                                       cache_path=args.cache)
    return _report("weights-mc", {
        "samples": samples, "seed": seed, "workers": workers,
        "graph": graph.to_json()}, estimate=est.to_json(),
        served_from_cache=cached,
        timings={"seconds": round(time.time() - started, 3)}), 0


def _cmd_formality(args, config):
    d = _setting(args.d, config, "dimension", 3)
    s = _setting(args.s, config, "eta_generators", 2)
    cap = _setting(args.cap, config, "cap", DEFAULT_CAP)
    if cap < 3:
        # agreement is checked through cap - 3
        raise ValueError("cap must be at least 3, got %d" % cap)
    axes = tuple(int(a) for a in args.gamma.split(","))
    if len(set(axes)) != len(axes):
        raise ValueError("repeated --gamma axis makes gamma zero: %s"
                         % args.gamma)
    mc = _standard_pair(d, s, cap)
    gamma = PolyVectorField.from_wedge(d, axes,
                                       TruncatedSeries.const(d, 1, cap))
    started = time.time()
    lhs = twisted_first_taylor(mc, gamma)
    graph_done = time.time()
    rhs = closed_form_map(mc, gamma)
    closed_done = time.time()
    agree = lhs.agrees_with(rhs, cap - 3)
    return _report("formality", {
        "dimension": d, "eta_generators": s, "cap": cap,
        "gamma": list(axes)}, graph_side=_eta_operator_json(lhs),
        closed_side=_eta_operator_json(rhs), agree=agree, timings={
            "seconds": round(time.time() - started, 3),
            "stages": {"graph_side": round(graph_done - started, 3),
                       "closed_side": round(closed_done - graph_done, 3)}},
    ), 0 if agree else 1


def _cmd_twist(args, config):
    result = suites_mod.suite_twisting()
    return _report("twist", {}, result=result), 0 if result["passed"] else 1


def _cmd_todd(args, config):
    q, qt, ok = suites_mod.todd_table(_order(args.order, 0))
    return _report("todd", {"order": args.order}, todd=q, modified_todd=qt,
                   modified_equals_todd_times_exp_minus_half=ok
                   ), 0 if ok else 1


def _cmd_verify(args, config):
    suites = suites_mod.SUITES
    names = sorted(suites) if args.suite == "all" else [args.suite]
    if args.suite not in suites and args.suite != "all":
        raise ValueError("unknown suite %r; known: %s"
                         % (args.suite, ", ".join(sorted(suites) + ["all"])))
    seed = (args.seed if args.seed is not None
            else _config_int(config, "seed", suites_mod.DEFAULT_SEED))
    trials = ({} if args.trials is None
              else {"trials": _at_least_one("trials", args.trials)})
    kwargs = {name: dict(seed=seed, **trials)
              for name in ("gerstenhaber", "derivation")}
    if "mc-weights" in names:
        kwargs["mc-weights"] = dict(
            samples=_setting(args.samples, config, "samples", 100_000),
            seed=check_seed(seed),
            workers=_setting(args.workers, config, "workers", 1),
            cache_path=None if args.no_cache else args.cache)
    started = time.time()
    results = [suites_mod.run_suite(name, **kwargs.get(name, {}))
               for name in names]
    passed = all(r["passed"] for r in results)
    return _report("verify", {"suites": names, "seed": seed},
                   results=results, passed=passed,
                   timings={"seconds": round(time.time() - started, 3)},
                   ), 0 if passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="formaldisk",
        description="graphs, weights and verification suites for the "
                    "formal-disk toolkit")
    p.add_argument("--config", help="JSON file with default run settings")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    # the Monte-Carlo options of `weights mc` and `verify mc-weights`
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--samples", type=int,
                    help="sample count (verify: the smallest, scaled "
                         "1/10/100)")
    mc.add_argument("--seed", type=int)
    mc.add_argument("--workers", type=int)
    mc.add_argument("--cache", default=DEFAULT_CACHE)
    mc.add_argument("--no-cache", action="store_true")

    g = sub.add_parser("graphs", help="enumerate admissible graphs")
    g.add_argument("n", type=int)
    g.add_argument("m", type=int)
    g.add_argument("epsilon", type=int, nargs="?", default=0)

    w = sub.add_parser("weights", parents=[mc],
                       help="closed-form or Monte-Carlo weights")
    w.add_argument("mode", choices=["closed", "mc"])
    w.add_argument("order", type=int, nargs="?", default=4,
                   help="closed mode: highest wheel size")
    w.add_argument("--wheel", type=int, help="mc mode: wheel size k")
    w.add_argument("--gamma0", type=int,
                   help="mc mode: corolla with this many ground vertices")
    w.add_argument("--graph", help="mc mode: path to a graph JSON file")

    f = sub.add_parser("formality",
                       help="twisted first Taylor coefficient, both routes")
    f.add_argument("--d", type=int)
    f.add_argument("--s", type=int)
    f.add_argument("--cap", type=int)
    f.add_argument("--gamma", default="1,2",
                   help="comma-separated axes of the wedge, e.g. 1,2,3")

    sub.add_parser("twist", help="run the Maurer-Cartan twisting suite")

    t = sub.add_parser("todd", help="Todd series table and identity")
    t.add_argument("--order", type=int, default=10)

    v = sub.add_parser("verify", parents=[mc],
                       help="run a named verification suite")
    v.add_argument("suite")
    v.add_argument("--trials", type=int)
    return p


_HANDLERS = {
    "graphs": _cmd_graphs,
    "weights": _cmd_weights,
    "formality": _cmd_formality,
    "twist": _cmd_twist,
    "todd": _cmd_todd,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, code = _HANDLERS[args.command](args, _load_config(args.config))
        text = json.dumps(report, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
