"""Batch front-end: graphs, weights, verification suites, reports.

Exit codes: 0 success, 1 a verification suite failed, 2 usage errors.
All reports are UTF-8 JSON, stable for a fixed configuration except
for the "timings" field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .series import DEFAULT_CAP, TruncatedSeries, exp_series
from .polyvector import PolyVectorField
from .graphs import AdmissibleGraph, enumerate_graphs, gamma0, opposite_wheel
from .weights import (check_seed, check_size, mc_weight, mc_weight_cached,
                      moduli_dimension, wheel_weight_closed)
from .formality import (MaurerCartanData, closed_form_map,
                        tilde_todd_series, todd_series,
                        twisted_first_taylor)
from . import suites as suites_mod

DEFAULT_CACHE = "weights.jsonl"


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _at_least_one(key, value):
    if value < 1:
        raise ValueError("%s must be at least 1, got %d" % (key, value))
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


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _base_report(kind, config):
    return {"schema": 1, "toolkit": __version__, "kind": kind,
            "config": config}


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
    try:
        graphs = enumerate_graphs(args.n, args.m, args.epsilon)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = _base_report("graphs", {"n": args.n, "m": args.m,
                                     "epsilon": args.epsilon})
    report["count"] = len(graphs)
    report["graphs"] = [g.to_json() for g in graphs]
    _emit(report, args.out)
    return 0


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
        if args.order < 1:
            print("error: order must be at least 1, got %d" % args.order,
                  file=sys.stderr)
            return 2
        table = {"W_%d" % l: str(wheel_weight_closed(l))
                 for l in range(1, args.order + 1)}
        report = _base_report("weights-closed", {"order": args.order})
        report["weights"] = table
        _emit(report, args.out)
        return 0
    try:
        graph = _resolve_graph(args)
        moduli_dimension(graph)  # mc_weight's own checks, before any work
        samples = _setting(args.samples, config, "samples", 200_000)
        workers = _setting(args.workers, config, "workers", 1)
        seed = check_seed(args.seed if args.seed is not None
                          else _config_int(config, "seed", 0))
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    started = time.time()
    if args.no_cache:
        est, cached = mc_weight(graph, samples, seed=seed,
                                workers=workers), False
    else:
        est, cached = mc_weight_cached(graph, samples, seed=seed,
                                       workers=workers,
                                       cache_path=args.cache)
    report = _base_report("weights-mc", {
        "samples": samples, "seed": seed, "workers": workers,
        "graph": graph.to_json()})
    report["estimate"] = est.to_json()
    report["served_from_cache"] = cached
    report["timings"] = {"seconds": round(time.time() - started, 3)}
    _emit(report, args.out)
    return 0


def _cmd_formality(args, config):
    try:
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
        gamma = PolyVectorField.from_wedge(
            d, axes, TruncatedSeries.const(d, 1, cap))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    started = time.time()
    lhs = twisted_first_taylor(mc, gamma)
    graph_done = time.time()
    rhs = closed_form_map(mc, gamma)
    closed_done = time.time()
    agree = lhs.agrees_with(rhs, cap - 3)
    report = _base_report("formality", {
        "dimension": d, "eta_generators": s, "cap": cap,
        "gamma": list(axes)})
    report["graph_side"] = _eta_operator_json(lhs)
    report["closed_side"] = _eta_operator_json(rhs)
    report["agree"] = agree
    report["timings"] = {
        "seconds": round(time.time() - started, 3),
        "stages": {"graph_side": round(graph_done - started, 3),
                   "closed_side": round(closed_done - graph_done, 3)}}
    _emit(report, args.out)
    return 0 if agree else 1


def _cmd_twist(args, config):
    report = _base_report("twist", {})
    result = suites_mod.suite_twisting()
    report["result"] = result
    _emit(report, args.out)
    return 0 if result["passed"] else 1


def _cmd_todd(args, config):
    order = args.order
    if order < 0:
        print("error: order must be at least 0, got %d" % order,
              file=sys.stderr)
        return 2
    q = todd_series(order)
    qt = tilde_todd_series(order)
    prod = q * exp_series(order, Fraction(-1, 2))
    report = _base_report("todd", {"order": order})
    report["todd"] = [str(q.coefficient((k,))) for k in range(order + 1)]
    report["modified_todd"] = [str(qt.coefficient((k,)))
                               for k in range(order + 1)]
    ok = prod == qt
    report["modified_equals_todd_times_exp_minus_half"] = ok
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_verify(args, config):
    name = args.suite
    names = sorted(suites_mod.SUITES) if name == "all" else [name]
    if name != "all" and name not in suites_mod.SUITES:
        print("error: unknown suite %r; known: %s"
              % (name, ", ".join(sorted(suites_mod.SUITES) + ["all"])),
              file=sys.stderr)
        return 2
    try:
        seed = (args.seed if args.seed is not None
                else _config_int(config, "seed", suites_mod.DEFAULT_SEED))
        if args.trials is not None:
            _at_least_one("trials", args.trials)
        if "mc-weights" in names:
            check_seed(seed)
            small = _setting(args.samples, config, "samples", 100_000)
            workers = _setting(args.workers, config, "workers", 1)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    results = []
    started = time.time()
    for suite_name in names:
        kwargs = {}
        if suite_name in ("gerstenhaber", "derivation"):
            kwargs["seed"] = seed
            if args.trials is not None:
                kwargs["trials"] = args.trials
        if suite_name == "mc-weights":
            kwargs.update(samples_small=small,
                          samples_mid=10 * small,
                          samples_big=100 * small,
                          seed=seed,
                          workers=workers)
            if not args.no_cache:
                kwargs["cache_path"] = args.cache
        results.append(suites_mod.run_suite(suite_name, **kwargs))
    report = _base_report("verify", {"suites": names, "seed": seed})
    report["results"] = results
    report["passed"] = all(r["passed"] for r in results)
    report["timings"] = {"seconds": round(time.time() - started, 3)}
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="formaldisk",
        description="graphs, weights and verification suites for the "
                    "formal-disk toolkit")
    p.add_argument("--config", help="JSON file with default run settings")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graphs", help="enumerate admissible graphs")
    g.add_argument("n", type=int)
    g.add_argument("m", type=int)
    g.add_argument("epsilon", type=int, nargs="?", default=0)

    w = sub.add_parser("weights", help="closed-form or Monte-Carlo weights")
    w.add_argument("mode", choices=["closed", "mc"])
    w.add_argument("order", type=int, nargs="?", default=4,
                   help="closed mode: highest wheel size")
    w.add_argument("--wheel", type=int, help="mc mode: wheel size k")
    w.add_argument("--gamma0", type=int,
                   help="mc mode: corolla with this many ground vertices")
    w.add_argument("--graph", help="mc mode: path to a graph JSON file")
    w.add_argument("--samples", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--workers", type=int)
    w.add_argument("--cache", default=DEFAULT_CACHE)
    w.add_argument("--no-cache", action="store_true")

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

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite")
    v.add_argument("--trials", type=int)
    v.add_argument("--samples", type=int,
                   help="mc-weights: smallest sample count (scales 1/10/100)")
    v.add_argument("--seed", type=int)
    v.add_argument("--workers", type=int)
    v.add_argument("--cache", default=DEFAULT_CACHE)
    v.add_argument("--no-cache", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 2
    return _HANDLERS[args.command](args, config)


if __name__ == "__main__":
    sys.exit(main())
