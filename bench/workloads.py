"""The benchmark's three workloads: inputs from a seed, ops, and checks.

A workload builds its inputs from the workload seed, runs one warm-up op,
and then hands out passes. A pass is a list of ops; an op is one
user-level call into formaldisk together with the check of its result.
An op's ``run`` returns True when the result is correct; returning False
or raising counts the op as failed.

Each workload loads a different set of layers, so that an optimisation
of one layer shows on one workload and leaves the others unchanged:

- ``twisted-taylor``: graphs, formality.graph_operator, series
  construct/partial, polyvector.component, etalgebra.
- ``algebra-trials``: polydiff, polyvector.schouten_bracket, series
  multiplication and Fraction arithmetic; no graph enumeration.
- ``mc-integrate``: weights (numpy kernel, process pool, JSON-lines cache);
  the exact layers sit idle.
"""

from __future__ import annotations

import inspect
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from formaldisk import (MaurerCartanData, PolyVectorField, TruncatedSeries,
                        closed_form_map, gamma0, mc_weight, mc_weight_cached,
                        opposite_wheel, run_suite, twisted_first_taylor)


@dataclass
class Op:
    group: str            # kind of op; metrics are split by group
    label: str            # names the op; an op's latency is the median of
                          # its timings under this label in a run
    run: Callable[[], bool]


def nproc():
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------
# twisted-taylor
# ---------------------------------------------------------------------

CAP = 8
HEADLINE = (4, 4, 4)
# the small points take milliseconds each, too short for one timing to
# repeat from run to run
SMALL_POINT_SWEEPS = 3
# (d, s, |gamma|): 2 <= d <= 4, 1 <= s <= d, 1 <= |gamma| <= d, plus d = 5
# with |gamma| <= 3; (5, 4, 4) takes over two minutes and is left out.
GRID = ([(d, s, g) for d in range(2, 5) for s in range(1, d + 1)
         for g in range(1, d + 1)]
        + [(5, s, g) for s in range(1, 6) for g in range(1, 4)])


def twisting_inputs(point, rng):
    """omega_alpha = c_alpha t_a t_b d/dt_alpha, a and b the next two axes.

    The seed picks only the nonzero rational c_alpha, so the sparsity, and
    with it the work, is the same for every seed.
    """
    d, s, g = point
    fields = []
    for alpha in range(1, s + 1):
        a, b = alpha % d + 1, (alpha + 1) % d + 1
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        coeff = (TruncatedSeries.variable(d, a, CAP)
                 * TruncatedSeries.variable(d, b, CAP)).scale(c)
        fields.append(PolyVectorField(d, 0, {(alpha,): coeff}))
    return MaurerCartanData(fields), PolyVectorField.from_wedge(
        d, tuple(range(1, g + 1)))


def wheel_identity_holds(mc, gamma):
    graph_side = twisted_first_taylor(mc, gamma)
    closed = closed_form_map(mc, gamma)
    if graph_side.is_zero() and not closed.is_zero():
        return False
    return graph_side.agrees_with(closed, CAP - 3)


class TwistedTaylor:
    name = "twisted-taylor"
    hot_layers = ("series", "polyvector", "polydiff", "graphs", "formality",
                  "etalgebra")

    def __init__(self, seed, scratch):
        rng = random.Random(seed)
        self.points = [(p, twisting_inputs(p, rng)) for p in GRID]
        self.warm = twisting_inputs((2, 1, 1), rng)

    def warm_up(self):
        if not wheel_identity_holds(*self.warm):
            raise RuntimeError("warm-up op failed its check")

    def pass_ops(self, index):
        # The small points run in sweeps, the headline after the first, so
        # that a short stall of the machine rarely slows more than one of a
        # point's timings; an op's latency is the median of its timings.
        small = [item for item in self.points if item[0] != HEADLINE]
        headline = [item for item in self.points if item[0] == HEADLINE]
        for point, (mc, gamma) in (small + headline
                                   + small * (SMALL_POINT_SWEEPS - 1)):
            yield Op("headline" if point == HEADLINE else "point",
                     "d=%d s=%d |gamma|=%d" % point,
                     lambda mc=mc, gamma=gamma: wheel_identity_holds(mc, gamma))


# ---------------------------------------------------------------------
# algebra-trials
# ---------------------------------------------------------------------

TRIALS_PER_PASS = 50


def trial_ok(op_seed):
    gerstenhaber = run_suite("gerstenhaber", trials=1, seed=op_seed)
    derivation = run_suite("derivation", trials=1, seed=op_seed)
    return gerstenhaber["passed"] and derivation["passed"]


class AlgebraTrials:
    name = "algebra-trials"
    hot_layers = ("series", "polyvector", "polydiff")

    def __init__(self, seed, scratch):
        self.seed = seed
        self.warm_seed = random.Random("%d/warm-up" % seed).getrandbits(63)

    def warm_up(self):
        if not trial_ok(self.warm_seed):
            raise RuntimeError("warm-up op failed its check")

    def pass_ops(self, index):
        # every pass draws its own trials, so a run covers distinct inputs
        rng = random.Random("%d/pass-%d" % (self.seed, index))
        for _ in range(TRIALS_PER_PASS):
            op_seed = rng.getrandbits(63)
            yield Op("trial", "trial seed=%d" % op_seed,
                     lambda op_seed=op_seed: trial_ok(op_seed))


# ---------------------------------------------------------------------
# mc-integrate
# ---------------------------------------------------------------------

SAMPLES = 2_000_000
# the chunk size mc_weight splits its samples into when not told otherwise
CHUNK = inspect.signature(mc_weight).parameters["chunk_size"].default
# The wheel integrands are heavy-tailed: at 2e6 samples one estimate in
# 144 (48 seeds x 3 wheels) landed 3.09 stderr below 1/24, because the
# stderr is too small when no large sample is drawn. The wheels' tolerance
# floor, 5 % of the two-wheel weight, keeps a correct integrator passing;
# a wrong sign, Jacobian or sampler is still far outside it.
WHEEL_FLOOR = 0.05 / 24.0
# graph, exact |integral|, floor of the tolerance
MC_GRAPHS = (
    ("gamma0(2)", gamma0(2), 0.5, 0.01),
    ("wheel-2", opposite_wheel(2), 1.0 / 24.0, WHEEL_FLOOR),
    ("wheel-3", opposite_wheel(3), 0.0, WHEEL_FLOOR),
    ("wheel-4", opposite_wheel(4), 1.0 / 1440.0, WHEEL_FLOOR),
)
SAME_FIELDS = ("value", "stderr", "integral", "discarded")


def near_exact(est, exact, floor):
    return abs(abs(est.integral) - exact) <= max(3.0 * est.stderr, floor)


def pool_size(samples, cores):
    """Workers for one estimate: never more than its chunks or the cores."""
    chunks = -(-samples // CHUNK)
    workers = min(cores, chunks)
    if workers < 1:
        raise ValueError("no worker available for %d samples" % samples)
    return workers


class MCIntegrate:
    name = "mc-integrate"
    hot_layers = ("weights",)

    def __init__(self, seed, scratch):
        rng = random.Random("%d/mc" % seed)
        self.seeds = {name: rng.getrandbits(32) for name, *_ in MC_GRAPHS}
        self.warm_seed = rng.getrandbits(32)
        self.workers = pool_size(SAMPLES, nproc())
        self.scratch = scratch
        self.work = {"samples": SAMPLES,
                     "workers": {"1w": 1, "nw": self.workers}}

    def warm_up(self):
        est = mc_weight(gamma0(2), 20_000, seed=self.warm_seed, workers=1)
        if not near_exact(est, 0.5, 0.01):
            raise RuntimeError("warm-up op failed its check")

    def pass_ops(self, index):
        """Pass A at 1 worker, B at n workers into a fresh cache, C all hits.

        B must reproduce A bit for bit (the worker-invariance promise), and
        every C hit must equal what B stored.
        """
        cache_dir = tempfile.mkdtemp(prefix="mc-cache-", dir=self.scratch)
        cache = os.path.join(cache_dir, "weights.jsonl")
        serial, stored = {}, {}
        try:
            for name, graph, exact, floor in MC_GRAPHS:
                def pass_a(name=name, graph=graph, exact=exact, floor=floor):
                    est = mc_weight(graph, SAMPLES, seed=self.seeds[name],
                                    workers=1)
                    serial[name] = est
                    return near_exact(est, exact, floor)
                yield Op("1w", "A " + name, pass_a)
            for name, graph, _, _ in MC_GRAPHS:
                def pass_b(name=name, graph=graph):
                    est, hit = mc_weight_cached(
                        graph, SAMPLES, seed=self.seeds[name],
                        workers=self.workers, cache_path=cache)
                    stored[name] = est
                    ref = serial.get(name)
                    return (not hit and ref is not None
                            and all(getattr(est, f) == getattr(ref, f)
                                    for f in SAME_FIELDS))
                yield Op("nw", "B " + name, pass_b)
            for name, graph, _, _ in MC_GRAPHS:
                def pass_c(name=name, graph=graph):
                    est, hit = mc_weight_cached(
                        graph, SAMPLES, seed=self.seeds[name],
                        workers=self.workers, cache_path=cache)
                    ref = stored.get(name)
                    return (hit and ref is not None
                            and est.to_json() == ref.to_json())
                yield Op("hit", "C " + name, pass_c)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TwistedTaylor, AlgebraTrials, MCIntegrate)}
