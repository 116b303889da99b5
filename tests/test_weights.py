import dataclasses
import json
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from formaldisk import (gamma0, graphs_with_profile,
                        inverse_sqrt_sinh_quotient, mc_weight,
                        mc_weight_cached, modified_bernoulli, opposite_wheel,
                        theta_series, wheel_weight_closed)
from formaldisk.formality import _subset_coefficient
from formaldisk.graphs import AdmissibleGraph, wheel_graph
from formaldisk.weights import (BLOCK, CHUNK, SAMPLER, TWO_PI, _arena,
                                _block_values, _chunk_sums, _det_plan,
                                _direction, _kernel_components,
                                _mixture_plan, _pool_size, _sort_rows,
                                moduli_dimension, cache_lookup, cache_store)
from formaldisk.series import sinh_quotient_series, univariate
from formaldisk import suites, weights

import helpers
from helpers import (angle, bernoulli, chunk_sums_blocked_reference,
                     chunk_sums_reference, dense_jacobian, theta_by_log,
                     wheel_weight_from_bernoulli)


def test_wheel_weights_match_bernoulli_recurrence():
    for l in range(1, 11):
        assert wheel_weight_closed(l) == wheel_weight_from_bernoulli(l), l


def test_known_small_weights():
    assert wheel_weight_closed(1) == 0
    assert wheel_weight_closed(2) == Fraction(1, 24)
    assert wheel_weight_closed(3) == 0
    assert wheel_weight_closed(4) == Fraction(1, 1440)
    assert wheel_weight_closed(6) == Fraction(1, 60480)


def test_theta_series_matches_the_log_route():
    assert theta_series(16) == theta_by_log(16)


def test_modified_bernoulli_values():
    # x^2 coefficient of (1/2) log(sinh-quotient) is 1/48
    assert modified_bernoulli(2) == Fraction(1, 48)
    assert modified_bernoulli(3) == 0
    # for even l the coefficient is B_l / (2l * l!)
    assert modified_bernoulli(4) == bernoulli(4) / (2 * 4 * math.factorial(4))


def test_theta_series_is_minus_shat():
    th = theta_series(6)
    assert th.cap == 6
    assert th.coefficient((2,)) == -Fraction(1, 48)
    assert th.coefficient((0,)) == 0 and th.coefficient((1,)) == 0


def test_theta_series_is_one_shared_series_per_order():
    # built once per order; no caller can change it
    assert theta_series(6) is theta_series(6)


def test_theta_series_coefficients_do_not_depend_on_the_order():
    long, short = theta_series(12), theta_series(6)
    assert all(long.coefficient((k,)) == short.coefficient((k,))
               for k in range(7))


def test_closed_wheel_weights_share_one_bernoulli_row(monkeypatch):
    # W_1, ..., W_120 from empty caches: O(l) Akiyama-Tanigawa steps per
    # new l take about 0.55M traced events; rebuilding the table from B_0
    # for each l, O(l^2) steps, took 22M
    monkeypatch.setattr("formaldisk.series._bernoulli", ((), ()))
    theta_series.cache_clear()
    sys.settrace(_LineBudget(2_000_000))
    try:
        table = [wheel_weight_closed(l) for l in range(1, 121)]
    finally:
        sys.settrace(None)
    assert table[119] == wheel_weight_from_bernoulli(120)


def test_inverse_sqrt_squares_to_reciprocal():
    order = 8
    r = inverse_sqrt_sinh_quotient(order)
    prod = r * r * sinh_quotient_series(order)
    assert prod == univariate([1] + [0] * order)


# ---------------------------------------------------------------------
# the hyperbolic angle map
# ---------------------------------------------------------------------

def test_angle_known_values():
    # from i straight down to 0: half a turn
    assert angle(1j, 0.0) == pytest.approx(0.5)
    # to +1 and -1: three quarters / one quarter
    assert angle(1j, 1.0) == pytest.approx(0.75)
    assert angle(1j, -1.0) == pytest.approx(0.25)
    # a far-away target approaches the vertical direction, 0 mod 1
    assert min(angle(1j, 1e9), 1 - angle(1j, 1e9)) < 1e-7


def test_angle_rejects_bad_sources():
    with pytest.raises(ValueError):
        angle(1.0, 2.0)
    with pytest.raises(ValueError):
        angle(1j, 1j)


def test_angle_translation_scaling_invariance():
    p, q = 0.3 + 0.9j, -1.2 + 0.4j
    base = angle(p, q)
    assert angle(p + 5, q + 5) == pytest.approx(base)
    assert angle(3 * p, 3 * q) == pytest.approx(base)


# ---------------------------------------------------------------------
# Monte Carlo integrals
# ---------------------------------------------------------------------

def test_corolla_one_ground_is_exact():
    # the single edge angle is linear in the ground coordinate, so every
    # sample contributes the same value and the spread collapses
    est = mc_weight(gamma0(1), 20_000, seed=11)
    assert est.integral == pytest.approx(1.0, abs=1e-9)
    assert est.stderr < 1e-9
    assert est.prefactor == 1
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_corolla_two_grounds_is_exact():
    est = mc_weight(gamma0(2), 50_000, seed=11)
    assert est.integral == pytest.approx(0.5, abs=1e-9)
    assert est.stderr < 1e-9
    # two edges: orientation prefactor (-1)^{2*1/2} = -1
    assert est.prefactor == -1
    assert est.value == pytest.approx(-0.5, abs=1e-9)


def test_corolla_no_ground_moduli():
    # m=3: dim 3, plain average but still deterministic
    est = mc_weight(gamma0(3), 50_000, seed=2)
    assert abs(est.integral - 1.0 / 6.0) <= max(4 * est.stderr, 1e-3)


@pytest.mark.parametrize("m, exact", [(1, 1), (2, -1 / 2), (3, -1 / 6)])
def test_signed_corolla_values(m, exact):
    # the sign of value, orientation prefactor included, is pinned here,
    # not only its size
    est = mc_weight(gamma0(m), 200_000, seed=0)
    assert est.value == pytest.approx(exact, rel=1e-9)


def test_signed_two_wheel_value_is_positive():
    est = mc_weight(opposite_wheel(2), 200_000, seed=0)
    assert est.value > 20 * est.stderr


@pytest.mark.parametrize("m", [0, 1, 2])
def test_two_cycle_coefficient_is_minus_its_signed_weight(m):
    # the graph side's c_Gamma for one 2-cycle with m ground slots is
    # minus the signed integral of wheel_graph((2,), m + 1)
    est = mc_weight(wheel_graph((2,), m + 1), 10**6, seed=0)
    c = float(_subset_coefficient((2,), m, theta_series(4)))
    assert abs(est.value + c) <= 3 * est.stderr
    assert abs(est.value - c) >= 10 * est.stderr


def test_mc_weights_suite_checks_the_sign(monkeypatch):
    # the suite compares the signed integral with +1, +1/2 and +1/24:
    # the same estimates with their integrals negated fail every check
    assert suites.suite_mc_weights(samples=2_000)["passed"]

    def negated(*args, **kwargs):
        est = mc_weight(*args, **kwargs)
        return dataclasses.replace(est, integral=-est.integral)
    monkeypatch.setattr(suites, "mc_weight", negated)
    report = suites.suite_mc_weights(samples=2_000)
    assert not any(check["pass"] for check in report["checks"])


def test_two_wheel_converges():
    est = mc_weight(opposite_wheel(2), 400_000, seed=5)
    assert est.samples == 400_000
    assert abs(est.integral - 1 / 24) <= 4 * est.stderr
    assert est.stderr < 2e-3


def test_worker_count_does_not_change_the_estimate():
    g = opposite_wheel(2)
    a = mc_weight(g, 300_000, seed=9, workers=1)
    b = mc_weight(g, 300_000, seed=9, workers=3)
    assert a.integral == b.integral
    assert a.stderr == b.stderr
    assert a.discarded == b.discarded


def test_seed_changes_the_estimate():
    g = opposite_wheel(2)
    a = mc_weight(g, 100_000, seed=0)
    b = mc_weight(g, 100_000, seed=1)
    assert a.integral != b.integral


@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_bad_seed_rejected_before_any_chunk_or_pool(seed, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started on a bad seed")
    monkeypatch.setattr("formaldisk.weights.ProcessPoolExecutor", must_not_run)
    monkeypatch.setattr("formaldisk.weights._chunk_sums", must_not_run)
    with pytest.raises(ValueError, match="must be a non-negative integer"):
        mc_weight(opposite_wheel(2), 1000, seed=seed, workers=2,
                  chunk_size=500)


@pytest.mark.parametrize("workers", [0, -3, False, 1.5, 2.0, "2"])
def test_bad_workers_rejected_before_any_chunk_or_pool(workers, monkeypatch):
    # 1.5 and 2.0 used to end in the pool's TypeError, while 0 and -3 ran
    # and were recorded as given
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started on a bad worker count")
    monkeypatch.setattr("formaldisk.weights.ProcessPoolExecutor", must_not_run)
    monkeypatch.setattr("formaldisk.weights._chunk_sums", must_not_run)
    # the single-vertex graph has a zero-dimensional fiber and no chunk
    for graph in (opposite_wheel(2), AdmissibleGraph(1, 0, ())):
        with pytest.raises(ValueError, match="worker count"):
            mc_weight(graph, 1000, workers=workers, chunk_size=500)


def test_bool_and_numpy_workers_read_as_their_int():
    assert mc_weight(gamma0(2), 1000, seed=0, workers=True).workers == 1
    est = mc_weight(gamma0(2), 1000, seed=0, workers=np.int64(3))
    assert type(est.workers) is int and est.workers == 3


@pytest.mark.parametrize("samples, chunk_size, match", [
    (1000.0, 500, "sample count"),
    (1000.5, 500, "sample count"),
    ("1000", 500, "sample count"),
    (1000, 250.0, "chunk size"),
    (1000, "500", "chunk size"),
])
def test_non_integer_counts_rejected_before_any_chunk_or_pool(
        samples, chunk_size, match, monkeypatch):
    # a float count used to reach numpy's TypeError in a chunk at one
    # worker, and to start a pool and return an estimate at two
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started on a non-integer count")
    monkeypatch.setattr("formaldisk.weights.ProcessPoolExecutor", must_not_run)
    monkeypatch.setattr("formaldisk.weights._chunk_sums", must_not_run)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=match):
            mc_weight(opposite_wheel(2), samples, workers=workers,
                      chunk_size=chunk_size)


def test_bool_and_numpy_counts_act_as_the_ints_they_are():
    # a bool is an int: True used to reach numpy's TypeError in a chunk
    wheel = opposite_wheel(2)
    assert mc_weight(wheel, True).samples == 1
    assert (mc_weight(wheel, np.int64(600), chunk_size=np.int32(250))
            == mc_weight(wheel, 600, chunk_size=250))


def test_moduli_mismatch_rejected():
    bad = gamma0(2)
    with pytest.raises(ValueError):
        mc_weight(AdmissibleGraphPatch(bad), 100)


def _chain_and_star(n):
    """n aerial vertices, no ground: the star 1 -> j and the chain
    j + 1 -> j, 2(n - 1) edges."""
    return AdmissibleGraph(n, 0, [(1, j) for j in range(2, n + 1)]
                           + [(j + 1, j) for j in range(1, n)])


def test_graphs_beyond_float_range_are_rejected_before_any_work():
    # m! and (2 pi)^E are floats exactly up to these limits
    assert math.isfinite(float(math.factorial(weights.MAX_GROUND)))
    with pytest.raises(OverflowError):
        float(math.factorial(weights.MAX_GROUND + 1))
    assert math.isfinite(TWO_PI ** weights.MAX_EDGES)
    with pytest.raises(OverflowError):
        TWO_PI ** (weights.MAX_EDGES + 1)
    assert moduli_dimension(gamma0(170)) == 170
    assert moduli_dimension(_chain_and_star(194)) == 386
    with pytest.raises(ValueError, match="170 ground vertices and 386 edges, got 200 and 200"):
        mc_weight(gamma0(200), 10)
    with pytest.raises(ValueError, match="170 ground vertices and 386 edges, got 0 and 398"):
        mc_weight(_chain_and_star(200), 10)


def test_graphs_at_the_float_limits_integrate():
    for graph in (gamma0(170), _chain_and_star(194)):
        est = mc_weight(graph, 10)
        assert math.isfinite(est.integral) and est.samples == 10


class AdmissibleGraphPatch:
    """A fake graph whose edge count disagrees with its moduli."""

    def __init__(self, base):
        self.n, self.m = base.n, base.m
        self.edges = base.edges + ((1, 2),)

    def to_json(self):  # pragma: no cover - never reached
        return {}


ORACLE_GRAPHS = {
    "gamma0(2)": gamma0(2),
    "gamma0(3)": gamma0(3),
    "wheel-2": opposite_wheel(2),
    "wheel-3": opposite_wheel(3),
    "wheel-4": opposite_wheel(4),
    # a sampled aerial vertex with an edge to the ground: "ground" kernels
    "aerial-ground": AdmissibleGraph(2, 1, ((1, 2), (1, 3), (2, 3))),
    # "pair", "ground" and "inf" kernels in one centre table
    "mixed": AdmissibleGraph(3, 1, ((1, 2), (2, 3), (2, 4), (3, 1), (3, 4))),
}


def test_mixed_oracle_graph_has_every_kernel_kind():
    comps = _kernel_components(ORACLE_GRAPHS["mixed"])
    assert {kind for kind, _, _ in comps} == {"pair", "ground", "inf"}


def test_half_angle_direction_matches_cos_and_sin():
    rng = np.random.default_rng(5)
    turns = np.concatenate((rng.random(100_000),
                            [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]))
    theta = turns * TWO_PI
    t = np.tan(theta / 2.0)
    c, s = _direction(t, np.empty((2,) + t.shape))
    assert np.max(np.abs(c - np.cos(theta))) <= 4e-16
    assert np.max(np.abs(s - np.sin(theta))) <= 4e-16
    # c*c + s*s - 1 in doubles rounds by up to two ulps of 1 on its own
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 3 * np.finfo(float).eps
    # a ground point's chart factor dq/dalpha = 1 / (2 sin^2(alpha/2)),
    # infinite on both sides at alpha = 0
    with np.errstate(divide="ignore"):
        factor = 0.5 / np.sin(theta / 2.0) ** 2
        assert np.allclose(0.5 + 0.5 / (t * t), factor, rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("size", [1, 1000, BLOCK + 1, 2 * BLOCK + 17])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_chunk_sums_equal_the_blocked_reference(name, size, seed):
    # the shared intermediates change no floating-point operation of a
    # sample, so the sums are equal, not merely close
    args = (ORACLE_GRAPHS[name].to_json(), 3, size, seed)
    assert _chunk_sums(args) == chunk_sums_blocked_reference(args)


def _chunk_peak(graph, size):
    """Peak bytes traced while one chunk of size samples runs."""
    tracemalloc.start()
    try:
        _chunk_sums((graph.to_json(), 0, size, 0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["wheel-4", "mixed"])
def test_chunk_memory_does_not_grow_with_the_chunk(name):
    # the draws are streamed block by block into buffers made once per
    # chunk; a chunk drawn whole would hold 11 doubles a sample for the
    # 4-wheel, 22 MB at CHUNK samples
    graph = ORACLE_GRAPHS[name]
    small = _chunk_peak(graph, 2 * BLOCK + 17)
    assert _chunk_peak(graph, CHUNK) <= 1.5 * small


def test_arena_reuse_across_graphs_and_blocks(monkeypatch):
    # one process, the arena grown from nothing by the 4-wheel's blocks,
    # then lent to smaller graphs and to short last blocks: no block may
    # read rows another one left behind, or write through overlapping views
    monkeypatch.setattr(weights, "_arena_words", 0)
    for name in ("wheel-4", "gamma0(2)", "mixed", "wheel-4", "gamma0(3)"):
        for size in (1, BLOCK + 1, 2 * BLOCK + 17):
            args = (ORACLE_GRAPHS[name].to_json(), 5, size, 0)
            assert (_chunk_sums(args)
                    == chunk_sums_blocked_reference(args)), (name, size)


def _rows_with_ties_and_zeros(m, rng):
    rows = rng.random((200, m))
    ties = rng.choice(rng.random(2), (200, m))         # two values a row
    zeros = np.where(rng.random((200, m)) < 0.4, 0.0, rows)
    return np.concatenate((rows, ties, zeros, np.zeros((1, m))))


@pytest.mark.parametrize("m", range(7))
def test_ground_angle_network_equals_np_sort(m):
    rows = _rows_with_ties_and_zeros(m, np.random.default_rng(m))
    net = _sort_rows(rows.T.copy(), np.empty(len(rows))).T
    assert net.shape == rows.shape
    assert np.array_equal(net, np.sort(rows, axis=1))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("size", [1, 1000, BLOCK + 1, 2 * BLOCK + 17])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_blocked_chunk_matches_the_whole_chunk_oracle(name, size, seed):
    # same draws, same discards; the sums may differ only by rounding
    args = (ORACLE_GRAPHS[name].to_json(), 3, size, seed)
    s1, s2, kept, discarded = _chunk_sums(args)
    r1, r2, r_kept, r_discarded, abs_sum = chunk_sums_reference(args)
    assert (kept, discarded) == (r_kept, r_discarded)
    assert abs(s1 - r1) <= 1e-12 * abs_sum
    assert abs(s2 - r2) <= 1e-12 * r2


# ---------------------------------------------------------------------
# the determinant plan against a dense determinant
# ---------------------------------------------------------------------

OUT_DEGREE_2 = graphs_with_profile(3, 2, (2, 2, 2))
PLAN_GRAPHS = ([opposite_wheel(l) for l in range(2, 7)]
               + [gamma0(k) for k in range(2, 5)]
               + [ORACLE_GRAPHS["aerial-ground"]] + OUT_DEGREE_2)


def _terms(graph):
    return len(_det_plan(graph)[4])


def test_determinant_plan_term_counts():
    for l in range(2, 41):
        assert _terms(opposite_wheel(l)) == l - 1
    for k in range(1, 5):
        assert _terms(gamma0(k)) == 1
    assert len(OUT_DEGREE_2) == 216
    assert Counter(map(_terms, OUT_DEGREE_2)) == {0: 65, 1: 115, 2: 32, 3: 4}
    assert max(map(_terms, graphs_with_profile(2, 2, (2, 2)))) == 1


def test_wheel_plans_cut_the_branches_that_cannot_fill_a_block():
    # the search for a plan's terms cuts a branch once some vertex lacks
    # more rows than it has edges left, so the 24-wheel stays within the
    # line budget (the uncut search grew 3-5x per two rim vertices and
    # took seconds at the 22-wheel)
    sys.settrace(_LineBudget(500_000))
    try:
        assert _terms(opposite_wheel(24)) == 23
    finally:
        sys.settrace(None)


def test_determinant_plan_matches_the_dense_determinant():
    # With no kernel component the mixture density is 1, so the integrand
    # is the plan's sum times the chart factor.  It must equal
    # np.linalg.det of the (radius, angle) Jacobian built as the chunk
    # oracle builds it.  One term's sign flipped, or a source's partials
    # taken as a target's, puts the 3-wheel far outside the bound.
    rng = np.random.default_rng(17)
    vanishing = Counter()
    for graph in PLAN_GRAPHS:
        r = rng.random((300, graph.n - 1))
        ang = rng.random((300, graph.n - 1))               # in turns
        alpha = np.sort(rng.random((300, graph.m)), axis=1)
        vals, discarded = _block_values(_det_plan(graph), None, r, ang, alpha,
                                        buf=_arena()[0])
        assert discarded == 0
        jac = dense_jacobian(graph, r, ang * TWO_PI, alpha * TWO_PI)[0]
        dets = np.linalg.det(jac)
        hadamard = np.prod(np.linalg.norm(jac, axis=2), axis=1)
        scale = np.sum(np.abs(dets))
        if scale > 1e-12 * np.sum(hadamard):
            assert np.max(np.abs(vals - dets)) <= 1e-12 * scale, graph
            continue
        # a vanishing determinant: both sides are rounding, far below the
        # product of the row norms; with no term the plan gives exactly 0
        vanishing[_terms(graph)] += 1
        assert np.all(np.abs(dets) <= 1e-12 * hadamard), graph
        assert np.all(np.abs(vals) <= 1e-12 * hadamard), graph
        assert _terms(graph) or not vals.any(), graph
    assert vanishing == {0: 65, 2: 2, 3: 4}


@pytest.mark.parametrize("name, a, b", [
    ("wheel-2", 0, 1),          # vertices 2 and 3, joined by an edge
    ("wheel-4", 0, 1),          # vertices 2 and 3, joined by an edge
    ("wheel-4", 0, 2),          # vertices 2 and 4, which no edge joins
    ("gamma0(2)", None, None),  # two ground points, which no edge joins
])
def test_near_collisions_are_dropped_as_the_reference_drops_them(name, a, b):
    # the filter reads a joined pair's distance from the edge partials and
    # measures the other pairs itself; every third sample puts the two
    # points within the margin, so each of the two routes is exercised
    graph = ORACLE_GRAPHS[name]
    rng = np.random.default_rng(3)
    r = rng.random((300, graph.n - 1))
    ang = rng.random((300, graph.n - 1))
    alpha = rng.random((300, graph.m))
    if a is None:
        alpha[::3, 1] = alpha[::3, 0]
    else:
        r[::3, b] = r[::3, a]
        ang[::3, b] = ang[::3, a] + 1e-13
    plan = _det_plan(graph)
    vals, dropped = _block_values(plan, None, r, ang, alpha, buf=_arena()[0])
    ref, ref_dropped = helpers._block_values_reference(plan, (), r, ang,
                                                       alpha)
    assert dropped == ref_dropped >= 100
    assert np.array_equal(vals, ref)


@pytest.mark.parametrize("name", ["wheel-3", "mixed"])
def test_a_coin_on_an_interval_start_picks_as_searchsorted_does(name):
    graph = ORACLE_GRAPHS[name]
    mix = _mixture_plan(graph)
    rng = np.random.default_rng(4)
    r, ang = rng.random((2, 400, graph.n - 1))
    alpha = rng.random((400, graph.m))
    coin, rho_u, turn = rng.random((3, 400))
    coin[::2] = np.resize(mix[0], 200)          # exactly on a start
    plan = _det_plan(graph)
    got = _block_values(plan, mix, r, ang, alpha, coin, rho_u, turn,
                        buf=_arena()[0])
    want = helpers._block_values_reference(
        plan, _kernel_components(graph), r, ang, alpha, coin, rho_u, turn)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])


class _LineBudget:
    """A trace function that raises once the traced code runs too long."""

    def __init__(self, lines):
        self.left = lines

    def __call__(self, frame, event, arg):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("still running after the line budget")
        return self


@pytest.mark.parametrize("chunk_size", [0, -5])
def test_chunk_size_below_one_is_rejected(chunk_size):
    # such a size never shrinks what is left to split, so the task list
    # would grow without end; the budget turns a hang into a failure
    sys.settrace(_LineBudget(10_000))
    try:
        with pytest.raises(ValueError, match="chunk size"):
            mc_weight(opposite_wheel(2), 1000, chunk_size=chunk_size)
    finally:
        sys.settrace(None)


def test_pool_size_never_exceeds_chunks_or_cores(monkeypatch):
    # the cores this process may run on, not the host's count
    monkeypatch.setattr("formaldisk.weights.os.sched_getaffinity",
                        lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr("formaldisk.weights.os.cpu_count", lambda: 64)
    assert _pool_size(1, 8) == 1
    assert _pool_size(3, 8) == 3
    assert _pool_size(64, 8) == 4
    assert _pool_size(64, 2) == 2
    # no affinity call on this platform: the host's count, or 1
    monkeypatch.delattr("formaldisk.weights.os.sched_getaffinity",
                        raising=False)
    monkeypatch.setattr("formaldisk.weights.os.cpu_count", lambda: 4)
    assert _pool_size(64, 8) == 4
    monkeypatch.setattr("formaldisk.weights.os.cpu_count", lambda: None)
    assert _pool_size(64, 8) == 1


def test_estimate_reports_the_requested_workers():
    # one chunk: no pool starts, yet the report keeps the requested count
    assert mc_weight(gamma0(2), 1000, seed=0, workers=64).workers == 64


def test_estimate_serializes():
    est = mc_weight(gamma0(1), 1000, seed=0)
    row = est.to_json()
    assert set(row) >= {"value", "stderr", "integral", "prefactor",
                        "samples", "seed", "digest"}
    assert row["samples"] == 1000


# ---------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    path = tmp_path / "w.jsonl"
    g = gamma0(2)
    first, hit1 = mc_weight_cached(g, 5000, seed=3, cache_path=str(path))
    again, hit2 = mc_weight_cached(g, 5000, seed=3, cache_path=str(path))
    assert (hit1, hit2) == (False, True)
    assert first.value == again.value and first.stderr == again.stderr
    # same graph, different parameters: miss
    _, hit3 = mc_weight_cached(g, 6000, seed=3, cache_path=str(path))
    assert not hit3
    _, hit4 = mc_weight_cached(g, 5000, seed=4, cache_path=str(path))
    assert not hit4


@pytest.mark.parametrize("samples, seed, workers, match", [
    (1000, 0, 0, "worker count"),
    (1000, 0, 1.5, "worker count"),
    (1000.0, 0, 1, "sample count"),
    (1000, -1, 1, "non-negative integer"),
])
def test_cached_call_checks_its_arguments_before_the_cache(
        tmp_path, samples, seed, workers, match):
    # a stored row used to be served whatever the worker count
    path = str(tmp_path / "w.jsonl")
    g = gamma0(2)
    est = mc_weight(g, 1000, seed=0)
    cache_store(path, est)
    cache_store(path, dataclasses.replace(est, seed=-1))
    assert cache_lookup(path, g.canonical_hash(), samples, seed) is not None
    with pytest.raises(ValueError, match=match):
        mc_weight_cached(g, samples, seed=seed, workers=workers,
                         cache_path=path)


def test_cache_survives_corrupt_lines(tmp_path):
    path = tmp_path / "w.jsonl"
    g = gamma0(1)
    est, _ = mc_weight_cached(g, 2000, seed=0, cache_path=str(path))
    raw = path.read_text()
    path.write_text("not json at all {{{\n" + raw + "\n\n{\"half\": true\n")
    found = cache_lookup(str(path), est.digest, 2000, 0)
    assert found is not None
    assert found.value == est.value


def test_cache_lookup_warns_once_for_all_unreadable_lines(tmp_path, capsys):
    path = tmp_path / "w.jsonl"
    path.write_text("not json\n{\"digest\": \"y\"}\n{{{\n\n")
    assert cache_lookup(str(path), "x", 1, 0) is None
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: 2 unreadable cache line(s) in ")
    # a line of valid JSON that is not a row counts as unreadable too
    path.write_text("[1, 2]\n")
    assert cache_lookup(str(path), "x", 1, 0) is None
    assert "warning: 1 unreadable" in capsys.readouterr().err


def test_matching_row_missing_a_field_or_not_a_number_is_unreadable(
        tmp_path, capsys):
    # a row that matches digest, samples, seed and sampler but lacks a
    # field used to raise KeyError; one with a string value was served
    path = tmp_path / "w.jsonl"
    est = mc_weight(gamma0(1), 1000, seed=0)
    row = dict(est.to_json(), sampler=SAMPLER)
    lacking = {k: v for k, v in row.items() if k != "stderr"}
    path.write_text(json.dumps(lacking) + "\n"
                    + json.dumps(dict(row, value=str(est.value))) + "\n")
    assert cache_lookup(str(path), est.digest, 1000, 0) is None
    assert "warning: 2 unreadable" in capsys.readouterr().err
    cache_store(str(path), est)
    assert cache_lookup(str(path), est.digest, 1000, 0) == est


def test_cache_lookup_missing_file(tmp_path):
    assert cache_lookup(str(tmp_path / "absent.jsonl"), "x", 1, 0) is None


def test_cache_store_appends(tmp_path):
    path = tmp_path / "w.jsonl"
    est = mc_weight(gamma0(1), 1000)
    cache_store(str(path), est)
    cache_store(str(path), est)
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["digest"] == est.digest


def test_cache_row_of_another_sampler_misses(tmp_path):
    path = tmp_path / "w.jsonl"
    est = mc_weight(gamma0(1), 1000, seed=0)
    cache_store(str(path), est)
    assert json.loads(path.read_text())["sampler"] == SAMPLER
    assert cache_lookup(str(path), est.digest, 1000, 0) == est
    # a row without the field (written before rows carried one) misses,
    # and so does a row from a sampler with another fingerprint: v2 is the
    # dense-Jacobian kernel and v3 the kernel that took its directions
    # from libm sin and cos; both give sums that differ in the last bits
    v3 = "v3 chunk=250000 rmin=0.0001 rmax=2.0 base=0.5 margin=1e-09"
    assert SAMPLER == "v4" + v3[2:]
    for row in (est.to_json(), dict(est.to_json(), sampler="v1"),
                dict(est.to_json(), sampler="v2" + v3[2:]),
                dict(est.to_json(), sampler=v3)):
        path.write_text(json.dumps(row) + "\n")
        assert cache_lookup(str(path), est.digest, 1000, 0) is None
