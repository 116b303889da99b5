"""Graph evaluation, the first Taylor coefficient, and the wheel identity.

The frozen values below were derived by hand; the derivations are kept
in the comments so they can be re-checked without any code.
"""

import importlib.util
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from formaldisk import (AdmissibleGraph, DifferentialForm, EtaFormScalar,
                        EtaOperator, MaurerCartanData, PolyVectorField,
                        SeriesMatrix, TruncatedSeries, weights,
                        closed_form_map, contract, enumerate_graphs, gamma0,
                        graph_operator, hkr, theta_and_det,
                        twisted_first_taylor, u_one,
                        xi_matrix, todd_series, tilde_todd_series,
                        exp_series, sinh_quotient_series)
from formaldisk.cli import _standard_pair
from formaldisk.graphs import wheel_survivors
from formaldisk.series import univariate
from formaldisk.suites import random_field, random_series

import helpers
from helpers import wheel_graph_weight

CAP = 8


def test_u_one_equals_hkr_on_random_fields():
    rng = random.Random(77)
    for _ in range(30):
        dim = rng.randint(1, 3)
        fld = random_field(rng, dim, 6, rng.randint(-1, dim - 1))
        assert u_one(fld) == hkr(fld)


def test_corolla_operator_is_full_antisymmetrization():
    # gamma0(m) carries no aerial derivatives, so its operator on a
    # wedge field is the plain signed component sum (no 1/m! here)
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    pi = PolyVectorField(dim, 1, {(1, 2): t1})
    op = graph_operator(gamma0(2), [pi])
    f = t1 * t1
    g = TruncatedSeries.variable(dim, 2, CAP)
    assert op.apply([f, g]).agrees_with(helpers.biv_action(pi, f, g), CAP - 2)


def test_frozen_three_edge_graph_value():
    # G: edges (1,2),(1,3),(2,3); B = t2 d1^d2 on vertex 1,
    # X = t1 t2 d1 on vertex 2, ground function u = t1^2.
    #
    # Axis assignments (a on (1,2), b on (1,3), c on (2,3)) must pick a
    # component of B at (a,b) and of X at (c), with the edge (1,2)
    # differentiating X:
    #   (1,2,1): B^{12} d1(t1 t2) = t2 * t2   acting as d2 d1 u
    #   (2,1,1): B^{21} d2(t1 t2) = -t2 * t1  acting as d1 d1 u
    # On u = t1^2 only the second survives: -t1 t2 * 2 = -2 t1 t2.
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    G = AdmissibleGraph(2, 1, ((1, 2), (1, 3), (2, 3)))
    B = PolyVectorField(dim, 1, {(1, 2): t2})
    X = PolyVectorField(dim, 0, {(1,): t1 * t2})
    val = graph_operator(G, [B, X]).apply([t1 * t1])
    assert val.agrees_with((t1 * t2).scale(-2), CAP - 3)


def test_graph_operator_degree_mismatch_gives_zero():
    # the center needs out-degree = wedge factors; a vector field on a
    # two-out-edge vertex contributes nothing
    dim = 2
    v = PolyVectorField(dim, 0, {(1,): TruncatedSeries.variable(dim, 1, CAP)})
    op = graph_operator(gamma0(2), [v])
    assert op.is_zero()


def test_graph_operator_matches_bruteforce_oracle():
    # the sparse component walk against the dim^E assignment loop on
    # every graph of five small shapes, with random fields of several
    # components at mixed caps; each graph is also run once with a
    # wrong-degree field on vertex 1, which must give the zero operator
    rng = random.Random(4)
    nonzero = function_vertex = 0
    for dim in (2, 3):
        for n, m in ((1, 2), (2, 0), (2, 1), (2, 2), (3, 0)):
            for g in enumerate_graphs(n, m):
                degrees = [g.out_degree(v) - 1 for v in range(1, n + 1)]
                fields = [random_field(rng, dim, rng.choice((6, 8)), p, 3)
                          for p in degrees]
                wrong = [random_field(rng, dim, 8, degrees[0] + 1, 3)]
                for fs in (fields, wrong + fields[1:]):
                    op = graph_operator(g, fs)
                    oracle = helpers.graph_operator_bruteforce(g, fs)
                    assert op == oracle
                    assert op.to_json() == oracle.to_json()
                    if fs is fields:
                        nonzero += not op.is_zero()
                        function_vertex += -1 in degrees and not op.is_zero()
                    else:
                        assert op.is_zero() and op.degree == m - 1
    assert nonzero >= 40 and function_vertex > 0


def test_graph_operator_sum_is_independent_of_term_order():
    # G: edges (1,2),(2,1); with X on vertex 1 and Y on vertex 2 the
    # assignment (i, j) adds d_j X^i * d_i Y^j at the empty slot tuple.
    # X^1 = X^2 = t1 + t2 and Y^2 = -2 t1 + t2 at cap 8, Y^1 = t1 + t2 at
    # cap 6 give the terms (1,1): 1 [cap 5], (1,2): -2 [7], (2,1): 1 [5],
    # (2,2): 1 [7].  Swapping the fields visits the same terms as
    # 1 [5], 1 [5], -2 [7], 1 [7].  Either way the running sum cancels
    # after three terms; the sum of all four is 1 at the lowest cap, 5.
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    low = (TruncatedSeries.variable(dim, 1, 6)
           + TruncatedSeries.variable(dim, 2, 6))
    X = PolyVectorField(dim, 0, {(1,): t1 + t2, (2,): t1 + t2})
    Y = PolyVectorField(dim, 0, {(1,): low, (2,): t2 - t1.scale(2)})
    G = AdmissibleGraph(2, 0, ((1, 2), (2, 1)))
    for fields in ([X, Y], [Y, X]):
        op = graph_operator(G, fields)
        assert op == helpers.graph_operator_bruteforce(G, fields)
        assert op.terms == {(): TruncatedSeries.const(dim, 1, CAP - 3)}


def _mixed_cap_field(rng, dim, factors):
    # up to two stored keys, each a polynomial of degree up to 4 at its
    # own cap in 3..8, so that partials vanish and products truncate at
    # several depths
    keys = list(combinations(range(1, dim + 1), factors))
    return PolyVectorField(dim, factors - 1, {
        key: random_series(rng, dim, rng.randint(3, 8), 4)
        for key in rng.sample(keys, min(2, len(keys)))})


def test_graph_operator_matches_bruteforce_on_wheel_survivors():
    # the wheel families at d = 3: the center's spokes differentiate
    # cycle vertices that are already placed, the branch the walk cuts
    # at its first zero partial
    rng = random.Random(18)
    dim = 3
    nonzero = 0
    for j in (2, 3):
        for m in (0, 1, 2):
            for g, _ in wheel_survivors(j, m):
                for _ in range(4):
                    fields = [_mixed_cap_field(rng, dim, g.out_degree(v))
                              for v in range(1, g.n + 1)]
                    op = graph_operator(g, fields)
                    assert op == helpers.graph_operator_bruteforce(g, fields)
                    nonzero += not op.is_zero()
    assert nonzero >= 8


def test_wheel_graph_weight_values():
    # cycle type (2,), no ground vertices:
    #   cross terms: none; internal pairs of the 2-cycle: 1
    #   (-1)^{(0+4)(0+3)/2} = (-1)^6 = +1, (-1)^j = +1, 1/0! = 1
    # so the weight is W_2 = 1/24
    assert wheel_graph_weight((2,), 0) == Fraction(1, 24)
    # with one ground slot: (m+2j)(m+2j-1)/2 = 5*4/2 = 10, still even
    assert wheel_graph_weight((2,), 1) == Fraction(1, 24)
    # two ground slots: 6*5/2 = 15 odd flips the sign, 1/2! halves
    assert wheel_graph_weight((2,), 2) == Fraction(-1, 48)
    # odd cycles carry zero weight
    assert wheel_graph_weight((3,), 0) == 0
    # (2,2): cross = 4 even, j = 4 even, (m+2j)(m+2j-1)/2 = 8*7/2 = 28
    assert wheel_graph_weight((2, 2), 0) == Fraction(1, 24) ** 2


def test_xi_matrix_entries():
    # omega_1 = t2^2 d1 gives Xi^1_2 = 2 eta_1 dt2 and nothing else
    dim = 2
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    mc = MaurerCartanData([PolyVectorField(dim, 0, {(1,): t2 * t2})])
    xi = xi_matrix(mc)
    entry = xi.rows[0][1]
    assert set(entry.terms) == {((1,), (2,))}
    assert entry.terms[((1,), (2,))].constant_term() == 2
    assert xi.rows == [{1: entry}, {}]


def test_linear_twisting_data_is_flat():
    # constant first derivatives make Xi = 0 and det(e^Theta) = 1
    dim = 2
    mc = MaurerCartanData([
        PolyVectorField(dim, 0, {(1,): TruncatedSeries.variable(dim, 2, CAP)})])
    xi = xi_matrix(mc)
    assert xi.rows == [{}, {}]
    det = theta_and_det(xi)
    assert det == det.one_like()
    gamma = PolyVectorField.from_wedge(dim, (1, 2))
    closed = closed_form_map(mc, gamma)
    assert list(closed.parts) == [()]
    assert closed.parts[()] == hkr(gamma)


def test_wheel_identity_d2_frozen_coefficient():
    # omega_1 = t2^2 d1, omega_2 = t1^2 d2, gamma = d1^d2.
    # Xi^1_2 = 2 eta_1 dt2, Xi^2_1 = 2 eta_2 dt1, so
    # tr Xi^2 = 8 eta_1 eta_2 dt1 dt2 (both reorderings contribute +).
    # Theta's l=2 sign is -(W_2/2) = -1/48, so tr Theta =
    # -(1/6) eta_1 eta_2 dt1 dt2 and det = 1 - (1/6) eta_1 eta_2 dt1 dt2.
    # Contraction of dt1^dt2 into d1^d2 is -1 (iterated interior
    # product), leaving +1/6 as the eta_1 eta_2 component.
    dim = 2
    u1 = TruncatedSeries.variable(dim, 1, CAP)
    u2 = TruncatedSeries.variable(dim, 2, CAP)
    mc = MaurerCartanData([
        PolyVectorField(dim, 0, {(1,): u2 * u2}),
        PolyVectorField(dim, 0, {(2,): u1 * u1}),
    ])
    gamma = PolyVectorField.from_wedge(dim, (1, 2))
    # the contraction convention the derivation above relies on:
    form = DifferentialForm.from_wedge(dim, (1, 2), 1)
    assert helpers.as_function(contract(form, gamma)).constant_term() == -1
    for res in (twisted_first_taylor(mc, gamma), closed_form_map(mc, gamma)):
        part = res.parts[(1, 2)]
        assert part.degree == -1
        assert part.terms[()].constant_term() == Fraction(1, 6)
        # the eta-free part is the untwisted quantization
        assert res.parts[()].agrees_with(hkr(gamma), CAP - 3)


def test_twisted_taylor_j0_is_u_one():
    dim = 3
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    mc = MaurerCartanData([PolyVectorField(dim, 0, {(1,): t2})])
    gamma = PolyVectorField.from_wedge(dim, (1, 3))
    res = twisted_first_taylor(mc, gamma)  # one eta: no cycle survives
    assert list(res.parts) == [()]
    assert res.parts[()].agrees_with(u_one(gamma), CAP - 2)


def test_wheel_identity_with_ground_slot():
    # a d=3 variant where the surviving operator keeps one argument slot
    dim = 3
    s1 = TruncatedSeries.variable(dim, 1, CAP)
    s2 = TruncatedSeries.variable(dim, 2, CAP)
    mc = MaurerCartanData([
        PolyVectorField(dim, 0, {(1,): s2 * s2}),
        PolyVectorField(dim, 0, {(2,): s1 * s1}),
    ])
    gamma = PolyVectorField.from_wedge(dim, (1, 2, 3))
    lhs = twisted_first_taylor(mc, gamma)
    rhs = closed_form_map(mc, gamma)
    assert lhs.agrees_with(rhs, CAP - 3)
    part = lhs.parts[(1, 2)]
    assert part.degree == 0   # one slot left over


def _paired_twisting(dim, s=4):
    # omega_1 = t2^2 d1, omega_2 = t1^2 d2, omega_3 = t4^2 d3,
    # omega_4 = t3^2 d4 (and omega_5 = t6^2 d5, omega_6 = t5^2 d6 when
    # s = 6): one 2-wheel per pair, so the products of eta_1 eta_2,
    # eta_3 eta_4 (and eta_5 eta_6) survive
    partner = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
    fields = []
    for alpha in range(1, s + 1):
        t = TruncatedSeries.variable(dim, partner[alpha], CAP)
        fields.append(PolyVectorField(dim, 0, {(alpha,): t * t}))
    return MaurerCartanData(fields)


@pytest.mark.parametrize("dim", [5, 6])
def test_wheel_identity_beyond_the_benchmark_grid(dim):
    # (d, s, |gamma|) = (d, 4, 4), beyond the d <= 4 points at |gamma| = 4
    gamma = PolyVectorField.from_wedge(dim, (1, 2, 3, 4))
    mc = _standard_pair(dim, 4, CAP)   # omega_alpha = t_a t_b d_alpha
    lhs = twisted_first_taylor(mc, gamma)
    assert not lhs.is_zero()
    assert lhs.agrees_with(closed_form_map(mc, gamma), CAP - 3)
    mc = _paired_twisting(dim)
    lhs = twisted_first_taylor(mc, gamma)
    assert set(lhs.parts) == {(), (1, 2), (3, 4), (1, 2, 3, 4)}
    assert lhs.agrees_with(closed_form_map(mc, gamma), CAP - 3)


@pytest.mark.parametrize("dim, s, size, words", [
    (6, 4, 6, {(), (1, 2), (3, 4), (1, 2, 3, 4)}),
    (6, 6, 5, {(), (1, 2), (3, 4), (1, 2, 3, 4)}),
    (7, 6, 4, {(), (1, 2), (3, 4), (1, 2, 3, 4)}),
])
def test_wheel_identity_on_paired_data_at_d6_and_d7(dim, s, size, words):
    # (d, s, |gamma|) with gamma = d1 ^ .. ^ d_size: a pair (a, b) only
    # survives when gamma holds both d_a and d_b
    gamma = PolyVectorField.from_wedge(dim, tuple(range(1, size + 1)))
    mc = _paired_twisting(dim, s)
    lhs = twisted_first_taylor(mc, gamma)
    assert set(lhs.parts) == words
    assert lhs.agrees_with(closed_form_map(mc, gamma), CAP - 3)


# -- the subset sum against the ordered-tuple oracle ------------------

def _partitions(j, largest=None):
    # partitions of j into parts >= 2, largest part first
    if j == 0:
        yield ()
    for first in range(min(j, largest or j), 1, -1):
        for rest in _partitions(j - first, first):
            yield (first,) + rest


def test_wheel_graph_weight_matches_the_ordered_weight():
    # every cycle type of a survivor (no fixed points) with j <= 10, and
    # m <= 6 ground slots: 42 cycle types x 7
    pairs = [(p, m) for j in range(11) for p in _partitions(j)
             for m in range(7)]
    assert len(pairs) == 294
    for p, m in pairs:
        assert wheel_graph_weight(p, m) == helpers.wheel_graph_weight_ordered(
            p, m), (p, m)


def _assert_matches_ordered(mc, gamma):
    # equal caps included: every payload, then every payload's JSON
    lhs = twisted_first_taylor(mc, gamma)
    oracle = helpers.twisted_first_taylor_ordered(mc, gamma)
    assert lhs == oracle
    assert ({eta: op.to_json() for eta, op in lhs.parts.items()}
            == {eta: op.to_json() for eta, op in oracle.parts.items()})
    return lhs


def _benchmark_style(point, seed):
    # omega_alpha = c_alpha t_a t_b d_alpha, a and b the next two axes,
    # c_alpha a random nonzero rational; gamma = d1 ^ .. ^ d_size
    d, s, size = point
    rng = random.Random(seed)
    mc = MaurerCartanData([
        f.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.choice((1, 2, 3))))
        for f in _standard_pair(d, s, CAP).fields])
    return mc, PolyVectorField.from_wedge(d, tuple(range(1, size + 1)))


@pytest.mark.parametrize("point, words", [
    ((3, 3, 3), {()}),
    ((4, 3, 4), {(), (1, 3)}),
    ((4, 4, 4), {(), (1, 3), (2, 4), (1, 2, 3, 4)}),
    ((5, 5, 5), {()}),
])
def test_subset_sum_matches_ordered_oracle_on_benchmark_inputs(point, words):
    lhs = _assert_matches_ordered(*_benchmark_style(point, sum(point)))
    assert set(lhs.parts) == words


@pytest.mark.parametrize("dim", [4, 5])
def test_subset_sum_matches_ordered_oracle_on_paired_data(dim):
    gamma = PolyVectorField.from_wedge(dim, (1, 2, 3, 4))
    lhs = _assert_matches_ordered(_paired_twisting(dim), gamma)
    assert set(lhs.parts) == {(), (1, 2), (3, 4), (1, 2, 3, 4)}


def test_subset_sum_matches_ordered_oracle_on_random_fields():
    # two-term vector fields, each at its own cap from {5, 6, 7, 8}; the
    # count of results with an eta-word guards against a vacuous pass
    twisted = 0
    for d, s, size in ((3, 3, 3), (3, 2, 2), (4, 3, 3)):
        gamma = PolyVectorField.from_wedge(d, tuple(range(1, size + 1)))
        for seed in range(4):
            rng = random.Random(1000 * d + 10 * s + seed)
            mc = MaurerCartanData([random_field(
                rng, d, rng.choice((5, 6, 7, 8)), 0, 2) for _ in range(s)])
            lhs = _assert_matches_ordered(mc, gamma)
            twisted += any(eta for eta in lhs.parts)
    assert twisted >= 3


def _mixed_cap_twisting(seed):
    # every component at its own cap: Xi takes the lowest one as its
    # container cap, and coefficients of a higher cap must be cut down
    # to it before the powers of Tr Theta are taken
    rng = random.Random(seed)
    dim = rng.randint(2, 4)
    fields = []
    for _ in range(rng.randint(2, dim)):
        comps = {}
        for i in rng.sample(range(1, dim + 1), rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = [0] * dim
                for _ in range(rng.randint(2, 4)):
                    exp[rng.randrange(dim)] += 1
                terms[tuple(exp)] = Fraction(rng.choice((-3, -1, 1, 2)),
                                             rng.choice((1, 2, 3)))
            comps[(i,)] = TruncatedSeries(dim, rng.choice((5, 6, 7, 8, 10)),
                                          terms)
        fields.append(PolyVectorField(dim, 0, comps))
    return MaurerCartanData(fields)


def _assert_det_matches_reference(mc):
    # == compares every coefficient series with its cap, but not the
    # container cap
    xi = xi_matrix(mc)
    det = theta_and_det(xi)
    ref = helpers.theta_and_det_reference(xi)
    assert det == ref
    assert det.cap == ref.cap
    return det


def test_det_matches_the_reference_on_the_frozen_pair():
    dim = 2
    u1 = TruncatedSeries.variable(dim, 1, CAP)
    u2 = TruncatedSeries.variable(dim, 2, CAP)
    _assert_det_matches_reference(MaurerCartanData([
        PolyVectorField(dim, 0, {(1,): u2 * u2}),
        PolyVectorField(dim, 0, {(2,): u1 * u1}),
    ]))


@pytest.mark.parametrize("dim", [4, 5])
def test_det_matches_the_reference_on_paired_data(dim):
    det = _assert_det_matches_reference(_paired_twisting(dim))
    assert {eta for eta, _ in det.terms} == {(), (1, 2), (3, 4), (1, 2, 3, 4)}


@pytest.mark.parametrize("seed", range(24))
def test_det_matches_the_reference_on_mixed_caps(seed):
    _assert_det_matches_reference(_mixed_cap_twisting(seed))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_det_matches_the_reference_on_benchmark_data(dim):
    # omega_alpha = c_alpha t_a t_b d_alpha: at most two nonzero entries
    # per row of Xi, the sparsity theta_and_det's rows are built for.
    # On this data det carries an eta-word at even d only; at odd d
    # every trace cancels and det = 1
    mc = _benchmark_style((dim, dim, dim), dim)[0]
    assert all(len(row) <= 2 for row in xi_matrix(mc).rows)
    det = _assert_det_matches_reference(mc)
    assert any(eta for eta, _ in det.terms) == (dim % 2 == 0)


def _bench_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_det_on_the_benchmark_grid_equals_the_series_route_of_exp(
        monkeypatch):
    # exp returns the unit for a zero argument without the series route;
    # on the twisted-taylor GRID at seed 0 most traces are zero
    points = _bench_workloads().TwistedTaylor(0, None).points
    new = [theta_and_det(xi_matrix(mc)) for _, (mc, _) in points]
    args = []

    def series_route(x):
        args.append(x)
        return helpers.eta_exp_reference(x)

    monkeypatch.setattr(EtaFormScalar, "exp", series_route)
    old = [theta_and_det(xi_matrix(mc)) for _, (mc, _) in points]
    assert (len(args), sum(x.is_zero() for x in args)) == (44, 34)
    for a, b in zip(new, old):
        assert a == b and a.cap == b.cap


def test_det_stops_at_a_zero_power_below_d_over_2():
    # omega_1 = t2^2 d1, omega_2 = t3^2 d2 at d = 8: Xi^1_2 = 2 eta_1 dt2
    # and Xi^2_3 = 2 eta_2 dt3, so Xi^2 has the one entry
    # (1, 3) = 4 eta_1 dt2 eta_2 dt3, and Xi^3 = 0 ends the loop before
    # k = d/2 = 4.  Xi is strictly upper triangular, so every trace is
    # zero: the two nonzero powers give empty pieces, and det = 1
    dim = 8
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    t3 = TruncatedSeries.variable(dim, 3, CAP)
    mc = MaurerCartanData([PolyVectorField(dim, 0, {(1,): t2 * t2}),
                           PolyVectorField(dim, 0, {(2,): t3 * t3})])
    xi = xi_matrix(mc)
    square = xi * xi
    assert not square.is_zero() and (square * xi).is_zero()
    det = _assert_det_matches_reference(mc)
    assert det == det.one_like()


def _two_term_twisting(dim, seed, cap):
    # s = dim vector fields, each with two components of two monomials of
    # degree 2 or 3: Xi's entries carry t-dependent coefficients and reach
    # every eta, so Tr Xi^4 (and Tr Xi^6 at d = 6) survive
    rng = random.Random(100 * dim + seed)
    fields = []
    for _ in range(dim):
        comps = {}
        for i in rng.sample(range(1, dim + 1), 2):
            terms = {}
            for _ in range(2):
                exp = [0] * dim
                for _ in range(rng.randint(2, 3)):
                    exp[rng.randrange(dim)] += 1
                terms[tuple(exp)] = Fraction(rng.choice((-3, -1, 1, 2)),
                                             rng.choice((1, 2, 3)))
            comps[(i,)] = TruncatedSeries(dim, cap, terms)
        fields.append(PolyVectorField(dim, 0, comps))
    return MaurerCartanData(fields)


@pytest.mark.parametrize("dim, seed", [(5, 0), (5, 1), (6, 0), (6, 1)])
def test_det_matches_the_reference_on_two_term_data(dim, seed):
    # theta_and_det takes Tr Xi^{2k} as sum_{i,j} (Xi^k)_{ij} (Xi^k)_{ji};
    # eta-words of length 4 need Tr(Xi^2 Xi^2), of length 6 Tr(Xi^3 Xi^3).
    # Taking (Xi^k)_{ij} (Xi^k)_{ij} instead fails every case here.
    det = _assert_det_matches_reference(_two_term_twisting(dim, seed, 4))
    lengths = {len(eta) for eta, _ in det.terms}
    assert lengths == ({0, 2, 4} if dim == 5 else {0, 2, 4, 6})


def test_det_rejects_an_xi_entry_without_a_dt():
    # eta_1 eta_2 has even grade but no dt, so nothing bounds the powers
    dim = 2
    entry = EtaFormScalar(dim, CAP, {((1,), (2,)): 1})
    dt_free = EtaFormScalar(dim, CAP, {((1, 2), ()): 1})
    xi = SeriesMatrix([[entry, dt_free], [entry.zero_like(), entry]])
    with pytest.raises(ValueError, match="dt"):
        theta_and_det(xi)


@pytest.mark.parametrize("dim, seed", [(3, 0), (3, 1), (5, 0)])
def test_wheel_identity_with_eta_words_on_two_term_data(dim, seed):
    # the benchmark's d = 3 and d = 5 points give the eta-free part only;
    # here both sides carry eta-words up to length 2 (d = 3) or 4 (d = 5)
    mc = _two_term_twisting(dim, seed, CAP)
    gamma = PolyVectorField.from_wedge(dim, tuple(range(1, dim + 1)))
    lhs = twisted_first_taylor(mc, gamma)
    rhs = closed_form_map(mc, gamma)
    assert set(lhs.parts) == set(rhs.parts)
    assert max(map(len, lhs.parts)) == 2 * (dim // 2)
    assert lhs.agrees_with(rhs, CAP - 3)


def test_theta_series_is_not_rebuilt_after_a_warm_up_pass():
    # theta's coefficients are cached per order: a second pass over the
    # same points builds none
    cache = weights.theta_series
    cache.cache_clear()
    inputs = [_benchmark_style(point, 0) for point in
              ((2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 4, 4), (5, 5, 3))]

    def one_pass():
        for mc, gamma in inputs:
            assert twisted_first_taylor(mc, gamma).agrees_with(
                closed_form_map(mc, gamma), CAP - 3)
    one_pass()
    warm_up = cache.cache_info().misses
    one_pass()
    assert warm_up > 0
    assert cache.cache_info().misses == warm_up


def test_todd_series_coefficients():
    q = todd_series(6)
    assert [q.coefficient((k,)) for k in range(5)] == [
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
        Fraction(-1, 720)]
    qt = tilde_todd_series(6)
    assert [qt.coefficient((k,)) for k in range(5)] == [
        Fraction(1), Fraction(0), Fraction(-1, 24), Fraction(0),
        Fraction(7, 5760)]
    assert q * exp_series(6, Fraction(-1, 2)) == qt


def test_todd_series_are_the_reciprocals_of_their_closed_forms():
    # (1 - e^{-x})/x = sum_k (-1)^k x^k / (k+1)!, and q~ is 1 over the
    # sinh quotient; both products are 1 through order 16
    order = 16
    one = univariate([1] + [0] * order)
    denom = univariate([Fraction((-1) ** k, factorial(k + 1))
                        for k in range(order + 1)])
    assert todd_series(order) * denom == one
    assert tilde_todd_series(order) * sinh_quotient_series(order) == one


def test_eta_operator_agreement_tolerates_word_mismatch():
    a = EtaOperator(2, {})
    b = EtaOperator(2, {})
    assert a.agrees_with(b, 4)
