from fractions import Fraction

import pytest

from formaldisk import (DEFAULT_CAP, TruncatedSeries, UnivariateSeries,
                        SeriesMatrix, matrix_exp, nilpotent_powers,
                        series_at_matrix, sinh_quotient_series, useries_exp)
from formaldisk.series import bernoulli_numbers
import formaldisk

from helpers import bernoulli, useries_log


def test_every_public_name_resolves():
    # a stale entry in __all__ breaks `from formaldisk import *`
    assert [n for n in formaldisk.__all__ if not hasattr(formaldisk, n)] == []


def test_constructor_prunes_beyond_cap():
    s = TruncatedSeries(2, 3, {(0, 0): 1, (2, 2): 5, (3, 0): Fraction(1, 2)})
    assert (2, 2) not in s.terms
    assert s.coefficient((3, 0)) == Fraction(1, 2)
    assert s.coefficient((2, 2)) == 0


def test_mul_respects_min_cap():
    a = TruncatedSeries.variable(1, 1, cap=4)
    b = TruncatedSeries.variable(1, 1, cap=2)
    p = a * b
    assert p.cap == 2
    assert p.coefficient((2,)) == 1
    # cap 2 kills the product of two quadratics
    q = (a * a) * (b * b)
    assert q.is_zero()


def test_arithmetic_and_partial():
    t1 = TruncatedSeries.variable(2, 1)
    t2 = TruncatedSeries.variable(2, 2)
    f = (t1 + t2) * (t1 - t2)
    assert f == t1 * t1 - t2 * t2
    # partial lowers the validity cap, so compare raw terms
    assert f.partial(1).terms == {(1, 0): Fraction(2)}
    assert f.partial(2).terms == {(0, 1): Fraction(-2)}
    assert f.partial_multi((1, 1)).is_zero()
    g = t1 * t1 * t2
    assert g.partial_multi((2, 1)).terms == {(0, 0): Fraction(2)}


def test_agrees_with_clamps_to_min_cap():
    a = TruncatedSeries(1, 8, {(0,): 1, (5,): 7})
    b = TruncatedSeries(1, 4, {(0,): 1, (5,): 3})  # (5,) pruned: over cap
    # through=6 exceeds b's validity; comparison clamps to 4 and passes
    assert a.agrees_with(b, 6)
    c = TruncatedSeries(1, 4, {(0,): 1, (3,): 1})
    assert not a.agrees_with(c, 6)


@pytest.mark.parametrize("c", [1, Fraction(1), -1, Fraction(-1)])
def test_scale_by_a_unit_equals_the_multiplied_series(c):
    s = TruncatedSeries(2, 5, {(0, 0): 3, (1, 2): Fraction(-2, 7),
                               (4, 1): Fraction(5, 3)})
    got = s.scale(c)
    assert got == TruncatedSeries(2, 5, {e: c * v for e, v in s.terms.items()})
    assert got == s * TruncatedSeries.const(2, c, 5)
    assert got.cap == s.cap
    assert TruncatedSeries.zero(2, -1).scale(c) == TruncatedSeries.zero(2, -1)


def test_json_roundtrip():
    s = TruncatedSeries(3, 5, {(1, 0, 2): Fraction(-7, 3), (0, 0, 0): 2})
    assert TruncatedSeries.from_json(s.to_json()) == s
    assert TruncatedSeries.from_json(s.to_json()).cap == 5


# ---------------------------------------------------------------------
# univariate layer
# ---------------------------------------------------------------------

def test_exp_log_inverse():
    x = UnivariateSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * 8)
    assert useries_log(useries_exp(x)) == x
    one_plus = UnivariateSeries([Fraction(1), Fraction(1)] + [Fraction(0)] * 8)
    assert useries_exp(useries_log(one_plus)) == one_plus


def test_bernoulli_numbers_match_the_defining_recurrence():
    # the oracle's recurrence has B_1 = -1/2; the toolkit's table +1/2
    want = [bernoulli(n) for n in range(21)]
    want[1] = -want[1]
    assert list(bernoulli_numbers(20)) == want


@pytest.mark.parametrize("k,value", [
    (0, Fraction(1)),
    (2, Fraction(1, 24)),
    (4, Fraction(1, 1920)),
])
def test_sinh_quotient_coefficients(k, value):
    # (e^{x/2}-e^{-x/2})/x = sum_k x^{2k} / (4^k (2k+1)!)
    s = sinh_quotient_series(6)
    assert s[k] == value
    if k + 1 <= 6:
        assert s[k + 1] == 0


# ---------------------------------------------------------------------
# matrices of series
# ---------------------------------------------------------------------

def _nilpotent_pair(cap=5):
    t1 = TruncatedSeries.variable(2, 1, cap)
    t2 = TruncatedSeries.variable(2, 2, cap)
    return t1, t2


def test_matrix_exp_of_strictly_triangular():
    t1, t2 = _nilpotent_pair()
    z = TruncatedSeries.zero(2, 5)
    n = SeriesMatrix([[z, t1], [z, z]])
    e = matrix_exp(n)
    assert e.entries[0][0] == TruncatedSeries.const(2, 1, 5)
    assert e.entries[0][1] == t1
    assert e.entries[1][0].is_zero()


def test_series_at_matrix_geometric():
    # f = 1/(1-x) at a nilpotent matrix equals the finite geometric sum
    t1, t2 = _nilpotent_pair()
    one = UnivariateSeries([Fraction(1)] * 7)
    m = SeriesMatrix([[t1 * t1, t2], [TruncatedSeries.zero(2, 5), t1 * t2]])
    val = series_at_matrix(one, m)
    acc = SeriesMatrix.identity_like(m)
    power = SeriesMatrix.identity_like(m)
    for _ in range(5):
        power = power * m
        acc = acc + power
    assert all(val.entries[i][j] == acc.entries[i][j]
               for i in range(2) for j in range(2))


def test_matrix_product_entry_caps_are_their_own():
    # M = [[t (cap 2), t (cap 6)], [t (cap 6), t (cap 6)]]: entry (1,1) of
    # M*M is t*t + t*t from cap-6 factors only, so 2 t^2 at cap 6; entry
    # (0,0) has a cap-2 product and stays at cap 2, and so does the trace
    low = TruncatedSeries.variable(1, 1, 2)
    t = TruncatedSeries.variable(1, 1, 6)
    sq = SeriesMatrix([[low, t], [t, t]]) * SeriesMatrix([[low, t], [t, t]])
    assert sq.entries[1][1] == (t * t).scale(2)
    assert sq.entries[1][1].cap == 6
    assert sq.entries[0][1].cap == sq.entries[1][0].cap == 2
    assert sq.entries[0][0].cap == sq.trace().cap == 2


def test_nilpotent_powers_stop_at_the_first_vanishing_power():
    t1, t2 = _nilpotent_pair()
    z = TruncatedSeries.zero(2, 5)
    m = SeriesMatrix([[z, t1, t2], [z, z, t1], [z, z, z]])
    powers = list(nilpotent_powers(m, 2))
    assert [k for k, _ in powers] == [1, 2]
    assert powers[0][1] is m
    assert powers[1][1].entries[0][2] == t1 * t1
    assert (powers[1][1] * m).is_zero()
    # M^3 = 0, so any kmax >= 2 gives the same powers; kmax = 1 raises
    assert [k for k, _ in nilpotent_powers(m, 64)] == [1, 2]
    with pytest.raises(ValueError):
        list(nilpotent_powers(m, 1))
    assert list(nilpotent_powers(SeriesMatrix([[z]]), 0)) == []


def test_matrix_functions_reject_a_non_nilpotent_argument():
    one = TruncatedSeries.const(2, 1, 5)
    z = TruncatedSeries.zero(2, 5)
    identity = SeriesMatrix([[one, z], [z, one]])
    with pytest.raises(ValueError):
        matrix_exp(identity)
    with pytest.raises(ValueError):
        series_at_matrix(UnivariateSeries([Fraction(1)] * 7), identity)


def test_default_cap_is_eight():
    assert DEFAULT_CAP == 8
    assert TruncatedSeries.variable(1, 1).cap == 8
