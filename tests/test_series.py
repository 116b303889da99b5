import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from formaldisk import (DEFAULT_CAP, TruncatedSeries, SeriesMatrix,
                        exp_series, nilpotent_powers, series_at,
                        sinh_quotient_series)
from formaldisk.series import bernoulli_numbers, univariate
import formaldisk

import helpers
from helpers import (bernoulli, series_add_reference, series_agrees_reference,
                     series_mul_reference, series_partial_reference,
                     series_scale_reference, useries_log)


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
# integer numerators over one denominator
# ---------------------------------------------------------------------

def assert_normal(s):
    """Normal form: int numerators, den > 0, gcd 1, den 1 for zero."""
    assert type(s.den) is int and s.den > 0
    assert all(type(n) is int and n for n in s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1
    assert s.nums or s.den == 1


def random_series(rng, dim, cap):
    """Up to six terms up to degree cap + 1, denominators 1, 2, 3, 4, 6, 7."""
    terms = {}
    for _ in range(rng.randrange(7)):
        exp = [0] * dim
        for _ in range(rng.randrange(max(cap + 2, 0) + 1)):
            exp[rng.randrange(dim)] += 1
        terms[tuple(exp)] = Fraction(rng.randint(-5, 5),
                                     rng.choice((1, 2, 3, 4, 6, 7)))
    return TruncatedSeries(dim, cap, terms)


SCALARS = (0, 1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3),
           Fraction(7, 4), Fraction(-6, 7))


def test_int_numerators_match_the_fraction_oracle():
    rng = random.Random(17)
    for _ in range(300):
        dim = rng.randint(1, 4)
        a = random_series(rng, dim, rng.randint(-1, 5))
        b = random_series(rng, dim, rng.randint(-1, 5))
        minus_b = TruncatedSeries(dim, b.cap,
                                  {e: -c for e, c in b.terms.items()})
        c = rng.choice(SCALARS)
        i = rng.randint(1, dim)
        for got, (cap, terms) in [
                (a + b, series_add_reference(a, b)),
                (a - b, series_add_reference(a, minus_b)),
                (a * b, series_mul_reference(a, b)),
                (a.scale(c), series_scale_reference(a, c)),
                (a.partial(i), series_partial_reference(a, i))]:
            assert_normal(got)
            assert got.cap == cap and got.terms == terms
            want = TruncatedSeries(dim, cap, terms)
            assert got == want and hash(got) == hash(want)
        # a copy that differs only above a random degree agrees below it
        k = rng.randint(0, 5)
        near = a + TruncatedSeries.monomial(dim, (k + 1,) + (0,) * (dim - 1),
                                            Fraction(1, 3), a.cap)
        for x, y, through in [(a, b, None), (a, b, k), (a, near, k),
                              (near, a, None)]:
            assert (x.agrees_with(y, through)
                    == series_agrees_reference(x, y, through))
        assert a.agrees_with(near, k)


def test_equal_values_share_one_normal_form():
    t1 = TruncatedSeries.variable(2, 1)
    half = t1.scale(Fraction(1, 2))
    assert half.den == 2
    for got, want in [
            (half + half, t1),
            (t1.scale(Fraction(2, 3)).scale(Fraction(3, 2)), t1)]:
        assert got == want and hash(got) == hash(want)
        assert got.den == 1
    s = TruncatedSeries(2, 5, {(0, 0): Fraction(1, 2), (1, 2): Fraction(-2, 7),
                               (4, 1): Fraction(5, 3)})
    assert s.den == 42
    back = s.scale(2).scale(Fraction(1, 2))
    assert back == s and hash(back) == hash(s)
    for c in (-3, Fraction(-2, 3), -42):
        got = s.scale(c)
        want = TruncatedSeries(2, 5, {e: c * v for e, v in s.terms.items()})
        assert got == want and hash(got) == hash(want)
        assert_normal(got)
    # cancels through the lower cap 3: zero at that cap, over den 1
    low = TruncatedSeries(2, 3, s.terms)
    diff = s - low
    assert diff.is_zero() and diff.cap == 3 and diff.den == 1
    assert diff == TruncatedSeries.zero(2, 3)
    assert hash(diff) == hash(TruncatedSeries.zero(2, 3))


def test_terms_are_fractions_and_read_only():
    s = TruncatedSeries(1, 4, {(1,): Fraction(3, 6), (2,): 2})
    assert s.terms == {(1,): Fraction(1, 2), (2,): Fraction(2)}
    assert all(type(c) is Fraction for c in s.terms.values())
    assert s.coefficient((1,)) == Fraction(1, 2)
    assert type(s.constant_term()) is Fraction
    with pytest.raises(AttributeError):
        s.terms = {}
    with pytest.raises(TypeError):
        TruncatedSeries(1, 4, {(1,): 0.5})
    with pytest.raises(TypeError):
        s.scale(0.5)


# ---------------------------------------------------------------------
# univariate layer
# ---------------------------------------------------------------------

def test_exp_log_inverse():
    # exp at a one-variable argument is e^x evaluated at it
    def exp(f):
        return series_at(exp_series(f.cap, 1), f)
    x = univariate([0, 1] + [0] * 8)
    assert useries_log(exp(x)) == x
    one_plus = univariate([1, 1] + [0] * 8)
    assert exp(useries_log(one_plus)) == one_plus


def test_exp_series_is_a_homomorphism_with_factorial_coefficients():
    a, b = Fraction(-1, 2), Fraction(3)
    e = exp_series(8, a)
    assert e.cap == 8
    assert [e.coefficient((k,)) for k in range(9)] == [
        a ** k / factorial(k) for k in range(9)]
    assert e * exp_series(8, b) == exp_series(8, a + b)
    assert exp_series(8, 0) == univariate([1] + [0] * 8)
    # one shared series per argument; a float never hits an exact entry
    assert exp_series(8, a) is e
    exp_series(8, Fraction(1, 2))
    with pytest.raises(TypeError):
        exp_series(8, 0.5)


def test_univariate_is_capped_at_its_order():
    f = univariate([1, Fraction(1, 2), 0, 3])
    assert (f.dim, f.cap) == (1, 3)
    assert f.terms == {(0,): 1, (1,): Fraction(1, 2), (3,): 3}
    # == compares caps: a trailing zero coefficient raises the cap
    assert univariate([1]) != univariate([1, 0])
    with pytest.raises(TypeError):
        univariate([0.5])


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
    assert s.coefficient((k,)) == value
    if k + 1 <= 6:
        assert s.coefficient((k + 1,)) == 0


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
    e = series_at(exp_series(64, 1), n)
    assert e.rows == [{0: TruncatedSeries.const(2, 1, 5), 1: t1},
                      {1: TruncatedSeries.const(2, 1, 5)}]


def test_series_at_matrix_geometric():
    # f = 1/(1-x) at a nilpotent matrix equals the finite geometric sum
    t1, t2 = _nilpotent_pair()
    one = univariate([1] * 7)
    m = SeriesMatrix([[t1 * t1, t2], [TruncatedSeries.zero(2, 5), t1 * t2]])
    val = series_at(one, m)
    acc = m.one_like()
    power = m.one_like()
    for _ in range(5):
        power = power * m
        acc = acc + power
    assert val.rows == acc.rows


def test_matrix_product_entry_caps_are_their_own():
    # M = [[t (cap 2), t (cap 6)], [t (cap 6), t (cap 6)]]: entry (1,1) of
    # M*M is t*t + t*t from cap-6 factors only, so 2 t^2 at cap 6; entry
    # (0,0) has a cap-2 product and stays at cap 2
    low = TruncatedSeries.variable(1, 1, 2)
    t = TruncatedSeries.variable(1, 1, 6)
    sq = SeriesMatrix([[low, t], [t, t]]) * SeriesMatrix([[low, t], [t, t]])
    assert sq.rows[1][1] == (t * t).scale(2)
    assert sq.rows[1][1].cap == 6
    assert sq.rows[0][1].cap == sq.rows[1][0].cap == 2
    assert sq.rows[0][0].cap == 2


def _sparse_nilpotent(rng, size, dim=2, cap=4):
    # entries at one cap without constant term, about half of them zero:
    # M^(cap+1) = 0
    def entry():
        terms = {}
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            exp = [0] * dim
            for _ in range(rng.randint(1, cap)):
                exp[rng.randrange(dim)] += 1
            terms[tuple(exp)] = Fraction(rng.choice((-3, -1, 1, 2)),
                                         rng.choice((1, 2, 3)))
        return TruncatedSeries(dim, cap, terms)
    return SeriesMatrix([[entry() for _ in range(size)] for _ in range(size)])


@pytest.mark.parametrize("seed", range(8))
def test_sparse_product_matches_the_dense_reference(seed):
    # the product takes no product of a zero entry; over one cap that
    # gives the dense running + exactly, and so does f(M)
    rng = random.Random(seed)
    size = rng.randint(2, 4)
    a, b = _sparse_nilpotent(rng, size), _sparse_nilpotent(rng, size)
    assert any(len(row) < size for row in a.rows + b.rows)
    for x, y in ((a, b), (b, a), (a, a)):
        ref = helpers.matrix_mul_reference(x, y)
        got = x * y
        assert got.rows == ref.rows and got.zero == ref.zero
    f = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)]
    one, zero = a.zero.one_like(), a.zero
    ref = [[one.scale(f[0]) if i == j else zero for j in range(size)]
           for i in range(size)]
    power = a
    for k in range(1, len(f)):
        for i, row in enumerate(helpers.dense_entries(power)):
            for j, e in enumerate(row):
                ref[i][j] = ref[i][j] + e.scale(f[k])
        power = helpers.matrix_mul_reference(power, a)
    assert power.is_zero()
    assert series_at(univariate(f), a).rows == SeriesMatrix(ref).rows


def test_nilpotent_powers_stop_at_the_first_vanishing_power():
    t1, t2 = _nilpotent_pair()
    z = TruncatedSeries.zero(2, 5)
    m = SeriesMatrix([[z, t1, t2], [z, z, t1], [z, z, z]])
    powers = list(nilpotent_powers(m, 2))
    assert [k for k, _ in powers] == [1, 2]
    assert powers[0][1] is m
    assert powers[1][1].rows[0] == {2: t1 * t1}
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
        series_at(exp_series(64, 1), identity)
    with pytest.raises(ValueError):
        series_at(univariate([1] * 7), identity)
    with pytest.raises(ValueError):
        series_at(exp_series(6, 1), univariate([1, 1]))


def test_default_cap_is_eight():
    assert DEFAULT_CAP == 8
    assert TruncatedSeries.variable(1, 1).cap == 8
