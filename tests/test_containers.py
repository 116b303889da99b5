"""Laws shared by the five coefficient containers, and their input checks.

TruncatedSeries, the alternating tensors (PolyVectorField and
DifferentialForm), PolyDiffOp, EtaFormScalar and the eta-graded
containers (EtaField, EtaOperator) all store a key -> coefficient map
without zero coefficients.  Their public constructors validate; the
results of their arithmetic are stored without being checked again.
Every container product is one flat sum over its contributions, so it
does not depend on the order in which the inputs store their terms.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from formaldisk import (DifferentialForm, EtaField, EtaFormScalar, EtaOperator,
                        PolyDiffOp, PolyVectorField, TruncatedSeries, bullet,
                        contract, gerstenhaber_bracket, schouten_bracket)
from formaldisk.suites import random_series

from helpers import contract_reference

CAP = 4
T1 = TruncatedSeries.variable(2, 1, CAP)
T2 = TruncatedSeries.variable(2, 2, CAP)
ONE = TruncatedSeries.const(2, 1, CAP)
CUBE = T1 * T1 * T1  # vanishes through total order 2


def _field(key, coeff):
    return PolyVectorField(2, 0, {key: coeff})


def _op(key, coeff):
    return PolyDiffOp(2, 1, {key: coeff})


# name -> (x, low, high, zero): `low` and `high` each sit at one key that
# x lacks, `low` with a constant coefficient and `high` with one that
# vanishes through order 2; `zero` is the zero of x's type.
CASES = {
    "series": (
        TruncatedSeries(2, CAP, {(1, 0): 2, (0, 2): Fraction(-1, 3)}),
        TruncatedSeries.monomial(2, (0, 1), 1, CAP),
        TruncatedSeries.monomial(2, (0, 3), 1, CAP),
        TruncatedSeries.zero(2, CAP)),
    "poly-vector field": (
        _field((1,), T1 + ONE), _field((2,), ONE), _field((2,), CUBE),
        PolyVectorField.zero(2, 0)),
    "differential form": (
        DifferentialForm(2, 1, {(1,): T2}),
        DifferentialForm(2, 1, {(2,): ONE}),
        DifferentialForm(2, 1, {(2,): CUBE}),
        DifferentialForm.zero(2, 1)),
    "polydifferential operator": (
        _op(((1, 0), (0, 0)), T1 + ONE), _op(((0, 0), (0, 1)), ONE),
        _op(((0, 0), (0, 1)), CUBE), PolyDiffOp.zero(2, 1)),
    "eta form scalar": (
        EtaFormScalar(2, CAP, {((1,), (2,)): T1 + ONE}),
        EtaFormScalar(2, CAP, {((2,), (1,)): ONE}),
        EtaFormScalar(2, CAP, {((2,), (1,)): CUBE}),
        EtaFormScalar.zero(2, CAP)),
    "eta field": (
        EtaField(2, {(1,): _field((1,), T1 + ONE)}),
        EtaField(2, {(2,): _field((1,), ONE)}),
        EtaField(2, {(2,): _field((1,), CUBE)}),
        EtaField(2)),
    "eta operator": (
        EtaOperator(2, {(1,): _op(((1, 0), (0, 0)), T1 + ONE)}),
        EtaOperator(2, {(1, 2): _op(((1, 0), (0, 0)), ONE)}),
        EtaOperator(2, {(1, 2): _op(((1, 0), (0, 0)), CUBE)}),
        EtaOperator(2)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_difference_with_itself_is_the_zero(case):
    x, _, _, zero = case
    assert not x.is_zero()
    assert (x - x).is_zero()
    assert x - x == zero


def test_double_negation(case):
    x, low, _, _ = case
    assert -(-x) == x
    assert -(-(x + low)) == x + low


def test_scale_by_zero_is_zero(case):
    x, _, _, _ = case
    assert x.scale(0).is_zero()
    assert x.scale(Fraction(0)).is_zero()


def test_scale_by_a_unit(case):
    x, low, _, zero = case
    for y in (x, x + low, zero):
        assert y.scale(1) == y
        assert y.scale(Fraction(1)) == y
        assert y.scale(-1) == -y
        assert y.scale(Fraction(-1)) == -y


def test_equal_elements_hash_equal(case):
    x, low, _, zero = case
    pairs = [(x, x + zero), (x + low, low + x), (zero, x - x),
             (x.scale(2), x + x)]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


def test_agreement_with_a_key_on_one_side_only(case):
    x, low, high, _ = case
    assert not x.agrees_with(x + low, 2)
    assert not (x + low).agrees_with(x, 2)
    assert x.agrees_with(x + high, 2)
    assert (x + high).agrees_with(x, 2)
    assert not (x + high).agrees_with(x, 3)


def test_zeros_of_different_degree_hash_equal():
    for a, b in [(PolyVectorField.zero(2, 0), PolyVectorField.zero(2, 1)),
                 (PolyDiffOp.zero(2, 0), PolyDiffOp.zero(2, 2)),
                 (EtaFormScalar.zero(2, 3), EtaFormScalar.zero(2, 6))]:
        assert a == b
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------
# series sums across caps
# ---------------------------------------------------------------------

def _dense(dim, cap, seed):
    """Every exponent of total degree <= cap, with nonzero coefficients."""
    terms = {}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            terms[(i, j)] = Fraction(seed + i - 2 * j, 1 + (i + j) % 3) or 1
    return TruncatedSeries(dim, cap, terms)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_series_sum_across_caps_keeps_degrees_through_the_smaller(op):
    low, high = _dense(2, 4, 1), _dense(2, 8, 5)
    assert max(sum(e) for e in high.terms) == 8
    combine = (lambda a, b: a + b) if op == "add" else (lambda a, b: a - b)
    sign = 1 if op == "add" else -1
    for a, b, sa, sb in [(low, high, 1, sign), (high, low, 1, sign)]:
        got = combine(a, b)
        assert got.cap == 4
        want = {}
        for e in set(a.terms) | set(b.terms):
            c = sa * a.coefficient(e) + sb * b.coefficient(e)
            if sum(e) <= 4 and c != 0:
                want[e] = c
        assert got.terms == want


# ---------------------------------------------------------------------
# a product's result does not depend on the order of its inputs' terms
# ---------------------------------------------------------------------

MIXED_CAPS = (4, 5, 6, 8)


def _reversed(x):
    return x._with(dict(reversed(x._data.items())))


def _mixed_coeff(rng, dim):
    """A signed monomial of degree <= 1 per axis at a random cap.

    Unit coefficients make partial sums cancel often, and the caps
    differ from key to key.
    """
    exp = tuple(rng.randint(0, 1) for _ in range(dim))
    return TruncatedSeries.monomial(dim, exp, rng.choice((1, -1)),
                                    rng.choice(MIXED_CAPS))


def _mixed_op(rng, dim, nslots):
    return PolyDiffOp(dim, nslots - 1, {
        tuple(tuple(rng.randint(0, 1) for _ in range(dim))
              for _ in range(nslots)): _mixed_coeff(rng, dim)
        for _ in range(3)})


def _mixed_alternating(cls, rng, dim, degree, arity):
    pool = list(combinations(range(1, dim + 1), arity))
    return cls(dim, degree, {rng.choice(pool): _mixed_coeff(rng, dim)
                             for _ in range(4)})


def _operator_pair(rng):
    dim = rng.randint(1, 2)
    return (_mixed_op(rng, dim, rng.randint(1, 2)),
            _mixed_op(rng, dim, rng.randint(0, 2)))


def _field_pair(rng):
    dim = rng.randint(2, 4)
    p, q = rng.randint(-1, dim - 1), rng.randint(-1, dim - 1)
    return (_mixed_alternating(PolyVectorField, rng, dim, p, p + 1),
            _mixed_alternating(PolyVectorField, rng, dim, q, q + 1))


def _form_field_pair(rng):
    dim = rng.randint(2, 4)
    q, p = rng.randint(1, dim), rng.randint(0, dim - 1)
    return (_mixed_alternating(DifferentialForm, rng, dim, q, q),
            _mixed_alternating(PolyVectorField, rng, dim, p, p + 1))


@pytest.mark.parametrize("product, inputs", [
    (bullet, _operator_pair),
    (gerstenhaber_bracket, _operator_pair),
    (schouten_bracket, _field_pair),
    (contract, _form_field_pair),
], ids=["bullet", "gerstenhaber", "schouten", "contract"])
def test_products_are_independent_of_input_term_order(product, inputs):
    # With caps that differ between keys, a sum that dropped a key
    # whenever its running total cancelled would let a later term bring
    # back its own, higher cap, and the result would change with the
    # order of the terms.  A flat sum keeps the lowest cap in any order.
    for seed in range(300):
        a, b = inputs(random.Random(seed))
        assert product(a, b) == product(_reversed(a), _reversed(b)), seed


def test_contract_matches_the_one_axis_reference():
    # exact ==, caps included: the closed sign of each removed axis must
    # give what iterated one-axis contractions give
    for seed in range(300):
        form, field = _form_field_pair(random.Random(seed))
        assert contract(form, field) == contract_reference(form, field), seed


def test_bracket_folds_its_sign_into_one_sum():
    # The bracket is one flat sum over the insertions of both products,
    # the second signed by -(-1)^{|d1||d2|}.  Against the difference of
    # the two products it moves no coefficient within a key's cap, and
    # no cap rises: a key that cancels in one product keeps that cap.
    for seed in range(300):
        d1, d2 = _operator_pair(random.Random(seed))
        sign = (-1) ** ((d1.degree * d2.degree) % 2)
        got = gerstenhaber_bracket(d1, d2)
        two = bullet(d1, d2) - bullet(d2, d1).scale(sign)
        for key, c in got.terms.items():
            want = two.terms.get(key)
            if want is not None:
                assert c.cap <= want.cap, (seed, key)
            else:
                want = c.zero_like()
            assert c.agrees_with(want, c.cap), (seed, key)


def test_bracket_keeps_the_cap_of_a_key_that_cancels_on_one_side():
    # the contributions to the key in bullet(d2, d1) sum to zero at cap
    # 3: bullet(d2, d1) drops the key, and the bracket, one sum over the
    # contributions of both products, reports it at that cap 3, not at
    # bullet(d1, d2)'s cap 4
    d1, d2 = _operator_pair(random.Random(60))
    key = ((0, 1), (0, 1), (0, 1))
    assert key in bullet(d1, d2).terms
    assert key not in bullet(d2, d1).terms
    assert bullet(d1, d2).terms[key].cap == 4
    assert gerstenhaber_bracket(d1, d2).terms[key].cap == 3


def _lifted(x):
    """x with every coefficient re-capped at 20, above any product here."""
    return x._with({k: TruncatedSeries(c.dim, 20, c.terms)
                    for k, c in x._data.items()})


def _poly(rng, dim, cap):
    """Up to 3 monomials of total degree <= 4; cap None draws one in 2..8."""
    return random_series(rng, dim, rng.randint(2, 8) if cap is None else cap,
                         max_total=4)


def _capped_operators(rng, cap):
    dim = rng.randint(1, 3)

    def op(nslots):
        return PolyDiffOp(dim, nslots - 1, {
            tuple(tuple(rng.randint(0, 2) for _ in range(dim))
                  for _ in range(nslots)): _poly(rng, dim, cap)
            for _ in range(rng.randint(1, 3))})
    return op(rng.randint(1, 3)), op(rng.randint(0, 3))


def _capped_form_field(rng, cap):
    dim = rng.randint(2, 4)
    q, p = rng.randint(1, dim), rng.randint(0, dim - 1)

    def tensor(cls, degree, arity):
        pool = list(combinations(range(1, dim + 1), arity))
        return cls(dim, degree, {rng.choice(pool): _poly(rng, dim, cap)
                                 for _ in range(rng.randint(1, 4))})
    return (tensor(DifferentialForm, q, q),
            tensor(PolyVectorField, p, p + 1))


@pytest.mark.parametrize("cap", [6, None], ids=["cap6", "mixed"])
@pytest.mark.parametrize("product, inputs", [
    (bullet, _capped_operators),
    (gerstenhaber_bracket, _capped_operators),
    (contract, _capped_form_field),
], ids=["bullet", "gerstenhaber", "contract"])
def test_every_key_is_right_within_its_own_cap(product, inputs, cap):
    # A product that truncates to zero still lowers the cap of the key it
    # lands on: each key agrees, through its own cap, with the product of
    # the same polynomials at cap 20, where nothing truncates.
    rng = random.Random(0)
    for n in range(200):
        a, b = inputs(rng, cap)
        got = product(a, b)
        want = product(_lifted(a), _lifted(b))
        for key, c in got._data.items():
            exact = want._data.get(key, c.zero_like())
            assert c.agrees_with(exact, c.cap), (n, key)


# ---------------------------------------------------------------------
# public constructors validate
# ---------------------------------------------------------------------

def test_series_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        TruncatedSeries(2, CAP, {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, CAP, {(1, -1): 1})
    with pytest.raises(TypeError):
        TruncatedSeries(2, CAP, {(1, 0): 0.5})


@pytest.mark.parametrize("cls,degree,arity", [(PolyVectorField, 1, 2),
                                              (DifferentialForm, 2, 2)])
def test_alternating_constructor_rejects_malformed_input(cls, degree, arity):
    one = TruncatedSeries.const(3, 1, CAP)
    assert cls(3, degree, {(1, 2): one}).comps
    for key in [(2, 1), (1, 1), (1, 4), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            cls(3, degree, {key: one})


def test_operator_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        PolyDiffOp(2, 1, {((0, 0),): ONE})            # one slot, needs two
    with pytest.raises(ValueError):
        PolyDiffOp(2, 0, {((0, 0, 1),): ONE})         # multi-index too long
    with pytest.raises(ValueError):
        PolyDiffOp(2, 0, {((1, -1),): ONE})           # negative order


def test_eta_form_scalar_rejects_non_increasing_keys():
    with pytest.raises(ValueError):
        EtaFormScalar(2, CAP, {((2, 1), ()): ONE})
    with pytest.raises(ValueError):
        EtaFormScalar(2, CAP, {((), (1, 1)): ONE})


# one coefficient check, series.checked_coefficient, behind every public
# constructor

def test_an_int_operator_coefficient_is_a_constant_series():
    op = PolyDiffOp(2, 0, {((1, 0),): 3})
    assert op == PolyDiffOp(2, 0, {((1, 0),): TruncatedSeries.const(2, 3)})
    assert op.scale(2) == PolyDiffOp(2, 0, {((1, 0),): 6})


def test_a_field_refuses_a_float_coefficient():
    with pytest.raises(TypeError):
        PolyVectorField(2, 0, {(1,): 1.5})


def test_an_operator_refuses_a_float_coefficient():
    with pytest.raises(TypeError):
        PolyDiffOp(2, 0, {((1, 0),): 1.5})


def test_a_field_refuses_a_series_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 3 in dimension 2"):
        PolyVectorField(2, 0, {(1,): TruncatedSeries.variable(3, 3)})


def test_an_eta_form_scalar_refuses_a_series_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 3 in dimension 2"):
        EtaFormScalar(2, CAP, {((1,), ()): TruncatedSeries.variable(3, 3)})


def test_an_eta_operator_refuses_a_bare_number():
    with pytest.raises(TypeError):
        EtaOperator(2, {(1,): 5})
