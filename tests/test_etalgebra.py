from fractions import Fraction

import pytest

from formaldisk import (EtaField, EtaFormScalar, EtaOperator, PolyDiffOp,
                        PolyVectorField, TruncatedSeries, sort_with_sign)
from formaldisk.etalgebra import _form_from_parts

from helpers import eta_exp_reference


def gen(dim, alpha, cap=6):
    return EtaFormScalar(dim, cap, {((alpha,), ()): 1})


def dt(dim, axis, cap=6):
    one = TruncatedSeries.const(dim, 1, cap)
    return EtaFormScalar(dim, cap, {((), (axis,)): one})


def test_generators_anticommute_and_square_to_zero():
    e1, e2 = gen(2, 1), gen(2, 2)
    assert (e1 * e1).is_zero()
    assert e1 * e2 == (e2 * e1).scale(-1)


def test_form_legs_anticommute():
    a, b = dt(2, 1), dt(2, 2)
    assert (a * a).is_zero()
    assert a * b == (b * a).scale(-1)


def test_koszul_sign_between_sectors():
    # (1 x dt) (eta x 1) = - (eta x 1)(1 x dt) ... the cross sign shows
    # up exactly when both odd sectors meet
    e1 = gen(2, 1)
    d1 = dt(2, 1)
    assert d1 * e1 == (e1 * d1).scale(-1)


def test_even_grade_detection():
    e1, e2 = gen(2, 1), gen(2, 2)
    d1 = dt(2, 1)
    assert (e1 * d1).has_even_grade()
    assert not e1.has_even_grade()
    assert (e1 * e2).has_even_grade()


def test_exp_of_nilpotent():
    dim = 2
    x = gen(dim, 1) * dt(dim, 1)
    e = x.exp()
    # eta_1 dt1 squares to zero: exp = 1 + x
    assert e == x + x.one_like()
    y = gen(dim, 1) * dt(dim, 1) + gen(dim, 2) * dt(dim, 2)
    ey = y.exp()
    want = y.one_like() + y + (y * y).scale(Fraction(1, 2))
    assert ey == want


def test_one_like_is_the_unit_built_without_validation():
    # a cap of -1 leaves no trustworthy coefficient: the unit is then zero
    for dim, cap in ((1, -1), (2, 0), (3, 6)):
        one = EtaFormScalar.zero(dim, cap).one_like()
        assert one == EtaFormScalar.one(dim, cap) and one.cap == cap
        assert one.is_zero() == (cap < 0)


@pytest.mark.parametrize("cap", [-1, 0, 8])
def test_exp_of_zero_is_the_unit_of_the_series_route(cap):
    for dim in (1, 2, 4):
        zero = EtaFormScalar.zero(dim, cap)
        got, want = zero.exp(), eta_exp_reference(zero)
        assert got == want and got.cap == want.cap
        assert got == zero.one_like() and got.cap == cap


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        EtaFormScalar.one(2).exp()


def test_eta_parts_groups_forms():
    dim = 2
    x = gen(dim, 1) * dt(dim, 2) + gen(dim, 1) * dt(dim, 1)
    parts = x.eta_parts()
    assert set(parts) == {(1,)}
    form = parts[(1,)]
    assert form.degree == 1
    assert set(form.comps) == {(1,), (2,)}


def test_mixed_degrees_within_word_rejected():
    with pytest.raises(ValueError):
        _form_from_parts(2, {(1,): TruncatedSeries.const(2, 1, 6),
                             (1, 2): TruncatedSeries.const(2, 1, 6)})


def test_eta_word_sign():
    assert sort_with_sign((2, 1)) == (-1, (1, 2))
    assert sort_with_sign((1, 2, 3)) == (1, (1, 2, 3))
    sign, _ = sort_with_sign((1, 1))
    assert sign == 0


def test_eta_graded_validation():
    dim = 2
    f = PolyVectorField.from_wedge(dim, (1,))
    with pytest.raises(ValueError):
        EtaField(dim, {(2, 1): f})


def test_agrees_with_across_missing_words():
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, 6)
    a = EtaOperator(dim, {(1,): PolyDiffOp.function(t1)})
    b = EtaOperator(dim, {})
    assert not a.agrees_with(b, 4)
    assert a.agrees_with(a, 4)
