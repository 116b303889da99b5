from fractions import Fraction

import pytest

from formaldisk import (EtaField, PolyVectorField, TruncatedSeries,
                        LInftyMorphism, SmallDGLie, eta_mc_residual,
                        eta_schouten, eta_twisted_differential,
                        quadratic_example, schouten_bracket)
from formaldisk.linfty import elem_is_zero


def test_quadratic_example_is_coherent():
    g, h, phi = quadratic_example()
    assert g.check_axioms() == []
    assert h.check_axioms() == []
    assert phi.check_identities() == []


def test_push_mc_lands_on_maurer_cartan():
    g, h, phi = quadratic_example()
    for c in (Fraction(1), Fraction(-3), Fraction(2, 5)):
        omega = {"u": c}
        assert elem_is_zero(g.mc_residual(omega))
        pushed = phi.push_mc(omega)
        assert elem_is_zero(h.mc_residual(pushed))
        # and the explicit value: c v - (1/2) c^2 x
        assert pushed == {"v": c, "x": -c * c / 2}


def test_linear_only_pushforward_fails():
    g, h, phi = quadratic_example()
    naive = phi.psi1({"u": Fraction(1)})
    assert not elem_is_zero(h.mc_residual(naive))


def test_twist_gives_chain_map():
    g, h, phi = quadratic_example()
    omega = {"u": Fraction(2)}
    omega_prime, twisted = phi.twist(omega)
    assert elem_is_zero(h.mc_residual(omega_prime))
    assert twisted.check_identities() == []
    # twisting by zero does nothing
    zero_prime, tw0 = phi.twist({})
    assert elem_is_zero(zero_prime)
    assert tw0.p1 == phi.p1


def test_twist_rejects_non_mc():
    degrees = {"a": 1, "b": 2}
    lie = SmallDGLie(degrees, brackets={("a", "a"): {"b": Fraction(1)}})
    with pytest.raises(ValueError):
        lie.twist({"a": Fraction(1)})


def test_twisted_differential_squares_to_zero_small():
    # d x = w, [v,v] = w: twist by v sends the differential to d + [v,-]
    h = SmallDGLie({"v": 1, "x": 1, "w": 2},
                   diff={"x": {"w": Fraction(1)}},
                   brackets={("v", "v"): {"w": Fraction(1)}})
    # v alone is not MC (dv + [v,v]/2 = w/2 != 0) but v - x/... use
    # omega = v - x: residual = -w + (1/2)[v-x, v-x] = -w + w/2 ... so
    # check the residual machinery instead of guessing:
    omega = {"v": Fraction(1), "x": Fraction(-1)}
    res = h.mc_residual(omega)
    # d(-x) = -w, (1/2)[v,v] = w/2: residual w - w/2 = w/2, nonzero
    assert res == {"w": Fraction(1, 2)}
    with pytest.raises(ValueError):
        h.twist(omega)


def test_degree_checks():
    lie = SmallDGLie({"a": 1, "b": 2})
    with pytest.raises(ValueError):
        lie.mc_residual({"a": Fraction(1), "b": Fraction(1)})  # inhomogeneous
    with pytest.raises(ValueError):
        lie.mc_residual({"b": Fraction(1)})                    # wrong degree


def test_bad_differential_rejected():
    with pytest.raises(ValueError):
        SmallDGLie({"a": 1, "b": 1}, diff={"a": {"b": Fraction(1)}})


@pytest.mark.parametrize("degrees, diff, brackets", [
    # a bracket value outside degree |a| + |b|
    ({"a": 1, "b": 1}, None, {("a", "a"): {"b": 1}}),
    # a name outside the basis, as a differential or a bracket value
    ({"a": 1}, {"a": {"zz": 1}}, None),
    ({"a": 1}, None, {("a", "a"): {"zz": 1}}),
    # both orders stored, against graded antisymmetry
    ({"a": 1, "b": 2, "c": 1}, None,
     {("a", "c"): {"b": 1}, ("c", "a"): {"b": 5}}),
    # [x, x] = -[x, x] in even degree
    ({"a": 0, "b": 0}, None, {("a", "a"): {"b": 1}}),
], ids=["bracket-degree", "diff-unknown", "bracket-unknown", "antisymmetry",
        "even-square"])
def test_bad_structure_constants_rejected(degrees, diff, brackets):
    with pytest.raises(ValueError):
        SmallDGLie(degrees, diff, brackets)


def test_filled_table_is_accepted_again():
    # twisting rebuilds an algebra from a table filled in by
    # antisymmetry; twisting that once more by zero changes nothing
    g, h, phi = quadratic_example()
    omega_prime, _ = phi.twist({"u": Fraction(2)})
    hw = h.twist(omega_prime)
    again = hw.twist({})
    assert again.diff == hw.diff and again.diff != h.diff
    assert again.table == hw.table == h.table


def test_check_axioms_reports_violations():
    one = Fraction(1)
    assert SmallDGLie({"a": 0, "b": 1, "c": 2},
                      diff={"a": {"b": one}, "b": {"c": one}}
                      ).check_axioms() == [("d2", "a")]
    assert SmallDGLie({"v": 1, "x": 1, "w": 2, "z": 3},
                      diff={"x": {"w": one}},
                      brackets={("v", "w"): {"z": one}}
                      ).check_axioms() == [("leibniz", "v", "x"),
                                           ("leibniz", "x", "v")]
    assert SmallDGLie({"a": 0, "b": 0, "c": 0},
                      brackets={("a", "b"): {"a": one}, ("b", "c"): {"b": one},
                                ("a", "c"): {"c": one}}
                      ).check_axioms() == [
        ("jacobi", "a", "b", "c"), ("jacobi", "a", "c", "b"),
        ("jacobi", "b", "a", "c"), ("jacobi", "b", "c", "a"),
        ("jacobi", "c", "a", "b"), ("jacobi", "c", "b", "a")]


def test_check_identities_reports_violations():
    one = Fraction(1)
    g = SmallDGLie({"u": 1})
    u_to_v = {"u": {"v": one}}
    # not a chain map: d v = w but d u = 0
    h = SmallDGLie({"v": 1, "w": 2}, diff={"v": {"w": one}})
    assert LInftyMorphism(g, h, u_to_v).check_identities() == [
        ("arity1", "u")]
    # quadratic_example without its correction psi2(u, u) = -x
    h = SmallDGLie({"v": 1, "x": 1, "w": 2}, diff={"x": {"w": one}},
                   brackets={("v", "v"): {"w": one}})
    assert LInftyMorphism(g, h, u_to_v).check_identities() == [
        ("arity2", "u", "u")]
    # [psi1 u, psi2(u, u)] = [v, x] = w
    h = SmallDGLie({"v": 1, "x": 1, "w": 2},
                   brackets={("v", "x"): {"w": one}})
    assert LInftyMorphism(g, h, u_to_v, {("u", "u"): {"x": one}}
                          ).check_identities() == [("arity3", "u", "u", "u")]
    # [psi2(u, u), psi2(u, u)] = [x, x] = w
    h = SmallDGLie({"v": 1, "x": 1, "w": 2},
                   brackets={("x", "x"): {"w": one}})
    assert LInftyMorphism(g, h, {}, {("u", "u"): {"x": one}}
                          ).check_identities() == [("arity4-obstruction", "u")]


def test_conflicting_psi2_rejected():
    # symmetric storage: (a,b) and (b,a) with different values conflict
    h = SmallDGLie({"v": 1})
    g2 = SmallDGLie({"u": 1, "t": 1})
    with pytest.raises(ValueError):
        LInftyMorphism(g2, h, psi1={},
                       psi2={("u", "t"): {"v": Fraction(1)},
                             ("t", "u"): {"v": Fraction(2)}})


@pytest.mark.parametrize("psi1, psi2", [
    # an image outside the target, a key outside the source and a psi2
    # value in degree 2, all at once
    ({"u": {"zz": 1}, "q": {"w": 1}}, {("u", "u"): {"w": 1}}),
    ({"q": {"v": 1}}, None),                    # psi1 key not in the source
    ({}, {("u", "q"): {"x": 1}}),               # psi2 key not in the source
    ({"u": {"zz": 1}}, None),                   # psi1 image not in the target
    ({}, {("u", "u"): {"zz": 1}}),              # psi2 image not in the target
    ({"u": {"w": 1}}, None),                    # psi1 image in degree 2
    ({}, {("u", "u"): {"w": 1}}),               # psi2 image in degree 2
], ids=["found-example", "psi1-key", "psi2-key", "psi1-image", "psi2-image",
        "psi1-degree", "psi2-degree"])
def test_morphism_data_outside_its_algebras_rejected(psi1, psi2):
    g = SmallDGLie({"u": 1})
    h = SmallDGLie({"v": 1, "x": 1, "w": 2})
    with pytest.raises(ValueError):
        LInftyMorphism(g, h, psi1, psi2)


@pytest.mark.parametrize("build", [
    lambda: SmallDGLie({"a": 1, "b": 2}, brackets={("a", "a"): {"b": 0.1}}),
    lambda: SmallDGLie({"a": 1, "b": 2}, diff={"a": {"b": 0.5}}),
    lambda: LInftyMorphism(SmallDGLie({"u": 1}), SmallDGLie({"v": 1}),
                           {"u": {"v": 1.0}}),
    lambda: LInftyMorphism(SmallDGLie({"u": 1}), SmallDGLie({"x": 1}),
                           {}, {("u", "u"): {"x": 0.5}}),
], ids=["bracket", "diff", "psi1", "psi2"])
def test_inexact_coefficients_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_int_coefficients_are_stored_as_fractions():
    lie = SmallDGLie({"a": 1, "b": 2}, brackets={("a", "a"): {"b": 3}})
    value = lie.bracket({"a": 1}, {"a": 1})
    assert value == {"b": 3} and type(value["b"]) is Fraction


def test_elem_helpers():
    a = {"x": Fraction(1)}
    b = {"x": Fraction(-1), "y": Fraction(2)}
    assert elem_is_zero({})
    assert not elem_is_zero(a)


# ---------------------------------------------------------------------
# the eta-extended Schouten side
# ---------------------------------------------------------------------

def _commuting_pair(cap=6):
    dim = 2
    t2 = TruncatedSeries.variable(dim, 2, cap)
    w1 = PolyVectorField(dim, 0, {(1,): t2})
    w2 = PolyVectorField(dim, 0, {(1,): t2 * t2})
    return dim, EtaField(dim, {(1,): w1, (2,): w2})


def test_eta_schouten_reduces_to_schouten():
    dim = 2
    cap = 6
    t1 = TruncatedSeries.variable(dim, 1, cap)
    t2 = TruncatedSeries.variable(dim, 2, cap)
    x = PolyVectorField(dim, 0, {(1,): t2})
    y = PolyVectorField(dim, 0, {(2,): t1 * t1})
    ex = EtaField(dim, {(): x})
    ey = EtaField(dim, {(): y})
    got = eta_schouten(ex, ey)
    assert list(got.parts) == [()]
    assert got.parts[()] == schouten_bracket(x, y)


def test_eta_words_pick_up_koszul_signs():
    dim, omega = _commuting_pair()
    # [eta_1 w1, eta_2 w2] lands on eta_1 eta_2; flipping the factors
    # reorders the word with a minus sign, and vector fields have even
    # shifted parity so no extra sign appears
    a = EtaField(dim, {(1,): omega.parts[(1,)]})
    b = EtaField(dim, {(2,): omega.parts[(2,)]})
    ab = eta_schouten(a, b)
    ba = eta_schouten(b, a)
    if ab.is_zero():
        assert ba.is_zero()
    else:
        assert ab == ba.scale(-1) or (ab.parts.keys() == ba.parts.keys())


def test_eta_mc_residual_and_twisted_differential():
    dim, omega = _commuting_pair()
    assert eta_mc_residual(omega).is_zero()
    d = eta_twisted_differential(omega)
    cap = 6
    t1 = TruncatedSeries.variable(dim, 1, cap)
    probes = [
        EtaField(dim, {(): PolyVectorField(dim, 0, {(2,): t1})}),
        EtaField(dim, {(): PolyVectorField.function(t1 * t1)}),
    ]
    for p in probes:
        assert d(d(p)).is_zero()


def test_non_commuting_twist_detected():
    dim = 2
    cap = 6
    t1 = TruncatedSeries.variable(dim, 1, cap)
    t2 = TruncatedSeries.variable(dim, 2, cap)
    omega = EtaField(dim, {
        (1,): PolyVectorField(dim, 0, {(1,): t2 * t2}),
        (2,): PolyVectorField(dim, 0, {(2,): t1 * t1})})
    assert not eta_mc_residual(omega).is_zero()
