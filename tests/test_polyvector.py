"""Schouten calculus against coordinate formulas."""

import random
from itertools import combinations

from formaldisk import (DifferentialForm, PolyVectorField, TruncatedSeries,
                        contract, exterior_derivative, schouten_bracket,
                        sort_with_sign, hkr_components)
from formaldisk.suites import random_field, random_series

from helpers import (as_function, lie_bracket_vf, pairing,
                     schouten_reference, wedge_fields, wedge_forms)

CAP = 6


def tvars(dim, cap=CAP):
    return [TruncatedSeries.variable(dim, i, cap) for i in range(1, dim + 1)]


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == (-1, (1, 2))
    assert sort_with_sign((3, 1, 2)) == (1, (1, 2, 3))
    assert sort_with_sign((1, 1)) == (0, (1, 1))
    assert sort_with_sign(()) == (1, ())


def test_component_lookup_signs():
    t1, t2 = tvars(2)
    b = PolyVectorField(2, 1, {(1, 2): t1})
    assert b.component((2, 1)) == -t1
    assert b.component((1, 2)) == t1
    assert b.component((1, 1)) is None


def test_wedge_antisymmetry_and_square():
    x = PolyVectorField(3, 0, {(1,): tvars(3)[1]})
    y = PolyVectorField(3, 0, {(2,): tvars(3)[0], (3,): tvars(3)[2]})
    assert wedge_fields(x, y) == -wedge_fields(y, x)
    assert wedge_fields(x, x).is_zero()
    # wedge of basis vectors lands on the sorted tuple
    d1 = PolyVectorField.from_wedge(3, (1,))
    d3 = PolyVectorField.from_wedge(3, (3,))
    assert wedge_fields(d3, d1) == PolyVectorField.from_wedge(3, (1, 3)).scale(-1)


def test_wedge_forms_assoc_instance():
    t = tvars(3)
    a = DifferentialForm.from_wedge(3, (1,), t[0])
    b = DifferentialForm.from_wedge(3, (2,), t[2])
    c = DifferentialForm.from_wedge(3, (3,), 1)
    left = wedge_forms(wedge_forms(a, b), c)
    right = wedge_forms(a, wedge_forms(b, c))
    assert left == right


def test_schouten_on_functions_is_evaluation():
    # [X, f] = X(f) for a vector field and a function
    dim = 2
    t1, t2 = tvars(dim)
    x = PolyVectorField(dim, 0, {(1,): t2, (2,): t1 * t1})
    f = PolyVectorField.function(t1 * t2)
    got = schouten_bracket(x, f)
    want = t2 * t2 + (t1 * t1) * t1  # t2 d1(t1 t2) + t1^2 d2(t1 t2)
    assert got.degree == -1
    assert as_function(got).agrees_with(want, CAP - 1)


def test_schouten_vector_fields_vs_lie_oracle():
    rng = random.Random(424242)
    for _ in range(40):
        dim = rng.randint(1, 3)
        x = random_field(rng, dim, CAP, 0)
        y = random_field(rng, dim, CAP, 0)
        assert schouten_bracket(x, y).agrees_with(lie_bracket_vf(x, y), CAP - 2)


def test_schouten_graded_antisymmetry():
    rng = random.Random(99)
    for _ in range(30):
        dim = rng.randint(2, 3)
        p = rng.randint(-1, dim - 1)
        q = rng.randint(-1, dim - 1)
        a = random_field(rng, dim, CAP, p)
        b = random_field(rng, dim, CAP, q)
        lhs = schouten_bracket(a, b)
        rhs = schouten_bracket(b, a).scale((-1) ** ((p * q) % 2))
        assert (lhs + rhs).is_zero() or lhs.agrees_with(rhs.scale(-1), CAP - 2)


def test_schouten_leibniz_wedge_instance():
    # [X, b ^ c] = [X, b] ^ c + (-1)^{p(q+1)}... reduced to a vector field
    # acting on a wedge of two functions: X(fg) = X(f) g + f X(g).
    dim = 2
    t1, t2 = tvars(dim)
    x = PolyVectorField(dim, 0, {(1,): t2 * t2, (2,): t1})
    f, g = t1 + t2, t1 * t1
    lhs = as_function(schouten_bracket(x, PolyVectorField.function(f * g)))
    xf = as_function(schouten_bracket(x, PolyVectorField.function(f)))
    xg = as_function(schouten_bracket(x, PolyVectorField.function(g)))
    assert lhs.agrees_with(xf * g + f * xg, CAP - 1)


def _pairs(rng, count, max_dim, mixed_caps):
    """(a, b): seeded fields of every degree with up to three terms each,
    every coefficient at one cap per pair, or at its own if mixed_caps."""
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        cap = rng.randint(2, 8)
        pair = []
        for _ in range(2):
            degree = rng.randint(-1, dim - 1)
            keys = list(combinations(range(1, dim + 1), degree + 1))
            comps = {rng.choice(keys): random_series(
                         rng, dim, rng.randint(2, 8) if mixed_caps else cap)
                     for _ in range(rng.randint(0, 3))}
            pair.append(PolyVectorField(dim, degree, comps))
        yield pair


def test_schouten_matches_the_axiom_recursion_at_uniform_caps():
    # with one cap throughout, no product truncates below another, and
    # the closed formula equals the recursion exactly, caps included
    rng = random.Random(20240615)
    seen = set()
    for a, b in _pairs(rng, 700, 5, mixed_caps=False):
        assert schouten_bracket(a, b) == schouten_reference(a, b)
        seen.add(("dim", a.dim))
        for x in (a, b):
            seen.add(("degree", x.degree))
            seen.add("zero" if x.is_zero() else
                     "function" if x.degree == -1 else "field")
    assert seen >= ({("dim", d) for d in range(1, 6)}
                    | {("degree", p) for p in range(-1, 5)}
                    | {"zero", "function", "field"})


def _lifted(field):
    """The same polynomials at cap 20, far above any product of them."""
    return PolyVectorField(field.dim, field.degree,
                           {k: TruncatedSeries(field.dim, 20, s.terms)
                            for k, s in field.comps.items()})


def test_schouten_is_right_within_its_caps_at_mixed_caps():
    # each key's coefficient is valid through its own cap: a product that
    # truncates to zero still lowers the cap of the key it lands on
    t1, t2 = (TruncatedSeries.variable(2, i, 3) for i in (1, 2))
    a = PolyVectorField(2, 0, {(1,): t1})
    b = PolyVectorField(2, 1, {(1, 2): TruncatedSeries(2, 2, (-t1 * t2).terms)})
    assert schouten_reference(_lifted(a), _lifted(b)).is_zero()
    assert schouten_bracket(a, b).is_zero()
    rng = random.Random(0)
    for a, b in _pairs(rng, 600, 4, mixed_caps=True):
        got = schouten_bracket(a, b)
        want = schouten_reference(_lifted(a), _lifted(b))
        for key, s in got.comps.items():
            exact = want.comps.get(key, s.zero_like())
            assert s.agrees_with(exact, s.cap), (a, b, key)


def test_schouten_is_a_graded_derivation_of_the_wedge():
    # [a, b ^ c] = [a, b] ^ c + (-1)^{|a|(|b|+1)} b ^ [a, c]
    rng = random.Random(31337)
    for _ in range(600):
        dim = rng.randint(1, 4)
        cap = rng.randint(2, 6)
        a, b, c = (random_field(rng, dim, cap, rng.randint(-1, dim - 1),
                                rng.randint(1, 2)) for _ in range(3))
        sign = (-1) ** ((a.degree * (b.degree + 1)) % 2)
        lhs = schouten_bracket(a, wedge_fields(b, c))
        rhs = (wedge_fields(schouten_bracket(a, b), c)
               + wedge_fields(b, schouten_bracket(a, c)).scale(sign))
        assert lhs == rhs


def test_pairing_and_contract():
    dim = 3
    t = tvars(dim)
    form = DifferentialForm.from_wedge(dim, (1, 2), 1)
    field = PolyVectorField.from_wedge(dim, (1, 2), t[2])
    full = pairing(form, field)
    assert not full.is_zero()
    # top contraction is the determinant pairing times the reversal sign
    # (-1)^{q(q-1)/2}; for q = 2 that is -1
    res = contract(form, field)
    assert res.degree == -1
    assert as_function(res) == -full
    # partial contraction: 1-form into 2-field leaves a vector field
    one = DifferentialForm.from_wedge(dim, (1,), 1)
    partial = contract(one, PolyVectorField.from_wedge(dim, (1, 3)))
    assert partial.degree == 0
    assert (3,) in partial.comps


def test_contract_exact_form_into_bivector():
    # db contracted into d1^d2 reads off (-d2 b, d1 b) up to the convention
    dim = 2
    t1, t2 = tvars(dim)
    b = t1 * t1 * t2
    field = PolyVectorField.from_wedge(dim, (1, 2))
    res = contract(exterior_derivative(b), field)
    assert res.degree == 0
    comp1 = res.comps.get((1,))
    comp2 = res.comps.get((2,))
    db1, db2 = b.partial(1), b.partial(2)
    # the two components carry db's coefficients with opposite signs
    pairs = {(1,): comp1, (2,): comp2}
    assert comp1 is not None and comp2 is not None
    assert (comp1.agrees_with(db2, CAP - 1) and comp2.agrees_with(-db1, CAP - 1)) \
        or (comp1.agrees_with(-db2, CAP - 1) and comp2.agrees_with(db1, CAP - 1))


def test_exterior_derivative_components():
    t1, t2 = tvars(2)
    f = t1 * t2
    df = exterior_derivative(f)
    assert df.degree == 1
    assert df.comps[(1,)].agrees_with(t2, CAP - 1)
    assert df.comps[(2,)].agrees_with(t1, CAP - 1)


def test_hkr_components_expand_all_orderings():
    dim = 2
    t1, _ = tvars(dim)
    field = PolyVectorField(dim, 1, {(1, 2): t1})
    seen = dict(hkr_components(field))
    assert set(seen) == {(1, 2), (2, 1)}
    assert seen[(1, 2)] == t1
    assert seen[(2, 1)] == -t1


def test_from_wedge_repeated_axis_is_zero():
    assert PolyVectorField.from_wedge(3, (2, 2)).is_zero()


def test_degree_mismatch_raises():
    import pytest
    a = PolyVectorField.from_wedge(2, (1,))
    b = PolyVectorField.from_wedge(2, (1, 2))
    with pytest.raises(ValueError):
        a + b
