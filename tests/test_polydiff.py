import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from formaldisk import (PolyDiffOp, PolyVectorField, TruncatedSeries, bullet,
                        cup, gerstenhaber_bracket, hkr,
                        hochschild_differential, schouten_bracket, u_one)
from formaldisk.polydiff import _multi_splits
from formaldisk.suites import random_operator, random_series

import helpers

CAP = 6
RNG_SEED = 1318


def test_apply_basic():
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    # t2 * d1 x d2 applied to (f, g)
    op = PolyDiffOp.single(t2, ((1, 0), (0, 1)))
    f = t1 * t1
    g = t1 * t2
    val = op.apply([f, g])
    assert val.agrees_with(t2 * f.partial(1) * g.partial(2), CAP - 2)
    with pytest.raises(ValueError):
        op.apply([f])


def test_multiplication_operator():
    dim = 2
    m = PolyDiffOp.multiplication(dim, CAP)
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    assert m.apply([t1, t2]) == t1 * t2
    assert gerstenhaber_bracket(m, m).is_zero()


def test_cup_concatenates_with_sign():
    dim = 1
    one = TruncatedSeries.const(dim, 1, CAP)
    a = PolyDiffOp.single(one, ((1,),))          # degree 0
    b = PolyDiffOp.single(one, ((2,), (0,)))     # degree 1
    ab = cup(a, b)
    assert ab.degree == 2
    assert set(ab.terms) == {((1,), (2,), (0,))}
    # odd degrees anticommute the prefactor: |a| = 0 so no sign here,
    # but b cup b picks up (-1)^{1*1}
    bb = cup(b, b)
    assert bb.terms[((2,), (0,), (2,), (0,))] == -one


def test_cup_twisted_associativity():
    # with the (-1)^{|a||b|} normalization the product is associative
    # only up to (-1)^{|a|+|c|}
    rng = random.Random(RNG_SEED)
    for _ in range(30):
        dim = rng.randint(1, 2)
        a, b, c = [random_operator(rng, dim, CAP, rng.randint(1, 3), terms=1)
                   for _ in range(3)]
        lhs = cup(cup(a, b), c)
        rhs = cup(a, cup(b, c)).scale((-1) ** ((a.degree + c.degree) % 2))
        assert lhs.agrees_with(rhs, CAP)
        if (a.degree + c.degree) % 2 == 0:
            assert lhs.agrees_with(cup(a, cup(b, c)), CAP)


def test_bullet_against_evaluation_oracle():
    rng = random.Random(RNG_SEED)
    for _ in range(80):
        dim = rng.randint(1, 3)
        d1 = random_operator(rng, dim, CAP, rng.randint(1, 2))
        d2 = random_operator(rng, dim, CAP, rng.randint(0, 2))
        args = [random_series(rng, dim, CAP)
                for _ in range(d1.degree + d2.degree + 1)]
        got = bullet(d1, d2).apply(args)
        want = helpers.bullet_eval(d1, d2, args)
        assert got.agrees_with(want, CAP - 3)


def _recapped(op, rng, caps=(CAP - 2, CAP - 1, CAP)):
    """op with each term's coefficient re-truncated at a random cap."""
    return PolyDiffOp(op.dim, op.degree, {
        slots: TruncatedSeries(op.dim, rng.choice(caps), c.terms)
        for slots, c in op.terms.items()})


def _oracle_pairs():
    """Seeded (d1, d2) with d1 of degree 0..2 and d2 of degree -1..2.

    Slots carry up to two derivatives, so receiving multi-indices have
    entries >= 2 and multinomials > 1; every third d2 has constant
    coefficients, whose nu != 0 partials vanish; caps differ by term.
    """
    rng = random.Random(RNG_SEED + 5)
    for deg1, deg2 in product(range(3), range(-1, 3)):
        for n in range(9):
            dim = rng.randint(1, 3)
            d1 = random_operator(rng, dim, CAP, deg1 + 1)
            d2 = random_operator(rng, dim, CAP, deg2 + 1)
            if n % 3 == 0:
                d2 = PolyDiffOp(dim, deg2, {
                    slots: TruncatedSeries.const(dim, Fraction(n - 10, 3), CAP)
                    for slots in d2.terms})
            yield _recapped(d1, rng), _recapped(d2, rng)


def test_bullet_matches_the_split_by_split_reference():
    # exact ==, caps included: the grouped Leibniz walk must give every
    # key the coefficient and the cap of one product per split
    seen = set()
    for d1, d2 in _oracle_pairs():
        assert bullet(d1, d2) == helpers.bullet_reference(d1, d2)
        assert bullet(d2, d1) == helpers.bullet_reference(d2, d1)
        assert (gerstenhaber_bracket(d1, d2)
                == helpers.gerstenhaber_reference(d1, d2))
        for d in (d1, d2):
            assert hochschild_differential(d) == helpers.hochschild_reference(d)
        seen.add((d1.degree, d2.degree))
        if d1.degree >= 1 and d2.degree % 2:
            seen.add("negative insertion sign")
        if any(e >= 2 for slots in d1.terms for m in slots for e in m):
            seen.add("multinomial > 1")
        if all(set(c.terms) <= {(0,) * c.dim} for c in d2.terms.values()):
            seen.add("constant d2")
    assert len(seen) == 3 * 4 + 3


def test_multi_splits_match_the_composition_reference():
    # as multisets: the recursion on the first part lists the splits in
    # another order; zero parts and the zero multi-index included
    for multi in product(range(3), repeat=3):
        for parts in range(5):
            assert (Counter(_multi_splits(multi, parts))
                    == Counter(helpers._reference_splits(multi, parts))), \
                (multi, parts)
    assert _multi_splits((0, 0, 0), 0) == (((), 1),)
    assert _multi_splits((1, 0, 0), 0) == ()


def test_insert_of_degree_below_minus_one_is_zero():
    # bullet of two functions is the zero operator of degree -2; inserting
    # it anywhere, or bracketing with it, gives zero as the reference does
    rng = random.Random(RNG_SEED + 6)
    for _ in range(6):
        dim = rng.randint(1, 3)
        f, g = (random_operator(rng, dim, CAP, 0) for _ in range(2))
        z = bullet(f, g)
        assert z.degree == -2 and z.is_zero()
        assert z == helpers.bullet_reference(f, g)
        for deg1 in range(3):
            d1 = random_operator(rng, dim, CAP, deg1 + 1)
            for w in (z, PolyDiffOp.zero(dim, -2)):
                assert bullet(d1, w).is_zero()
                assert bullet(d1, w) == helpers.bullet_reference(d1, w)
                assert (gerstenhaber_bracket(d1, w)
                        == helpers.gerstenhaber_reference(d1, w))
        assert hochschild_differential(z) == helpers.hochschild_reference(z)
        assert hochschild_differential(z).is_zero()


def test_insertion_distributes_leibniz():
    # inserting a first-order operator into a second-order slot must
    # hit the coefficient and both remaining slots:
    # D = d1^2 (one slot), E = t1 d1 (one slot)
    dim = 1
    one = TruncatedSeries.const(dim, 1, CAP)
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    D = PolyDiffOp.single(one, ((2,),))
    E = PolyDiffOp.single(t1, ((1,),))
    f = t1 * t1 * t1
    # (D bullet E)(f) = D(E(f)) = (t1 f')'' = (3 t1^3)'' = 18 t1
    got = bullet(D, E).apply([f])
    assert got.agrees_with(t1.scale(18), CAP - 3)


def test_hochschild_differential_against_face_oracle():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(60):
        dim = rng.randint(1, 3)
        op = random_operator(rng, dim, CAP, rng.randint(1, 3))
        args = [random_series(rng, dim, CAP) for _ in range(op.degree + 2)]
        got = hochschild_differential(op).apply(args)
        want = helpers.hochschild_face(op, args)
        assert got.agrees_with(want, CAP - 3)


def test_hochschild_squares_to_zero():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(40):
        dim = rng.randint(1, 3)
        op = random_operator(rng, dim, CAP, rng.randint(1, 2))
        assert hochschild_differential(hochschild_differential(op)).is_zero()


def test_gerstenhaber_graded_antisymmetry():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(30):
        dim = rng.randint(1, 2)
        d1 = random_operator(rng, dim, CAP, rng.randint(1, 2), terms=1)
        d2 = random_operator(rng, dim, CAP, rng.randint(1, 2), terms=1)
        sign = (-1) ** ((d1.degree * d2.degree) % 2)
        lhs = gerstenhaber_bracket(d1, d2)
        rhs = gerstenhaber_bracket(d2, d1).scale(sign)
        assert (lhs + rhs).is_zero()


def test_hkr_on_function_and_vector():
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    f = PolyVectorField.function(t1)
    assert hkr(f).degree == -1
    assert hkr(f).terms[()] == t1
    v = PolyVectorField(dim, 0, {(2,): t1})
    q = hkr(v)
    assert q.degree == 0
    assert q.terms[((0, 1),)] == t1


def test_hkr_bivector_antisymmetrization():
    dim = 2
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    b = PolyVectorField(dim, 1, {(1, 2): t2})
    q = hkr(b)
    # prefactor (-1)^{2*1/2} / 2! = -1/2 on both slot orderings
    want = Fraction(-1, 2)
    assert q.terms[((1, 0), (0, 1))] == t2.scale(want)
    assert q.terms[((0, 1), (1, 0))] == t2.scale(-want)


def _hkr_fields():
    """Seeded fields for the HKR oracle: d <= 5 and every degree -1 .. d-1.

    Up to three keys per field, each at its own cap, so a top-degree key
    at d = 5 has 120 orderings and caps differ within a field; every
    (d, degree) also gets its zero field.
    """
    rng = random.Random(RNG_SEED + 7)
    for dim in range(1, 6):
        for degree in range(-1, dim):
            pool = list(combinations(range(1, dim + 1), degree + 1))
            yield PolyVectorField.zero(dim, degree)
            for _ in range(3):
                yield PolyVectorField(dim, degree, {
                    rng.choice(pool): random_series(
                        rng, dim, rng.choice((CAP - 2, CAP - 1, CAP)))
                    for _ in range(3)})


def test_hkr_matches_the_position_permutation_reference():
    # exact ==, caps included: scaling each key once and reading a signed
    # component per ordering must give every slot tuple the coefficient
    # and the cap of the reference's one scaling per permutation
    seen = set()
    for field in _hkr_fields():
        want = helpers.hkr_reference(field)
        assert hkr(field) == want
        assert u_one(field) == want
        seen.add((field.dim, field.degree))
        if not field:
            seen.add("zero")
        elif field.degree == -1:
            seen.add("function")
        if len({s.cap for s in field.comps.values()}) > 1:
            seen.add("mixed caps")
    assert len(seen) == sum(d + 1 for d in range(1, 6)) + 3


def test_hkr_of_the_bracket_of_two_functions_is_the_degree_minus_two_zero():
    # [f, g] of two functions is the zero field of degree -2; HKR and U_1
    # send it to the zero operator of that degree, which is also the
    # Gerstenhaber bracket of hkr(f) and hkr(g)
    rng = random.Random(RNG_SEED + 8)
    for _ in range(6):
        dim = rng.randint(1, 3)
        f, g = (PolyVectorField.function(random_series(rng, dim, CAP))
                for _ in range(2))
        z = schouten_bracket(f, g)
        assert z.degree == -2
        assert hkr(z) == gerstenhaber_bracket(hkr(f), hkr(g))
        for op in (hkr(z), u_one(z)):
            assert op.degree == -2 and op.is_zero()


def test_hkr_lands_in_cocycles():
    rng = random.Random(RNG_SEED + 4)
    from formaldisk.suites import random_field
    for _ in range(25):
        dim = rng.randint(1, 3)
        fld = random_field(rng, dim, CAP, rng.randint(0, dim - 1))
        assert hochschild_differential(hkr(fld)).is_zero()


def test_hkr_application_matches_bivector_action():
    dim = 2
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    t2 = TruncatedSeries.variable(dim, 2, CAP)
    pi = PolyVectorField(dim, 1, {(1, 2): t1 + t2})
    f, g = t1 * t2, t2 * t2
    got = hkr(pi).apply([f, g])
    want = helpers.biv_action(pi, f, g).scale(Fraction(-1, 2))
    assert got.agrees_with(want, CAP - 2)


def test_degree_minus_one_insertion():
    # bracketing with a function drops one slot; a degree -1 insert is
    # odd, so the slot signs alternate: [D, F](g) = D(F, g) - D(g, F)
    dim = 1
    t1 = TruncatedSeries.variable(dim, 1, CAP)
    one = TruncatedSeries.const(dim, 1, CAP)
    D = PolyDiffOp.single(one, ((1,), (2,)))   # f, g -> f' g''
    F = PolyDiffOp.function(t1 * t1)
    br = gerstenhaber_bracket(D, F)
    assert br.degree == 0
    g = t1 * t1 * t1
    ff = t1 * t1
    want = D.apply([ff, g]) - D.apply([g, ff])   # 12 t1^2 - 6 t1^2
    assert br.apply([g]).agrees_with(want, CAP - 3)
    assert want.agrees_with((t1 * t1).scale(6), CAP - 3)
    # symmetric D makes the alternating sum collapse
    sym = PolyDiffOp.single(one, ((1,), (1,)))
    assert gerstenhaber_bracket(sym, F).is_zero()
