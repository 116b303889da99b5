"""Named verification suites shared by the test suite and the CLI.

Every suite returns a plain dict:

    {"suite": name, "passed": bool, "checks": [
        {"name": ..., "pass": bool, ...optional witness fields...}]}

Randomized suites take an explicit seed (default fixed) so reports are
reproducible; failures embed enough serialized state to replay them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .series import (DEFAULT_CAP, TruncatedSeries, SeriesMatrix, exp_series,
                     series_at, sinh_quotient_series)
from .polyvector import (PolyVectorField, contract, exterior_derivative,
                         schouten_bracket)
from .polydiff import (PolyDiffOp, bullet, gerstenhaber_bracket,
                       hkr, hochschild_differential)
from .graphs import (classify_wheels, cycle_type_of_wheelish, gamma0,
                     graphs_with_profile, opposite_wheel, vanishing_tag)
from .weights import (inverse_sqrt_sinh_quotient, mc_weight, mc_weight_cached,
                      theta_series, wheel_weight_closed)
from .formality import (MaurerCartanData, closed_form_map, tilde_todd_series,
                        todd_series, twisted_first_taylor, u_one)
from .etalgebra import EtaField
from . import linfty


DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------
# random generators (shared with the tests)
# ---------------------------------------------------------------------

def random_fraction(rng):
    num = rng.randint(-3, 3)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)

def random_series(rng, dim, cap, max_total=2):
    """Sparse polynomial with small rational coefficients."""
    data = {}
    for _ in range(3):
        exp = [0] * dim
        for _ in range(rng.randint(0, max_total)):
            exp[rng.randrange(dim)] += 1
        data[tuple(exp)] = random_fraction(rng)
    return TruncatedSeries(dim, cap, data)

def random_field(rng, dim, cap, degree, terms=2):
    idx_pool = list(combinations(range(1, dim + 1), degree + 1))
    if not idx_pool:
        return PolyVectorField.zero(dim, degree)
    comps = {}
    for _ in range(terms):
        comps[rng.choice(idx_pool)] = random_series(rng, dim, cap)
    return PolyVectorField(dim, degree, comps)

def random_operator(rng, dim, cap, nslots, terms=2):
    out = PolyDiffOp.zero(dim, nslots - 1)
    for _ in range(terms):
        slots = []
        for _ in range(nslots):
            m = [0] * dim
            for _ in range(rng.randint(0, 2)):
                m[rng.randrange(dim)] += 1
            slots.append(tuple(m))
        out = out + PolyDiffOp.single(random_series(rng, dim, cap),
                                      tuple(slots))
    return out


def _check(name, ok, **extra):
    row = {"name": name, "pass": bool(ok)}
    row.update(extra)
    return row

def _report(suite, checks):
    return {"suite": suite, "passed": all(c["pass"] for c in checks),
            "checks": checks}


# ---------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------

def suite_hkr():
    """First Taylor coefficient against the antisymmetrized quantization,
    on every basis wedge in dimension d <= 3."""
    checks = []
    for dim in range(1, 4):
        for degree in range(-1, dim):
            for idx in combinations(range(1, dim + 1), degree + 1):
                field = PolyVectorField.from_wedge(dim, idx)
                ok = u_one(field) == hkr(field)
                # and once more with a non-constant coefficient
                coeff = TruncatedSeries.monomial(
                    dim, tuple(2 if a == 1 else 0 for a in range(1, dim + 1)),
                    Fraction(3, 2))
                scaled = field.scale(coeff)
                ok = ok and u_one(scaled) == hkr(scaled)
                checks.append(_check(
                    "u1=hkr d=%d idx=%s" % (dim, ",".join(map(str, idx))),
                    ok))
    return _report("hkr", checks)


def suite_weights_closed():
    """Closed wheel weights W_1..W_4, and theta against the sinh quotient."""
    expected = {1: Fraction(0), 2: Fraction(1, 24), 3: Fraction(0),
                4: Fraction(1, 1440)}
    checks = []
    for l, want in expected.items():
        w = wheel_weight_closed(l)
        checks.append(_check("W_%d value" % l, w == want,
                             got=str(w), want=str(want)))
    order = 2 * len(expected)
    checks.append(_check(
        "exp(-2 theta) is the sinh quotient through order %d" % order,
        series_at(exp_series(order, -2), theta_series(order))
        == sinh_quotient_series(order)))
    return _report("weights-closed", checks)


def suite_wheels():
    """Brute-force survivors match the wheel families and multiplicities,
    for j <= 3 cycle vertices around a center of degree p <= 3."""
    checks = []
    for j in range(1, 4):
        for p in range(0, 4):
            m = p - j + 1
            if m < 0:
                continue
            families = classify_wheels(j, p)
            profile = [1] * j + [p + 1]
            found = {}
            extras = 0
            for g in graphs_with_profile(j + 1, m, profile):
                if vanishing_tag(g) is not None:
                    continue
                ct = cycle_type_of_wheelish(g, j)
                if ct is None:
                    extras += 1
                    continue
                found[ct] = found.get(ct, 0) + 1
            ok = (found == families) and extras == 0
            checks.append(_check(
                "wheel families j=%d p=%d" % (j, p), ok,
                families={str(k): v for k, v in families.items()},
                survivors={str(k): v for k, v in found.items()},
                non_wheel_survivors=extras))
    return _report("wheels", checks)


def _graded_jacobi(bracket, a, b, c):
    """The graded Jacobi sum, cyclic in (a, b, c), of
    (-1)^{|a||c|} [a, [b, c]], by the containers' own + and scale."""
    pa, pb, pc = a.degree % 2, b.degree % 2, c.degree % 2
    return (bracket(a, bracket(b, c)).scale((-1) ** (pa * pc))
            + bracket(b, bracket(c, a)).scale((-1) ** (pb * pa))
            + bracket(c, bracket(a, b)).scale((-1) ** (pc * pb)))


def suite_gerstenhaber(trials=200, seed=DEFAULT_SEED):
    """Randomized exact identities for both graded algebras, in dimension
    d <= 3 on series capped at 6."""
    d_max, cap = 3, 6
    rng = random.Random(seed)
    bad = {"d2": 0, "mm": 0, "jacobi-g": 0, "jacobi-s": 0,
           "hkr-cocycle": 0, "bullet-eval": 0}
    mm_ok = True
    for dim in range(1, d_max + 1):
        m = PolyDiffOp.multiplication(dim, cap)
        if not gerstenhaber_bracket(m, m).is_zero():
            mm_ok = False
    for t in range(trials):
        dim = rng.randint(1, d_max)
        # Hochschild differential squares to zero
        op = random_operator(rng, dim, cap, rng.randint(1, 2))
        if not hochschild_differential(hochschild_differential(op)).is_zero():
            bad["d2"] += 1
        # graded Jacobi, operator side
        ops = [random_operator(rng, dim, cap, rng.randint(1, 2), terms=1)
               for _ in range(3)]
        if not _graded_jacobi(gerstenhaber_bracket, *ops).is_zero():
            bad["jacobi-g"] += 1
        # graded Jacobi, field side
        flds = [random_field(rng, dim, cap, rng.randint(-1, min(2, dim - 1)),
                             terms=1) for _ in range(3)]
        if not _graded_jacobi(schouten_bracket, *flds).is_zero():
            bad["jacobi-s"] += 1
        # quantized fields are cocycles
        fld = random_field(rng, dim, cap, rng.randint(0, dim - 1))
        if not hochschild_differential(hkr(fld)).is_zero():
            bad["hkr-cocycle"] += 1
        # bullet: structural product against direct evaluation
        d1 = random_operator(rng, dim, cap, rng.randint(1, 2), terms=1)
        d2 = random_operator(rng, dim, cap, rng.randint(0, 2), terms=1)
        prod = bullet(d1, d2)
        nargs = d1.degree + d2.degree + 1
        args = [random_series(rng, dim, cap) for _ in range(nargs)]
        lhs = prod.apply(args)
        rhs = None
        k2 = d2.degree + 1
        for i in range(d1.degree + 1):
            inner = d2.apply(args[i:i + k2])
            val = d1.apply(args[:i] + [inner] + args[i + k2:])
            if (i * d2.degree) % 2:
                val = -val
            rhs = val if rhs is None else rhs + val
        if rhs is None:
            rhs = lhs.zero_like()
        if not lhs.agrees_with(rhs, cap - 3):
            bad["bullet-eval"] += 1
    checks = [_check("[m,m] = 0", mm_ok)]
    checks += [_check("%s (%d trials)" % (k, trials), v == 0, failures=v)
               for k, v in bad.items()]
    return _report("gerstenhaber", checks)


def suite_twisting():
    """Maurer-Cartan twisting on exhaustively checkable instances."""
    checks = []
    g, h, phi = linfty.quadratic_example()
    checks.append(_check("source axioms", not g.check_axioms()))
    checks.append(_check("target axioms", not h.check_axioms()))
    checks.append(_check("morphism coherences", not phi.check_identities()))
    for c in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-2, 7)):
        omega = {"u": c}
        ok = linfty.elem_is_zero(g.mc_residual(omega))
        omega_prime, twisted = phi.twist(omega)
        ok = ok and linfty.elem_is_zero(h.mc_residual(omega_prime))
        twisted_target = h.twist(omega_prime)
        ok = ok and not twisted_target.check_axioms()
        ok = ok and not twisted.check_identities()
        checks.append(_check("push/twist at c=%s" % c, ok,
                             omega_prime={k: str(v)
                                          for k, v in omega_prime.items()}))
    # naive pushforward without the quadratic correction must fail
    omega = {"u": Fraction(1)}
    naive = phi.psi1(omega)
    checks.append(_check("linear-only pushforward fails Maurer-Cartan",
                         not linfty.elem_is_zero(h.mc_residual(naive))))
    # idempotence at omega = 0
    zero_prime, tw0 = phi.twist({})
    checks.append(_check("twist by zero is the identity operation",
                         linfty.elem_is_zero(zero_prime)
                         and tw0.p1 == phi.p1
                         and g.twist({}).diff == g.diff))
    # eta-extended Schouten side, commuting twisting pair
    dim, cap = 2, 6
    t2 = TruncatedSeries.variable(dim, 2, cap)
    w1 = PolyVectorField(dim, 0, {(1,): t2})
    w2 = PolyVectorField(dim, 0, {(1,): t2 * t2})
    omega_eta = EtaField(dim, {(1,): w1, (2,): w2})
    res = linfty.eta_mc_residual(omega_eta)
    checks.append(_check("eta instance is Maurer-Cartan", res.is_zero()))
    d_omega = linfty.eta_twisted_differential(omega_eta)
    square_ok = True
    t1 = TruncatedSeries.variable(dim, 1, cap)
    probes = [
        EtaField(dim, {(): PolyVectorField(dim, 0, {(2,): t1})}),
        EtaField(dim, {(): PolyVectorField.from_wedge(dim, (1, 2))}),
        EtaField(dim, {(): PolyVectorField.function(t1 * t1)}),
        EtaField(dim, {(2,): PolyVectorField(dim, 0, {(1,): t1 * t2})}),
    ]
    for b in probes:
        if not d_omega(d_omega(b)).is_zero():
            square_ok = False
    checks.append(_check("twisted differential squares to zero", square_ok))
    bad_omega = EtaField(dim, {
        (1,): PolyVectorField(dim, 0, {(1,): t2 * t2}),
        (2,): PolyVectorField(dim, 0, {(2,): t1 * t1})})
    checks.append(_check("non-commuting pair is rejected",
                         not linfty.eta_mc_residual(bad_omega).is_zero()))
    return _report("twisting", checks)


def todd_table(order):
    """q and q~ through x^order as strings, and whether q e^{-x/2} == q~."""
    q, qt = todd_series(order), tilde_todd_series(order)
    return ([str(q.coefficient((k,))) for k in range(order + 1)],
            [str(qt.coefficient((k,))) for k in range(order + 1)],
            q * exp_series(order, Fraction(-1, 2)) == qt)


def suite_todd():
    """Todd series identities through x^10 and the determinant factor."""
    order, matrix_order = 10, 6
    q, qt, ok = todd_table(order)
    checks = [_check("modified Todd = Todd * exp(-x/2) through order %d"
                     % order, ok, q=q, qtilde=qt)]
    # matrix identity on a nilpotent 2x2 with series entries
    dim, cap = 2, matrix_order
    t1 = TruncatedSeries.variable(dim, 1, cap)
    t2 = TruncatedSeries.variable(dim, 2, cap)
    xi = SeriesMatrix([[t1, t2 + t1 * t2], [t1 * t1, t2 * t2]])
    theta = series_at(theta_series(matrix_order), xi)
    lhs = series_at(exp_series(matrix_order, 1), theta)
    rhs = series_at(inverse_sqrt_sinh_quotient(matrix_order), xi)
    checks.append(_check("exp(Theta) matches the square-root series",
                         lhs.rows == rhs.rows))
    # a linear twisting datum has flat Xi, so the closed map is plain HKR
    dim = 3
    lin1 = PolyVectorField(dim, 0, {(1,): TruncatedSeries.variable(dim, 2)})
    lin2 = PolyVectorField(dim, 0, {(2,): TruncatedSeries.variable(dim, 1)})
    mc = MaurerCartanData([lin1, lin2])
    gamma = PolyVectorField.from_wedge(dim, (1, 2))
    closed = closed_form_map(mc, gamma)
    ok = (list(closed.parts) == [()]) and closed.parts[()] == hkr(gamma)
    graph_side = twisted_first_taylor(mc, gamma)
    ok = ok and list(graph_side.parts) == [()] \
        and graph_side.parts[()].agrees_with(hkr(gamma), DEFAULT_CAP - 2)
    checks.append(_check("linear twisting datum degenerates to HKR", ok))
    return _report("todd", checks)


def suite_derivation(trials=100, seed=DEFAULT_SEED):
    """Contraction with an exact 1-form is a bracket derivation, in
    dimension 3 on series capped at 6."""
    dim, cap = 3, 6
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        b = random_series(rng, dim, cap, max_total=3)
        dfields = [random_field(rng, dim, cap, 0) for _ in range(2)]
        db = exterior_derivative(b)
        lhs = contract(db, schouten_bracket(dfields[0], dfields[1]))
        rhs = (schouten_bracket(dfields[0], contract(db, dfields[1]))
               + schouten_bracket(contract(db, dfields[0]), dfields[1]))
        if not lhs.agrees_with(rhs, cap - 2):
            failures += 1
    return _report("derivation", [
        _check("db-contraction derives the bracket (%d trials)" % trials,
               failures == 0, failures=failures)])


def suite_wheel_identity():
    """Twisted first Taylor coefficient against the closed determinant
    form, on series capped at 8."""
    cap = 8
    checks = []
    through = cap - 3

    def compare(tag, dim, fields, gamma):
        mc = MaurerCartanData(fields)
        lhs = twisted_first_taylor(mc, gamma)
        rhs = closed_form_map(mc, gamma)
        ok = lhs.agrees_with(rhs, through)
        checks.append(_check(tag, ok,
                             graph_words=[",".join(map(str, w))
                                          for w in sorted(lhs.parts)],
                             closed_words=[",".join(map(str, w))
                                           for w in sorted(rhs.parts)]))

    dim = 3
    t1 = TruncatedSeries.variable(dim, 1, cap)
    t2 = TruncatedSeries.variable(dim, 2, cap)
    t3 = TruncatedSeries.variable(dim, 3, cap)
    w1 = PolyVectorField(dim, 0, {(1,): t2 * t3})
    w2 = PolyVectorField(dim, 0, {(2,): t1 * t3})
    compare("d=3 pair, two-vector", dim, [w1, w2],
            PolyVectorField.from_wedge(dim, (1, 2)))
    compare("d=3 pair, three-vector", dim, [w1, w2],
            PolyVectorField.from_wedge(dim, (1, 2, 3)))
    # a pair with a nonvanishing two-wheel trace
    dim = 2
    u1 = TruncatedSeries.variable(dim, 1, cap)
    u2 = TruncatedSeries.variable(dim, 2, cap)
    v1 = PolyVectorField(dim, 0, {(1,): u2 * u2})
    v2 = PolyVectorField(dim, 0, {(2,): u1 * u1})
    compare("d=2 pair, nonzero wheel trace", dim, [v1, v2],
            PolyVectorField.from_wedge(dim, (1, 2)))
    compare("d=2 pair, vector center", dim, [v1, v2],
            PolyVectorField.from_wedge(dim, (1,)))
    # nonzero wheel trace with a leftover ground slot
    dim = 3
    s2 = TruncatedSeries.variable(dim, 2, cap)
    s1 = TruncatedSeries.variable(dim, 1, cap)
    r1 = PolyVectorField(dim, 0, {(1,): s2 * s2})
    r2 = PolyVectorField(dim, 0, {(2,): s1 * s1})
    compare("d=3 pair, wheel trace with ground slot", dim, [r1, r2],
            PolyVectorField.from_wedge(dim, (1, 2, 3)))
    return _report("wheel-identity", checks)


def suite_mc_weights(samples=100_000, seed=0, workers=1, cache_path=None):
    """Signed numeric weight integrals against their exact values; the
    three graphs take samples, 10 * samples and 100 * samples draws."""
    checks = []

    def run(graph, n_samples):
        if cache_path:
            est, _ = mc_weight_cached(graph, n_samples, seed=seed,
                                      workers=workers, cache_path=cache_path)
            return est
        return mc_weight(graph, n_samples, seed=seed, workers=workers)

    for name, graph, n_samples, exact, floor in (
            ("one-ground corolla integrates to 1", gamma0(1), samples,
             1.0, 0.01),
            ("two-ground corolla integrates to 1/2", gamma0(2), 10 * samples,
             0.5, 0.01),
            ("two-wheel integrates to 1/24", opposite_wheel(2), 100 * samples,
             1.0 / 24.0, 0.02 * (1.0 / 24.0))):
        est = run(graph, n_samples)
        tol = max(3 * est.stderr, floor)
        checks.append(_check(name, abs(est.integral - exact) <= tol,
                             estimate=est.integral, stderr=est.stderr,
                             samples=est.samples, tolerance=tol))
    return _report("mc-weights", checks)


SUITES = {
    "hkr": suite_hkr,
    "weights-closed": suite_weights_closed,
    "wheels": suite_wheels,
    "gerstenhaber": suite_gerstenhaber,
    "twisting": suite_twisting,
    "todd": suite_todd,
    "derivation": suite_derivation,
    "wheel-identity": suite_wheel_identity,
    "mc-weights": suite_mc_weights,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise KeyError("unknown suite %r; known: %s"
                       % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](**kwargs)
