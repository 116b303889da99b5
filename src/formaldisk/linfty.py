"""Differential graded Lie algebras, Maurer-Cartan twisting, morphisms.

Everything here works with two incarnations of the same structure:

* SmallDGLie: a finite structure-constant algebra over Q with a graded
  basis, used to exercise the twisting formulas on examples where every
  identity can be checked exhaustively;
* the eta-extended Schouten algebra: fields with odd parameter
  coefficients and zero differential, bracketed through the Schouten
  bracket with Koszul signs for the parameters.

The structure-constant side rests on two primitives, each one
sparse_sum: combine((c1, x1), (c2, x2), ...) = c1 x1 + c2 x2 + ..., and
extend, a map on basis names (or pairs of names) extended linearly (or
bilinearly): d, the bracket, psi1 and psi2.  Every identity, push and
twist is a combine of signed terms.  Structure constants and a
morphism's components are checked once, when they are built (names,
degrees, exact coefficients, antisymmetry).

Dictionary between the Lie writing and the coalgebra writing used for
morphisms: q1(a) = -d a and q2(a, b) = (-1)^{|a|} [a, b].  On shifted
degree zero (that is, ordinary degree one) inputs q2 is plainly
symmetric, and a Maurer-Cartan element satisfies

    q1(w) + (1/2) q2(w, w) = -(dw + (1/2)[w, w]) = 0.

A morphism with Taylor coefficients psi1, psi2 (and nothing higher)
pushes such an element to psi1(w) + (1/2) psi2(w, w); twisting the
morphism itself gives psi_{w,1} = psi1 + psi2(w, -).  The twisted
structure has differential d_w = d + [w, -] and the same bracket; no
higher operations appear, so the twist of a dg Lie algebra is again a
dg Lie algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .etalgebra import EtaField
from .polyvector import schouten_bracket, sort_with_sign
from .series import Q1, _as_fraction, sparse_sum


# ---------------------------------------------------------------------
# structure-constant dg Lie algebras
# ---------------------------------------------------------------------

def combine(*terms):
    """Sum of c x over the (c, x) terms, as one sparse_sum; c = 1 is not
    multiplied out, as Fraction products dominate the exhaustive checks."""
    return sparse_sum((k, v if c == 1 else c * v)
                      for c, x in terms for k, v in x.items())


def extend(table, x, y=None):
    """table on basis names extended linearly to x, or on pairs of names
    bilinearly to (x, y); coefficients meet only where table has an entry."""
    if y is None:
        return combine(*((c, table[a]) for a, c in x.items() if a in table))
    return combine(*((ca * cb, table[a, b]) for a, ca in x.items()
                     for b, cb in y.items() if (a, b) in table))


def elem_add(x, y):
    return combine((1, x), (1, y))


def elem_scale(x, c):
    return combine((_as_fraction(c), x))


def elem_is_zero(x):
    return not combine((1, x))


def _store(table, key, value):
    """table[key] = value, unless key already holds another value."""
    if table.setdefault(key, value) != value:
        raise ValueError("conflicting entries for %r" % (key,))


def _image(source, target, names, elem, shift):
    """elem without zeros, its coefficients Fractions, checked as the
    image of the source basis names in degree |names| + shift of target
    (both name -> degree).  ValueError for a name outside its basis or
    an image of another degree, TypeError for an inexact coefficient."""
    elem = combine((1, {k: _as_fraction(c) for k, c in elem.items()}))
    if not (source.keys() >= set(names) and target.keys() >= elem.keys()):
        raise ValueError("unknown name in %r -> %r" % (names, elem))
    want = sum(source[k] for k in names) + shift
    if any(target[k] != want for k in elem):
        raise ValueError("image of %r is not of degree %d" % (names, want))
    return elem


def _on_basis(f, names):
    """The nonzero values of the linear map f on the given basis names."""
    return {n: img for n in names if (img := f({n: Q1}))}


class SmallDGLie:
    """dg Lie algebra on a finite graded basis with rational constants.

    degrees: name -> integer degree.
    diff: name -> element (as name -> Fraction) of one degree higher,
        extended linearly.
    brackets: (a, b) -> element of degree |a| + |b|; the table is
        filled in by graded antisymmetry [b, a] = -(-1)^{|a||b|} [a, b],
        pairs missing from both sides are zero.  ValueError for an
        unknown name, an image of the wrong degree, or a stored pair
        that contradicts antisymmetry; TypeError for a coefficient that
        is not an int or a Fraction.
    """

    def __init__(self, degrees, diff=None, brackets=None):
        self.degrees = dict(degrees)
        self.diff = {name: _image(self.degrees, self.degrees, (name,), img, 1)
                     for name, img in (diff or {}).items()}
        self.table = {}
        for (a, b), v in (brackets or {}).items():
            v = _image(self.degrees, self.degrees, (a, b), v, 0)
            _store(self.table, (a, b), v)
            sign = (-1) ** (1 + self.degrees[a] * self.degrees[b] % 2)
            _store(self.table, (b, a), combine((sign, v)))

    def degree_of(self, elem):
        degs = {self.degrees[k] for k in combine((1, elem))}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    def d(self, elem):
        return extend(self.diff, elem)

    def bracket(self, x, y):
        return extend(self.table, x, y)

    def q1(self, x):
        return combine((-1, self.d(x)))

    def q2(self, x, y):
        return self.bracket({a: (-1) ** (self.degrees[a] % 2) * c
                             for a, c in x.items()}, y)

    def check_axioms(self):
        """Exhaustive d^2, Leibniz and Jacobi checks; returns violations.

        Antisymmetry holds by construction.
        """
        bad = []
        basis = sorted(self.degrees)
        unit = {a: {a: Q1} for a in basis}
        p = {a: self.degrees[a] % 2 for a in basis}
        d, br = self.d, self.bracket
        for a in basis:
            if d(d(unit[a])):
                bad.append(("d2", a))
        for a, b in product(basis, repeat=2):
            ea, eb = unit[a], unit[b]
            if combine((1, d(br(ea, eb))), (-1, br(d(ea), eb)),
                       ((-1) ** (p[a] + 1), br(ea, d(eb)))):
                bad.append(("leibniz", a, b))
        for a, b, c in product(basis, repeat=3):
            ea, eb, ec = unit[a], unit[b], unit[c]
            if combine(((-1) ** (p[a] * p[c]), br(ea, br(eb, ec))),
                       ((-1) ** (p[b] * p[a]), br(eb, br(ec, ea))),
                       ((-1) ** (p[c] * p[b]), br(ec, br(ea, eb)))):
                bad.append(("jacobi", a, b, c))
        return bad

    def mc_residual(self, omega):
        """q1(w) + (1/2) q2(w, w); zero exactly on Maurer-Cartan elements."""
        deg = self.degree_of(omega)
        if deg not in (None, 1):
            raise ValueError("Maurer-Cartan elements live in degree 1")
        return combine((1, self.q1(omega)),
                       (Fraction(1, 2), self.q2(omega, omega)))

    def twist(self, omega):
        """The algebra with d_w = d + [w, -] and the same bracket."""
        if self.mc_residual(omega):
            raise ValueError("cannot twist by a non-Maurer-Cartan element")
        diff = _on_basis(lambda e: combine((1, self.d(e)),
                                           (1, self.bracket(omega, e))),
                         self.degrees)
        return SmallDGLie(self.degrees, diff, self.table)


# ---------------------------------------------------------------------
# morphisms with a quadratic Taylor coefficient
# ---------------------------------------------------------------------

class LInftyMorphism:
    """A morphism g -> h with components psi1 (linear) and psi2.

    psi1: name of g -> element of h of the same degree.
    psi2: pair of names of g -> element of h, one degree lower than the
        pair; stored under both orders (on ordinary degree-one inputs
        the shifted symmetry is plain), and ValueError if the two orders
        are given different values.
    ValueError for a name outside its algebra or an image of another
    degree, TypeError for a coefficient that is not an int or a Fraction.
    """

    def __init__(self, source, target, psi1, psi2=None):
        self.source = source
        self.target = target
        g, h = source.degrees, target.degrees
        self.p1 = {k: _image(g, h, (k,), v, 0) for k, v in psi1.items()}
        self.p2 = {}
        for (a, b), v in (psi2 or {}).items():
            v = _image(g, h, (a, b), v, -1)
            _store(self.p2, (a, b), v)
            _store(self.p2, (b, a), v)

    def psi1(self, x):
        return extend(self.p1, x)

    def psi2(self, x, y):
        return extend(self.p2, x, y)

    def check_identities(self):
        """Coherences through arity three; returns a list of violations.

        Arity one is the chain-map property on the whole basis.  The
        quadratic and cubic identities are checked on the degree-one
        sector, which is where Maurer-Cartan elements live and the
        shifted Koszul signs all collapse to +1:

            psi1(q2(x,y)) - q2(psi1 x, psi1 y)
                = q1 psi2(x,y) + psi2(q1 x, y) + psi2(x, q1 y),

            sum_cyc psi2(q2(x,y), z) + sum_cyc q2(psi1 z, psi2(x,y)) = 0,

        and the quartic obstruction attached to a vanishing third
        coefficient, sum over pairings of q2(psi2, psi2), on the
        diagonal of the degree-one sector.
        """
        g, h = self.source, self.target
        p1, p2 = self.psi1, self.psi2
        bad = []
        unit = {a: {a: Q1} for a in g.degrees}
        for a in sorted(g.degrees):
            if combine((1, p1(g.q1(unit[a]))), (-1, h.q1(p1(unit[a])))):
                bad.append(("arity1", a))
        ones = sorted(k for k, v in g.degrees.items() if v == 1)
        for a, b in product(ones, repeat=2):
            ea, eb = unit[a], unit[b]
            if combine((1, p1(g.q2(ea, eb))), (-1, h.q2(p1(ea), p1(eb))),
                       (-1, h.q1(p2(ea, eb))), (-1, p2(g.q1(ea), eb)),
                       (-1, p2(ea, g.q1(eb)))):
                bad.append(("arity2", a, b))
        for a, b, c in product(ones, repeat=3):
            ea, eb, ec = unit[a], unit[b], unit[c]
            splits = ((ea, eb, ec), (ea, ec, eb), (eb, ec, ea))
            if combine(*((1, p2(g.q2(x, y), z)) for x, y, z in splits),
                       *((1, h.q2(p1(z), p2(x, y))) for x, y, z in splits)):
                bad.append(("arity3", a, b, c))
        for a in ones:
            ea = unit[a]
            if h.q2(p2(ea, ea), p2(ea, ea)):
                bad.append(("arity4-obstruction", a))
        return bad

    def push_mc(self, omega):
        """psi1(w) + (1/2) psi2(w, w)."""
        return combine((1, self.psi1(omega)),
                       (Fraction(1, 2), self.psi2(omega, omega)))

    def twist(self, omega):
        """Twisted linear component psi_{w,1} = psi1 + psi2(w, -).

        Returns (omega', morphism') where morphism' is linear (its
        quadratic part stays psi2, unchanged by a quadratic twist) and
        is a chain map (source twisted by w) -> (target twisted by w')
        whenever the coherences hold and the quartic obstruction
        vanishes on w.
        """
        omega_prime = self.push_mc(omega)
        psi1 = _on_basis(lambda e: combine((1, self.psi1(e)),
                                           (1, self.psi2(omega, e))),
                         self.source.degrees)
        twisted = LInftyMorphism(self.source.twist(omega),
                                 self.target.twist(omega_prime),
                                 psi1, self.p2)
        return omega_prime, twisted


def quadratic_example():
    """A morphism whose quadratic coefficient is forced to be nonzero.

    Source: one generator u in degree 1, abelian, zero differential.
    Target: v, x in degree 1 and w in degree 2 with d x = w and
    [v, v] = w.  Pushing cu forward by psi1(u) = v alone fails
    Maurer-Cartan in the target; the correction psi2(u, u) = -x
    repairs it: w' = cv - (1/2) c^2 x.
    """
    g = SmallDGLie({"u": 1})
    h = SmallDGLie({"v": 1, "x": 1, "w": 2},
                   diff={"x": {"w": Fraction(1)}},
                   brackets={("v", "v"): {"w": Fraction(1)}})
    phi = LInftyMorphism(g, h,
                         psi1={"u": {"v": Fraction(1)}},
                         psi2={("u", "u"): {"x": Fraction(-1)}})
    return g, h, phi


# ---------------------------------------------------------------------
# the eta-extended Schouten algebra (zero differential)
# ---------------------------------------------------------------------

def eta_schouten(x, y):
    """Schouten bracket of eta-graded fields with parameter Koszul signs.

    [eta_I a, eta_J b] = (-1)^{|J| p_a} eta_I eta_J [a, b], the word
    eta_I eta_J being sorted with its sign; p_a is the shifted degree
    of a (functions odd, vector fields even, and so on).
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    def brackets():
        for wi, a in x.parts.items():
            for wj, b in y.parts.items():
                sign, key = sort_with_sign(wi + wj)
                if sign == 0:
                    continue
                if (len(wj) * (a.degree % 2)) % 2:
                    sign = -sign
                val = schouten_bracket(a, b)
                if val:
                    yield key, val.scale(sign)
    return EtaField._make(x.dim, sparse_sum(brackets()))


def eta_mc_residual(omega):
    """-(1/2)[w, w] for the zero-differential Schouten algebra."""
    return eta_schouten(omega, omega).scale(Fraction(-1, 2))


def eta_twisted_differential(omega):
    """d_w = [w, -] as a callable on eta-graded fields."""
    def d_omega(b):
        return eta_schouten(omega, b)
    return d_omega
