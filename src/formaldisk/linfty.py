"""Differential graded Lie algebras, Maurer-Cartan twisting, morphisms.

Everything here works with two incarnations of the same structure:

* SmallDGLie: a finite structure-constant algebra over Q with a graded
  basis, used to exercise the twisting formulas on examples where every
  identity can be checked exhaustively;
* the eta-extended Schouten algebra: fields with odd parameter
  coefficients and zero differential, bracketed through the Schouten
  bracket with Koszul signs for the parameters.

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

from .etalgebra import EtaField
from .polyvector import schouten_bracket, sort_with_sign
from .series import _as_fraction, sparse_sum


# ---------------------------------------------------------------------
# structure-constant dg Lie algebras
# ---------------------------------------------------------------------

def _clean(elem):
    return sparse_sum(elem.items())


def elem_add(x, y):
    return sparse_sum(y.items(), x)


def elem_scale(x, c):
    c = _as_fraction(c)
    return _clean({k: v * c for k, v in x.items()})


def elem_is_zero(x):
    return not _clean(x)


class SmallDGLie:
    """dg Lie algebra on a finite graded basis with rational constants.

    degrees: name -> integer degree.
    diff: name -> element (as name -> Fraction), extended linearly.
    brackets: (name, name) -> element; pairs not stored are filled in
        by graded antisymmetry [y, x] = -(-1)^{|x||y|} [x, y], missing
        pairs are zero.
    """

    def __init__(self, degrees, diff=None, brackets=None):
        self.degrees = dict(degrees)
        self.diff = {k: _clean(v) for k, v in (diff or {}).items()}
        self.table = {}
        for (a, b), v in (brackets or {}).items():
            if a not in self.degrees or b not in self.degrees:
                raise ValueError("bracket on unknown basis element")
            self.table[(a, b)] = _clean(v)
        for (a, b), v in self.table.items():
            if a == b and self.degrees[a] % 2 == 0 and v:
                raise ValueError("[x, x] must vanish in even degree")
        for name, img in self.diff.items():
            for t in img:
                if self.degrees[t] != self.degrees[name] + 1:
                    raise ValueError("differential is not of degree +1")

    def degree_of(self, elem):
        degs = {self.degrees[k] for k in _clean(elem)}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    def d(self, elem):
        return sparse_sum((t, c * v) for k, c in elem.items()
                          for t, v in self.diff.get(k, {}).items())

    def _bracket_basis(self, a, b):
        if (a, b) in self.table:
            return self.table[(a, b)]
        if (b, a) in self.table:
            sign = -((-1) ** ((self.degrees[a] * self.degrees[b]) % 2))
            return elem_scale(self.table[(b, a)], sign)
        return {}

    def bracket(self, x, y):
        return sparse_sum((t, ca * cb * v) for a, ca in x.items()
                          for b, cb in y.items()
                          for t, v in self._bracket_basis(a, b).items())

    def q1(self, x):
        return elem_scale(self.d(x), -1)

    def q2(self, x, y):
        return self.bracket({a: (-1) ** (self.degrees[a] % 2) * c
                             for a, c in x.items()}, y)

    def check_axioms(self):
        """Exhaustive d^2, Leibniz and Jacobi checks; returns violations."""
        bad = []
        basis = sorted(self.degrees)
        for a in basis:
            if not elem_is_zero(self.d(self.d({a: Fraction(1)}))):
                bad.append(("d2", a))
        for a in basis:
            for b in basis:
                ea, eb = {a: Fraction(1)}, {b: Fraction(1)}
                lhs = self.d(self.bracket(ea, eb))
                rhs = elem_add(self.bracket(self.d(ea), eb),
                               elem_scale(self.bracket(ea, self.d(eb)),
                                          (-1) ** (self.degrees[a] % 2)))
                if not elem_is_zero(elem_add(lhs, elem_scale(rhs, -1))):
                    bad.append(("leibniz", a, b))
                sym = elem_add(
                    self.bracket(ea, eb),
                    elem_scale(self.bracket(eb, ea),
                               (-1) ** ((self.degrees[a] * self.degrees[b]) % 2)))
                if not elem_is_zero(sym):
                    bad.append(("antisymmetry", a, b))
        for a in basis:
            for b in basis:
                for c in basis:
                    ea, eb, ec = ({a: Fraction(1)}, {b: Fraction(1)},
                                  {c: Fraction(1)})
                    pa, pb, pc = (self.degrees[a] % 2, self.degrees[b] % 2,
                                  self.degrees[c] % 2)
                    total = elem_add(
                        elem_scale(self.bracket(ea, self.bracket(eb, ec)),
                                   (-1) ** (pa * pc)),
                        elem_add(
                            elem_scale(self.bracket(eb, self.bracket(ec, ea)),
                                       (-1) ** (pb * pa)),
                            elem_scale(self.bracket(ec, self.bracket(ea, eb)),
                                       (-1) ** (pc * pb))))
                    if not elem_is_zero(total):
                        bad.append(("jacobi", a, b, c))
        return bad

    def mc_residual(self, omega):
        """q1(w) + (1/2) q2(w, w); zero exactly on Maurer-Cartan elements."""
        deg = self.degree_of(omega)
        if deg not in (None, 1):
            raise ValueError("Maurer-Cartan elements live in degree 1")
        return elem_add(self.q1(omega),
                        elem_scale(self.q2(omega, omega), Fraction(1, 2)))

    def twist(self, omega):
        """The algebra with d_w = d + [w, -] and the same bracket."""
        if not elem_is_zero(self.mc_residual(omega)):
            raise ValueError("cannot twist by a non-Maurer-Cartan element")
        diff = {}
        for name in self.degrees:
            img = elem_add(self.d({name: Fraction(1)}),
                           self.bracket(omega, {name: Fraction(1)}))
            if img:
                diff[name] = img
        table = {pair: dict(v) for pair, v in self.table.items()}
        return SmallDGLie(self.degrees, diff, table)


# ---------------------------------------------------------------------
# morphisms with a quadratic Taylor coefficient
# ---------------------------------------------------------------------

class LInftyMorphism:
    """A morphism g -> h with components psi1 (linear) and psi2.

    psi1: name -> element of h, degree 0.
    psi2: unordered pair -> element of h, one degree lower than the
        input pair; stored symmetrically and looked up symmetrically
        (on ordinary degree-one inputs the shifted symmetry is plain).
    """

    def __init__(self, source, target, psi1, psi2=None):
        self.source = source
        self.target = target
        self.p1 = {k: _clean(v) for k, v in psi1.items()}
        self.p2 = {}
        for (a, b), v in (psi2 or {}).items():
            key = (a, b) if a <= b else (b, a)
            if key in self.p2 and self.p2[key] != _clean(v):
                raise ValueError("conflicting psi2 entries for %r" % (key,))
            self.p2[key] = _clean(v)

    def psi1(self, x):
        return sparse_sum((t, c * v) for a, c in x.items()
                          for t, v in self.p1.get(a, {}).items())

    def psi2(self, x, y):
        return sparse_sum((t, ca * cb * v) for a, ca in x.items()
                          for b, cb in y.items()
                          for t, v in self.p2.get(tuple(sorted((a, b))),
                                                  {}).items())

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
        bad = []
        for a in sorted(g.degrees):
            ea = {a: Fraction(1)}
            lhs = self.psi1(g.q1(ea))
            rhs = h.q1(self.psi1(ea))
            if not elem_is_zero(elem_add(lhs, elem_scale(rhs, -1))):
                bad.append(("arity1", a))
        ones = sorted(k for k, v in g.degrees.items() if v == 1)
        for a in ones:
            for b in ones:
                ea, eb = {a: Fraction(1)}, {b: Fraction(1)}
                lhs = elem_add(
                    self.psi1(g.q2(ea, eb)),
                    elem_scale(h.q2(self.psi1(ea), self.psi1(eb)), -1))
                rhs = elem_add(
                    h.q1(self.psi2(ea, eb)),
                    elem_add(self.psi2(g.q1(ea), eb),
                             self.psi2(ea, g.q1(eb))))
                if not elem_is_zero(elem_add(lhs, elem_scale(rhs, -1))):
                    bad.append(("arity2", a, b))
        for a in ones:
            for b in ones:
                for c in ones:
                    ea, eb, ec = ({a: Fraction(1)}, {b: Fraction(1)},
                                  {c: Fraction(1)})
                    total = {}
                    for x, y, z in ((ea, eb, ec), (ea, ec, eb), (eb, ec, ea)):
                        total = elem_add(total, self.psi2(g.q2(x, y), z))
                        total = elem_add(total,
                                         h.q2(self.psi1(z), self.psi2(x, y)))
                    if not elem_is_zero(total):
                        bad.append(("arity3", a, b, c))
        for a in ones:
            ea = {a: Fraction(1)}
            obstruction = h.q2(self.psi2(ea, ea), self.psi2(ea, ea))
            if not elem_is_zero(obstruction):
                bad.append(("arity4-obstruction", a))
        return bad

    def push_mc(self, omega):
        """psi1(w) + (1/2) psi2(w, w)."""
        return elem_add(self.psi1(omega),
                        elem_scale(self.psi2(omega, omega), Fraction(1, 2)))

    def twist(self, omega):
        """Twisted linear component psi_{w,1} = psi1 + psi2(w, -).

        Returns (omega', morphism') where morphism' is linear (its
        quadratic part stays psi2, unchanged by a quadratic twist) and
        is a chain map (source twisted by w) -> (target twisted by w')
        whenever the coherences hold and the quartic obstruction
        vanishes on w.
        """
        omega_prime = self.push_mc(omega)
        psi1 = {}
        for name in self.source.degrees:
            img = elem_add(self.psi1({name: Fraction(1)}),
                           self.psi2(omega, {name: Fraction(1)}))
            if img:
                psi1[name] = img
        twisted = LInftyMorphism(self.source.twist(omega),
                                 self.target.twist(omega_prime),
                                 psi1, dict(self.p2))
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
