"""Polydifferential operators on the formal disk.

An operator of (shifted) degree n acts on n+1 function arguments; it is
stored as a sum of terms, each a global series coefficient together
with an (n+1)-tuple of derivative multi-indices (one multi-index per
argument slot).  Degree -1 elements take no arguments and are just
functions.

The insertion product ("bullet") distributes the derivatives of the
receiving slot over the inserted operator and its coefficient by the
Leibniz rule; this is the coproduct-based composition

    D1 * D2 = sum_i (-1)^{i |D2|} D1 circ_i D2,

whose commutator is the Gerstenhaber bracket.  The Hochschild
differential is bracketing with the two-slot multiplication operator
m = 1 tensor 1, and the antisymmetrized one-slot-per-factor operator
attached to a poly-vector field is the signed HKR map

    hkr(e_{i_1} ^ ... ^ e_{i_k}) =
        (-1)^{k(k-1)/2} (1/k!) sum_{sigma} sgn(sigma)
            e_{i_sigma(1)} tensor ... tensor e_{i_sigma(k)}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product as _cartesian
from math import comb, factorial, prod

from .series import DEFAULT_CAP, GradedSum, TruncatedSeries, sparse_sum
from .polyvector import hkr_components


def _zero_multi(dim):
    return tuple([0] * dim)


def _unit_multi(dim, axis):
    m = [0] * dim
    m[axis - 1] = 1
    return tuple(m)


def _add_multi(a, b):
    return tuple(x + y for x, y in zip(a, b))


# with the keys of the recursion, tier-1 asks for 257 distinct keys (201
# without the test of this function), one algebra-trials pass for 135
@lru_cache(maxsize=512)
def _multi_splits(multi, parts):
    """Split a multi-index into `parts` ordered multi-indices.

    Returns (split_tuple, multinomial_coefficient) pairs; the coefficient
    is the number of ways to distribute the individual derivatives.  The
    first part takes each nu <= multi, in prod_i C(multi_i, nu_i) ways,
    and the rest splits into one part fewer.  A nonzero multi-index has
    no split into 0 parts, and no multi-index one into fewer.
    """
    if parts <= 0:
        return (((), 1),) if parts == 0 and not any(multi) else ()
    out = []
    for nu in _cartesian(*(range(k + 1) for k in multi)):
        binom = prod(map(comb, multi, nu))
        rest = tuple(k - x for k, x in zip(multi, nu))
        out.extend(((nu,) + split, binom * mult)
                   for split, mult in _multi_splits(rest, parts - 1))
    return tuple(out)


class PolyDiffOp(GradedSum):
    """Sum of (coefficient series, slot multi-indices) terms."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim, degree, terms=None):
        if degree < -1 and terms:
            raise ValueError("degree must be >= -1 for nonzero operators")
        self.dim = dim
        self.degree = degree
        clean = []
        for slots, c in (terms or {}).items():
            slots = tuple(tuple(m) for m in slots)
            if len(slots) != degree + 1:
                raise ValueError("term has %d slots, degree %d needs %d"
                                 % (len(slots), degree, degree + 1))
            for m in slots:
                if len(m) != dim or any(e < 0 for e in m):
                    raise ValueError("bad multi-index %r" % (m,))
            if c:
                clean.append((slots, c))
        self.terms = sparse_sum(clean)

    @classmethod
    def zero(cls, dim, degree=-1):
        return cls(dim, degree)

    @classmethod
    def function(cls, series):
        return cls(series.dim, -1, {(): series})

    @classmethod
    def single(cls, coeff, slots):
        return cls(coeff.dim, len(slots) - 1, {tuple(slots): coeff})

    @classmethod
    def multiplication(cls, dim, cap=DEFAULT_CAP):
        """m = 1 tensor 1, the two-argument product operator."""
        one = TruncatedSeries.const(dim, 1, cap)
        z = _zero_multi(dim)
        return cls(dim, 1, {(z, z): one})

    def __add__(self, other):
        return PolyDiffOp._make(self.dim, self._sum_degree(other),
                                sparse_sum(other.terms.items(), self.terms))

    def apply(self, args):
        """Evaluate on a tuple of series; needs degree+1 arguments."""
        if len(args) != self.degree + 1:
            raise ValueError("expected %d arguments, got %d"
                             % (self.degree + 1, len(args)))
        out = None
        for slots, c in self.terms.items():
            val = c
            for m, f in zip(slots, args):
                val = val * f.partial_multi(m)
            out = val if out is None else out + val
        if out is None:
            caps = [a.cap for a in args]
            cap = min(caps) if caps else DEFAULT_CAP
            out = TruncatedSeries.zero(self.dim, cap)
        return out

    def to_json(self):
        rows = []
        for slots in sorted(self.terms):
            rows.append({"coeff": self.terms[slots].to_json(),
                         "slots": [list(m) for m in slots]})
        return {"d": self.dim, "degree": self.degree, "terms": rows}

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for row in obj["terms"]:
            slots = tuple(tuple(m) for m in row["slots"])
            terms[slots] = TruncatedSeries.from_json(row["coeff"])
        return cls(obj["d"], obj["degree"], terms)

    def __repr__(self):
        return "PolyDiffOp(dim=%d, degree=%d, %d terms)" % (
            self.dim, self.degree, len(self.terms))


def cup(d1, d2):
    """Cup product: signed slot concatenation."""
    if d1.dim != d2.dim:
        raise ValueError("dimension mismatch")
    sign = (-1) ** ((d1.degree * d2.degree) % 2)
    products = ((s1 + s2, (c1 * c2).scale(sign))
                for s1, c1 in d1.terms.items() for s2, c2 in d2.terms.items())
    return PolyDiffOp._make(d1.dim, d1.degree + d2.degree + 1,
                            sparse_sum(products))


def _insertions(d1, d2, sign=1):
    """sign * bullet(d1, d2) as (slots, coefficient) pairs: d2 goes into
    slot i of each term (c1, slots1) of d1 with the sign (-1)^{i |d2|}.

    The receiving multi-index alpha is distributed by the Leibniz rule:
    nu of it onto d2's coefficient, the rest over d2's slots (for a
    degree -1 insert, a function, all of it lands on the function and
    the slot disappears).  The multinomial factors through nu, so the
    product c1 * d^nu c2 is built once per term of d2 and nu, and kept
    when zero, so that its cap counts.  An insert of degree below -1 has
    no terms and no splits.
    """
    for slots1, c1 in d1.terms.items():
        for i, alpha in enumerate(slots1):
            slot_sign = -sign if (i * d2.degree) % 2 else sign
            for (nu, rest), binom in _multi_splits(alpha, 2):
                splits = _multi_splits(rest, d2.degree + 1)
                if not splits:
                    continue
                for s2, c2 in d2.terms.items():
                    c = c1 * c2.partial_multi(nu)
                    for betas, mult in splits:
                        block = tuple(_add_multi(b, m)
                                      for b, m in zip(betas, s2))
                        yield (slots1[:i] + block + slots1[i + 1:],
                               c.scale(slot_sign * binom * mult))


def bullet(d1, d2):
    """Insertion product sum_i (-1)^{i |d2|} (d1 with d2 in slot i)."""
    if d1.dim != d2.dim:
        raise ValueError("dimension mismatch")
    return PolyDiffOp._make(d1.dim, d1.degree + d2.degree,
                            sparse_sum(_insertions(d1, d2)))


def gerstenhaber_bracket(d1, d2):
    """bullet(d1, d2) - (-1)^{|d1||d2|} bullet(d2, d1) in one sparse_sum."""
    if d1.dim != d2.dim:
        raise ValueError("dimension mismatch")
    flip = 1 if (d1.degree * d2.degree) % 2 else -1
    return PolyDiffOp._make(d1.dim, d1.degree + d2.degree, sparse_sum(
        chain(_insertions(d1, d2), _insertions(d2, d1, flip))))


def hochschild_differential(d):
    """d = [m, -], m the multiplication operator at d's lowest cap."""
    cap = min((c.cap for c in d.terms.values()), default=DEFAULT_CAP)
    return gerstenhaber_bracket(PolyDiffOp.multiplication(d.dim, cap), d)


def hkr_weight(m):
    """(-1)^{m(m-1)/2}/m!, the HKR weight of m wedge factors (0! if m < 0)."""
    return Fraction((-1) ** ((m * (m - 1) // 2) % 2), factorial(max(m, 0)))


def hkr(field):
    """Signed antisymmetrized HKR quantization of a poly-vector field.

    The field is scaled by hkr_weight once per key; hkr_components then
    gives every ordering of every key, with its sign.  A field of degree
    below -1 is zero and maps to the zero of its degree.
    """
    dim = field.dim
    scaled = field.scale(hkr_weight(field.degree + 1))
    return PolyDiffOp._make(dim, field.degree, sparse_sum(
        (tuple(_unit_multi(dim, i) for i in idx), s)
        for idx, s in hkr_components(scaled)))
