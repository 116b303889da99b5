"""Poly-vector fields and differential forms on the formal disk.

A poly-vector field of (shifted) degree p is a wedge of p+1 coordinate
vector fields with series coefficients; degree -1 elements are plain
functions.  The wedge product therefore has degree +1 and the Schouten
bracket degree 0, which is the grading in which the bracket is a graded
Lie bracket and a graded derivation of the wedge in its second slot:

    [a, b ^ c] = [a, b] ^ c + (-1)^{|a| (|b| + 1)} b ^ [a, c].

The bracket is computed from its closed formula on monomials,

    [f e_I, g e_J] = sum_k (-1)^{|I|-k} f d_{i_k}g e_{I - i_k} ^ e_J
                     - (-1)^{|a||b|} sum_l (-1)^{|J|-l} g d_{j_l}f
                       e_{J - j_l} ^ e_I,

with k, l 1-based positions in the increasing tuples I, J and |a|, |b|
shifted degrees, as one keywise sum over every product.  The axioms
(functions commute, vector fields act by Lie derivative, the derivation
rule, graded antisymmetry) are checked against a recursion built from
them in the tests.

Interior products follow the convention

    dt_i ^ (l_1 ^ ... ^ l_n) = sum_i (-1)^{i-1} dt_i(l_i) l_1 ^ ... ^ l_n
                                                 (l_i omitted),

iterated left to right for higher forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, permutations

from .series import DEFAULT_CAP, GradedSum, TruncatedSeries, sparse_sum


def sort_with_sign(idx):
    """Sort an index tuple, returning (sign, sorted tuple); sign 0 on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return 0, idx
    sign = 1
    lst = list(idx)
    # insertion sort, counting transpositions
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


class _Alternating(GradedSum):
    """Shared storage for alternating tensors: increasing tuple -> series.

    A key has degree + _shift entries: _shift is 1 for fields, whose
    degree -1 is a function, and 0 for forms.
    """

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim, degree, comps=None):
        self.dim = dim
        self.degree = degree
        clean = {}
        for idx, s in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != self.degree + self._shift:
                raise ValueError("index tuple %r has wrong length" % (idx,))
            if any(not 1 <= i <= dim for i in idx):
                raise ValueError("axis out of range in %r" % (idx,))
            if list(idx) != sorted(set(idx)):
                raise ValueError("index tuples must be strictly increasing")
            if isinstance(s, (int, Fraction)):
                s = TruncatedSeries.const(dim, s)
            if s:
                clean[idx] = s
        self.comps = clean

    @classmethod
    def from_wedge(cls, dim, axes, coeff=1):
        """coeff times the wedge of the basis elements of `axes`, sorted
        with its sign; zero on a repeated axis."""
        if isinstance(coeff, (int, Fraction)):
            coeff = TruncatedSeries.const(dim, coeff)
        sign, key = sort_with_sign(axes)
        comps = {key: coeff if sign == 1 else -coeff} if sign else {}
        return cls(dim, len(axes) - cls._shift, comps)

    def component(self, idx):
        """Signed component at an arbitrary (possibly unsorted) tuple."""
        sign, key = sort_with_sign(idx)
        if sign == 0:
            return None
        s = self.comps.get(key)
        if s is None:
            return None
        return s if sign == 1 else -s

    def __add__(self, other):
        return self._make(self.dim, self._sum_degree(other),
                          sparse_sum(other.comps.items(), self.comps))

    def to_json(self):
        rows = [{"tuple": list(i), "series": s.to_json()}
                for i, s in sorted(self.comps.items())]
        return {"d": self.dim, "degree": self.degree, "components": rows}

    @classmethod
    def from_json(cls, obj):
        comps = {tuple(r["tuple"]): TruncatedSeries.from_json(r["series"])
                 for r in obj["components"]}
        return cls(obj["d"], obj["degree"], comps)

    def __repr__(self):
        return "%s(dim=%d, degree=%d, %r)" % (
            type(self).__name__, self.dim, self.degree, self.comps)


class PolyVectorField(_Alternating):
    """Shifted-degree p field: components on increasing (p+1)-tuples.

    Degree -1 is a function, stored at the empty tuple.
    """

    _shift = 1

    @classmethod
    def zero(cls, dim, degree=-1):
        return cls(dim, degree)

    @classmethod
    def function(cls, series):
        return cls(series.dim, -1, {(): series})

    def as_function(self):
        if self.degree != -1 and self.comps:
            raise ValueError("not a degree -1 element")
        return self.comps.get((), None)


class DifferentialForm(_Alternating):
    """Exterior form with series coefficients, degree q >= 0."""

    _shift = 0

    @classmethod
    def zero(cls, dim, degree=0):
        return cls(dim, degree)


def exterior_derivative(series):
    """d of a function: the 1-form sum_i (d/dt_i f) dt_i."""
    return DifferentialForm._make(series.dim, 1, sparse_sum(
        ((i,), series.partial(i)) for i in range(1, series.dim + 1)))


def _wedge(a, b, degree):
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")

    def products():
        for i1, s1 in a.comps.items():
            for i2, s2 in b.comps.items():
                sign, key = sort_with_sign(i1 + i2)
                if sign:
                    yield key, (s1 * s2).scale(sign)
    return type(a)._make(a.dim, degree, sparse_sum(products()))


def wedge_forms(a, b):
    return _wedge(a, b, a.degree + b.degree)


def wedge_fields(a, b):
    """Exterior product of poly-vector fields (degree adds plus one)."""
    return _wedge(a, b, a.degree + b.degree + 1)


def pairing(form, field):
    """<form, field> for matching arity: the determinant pairing.

    On basis elements <dt_{i_1} ^ .. ^ dt_{i_q}, e_{j_1} ^ .. ^ e_{j_q}>
    is det(dt_{i_a}(e_{j_b})); with both stored on increasing tuples it
    reduces to a diagonal sum of coefficient products.
    """
    if form.dim != field.dim:
        raise ValueError("dimension mismatch")
    if form.degree != field.degree + 1 and form.comps and field.comps:
        raise ValueError("arity mismatch: form degree %d, field needs %d"
                         % (form.degree, field.degree + 1))
    out = None
    for idx, s in form.comps.items():
        t = field.comps.get(idx)
        if t is not None:
            out = s * t if out is None else out + s * t
    if out is None:
        caps = [s.cap for s in form.comps.values()]
        caps += [s.cap for s in field.comps.values()]
        out = TruncatedSeries.zero(form.dim, min(caps) if caps else DEFAULT_CAP)
    return out


def contract(form, field):
    """Iterated interior product: (s_1 ^ ... ^ s_q) acts as s_1(s_2(...)).

    In closed form, a form term s dt_I and a field term t e_K with I in K
    give s t e_{K - I}.  The axes of I leave K last one first, so each
    is removed at its position p in K itself, with the sign (-1)^p.  A
    zero product is kept, so that its cap counts.  Vanishes when the
    form degree exceeds the number of wedge factors.
    """
    if form.dim != field.dim:
        raise ValueError("dimension mismatch")
    degree = field.degree - form.degree
    if form.degree > field.degree + 1:
        return PolyVectorField.zero(field.dim, degree)

    def products():
        for idx, s in form.comps.items():
            for key, t in field.comps.items():
                removed = [p for p, axis in enumerate(key) if axis in idx]
                if len(removed) == len(idx):
                    c = t.scale(s)
                    yield (tuple(a for a in key if a not in idx),
                           -c if sum(removed) % 2 else c)
    return PolyVectorField._make(field.dim, degree, sparse_sum(products()))


# ---------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------

def _acting_terms(x, y, sign):
    """sign * sum_k (-1)^{|I|-k} f d_{i_k}g e_{I - i_k} ^ e_J over the
    terms f e_I of x and g e_J of y: the factors of x differentiating the
    coefficients of y.  A word with a repeated axis is skipped; every
    other product is kept, even a zero one, so that its cap counts."""
    for idx1, f in x.comps.items():
        for idx2, g in y.comps.items():
            for pos, axis in enumerate(idx1):
                word_sign, key = sort_with_sign(idx1[:pos] + idx1[pos + 1:]
                                                + idx2)
                if word_sign:
                    if (len(idx1) - 1 - pos) % 2:
                        word_sign = -word_sign
                    yield key, (f * g.partial(axis)).scale(word_sign * sign)


def schouten_bracket(a, b):
    """Graded Lie bracket of poly-vector fields in the shifted grading,
    the closed formula of the module docstring in one sparse_sum."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    flip = 1 if (a.degree * b.degree) % 2 else -1
    return PolyVectorField._make(a.dim, a.degree + b.degree, sparse_sum(
        chain(_acting_terms(a, b, 1), _acting_terms(b, a, flip))))


def hkr_components(field):
    """Signed components over all (not just increasing) index tuples.

    Walks every permutation of every stored key: the nonzero part of a
    scan over all index tuples, in no particular order.  A function is
    the one permutation of the empty key.  Yields (tuple, series).
    """
    for key in field.comps:
        for idx in permutations(key):
            yield idx, field.component(idx)
