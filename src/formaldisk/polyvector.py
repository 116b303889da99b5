"""Poly-vector fields and differential forms on the formal disk.

A poly-vector field of (shifted) degree p is a wedge of p+1 coordinate
vector fields with series coefficients; degree -1 elements are plain
functions.  The wedge product therefore has degree +1 and the Schouten
bracket degree 0, which is the grading in which the bracket is a graded
Lie bracket and a graded derivation of the wedge in its second slot:

    [a, b ^ c] = [a, b] ^ c + (-1)^{|a| (|b| + 1)} b ^ [a, c].

The bracket is implemented recursively from exactly these axioms
(functions commute, vector fields act by Lie derivative, extension by
the derivation rule and graded antisymmetry), so every sign is forced.

Interior products follow the convention

    dt_i ^ (l_1 ^ ... ^ l_n) = sum_i (-1)^{i-1} dt_i(l_i) l_1 ^ ... ^ l_n
                                                 (l_i omitted),

iterated left to right for higher forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

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

    def cap(self):
        if not self.comps:
            return None
        return min(s.cap for s in self.comps.values())

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

    @classmethod
    def from_basis(cls, dim, axes, coeff):
        return cls.from_wedge(dim, axes, coeff)


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


def _contract_one(axis, field):
    """dt_axis ^ field, the alternating-sum interior product."""
    comps = {}
    for idx, s in field.comps.items():
        if axis in idx:
            pos = idx.index(axis)
            comps[idx[:pos] + idx[pos + 1:]] = s if pos % 2 == 0 else -s
    return PolyVectorField._make(field.dim, field.degree - 1, comps)


def contract(form, field):
    """Iterated interior product: (s_1 ^ ... ^ s_q) acts as s_1(s_2(...)).

    Vanishes when the form degree exceeds the number of wedge factors.
    """
    if form.dim != field.dim:
        raise ValueError("dimension mismatch")
    degree = field.degree - form.degree
    if form.degree > field.degree + 1:
        return PolyVectorField.zero(field.dim, degree)
    parts = []
    for idx, s in form.comps.items():
        part = field
        for axis in reversed(idx):
            part = _contract_one(axis, part)
        parts.append(part.scale(s))
    return _field_sum(field.dim, degree, parts)


def _field_sum(dim, degree, fields):
    """Sum of fields of one degree: one sparse_sum over all components."""
    return PolyVectorField._make(dim, degree, sparse_sum(
        pair for f in fields for pair in f.comps.items()))


# ---------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------

def _lie_monomial(coeff, axis, target):
    """Lie derivative of `target` along the vector field coeff*d/dt_axis."""
    def terms():
        for idx, s in target.comps.items():
            # action on the coefficient
            ds = coeff * s.partial(axis)
            if ds:
                yield idx, ds
            # action on each wedge factor: [c e_a, e_j] = -(d_j c) e_a
            for pos, j in enumerate(idx):
                dc = coeff.partial(j)
                if not dc:
                    continue
                sign, key = sort_with_sign(idx[:pos] + (axis,) + idx[pos + 1:])
                if sign == 0:
                    continue
                term = (s * dc).scale(-sign)
                if term:
                    yield key, term
    return PolyVectorField._make(target.dim, target.degree,
                                 sparse_sum(terms()))


def _bracket_monomial(c1, idx1, b):
    """[c1 * e_{idx1}, b] via the forced recursion.

    idx1 empty: a function f; use [f, b] = -(-1)^{(-1)|b|} [b, f].
    idx1 singleton: Lie derivative.
    Otherwise split off the first factor Y = c1 e_{i}:
        [Y ^ c, b] = (-1)^{(|c| + 1)|b|} [Y, b] ^ c + Y ^ [c, b].
    """
    dim = b.dim
    if len(idx1) == 0:
        # [f, b]: flip, then peel b
        pb = b.degree
        inner = _bracket_with_function(b, c1)
        sign = -((-1) ** (pb % 2))  # -(-1)^{(-1) pb} = -(-1)^{pb}
        return inner.scale(sign)
    if len(idx1) == 1:
        return _lie_monomial(c1, idx1[0], b)
    y_axis = idx1[0]
    rest = idx1[1:]
    p_c = len(rest) - 1
    p_b = b.degree
    y = PolyVectorField(dim, 0, {(y_axis,): c1})
    sign = (-1) ** (((p_c + 1) * p_b) % 2)
    term1 = wedge_fields(_lie_monomial(c1, y_axis, b),
                         PolyVectorField(dim, p_c, {rest: c1.one_like()}))
    # note: [Y, b] with Y = c1 e_axis already carries c1, so the wedge
    # partner is the bare monomial e_rest
    term1 = term1.scale(sign)
    term2 = wedge_fields(y, _bracket_monomial(c1.one_like(), rest, b))
    return term1 + term2


def _bracket_with_function(b, f):
    """[b, f] for a function f, by peeling wedge factors of b."""
    f = PolyVectorField.function(f)
    # functions commute: the degree -1 part of b brackets to zero
    return _field_sum(b.dim, b.degree - 1,
                      (_bracket_monomial(s, idx, f)
                       for idx, s in b.comps.items() if idx))


def schouten_bracket(a, b):
    """Graded Lie bracket of poly-vector fields in the shifted grading."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return _field_sum(a.dim, a.degree + b.degree,
                      (_bracket_monomial(s, idx, b)
                       for idx, s in a.comps.items()))


def hkr_components(field):
    """Signed components over all (not just increasing) index tuples.

    Walks every permutation of every stored key: the nonzero part of a
    scan over all index tuples, in no particular order.  A function is
    the one permutation of the empty key.  Yields (tuple, series).
    """
    for key in field.comps:
        for idx in permutations(key):
            yield idx, field.component(idx)
