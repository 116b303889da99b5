"""Coefficient algebra with odd exterior generators.

The degree-one generators eta_1 .. eta_s square to zero and
anticommute; tensoring them with forms or fields makes every infinite
twisting sum finite.  Three containers are provided:

  EtaFormScalar  elements of Lambda(eta) tensor Omega, i.e. sums of
                 eta-monomial tensor dt-monomial with series
                 coefficients.  This is a graded-commutative algebra;
                 the product picks up the Koszul sign
                 (x tensor u)(y tensor v) = (-1)^{|u||y|} xy tensor uv.
  EtaField       eta-monomial -> poly-vector field (used for twisting
                 data and the curvature pairing).
  EtaOperator    eta-monomial -> polydifferential operator (the value
                 space of twisted Taylor coefficients).

Keys are strictly increasing tuples of generator indices; producing a
repeated generator kills the term.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (DEFAULT_CAP, SparseSum, TruncatedSeries, exp_series,
                     series_at, sparse_sum)
from .polyvector import DifferentialForm, sort_with_sign


class EtaFormScalar(SparseSum):
    """Sum of eta-words tensor dt-words with series coefficients."""

    __slots__ = ("dim", "cap", "terms")

    def __init__(self, dim, cap=DEFAULT_CAP, terms=None):
        self.dim = dim
        self.cap = cap
        clean = []
        for (eta, form), s in (terms or {}).items():
            eta = tuple(eta)
            form = tuple(form)
            if list(eta) != sorted(set(eta)) or list(form) != sorted(set(form)):
                raise ValueError("keys must be strictly increasing tuples")
            if isinstance(s, (int, Fraction)):
                s = TruncatedSeries.const(dim, s, cap)
            if s:
                clean.append(((eta, form), s))
        self.terms = sparse_sum(clean)

    @classmethod
    def zero(cls, dim, cap=DEFAULT_CAP):
        return cls(dim, cap)

    @classmethod
    def one(cls, dim, cap=DEFAULT_CAP):
        return cls(dim, cap, {((), ()): TruncatedSeries.const(dim, 1, cap)})

    @classmethod
    def generator(cls, dim, alpha, cap=DEFAULT_CAP):
        return cls(dim, cap, {((alpha,), ()): TruncatedSeries.const(dim, 1, cap)})

    def zero_like(self):
        return EtaFormScalar._make(self.dim, self.cap, {})

    def one_like(self):
        one = TruncatedSeries._make(self.dim, self.cap, 1, {(0,) * self.dim: 1})
        return EtaFormScalar._make(self.dim, self.cap,
                                   {((), ()): one} if self.cap >= 0 else {})

    def has_even_grade(self):
        return all((len(eta) + len(form)) % 2 == 0 for eta, form in self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = EtaFormScalar(self.dim, self.cap, {((), ()): other})
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return EtaFormScalar._make(self.dim, min(self.cap, other.cap),
                                   sparse_sum(other.terms.items(), self.terms))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, TruncatedSeries)):
            return self.scale(other)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

        def products():
            for (e1, f1), s1 in self.terms.items():
                for (e2, f2), s2 in other.terms.items():
                    se, eta = sort_with_sign(e1 + e2)
                    if se == 0:
                        continue
                    sf, form = sort_with_sign(f1 + f2)
                    if sf == 0:
                        continue
                    koszul = -1 if (len(f1) % 2) and (len(e2) % 2) else 1
                    yield (eta, form), (s1 * s2).scale(se * sf * koszul)
        return EtaFormScalar._make(self.dim, min(self.cap, other.cap),
                                   sparse_sum(products()))

    __rmul__ = __mul__

    def exp(self):
        """exp of a nilpotent element with no scalar constant part."""
        if any(not k[0] and not k[1] for k in self.terms
               if self.terms[k].constant_term() != 0):
            raise ValueError("exp needs a vanishing constant term")
        if self.is_zero():
            return self.one_like()
        # one * self truncates every coefficient to the container cap
        return series_at(exp_series(2 * self.dim + 2 * self.cap + 4, 1),
                         self.one_like() * self)

    def eta_parts(self):
        """Group terms by eta-word: eta-word -> DifferentialForm."""
        out = {}
        for (eta, form), s in self.terms.items():
            out.setdefault(eta, {})[form] = s
        return {eta: _form_from_parts(self.dim, parts)
                for eta, parts in out.items()}

    def __repr__(self):
        return "EtaFormScalar(dim=%d, %d terms)" % (self.dim, len(self.terms))


def _form_from_parts(dim, parts):
    degrees = {len(k) for k in parts}
    if len(degrees) > 1:
        raise ValueError("mixed form degrees within one eta-word")
    degree = degrees.pop() if degrees else 0
    return DifferentialForm._make(dim, degree, parts)


class _EtaGraded(SparseSum):
    """Common shell for eta-word -> payload containers."""

    __slots__ = ("dim", "parts")

    def __init__(self, dim, parts=None):
        self.dim = dim
        clean = []
        for eta, payload in (parts or {}).items():
            eta = tuple(eta)
            if list(eta) != sorted(set(eta)):
                raise ValueError("eta-words must be strictly increasing")
            if payload:
                clean.append((eta, payload))
        self.parts = sparse_sum(clean)

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return self._make(self.dim,
                          sparse_sum(other.parts.items(), self.parts))

    def __repr__(self):
        return "%s(dim=%d, eta-words=%s)" % (
            type(self).__name__, self.dim, sorted(self.parts))


class EtaField(_EtaGraded):
    """eta-word -> PolyVectorField."""


class EtaOperator(_EtaGraded):
    """eta-word -> PolyDiffOp."""
