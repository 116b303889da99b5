"""Exact truncated power series over the rationals.

A multivariate series stores integer numerators over one positive
denominator, kept in lowest terms by a single gcd per result, so its
arithmetic is integer arithmetic; its coefficients are read out as
fractions.Fraction.  It carries an explicit validity cap N:
coefficients of total degree <= N are meaningful, higher ones are
silently dropped.  Products take the minimum of the caps of the
factors, differentiation lowers the cap by one.  The generating series
(the Bernoulli-type ones and the Todd series, all from one table of
Bernoulli numbers, and e^{cx}) are one-variable series capped at their
order; series_at evaluates one at a nilpotent argument.

The sparse-sum core at the top (sparse_sum, SparseSum) is the key ->
coefficient algebra that every coefficient container of the package is
built on.  It has one summation rule: a container's result is one
sparse_sum over all its (key, coefficient) contributions, so a key's
coefficient is the sum of all its contributions, at the lowest validity
cap among them, whatever their order.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add

DEFAULT_CAP = 8

Q0 = Fraction(0)
Q1 = Fraction(1)


def _exact(x):
    """x itself if it is an exact coefficient: an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError("exact coefficient expected, got %r" % (x,))


def _as_fraction(x):
    x = _exact(x)
    return x if isinstance(x, Fraction) else Fraction(x)


def sparse_sum(pairs, start=()):
    """Keywise sum of (key, coefficient) pairs added onto the dict `start`.

    Coefficients add with their own + and count as zero when falsy (a
    zero Fraction, a container without terms).  Zero sums are dropped
    only at the end, never part-way: a key's coefficient is the sum of
    all its contributions, at the lowest cap among them, whatever the
    order of the pairs.  Every container product is one such sum.
    """
    out = dict(start)
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


class SparseSum:
    """Base of the coefficient containers: key -> coefficient, no zeros.

    A container lists its fields in __slots__, the dict last, and reads
    that dict as `_data` here whatever its public name.  Its public
    constructor validates keys and coefficients; results of its own
    arithmetic are built with the trusted `_make`, which checks nothing.
    Equality compares `_header()` and the dicts.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._data = getattr(cls, cls.__slots__[-1])

    @classmethod
    def _make(cls, *fields):
        """Trusted constructor: store the fields, the dict already clean."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(self, name, value)
        return self

    def _with(self, data):
        """The same header fields around a new clean dict."""
        head = [getattr(self, name) for name in self.__slots__[:-1]]
        return self._make(*head, data)

    def _header(self):
        return self.dim

    def is_zero(self):
        return not self._data

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._header() == other._header() and self._data == other._data

    def __hash__(self):
        return hash((self._header(), frozenset(self._data.items())))

    def __neg__(self):
        return self._with({k: -c for k, c in self._data.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        """Scale every coefficient by a rational or a series."""
        return self._with({k: v for k, x in self._data.items()
                           if (v := x.scale(c))})

    def agrees_with(self, other, through):
        """Keywise coefficient agreement through a total series order.

        Unlike == this ignores validity caps, so results computed along
        routes with different truncation depths can be compared.  A key
        on one side only has to agree with zero.
        """
        a, b = self._data, other._data
        if self.dim != other.dim:
            return False
        if a and b and self._header() != other._header():
            return False
        for key in a.keys() | b.keys():
            x, y = a.get(key), b.get(key)
            if x is None:
                x, y = y, x
            if not x.agrees_with(x.scale(0) if y is None else y, through):
                return False
        return True


class GradedSum(SparseSum):
    """A container with a degree, which a zero element does not pin down."""

    __slots__ = ()

    def _header(self):
        return (self.dim, self.degree if self._data else None)

    def _sum_degree(self, other):
        """Degree of self + other; either side may be a zero of any degree."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self._data, other._data
        if a and b and self.degree != other.degree:
            raise ValueError("degree mismatch %d vs %d"
                             % (self.degree, other.degree))
        return self.degree if a or not b else other.degree


class TruncatedSeries(SparseSum):
    """Sparse multivariate power series: integer numerators over one den.

    The coefficient of t^exp is nums[exp] / den.  Exponent tuples have
    length dim and non-negative entries; terms of total degree > cap are
    never stored.  A cap of -1 marks a series with no trustworthy
    coefficients at all (it arises from differentiating a cap-0 series)
    and behaves as zero.  Normal form: den > 0, gcd(den, *nums) == 1,
    and a zero series has den == 1, so == and hash compare the fields.
    """

    __slots__ = ("dim", "cap", "den", "nums")

    def __init__(self, dim, cap, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if cap < -1:
            raise ValueError("cap must be >= -1")
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != dim or any(e < 0 for e in exp):
                raise ValueError("bad exponent %r for dim %d" % (exp, dim))
            if sum(exp) > cap:
                continue
            if _exact(c) != 0:
                clean[exp] = c
        # over the lcm of reduced denominators the numerators share no
        # prime with it: the result is normal without a gcd
        den = lcm(*(c.denominator for c in clean.values()))
        self.dim = dim
        self.cap = cap
        self.den = den
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in clean.items()}

    @classmethod
    def _make(cls, dim, cap, den, nums):
        # SparseSum._make without its setattr loop: every series result
        # is built here
        self = object.__new__(cls)
        self.dim = dim
        self.cap = cap
        self.den = den
        self.nums = nums
        return self

    @classmethod
    def _normal(cls, dim, cap, den, nums):
        """The series nums / den, divided by the gcd of them all."""
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        return cls._make(dim, cap, den, nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim, cap=DEFAULT_CAP):
        return cls(dim, cap)

    @classmethod
    def const(cls, dim, value, cap=DEFAULT_CAP):
        return cls(dim, cap, {tuple([0] * dim): value})

    @classmethod
    def variable(cls, dim, i, cap=DEFAULT_CAP):
        """The coordinate t_i, axes numbered 1..dim."""
        if not 1 <= i <= dim:
            raise ValueError("axis %d out of range 1..%d" % (i, dim))
        exp = [0] * dim
        exp[i - 1] = 1
        return cls(dim, cap, {tuple(exp): 1})

    @classmethod
    def monomial(cls, dim, exp, coeff=Q1, cap=DEFAULT_CAP):
        return cls(dim, cap, {tuple(exp): coeff})

    def zero_like(self):
        return TruncatedSeries._make(self.dim, self.cap, 1, {})

    def one_like(self):
        return TruncatedSeries.const(self.dim, 1, self.cap)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self):
        """exp -> Fraction coefficient, a fresh dict."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.nums.items()}

    def coefficient(self, exp):
        n = self.nums.get(tuple(exp))
        return Q0 if n is None else Fraction(n, self.den)

    def constant_term(self):
        return self.coefficient([0] * self.dim)

    def has_even_grade(self):
        # series in the coordinates sit in cohomological degree zero
        return True

    def _header(self):
        return (self.dim, self.cap, self.den)

    def agrees_with(self, other, through=None):
        """Coefficientwise equality through min(cap) (or `through`)."""
        if self.dim != other.dim:
            return False
        lim = min(self.cap, other.cap)
        if through is not None:
            lim = min(lim, through)
        a, b = self.nums, other.nums
        d1, d2 = self.den, other.den
        return all(a.get(k, 0) * d2 == b.get(k, 0) * d1
                   for k in a.keys() | b.keys() if sum(k) <= lim)

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch %d vs %d" % (self.dim, other.dim))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(self.dim, other, self.cap)
        self._check_dim(other)
        cap = min(self.cap, other.cap)
        d1, d2 = self.den, other.den
        a, b = self.nums, other.nums
        if d1 != d2:  # both over the lcm of the denominators
            g = gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            a = {e: n * m1 for e, n in a.items()}
            b = {e: n * m2 for e, n in b.items()}
            d1 *= m1
        nums = sparse_sum(b.items(), a)
        if self.cap != other.cap:
            nums = {e: n for e, n in nums.items() if sum(e) <= cap}
        return TruncatedSeries._normal(self.dim, cap, d1, nums)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        cap = min(self.cap, other.cap)

        def products():
            right = [(e2, sum(e2), n2) for e2, n2 in other.nums.items()]
            for e1, n1 in self.nums.items():
                room = cap - sum(e1)
                for e2, deg2, n2 in right:
                    if deg2 <= room:
                        yield tuple(map(add, e1, e2)), n1 * n2
        return TruncatedSeries._normal(self.dim, cap, self.den * other.den,
                                       sparse_sum(products()))

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a rational, or by a series as c * self."""
        if isinstance(c, TruncatedSeries):
            return c * self
        if _exact(c) == 0:
            return self.zero_like()
        if c == 1:  # a series is never changed after it is made
            return self
        if c == -1:
            return -self
        p, q = c.numerator, c.denominator
        g = gcd(self.den, p)  # the numerators share no prime with den
        p //= g
        nums = {e: p * n for e, n in self.nums.items()}
        if q == 1:
            return TruncatedSeries._make(self.dim, self.cap, self.den // g, nums)
        return TruncatedSeries._normal(self.dim, self.cap, self.den // g * q,
                                       nums)

    def partial(self, i):
        """d/dt_i; the result cap drops by one."""
        if not 1 <= i <= self.dim:
            raise ValueError("axis %d out of range 1..%d" % (i, self.dim))
        nums = {}
        for exp, n in self.nums.items():
            k = exp[i - 1]
            if k == 0:
                continue
            e = list(exp)
            e[i - 1] = k - 1
            nums[tuple(e)] = n * k
        return TruncatedSeries._normal(self.dim, max(self.cap - 1, -1),
                                       self.den, nums)

    def partial_multi(self, multi):
        """Iterated partial for a multi-index (k_1, ..., k_dim)."""
        out = self
        for axis, k in enumerate(multi, start=1):
            for _ in range(k):
                out = out.partial(axis)
        return out

    # -- serialization ------------------------------------------------

    def to_json(self):
        terms = self.terms
        rows = []
        for exp in sorted(terms):
            c = terms[exp]
            rows.append({"exp": list(exp), "num": str(c.numerator),
                         "den": str(c.denominator)})
        return {"d": self.dim, "cap": self.cap, "terms": rows}

    @classmethod
    def from_json(cls, obj):
        terms = {}
        for row in obj["terms"]:
            exp = tuple(row["exp"])
            terms[exp] = Fraction(int(row["num"]), int(row["den"]))
        return cls(obj["d"], obj["cap"], terms)

    def __repr__(self):
        if not self.nums:
            return "TruncatedSeries(dim=%d, cap=%d, 0)" % (self.dim, self.cap)
        terms = self.terms
        bits = []
        for exp in sorted(terms):
            bits.append("%s*t^%s" % (terms[exp], list(exp)))
        return "TruncatedSeries(dim=%d, cap=%d, %s)" % (
            self.dim, self.cap, " + ".join(bits))


# ---------------------------------------------------------------------
# matrices with series entries
# ---------------------------------------------------------------------

def _sparse_row(pairs, start=()):
    """One sparse_sum of (column, entry) pairs, columns ascending."""
    return dict(sorted(sparse_sum(pairs, start).items()))


class SeriesMatrix:
    """Square matrix over an exact coefficient ring, as sparse rows.

    Entries are TruncatedSeries or any object with the same arithmetic
    protocol (add, mul, scale, zero_like, one_like, is_zero,
    has_even_grade).  rows[i] maps a column j to the nonzero entry
    (i, j), columns ascending; zero is the entry ring's zero, for a
    grid that of its first entry.  Trace powers require every entry to
    sit in even total grade, which keeps the entry ring commutative.
    """

    __slots__ = ("size", "rows", "zero")

    def __init__(self, entries):
        size = len(entries)
        if size == 0 or any(len(row) != size for row in entries):
            raise ValueError("square nonempty entry grid required")
        self.size = size
        self.rows = [{j: e for j, e in enumerate(row) if e} for row in entries]
        self.zero = entries[0][0].zero_like()

    @classmethod
    def _make(cls, rows, zero):
        """Trusted constructor: rows already sparse, columns ascending."""
        self = object.__new__(cls)
        self.size, self.rows, self.zero = len(rows), rows, zero
        return self

    def one_like(self):
        one = self.zero.one_like()
        return self._make([{i: one} for i in range(self.size)], self.zero)

    def is_zero(self):
        return not any(self.rows)

    def __add__(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")
        return SeriesMatrix._make([_sparse_row(r2.items(), r1) for r1, r2
                                   in zip(self.rows, other.rows)], self.zero)

    def __mul__(self, other):
        """Each entry is a running + over the inner index in ascending
        order, with no product taken for a zero entry.  That is exact
        when every entry carries one cap, as Xi's do; otherwise an entry
        takes the lowest cap among its nonzero products."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return SeriesMatrix._make(
            [_sparse_row((j, a * b) for k, a in row.items()
                         for j, b in other.rows[k].items())
             for row in self.rows], self.zero)

    def scale(self, c):
        return SeriesMatrix._make(
            [{j: v for j, e in row.items() if (v := e.scale(c))}
             for row in self.rows], self.zero)

    def all_even_grade(self):
        return all(e.has_even_grade()
                   for row in self.rows for e in row.values())


def nilpotent_powers(x, kmax):
    """(k, x^k) for k = 1, 2, .. while the power x^k is nonzero.

    x is anything with * and is_zero(): a SeriesMatrix, an
    EtaFormScalar, a TruncatedSeries.  Raises ValueError unless
    x^(kmax+1) vanishes.
    """
    power = x
    for k in range(1, kmax + 2):
        if power.is_zero():
            return
        if k > kmax:
            raise ValueError("not nilpotent: the power %d does not vanish" % k)
        yield k, power
        power = power * x


def series_at(f, x):
    """sum_k f_k x^k, a running + over the nonzero powers of a nilpotent x.

    f is a one-variable series, read through its cap.  x is anything
    with one_like, *, +, scale and is_zero: a SeriesMatrix, an
    EtaFormScalar, a TruncatedSeries without constant term.  Raises
    ValueError unless x^(f.cap+1) vanishes.
    """
    out = x.one_like().scale(f.constant_term())
    for k, power in nilpotent_powers(x, f.cap):
        if c := f.coefficient((k,)):
            out = out + power.scale(c)
    return out


# ---------------------------------------------------------------------
# named generating series
# ---------------------------------------------------------------------

def univariate(coeffs):
    """sum_k coeffs[k] x^k as a one-variable series capped at its order,
    len(coeffs) - 1."""
    return TruncatedSeries(1, len(coeffs) - 1,
                           {(k,): c for k, c in enumerate(coeffs)})


# typed: a float c must never hit the entry of an equal exact c
@functools.lru_cache(maxsize=None, typed=True)
def exp_series(order, c):
    """e^{cx} through x^order for a rational c, one shared series per
    argument."""
    c = _as_fraction(c)
    return univariate([c ** k / factorial(k) for k in range(order + 1)])


def sinh_quotient_series(order):
    """(e^{x/2} - e^{-x/2})/x: its x^k coefficient is 2 (1/2)^{k+1}/(k+1)!,
    twice that of x^{k+1} in e^{x/2}, at even k, and zero at odd k."""
    half = exp_series(order + 1, Fraction(1, 2))
    return univariate([2 * half.coefficient((k + 1,)) if k % 2 == 0 else Q0
                       for k in range(order + 1)])


@functools.cache
def bernoulli_numbers(n):
    """B_0, ..., B_n with B_1 = +1/2: x / (1 - e^{-x}) = sum B_k x^k / k!.

    Akiyama-Tanigawa: row m starts from 1/(m+1), and each entry j-1
    becomes j (a_{j-1} - a_j); B_m is the first entry of row m.
    """
    out, row = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return tuple(out)
