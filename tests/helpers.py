"""Independent reference implementations used as test oracles.

Nothing here reuses the structural code paths under test: Bernoulli
numbers come from the defining recurrence, theta_by_log builds theta as
a composed series logarithm instead of from Bernoulli numbers, the
Lie bracket is spelled out in coordinates, and the Hochschild/insertion
oracles work purely through operator *evaluation* on explicit function
arguments, never through term manipulation.  The one structural
insertion oracle, bullet_reference, keeps the first term-by-term
product, which compares exactly, caps included, where evaluation only
agrees through cap - 3.  hkr_reference likewise keeps the HKR sum over
position permutations, one scaling per permutation, for exact
comparison, schouten_reference the Schouten bracket's recursion
from its axioms, which agrees with the closed formula exactly where all
caps are equal, and contract_reference the interior product one axis
at a time through intermediate fields.  The series_*_reference
functions keep truncated-series arithmetic on one Fraction per
coefficient, the oracle of the integer numerators over one denominator
that TruncatedSeries stores.  chunk_sums_blocked_reference keeps the
Monte Carlo chunk kernel that computed every quantity where it was used;
its sums are the ones weights._chunk_sums must reproduce exactly.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial
from operator import add


# -- Bernoulli numbers from the defining recurrence -------------------
#
#   sum_{j=0}^{n} C(n+1, j) B_j = 0  (n >= 1),  B_0 = 1
#
# (first kind, B_1 = -1/2).

_BERN = [Fraction(1)]


def bernoulli(n):
    while len(_BERN) <= n:
        k = len(_BERN)
        acc = sum(Fraction(comb(k + 1, j)) * _BERN[j] for j in range(k))
        _BERN.append(-acc / (k + 1))
    return _BERN[n]


def wheel_weight_from_bernoulli(l):
    """Closed wheel weight, derived by hand from the generating series.

    With s(x) = (1/2) log((e^{x/2}-e^{-x/2})/x) one has
    s'(x) = (1/2)(coth(x/2) - 2/x) = sum_{k>=1} B_{2k} x^{2k-1}/(2k)!,
    so the x^{2k} coefficient of s is B_{2k}/(2k (2k)!) and

        W_{2k} = -(-1)^{k(2k+1)} 2k * s_{2k} = -(-1)^k B_{2k}/(2 (2k)!),

    while every odd weight vanishes (s is even).
    """
    if l % 2:
        return Fraction(0)
    k = l // 2
    return -Fraction((-1) ** k) * bernoulli(l) / (2 * factorial(l))


def useries_log(f):
    """log(f) for a one-variable f with constant term 1, by composing
    log(1 + u) through f's cap."""
    if f.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    u = f - f.one_like()
    out, power = f.zero_like(), f.one_like()
    for k in range(1, f.cap + 1):
        power = power * u
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def theta_by_log(order):
    """theta = -(1/2) log((e^{x/2} - e^{-x/2})/x) through `order`."""
    from formaldisk import sinh_quotient_series
    return useries_log(sinh_quotient_series(order)).scale(Fraction(-1, 2))


# -- truncated series on one Fraction per coefficient -----------------
#
# Each takes TruncatedSeries and returns the (cap, exp -> Fraction) pair
# of the result, zero coefficients dropped.

def _drop_zeros(terms, cap):
    return {e: c for e, c in terms.items() if c and sum(e) <= cap}


def series_add_reference(a, b):
    cap = min(a.cap, b.cap)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) + c
    return cap, _drop_zeros(terms, cap)


def series_mul_reference(a, b):
    cap = min(a.cap, b.cap)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return cap, _drop_zeros(terms, cap)


def series_scale_reference(a, c):
    return a.cap, _drop_zeros({e: c * v for e, v in a.terms.items()}, a.cap)


def series_partial_reference(a, i):
    terms = {}
    for exp, c in a.terms.items():
        if exp[i - 1]:
            e = list(exp)
            e[i - 1] -= 1
            terms[tuple(e)] = c * exp[i - 1]
    cap = max(a.cap - 1, -1)
    return cap, _drop_zeros(terms, cap)


def series_agrees_reference(a, b, through=None):
    lim = min(a.cap, b.cap, b.cap if through is None else through)
    x, y = a.terms, b.terms
    return a.dim == b.dim and all(x.get(k, 0) == y.get(k, 0)
                                  for k in x.keys() | y.keys()
                                  if sum(k) <= lim)


# -- coordinate Lie bracket of two vector fields ----------------------

def lie_bracket_vf(x, y):
    """[x, y]^i = sum_j (x^j d_j y^i - y^j d_j x^i), direct coordinates."""
    from formaldisk import PolyVectorField
    assert x.degree == 0 and y.degree == 0
    dim = x.dim
    comps = {}
    for i in range(1, dim + 1):
        acc = None
        for j in range(1, dim + 1):
            xj = x.comps.get((j,))
            yj = y.comps.get((j,))
            yi = y.comps.get((i,))
            xi = x.comps.get((i,))
            if xj is not None and yi is not None:
                t = xj * yi.partial(j)
                acc = t if acc is None else acc + t
            if yj is not None and xi is not None:
                t = yj * xi.partial(j)
                acc = acc - t if acc is not None else -t
        if acc is not None and not acc.is_zero():
            comps[(i,)] = acc
    return PolyVectorField(dim, 0, comps)


# -- Hochschild differential via face maps ----------------------------
#
# For the commutator convention d = [m, -] with insertion signs
# (-1)^{i |arg|}, expanding on p+2 functions gives
#
#   (dD)(f_1..f_{p+2}) = D(f_1..f_{p+1}) f_{p+2}
#                      + (-1)^p f_1 D(f_2..f_{p+2})
#                      - (-1)^p sum_{i=0}^{p} (-1)^i
#                            D(f_1,..,f_{i+1} f_{i+2},..,f_{p+2})
#
# which only ever calls the operator on explicit arguments.

def hochschild_face(op, args):
    p = op.degree
    assert len(args) == p + 2
    out = op.apply(args[: p + 1]) * args[p + 1]
    sgn = (-1) ** (p % 2)
    out = out + (args[0] * op.apply(args[1:])).scale(sgn)
    for i in range(p + 1):
        merged = args[:i] + [args[i] * args[i + 1]] + args[i + 2:]
        out = out - op.apply(merged).scale(sgn * (-1) ** (i % 2))
    return out


# -- insertion product via evaluation ----------------------------------

def bullet_eval(d1, d2, args):
    """(d1 . d2)(args) computed slot by slot through plain evaluation."""
    k2 = d2.degree + 1
    out = None
    for i in range(d1.degree + 1):
        inner = d2.apply(args[i:i + k2])
        val = d1.apply(args[:i] + [inner] + args[i + k2:])
        if (i * d2.degree) % 2:
            val = -val
        out = val if out is None else out + val
    if out is None:
        raise ValueError("d1 has no slots to insert into")
    return out


# -- insertion product term by term, one split at a time ---------------
#
# The structural product as first written: for every Leibniz split of
# the receiving multi-index into (nu, beta_1, ..., beta_k) it builds
# c1 * d^nu c2 afresh and scales it by sign * multinomial, with no
# grouping and no shortcut for a multiplier of +-1.

def _reference_splits(multi, parts):
    """(split, multinomial) for every ordered split into `parts` parts."""
    def compositions(total, k):
        if k == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest
    per_axis = [list(compositions(total, parts)) for total in multi]
    for combo in product(*per_axis):
        split = tuple(tuple(combo[ax][p] for ax in range(len(multi)))
                      for p in range(parts))
        coeff = 1
        for ax, total in enumerate(multi):
            c = factorial(total)
            for p in range(parts):
                c //= factorial(combo[ax][p])
            coeff *= c
        yield split, Fraction(coeff)


def _reference_insert(c1, slots1, i, d2, sign):
    alpha = slots1[i]
    if d2.degree == -1:
        c2 = d2.terms.get(())
        if c2 is not None:
            c = c1 * c2.partial_multi(alpha)
            yield slots1[:i] + slots1[i + 1:], c if sign == 1 else -c
        return
    for s2, c2 in d2.terms.items():
        for split, mult in _reference_splits(alpha, d2.degree + 2):
            nu, betas = split[0], split[1:]
            c = c1 * c2.partial_multi(nu)
            block = tuple(tuple(x + y for x, y in zip(b, m))
                          for b, m in zip(betas, s2))
            yield slots1[:i] + block + slots1[i + 1:], c.scale(sign * mult)


def _reference_insertions(d1, d2):
    """Every (slots, coefficient) product of bullet(d1, d2), zero ones too."""
    return (pair for slots1, c1 in d1.terms.items()
            for i in range(d1.degree + 1)
            for pair in _reference_insert(c1, slots1, i, d2,
                                          (-1) ** ((i * d2.degree) % 2)))


def bullet_reference(d1, d2):
    """sum_i (-1)^{i |d2|} (d1 with d2 in slot i), one split at a time."""
    from formaldisk import PolyDiffOp
    from formaldisk.series import sparse_sum
    assert d1.dim == d2.dim
    return PolyDiffOp._make(d1.dim, d1.degree + d2.degree,
                            sparse_sum(_reference_insertions(d1, d2)))


def gerstenhaber_reference(d1, d2):
    """bullet(d1, d2) - (-1)^{|d1||d2|} bullet(d2, d1) as one flat sum of
    both reference insertion streams, the second scaled by the sign."""
    from formaldisk import PolyDiffOp
    from formaldisk.series import sparse_sum
    assert d1.dim == d2.dim
    sign = -(-1) ** ((d1.degree * d2.degree) % 2)
    pairs = list(_reference_insertions(d1, d2)) + [
        (slots, c.scale(sign)) for slots, c in _reference_insertions(d2, d1)]
    return PolyDiffOp._make(d1.dim, d1.degree + d2.degree, sparse_sum(pairs))


def hochschild_reference(d, cap=None):
    """[m, d] through the reference bracket; m's cap defaults to d's."""
    from formaldisk import PolyDiffOp
    from formaldisk.series import DEFAULT_CAP
    if cap is None:
        cap = min((c.cap for c in d.terms.values()), default=DEFAULT_CAP)
    return gerstenhaber_reference(PolyDiffOp.multiplication(d.dim, cap), d)


# -- HKR map by position permutations ---------------------------------

def hkr_reference(field):
    """(-1)^{k(k-1)/2} (1/k!) sum_sigma sgn(sigma) e_{i_sigma(1)} x .. x
    e_{i_sigma(k)}, one term per key and permutation sigma of the k
    positions, each coefficient scaled by the prefactor times the sign
    sort_with_sign gives sigma.
    """
    from itertools import permutations
    from formaldisk import PolyDiffOp, sort_with_sign
    dim = field.dim
    k = field.degree + 1
    if k == 0:
        f = field.as_function()
        if f is None:
            return PolyDiffOp.zero(dim, -1)
        return PolyDiffOp.function(f)
    pref = Fraction((-1) ** ((k * (k - 1) // 2) % 2), factorial(k))
    terms = {}
    for idx, s in field.comps.items():
        for sigma in permutations(range(k)):
            slots = tuple(tuple(int(a == idx[p]) for a in range(1, dim + 1))
                          for p in sigma)
            terms[slots] = s.scale(pref * sort_with_sign(sigma)[0])
    return PolyDiffOp(dim, k - 1, terms)


# -- Schouten bracket by recursion from its axioms ----------------------
#
# Functions commute, a vector field acts by Lie derivative, and the
# bracket extends as a graded derivation of the wedge,
#
#   [Y ^ c, b] = (-1)^{(|c| + 1)|b|} [Y, b] ^ c + Y ^ [c, b],
#
# and by graded antisymmetry, so every sign is forced.  Each step builds
# an intermediate field and drops a product that is zero before summing.

def _lie_reference(coeff, axis, target):
    """Lie derivative of `target` along the vector field coeff*d/dt_axis."""
    from formaldisk import PolyVectorField, sort_with_sign
    from formaldisk.series import sparse_sum

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


def _bracket_monomial_reference(c1, idx1, b):
    """[c1 * e_{idx1}, b]: flip a function, take the Lie derivative of a
    vector field, and split the first factor Y = c1 e_i off a longer word."""
    from formaldisk import PolyVectorField, wedge_fields
    dim = b.dim
    if len(idx1) == 0:
        # [f, b] = -(-1)^{(-1)|b|} [b, f]
        inner = _bracket_with_function_reference(b, c1)
        return inner.scale(-((-1) ** (b.degree % 2)))
    if len(idx1) == 1:
        return _lie_reference(c1, idx1[0], b)
    y_axis, rest = idx1[0], idx1[1:]
    p_c = len(rest) - 1
    y = PolyVectorField(dim, 0, {(y_axis,): c1})
    sign = (-1) ** (((p_c + 1) * b.degree) % 2)
    # [Y, b] already carries c1, so its wedge partner is the bare e_rest
    term1 = wedge_fields(_lie_reference(c1, y_axis, b),
                         PolyVectorField(dim, p_c, {rest: c1.one_like()}))
    term2 = wedge_fields(y, _bracket_monomial_reference(c1.one_like(), rest, b))
    return term1.scale(sign) + term2


def _field_sum(dim, degree, fields):
    """Sum of fields of one degree: one sparse_sum over all components."""
    from formaldisk import PolyVectorField
    from formaldisk.series import sparse_sum
    return PolyVectorField._make(dim, degree, sparse_sum(
        pair for f in fields for pair in f.comps.items()))


def _bracket_with_function_reference(b, f):
    """[b, f] for a function f, by peeling wedge factors of b."""
    from formaldisk import PolyVectorField
    f = PolyVectorField.function(f)
    # functions commute: the degree -1 part of b brackets to zero
    return _field_sum(b.dim, b.degree - 1,
                      (_bracket_monomial_reference(s, idx, f)
                       for idx, s in b.comps.items() if idx))


def schouten_reference(a, b):
    """[a, b] term by term of a through the axiom recursion above."""
    assert a.dim == b.dim
    return _field_sum(a.dim, a.degree + b.degree,
                      (_bracket_monomial_reference(s, idx, b)
                       for idx, s in a.comps.items()))


# -- interior product one axis at a time ------------------------------
#
# The first contraction: each form term dt_I acts as dt_{i_1}(...
# dt_{i_q}(field)), every step an intermediate field, and the parts are
# scaled by the form's coefficients and summed.

def _contract_one_reference(axis, field):
    """dt_axis ^ field, the alternating-sum interior product."""
    from formaldisk import PolyVectorField
    comps = {}
    for idx, s in field.comps.items():
        if axis in idx:
            pos = idx.index(axis)
            comps[idx[:pos] + idx[pos + 1:]] = s if pos % 2 == 0 else -s
    return PolyVectorField._make(field.dim, field.degree - 1, comps)


def contract_reference(form, field):
    """Iterated interior product through intermediate fields."""
    from formaldisk import PolyVectorField
    assert form.dim == field.dim
    degree = field.degree - form.degree
    if form.degree > field.degree + 1:
        return PolyVectorField.zero(field.dim, degree)
    parts = []
    for idx, s in form.comps.items():
        part = field
        for axis in reversed(idx):
            part = _contract_one_reference(axis, part)
        # every scaled key is kept, a zero one too, so that its cap counts
        parts.append(part._with({k: c.scale(s)
                                 for k, c in part.comps.items()}))
    return _field_sum(field.dim, degree, parts)


# -- bivector action on a pair of functions ---------------------------

def biv_action(pi, f, g):
    """sum_{i<j} pi^{ij} (d_i f d_j g - d_j f d_i g)."""
    acc = None
    for (i, j), c in pi.comps.items():
        t = c * (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i))
        acc = t if acc is None else acc + t
    if acc is None:
        from formaldisk import TruncatedSeries
        return TruncatedSeries.zero(pi.dim, f.cap)
    return acc


# -- graph operator over every edge-axis assignment --------------------

def graph_operator_bruteforce(graph, fields):
    """graph_operator by the definition: all dim^E edge-axis assignments.

    Every assignment looks up the signed component at each aerial
    vertex, differentiates it along the vertex's in-edges and multiplies
    the results; ground vertices collect their in-edge axes as slots.
    Each slot tuple keeps one running series (a series sum keeps the
    lowest cap and never drops a key); zero sums are dropped at the end.
    """
    from formaldisk import PolyDiffOp, TruncatedSeries
    n, m = graph.n, graph.m
    if len(fields) != n:
        raise ValueError("need %d aerial fields, got %d" % (n, len(fields)))
    dim = fields[0].dim if fields else 1
    for v in range(1, n + 1):
        if graph.out_degree(v) != fields[v - 1].degree + 1:
            return PolyDiffOp.zero(dim, m - 1)
    edges = graph.edges
    out_lists = [graph.out_edges(v) for v in range(1, n + 1)]
    in_lists = [graph.in_edges(v) for v in range(1, n + m + 1)]
    sums = {}
    for assign in product(range(1, dim + 1), repeat=len(edges)):
        axis = dict(zip(edges, assign))
        coeff = TruncatedSeries.const(dim, 1) if n == 0 else None
        for v in range(1, n + 1):
            comp = fields[v - 1].component(
                tuple(axis[e] for e in out_lists[v - 1]))
            if comp is None:
                break
            for e in in_lists[v - 1]:
                comp = comp.partial(axis[e])
            if comp.is_zero():
                break
            coeff = comp if coeff is None else coeff * comp
            if coeff.is_zero():
                break
        else:
            slots = []
            for g in range(n + 1, n + m + 1):
                multi = [0] * dim
                for e in in_lists[g - 1]:
                    multi[axis[e] - 1] += 1
                slots.append(tuple(multi))
            slots = tuple(slots)
            sums[slots] = sums[slots] + coeff if slots in sums else coeff
    return PolyDiffOp(dim, m - 1, {slots: s for slots, s in sums.items()
                                   if not s.is_zero()})


# -- twisted first Taylor coefficient over ordered eta-tuples ----------

def wheel_graph_weight_ordered(partition, m):
    """Per-graph weight of the ordered sum, each W_l from Bernoulli numbers.

        W = (-1)^{sum_{a<b} l_a l_b} (-1)^{(m+2j)(m+2j-1)/2} (-1)^j
            (1/m!) W_{l_1} ... W_{l_r}
    """
    j = sum(partition)
    cross = sum(partition[a] * partition[b]
                for a in range(len(partition))
                for b in range(a + 1, len(partition)))
    internal = sum(l * (l - 1) // 2 for l in partition)
    # the two bookkeeping identities behind the closed form
    assert j * (j - 1) // 2 == cross + internal
    assert ((m + 2 * j) * (m + 2 * j - 1) // 2) % 2 == (m * (m - 1) // 2 + j) % 2
    sign = (-1) ** (cross % 2)
    sign *= (-1) ** (((m + 2 * j) * (m + 2 * j - 1) // 2) % 2)
    sign *= (-1) ** (j % 2)
    w = Fraction(sign, factorial(m))
    for l in partition:
        w *= wheel_weight_from_bernoulli(l)
    return w


def wheel_graph_weight(partition, m):
    """Per ordered eta-tuple: (-1)^{j(j-1)/2} times the subset coefficient.

    The production weight of a set of eta-indices,
    formality._subset_coefficient on the closed side's theta, spread
    over one ordering; tests hold it against wheel_graph_weight_ordered.
    """
    from formaldisk import theta_series
    from formaldisk.formality import _subset_coefficient
    j = sum(partition)
    sign = (-1) ** ((j * (j - 1) // 2) % 2)
    return sign * _subset_coefficient(partition, m, theta_series(j + 2))


def twisted_first_taylor_ordered(mc, field, j_max=None):
    """Twisted first Taylor coefficient, one term per ordered eta-tuple.

    Sums (1/j!) eta_{alpha_j} .. eta_{alpha_1} W_Gamma
    U_Gamma(omega_{alpha_1}, .., omega_{alpha_j}, gamma) over all
    ordered tuples of distinct indices and the surviving labeled graphs.
    It shares graph_operator and wheel_survivors with the code under
    test (each has its own oracle), but neither the weights nor the
    eta-word bookkeeping: no theta series, no sum over subsets.
    """
    from itertools import permutations
    from formaldisk import EtaOperator
    from formaldisk.formality import graph_operator
    from formaldisk.graphs import wheel_survivors
    from formaldisk.polyvector import sort_with_sign
    from formaldisk.series import sparse_sum
    dim = field.dim
    factors = field.degree + 1
    if j_max is None:
        j_max = mc.s

    def terms():
        for j in range(0, j_max + 1):
            m = factors - j
            if m < 0:
                continue
            jfact = Fraction(1, factorial(j))
            for g, ctype in wheel_survivors(j, m):
                w = wheel_graph_weight_ordered(ctype, m)
                if w == 0:
                    continue
                for alphas in permutations(range(1, mc.s + 1), j):
                    sign, key = sort_with_sign(reversed(alphas))
                    op = graph_operator(g, [mc.fields[a - 1] for a in alphas]
                                        + [field])
                    if op:
                        yield key, op.scale(jfact * w * sign)
    return EtaOperator._make(dim, sparse_sum(terms()))


# -- matrix product over every entry pair -----------------------------

def dense_entries(mat):
    """The full entry grid of a SeriesMatrix, its zero in every gap."""
    return [[row.get(j, mat.zero) for j in range(mat.size)]
            for row in mat.rows]


def matrix_mul_reference(a, b):
    """a * b from all n^3 entry products, zero entries included.

    Each entry is a running + over the inner index in ascending order.
    """
    from formaldisk import SeriesMatrix
    x, y, n = dense_entries(a), dense_entries(b), a.size
    return SeriesMatrix([[reduce(add, (x[i][k] * y[k][j] for k in range(n)))
                          for j in range(n)] for i in range(n)])


# -- det exp Theta, one wheel weight per power ------------------------

def theta_and_det_reference(xi, max_length=None):
    """det(exp Theta), Theta = sum_l (-1)^{l(l-1)/2} (W_l / l) Xi^l.

    The powers start from the identity times Xi, each taken by
    matrix_mul_reference; each power's trace is a running + down the
    diagonal, and its coefficient comes from wheel_weight_closed(l).
    """
    from formaldisk import EtaFormScalar, wheel_weight_closed
    from formaldisk.series import sparse_sum
    if not xi.all_even_grade():
        raise ValueError("Xi entries must have even total grade")
    if max_length is None:
        max_length = 2 * xi.size + 2  # eta nilpotence cuts off earlier
    pieces = [xi.zero]  # fixes dim and cap
    power = xi.one_like()
    for l in range(1, max_length + 1):
        power = matrix_mul_reference(power, xi)
        if power.is_zero():
            break
        w = wheel_weight_closed(l)
        if w == 0:
            continue
        sign = (-1) ** ((l * (l - 1) // 2) % 2)
        grid = dense_entries(power)
        trace = reduce(add, (grid[i][i] for i in range(power.size)), xi.zero)
        pieces.append(trace.scale(Fraction(sign) * w / l))
    trace_theta = EtaFormScalar._make(
        pieces[0].dim, min(p.cap for p in pieces),
        sparse_sum(pair for p in pieces for pair in p.terms.items()))
    return trace_theta.exp()


def eta_exp_reference(x):
    """EtaFormScalar.exp by the series route alone, a zero argument too:
    the exponential series at one * x, each coefficient cut to x's cap."""
    from formaldisk.series import exp_series, series_at
    return series_at(exp_series(2 * x.dim + 2 * x.cap + 4, 1),
                     x.one_like() * x)

# -- Monte Carlo chunk on full-chunk arrays ----------------------------

def chunk_sums_reference(args):
    """One Monte Carlo chunk evaluated whole.

    Returns (sum, sumsq, kept, discarded, abs_sum): the first four as
    weights._chunk_sums returns them, and the sum of |g| on top, the
    scale the two kernels' sums are compared at.

    Same random stream and estimator as weights._chunk_sums, but every
    phase runs on full-chunk arrays and every sample, in the disk or not,
    pays for the mixture density, the dense Jacobian (dense_jacobian) and
    np.linalg.det of it.  Out-of-disk samples are dropped only at the end,
    together with the collision filter.
    """
    import numpy as np
    from formaldisk.graphs import AdmissibleGraph
    from formaldisk.weights import (BASE_WEIGHT, COLLISION_MARGIN,
                                    KERNEL_LOG, KERNEL_RMAX, KERNEL_RMIN,
                                    TWO_PI, _kernel_components)
    graph_json, chunk_index, chunk_size, seed = args
    graph = AdmissibleGraph.from_json(graph_json)
    n, m = graph.n, graph.m
    e_count = len(graph.edges)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(chunk_index,)))
    # base sample coordinates
    r, ang, alpha = (np.empty((chunk_size, 0)) for _ in range(3))
    if n > 1:
        r = rng.random((chunk_size, n - 1))
        ang = rng.random((chunk_size, n - 1)) * TWO_PI
    if m > 0:
        alpha = np.sort(rng.random((chunk_size, m)) * TWO_PI, axis=1)

    # mixture of importance kernels over the singular loci
    comps = _kernel_components(graph)
    denom = np.full(chunk_size, 1.0)
    if comps:
        p_comp = (1.0 - BASE_WEIGHT) / len(comps)
        coin = rng.random(chunk_size)
        rho = KERNEL_RMIN * np.exp(rng.random(chunk_size) * KERNEL_LOG)
        offset = rho * np.exp(1j * rng.random(chunk_size) * TWO_PI)

        def center_of(comp):
            kind = comp[0]
            if kind == "pair":
                j = comp[1]
                return r[:, j - 2] * np.exp(1j * ang[:, j - 2])
            if kind == "ground":
                return np.exp(1j * alpha[:, comp[2] - 1])
            return np.full(chunk_size, 1.0 + 0j)

        for ci, comp in enumerate(comps):
            lo = BASE_WEIGHT + ci * p_comp
            mask = (coin >= lo) & (coin < lo + p_comp)
            if not mask.any():
                continue
            v = comp[2] if comp[0] == "pair" else comp[1]
            w_new = center_of(comp)[mask] + offset[mask]
            r[mask, v - 2] = np.abs(w_new)
            ang[mask, v - 2] = np.mod(np.angle(w_new), TWO_PI)
        denom[:] = BASE_WEIGHT
        for comp in comps:
            v = comp[2] if comp[0] == "pair" else comp[1]
            w_v = r[:, v - 2] * np.exp(1j * ang[:, v - 2])
            d = np.abs(w_v - center_of(comp))
            k = np.where((d >= KERNEL_RMIN) & (d <= KERNEL_RMAX),
                         r[:, v - 2]
                         / (TWO_PI * KERNEL_LOG
                            * np.maximum(d, KERNEL_RMIN) ** 2),
                         0.0)
            denom += TWO_PI * p_comp * k

    inbox = np.all((r > 0.0) & (r < 1.0), axis=1)
    jac, pts = dense_jacobian(graph, r, ang, alpha)
    dets = np.linalg.det(jac) if e_count else np.ones(chunk_size)

    # collision margin: drop samples with near-coincident points
    drop = ~np.isfinite(dets) | ~inbox
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            drop |= np.abs(pts[i] - pts[j]) < COLLISION_MARGIN
    g = np.where(drop, 0.0, dets / denom)
    discarded = int(drop.sum())
    return (float(g.sum()), float((g * g).sum()), chunk_size, discarded,
            float(np.abs(g).sum()))


def dense_jacobian(graph, r, ang, alpha):
    """The edge-angle Jacobian, filled edge by edge, and the points.

    Rows follow the graph's edge order; columns are (radius_2, angle_2,
    ..., radius_n, angle_n, ground_1, ..., ground_m), each entry a
    partial of the edge's angle in turns.  r (clipped into (0, 1) first),
    ang and alpha hold one sample per row, with no columns when n = 1 or
    m = 0.  Returns (jac, points), the points being the complex
    positions of vertices 1..n+m: z = i(1+w)/(1-w) with w = r e^{i ang},
    the gauge point i, and ground points q = -cot(alpha/2).
    """
    import numpy as np
    from formaldisk.weights import TWO_PI
    n, m = graph.n, graph.m
    rows = len(r)
    z = np.empty((rows, n), dtype=np.complex128)
    z[:, 0] = 1j
    dz_dr = np.zeros((rows, n), dtype=np.complex128)
    dz_da = np.zeros((rows, n), dtype=np.complex128)
    r = np.clip(r, 1e-12, 1.0 - 1e-12)
    w = r * np.exp(1j * ang)
    base = 2j / (1.0 - w) ** 2
    z[:, 1:] = 1j * (1.0 + w) / (1.0 - w)
    dz_dr[:, 1:] = base * np.exp(1j * ang)
    dz_da[:, 1:] = base * 1j * w
    q = -1.0 / np.tan(alpha / 2.0)
    dq = 0.5 / np.sin(alpha / 2.0) ** 2
    # positions of all vertices (grounds are real)
    def pos(v):
        if v <= n:
            return z[:, v - 1]
        return q[:, v - n - 1].astype(np.complex128)

    e_count = len(graph.edges)
    jac = np.zeros((rows, e_count, 2 * (n - 1) + m), dtype=np.float64)
    for row, (s, t) in enumerate(graph.edges):
        zp = z[:, s - 1]
        zq = pos(t)
        nvec = zq - zp
        dvec = zq - np.conj(zp)
        inv_n = 1.0 / nvec
        inv_d = 1.0 / dvec
        # columns of the source point (never the gauge point for cols)
        if s >= 2:
            c0 = 2 * (s - 2)
            jac[:, row, c0] += (-dz_dr[:, s - 1] * inv_n
                                + np.conj(dz_dr[:, s - 1]) * inv_d).imag / TWO_PI
            jac[:, row, c0 + 1] += (-dz_da[:, s - 1] * inv_n
                                    + np.conj(dz_da[:, s - 1]) * inv_d).imag / TWO_PI
        if t <= n:
            if t >= 2:
                c0 = 2 * (t - 2)
                jac[:, row, c0] += (dz_dr[:, t - 1] * (inv_n - inv_d)).imag / TWO_PI
                jac[:, row, c0 + 1] += (dz_da[:, t - 1] * (inv_n - inv_d)).imag / TWO_PI
        else:
            col = 2 * (n - 1) + (t - n - 1)
            jac[:, row, col] += (dq[:, t - n - 1] * (inv_n - inv_d)).imag / TWO_PI
    return jac, [pos(v) for v in range(1, n + m + 1)]


# -- Monte Carlo chunk, block by block, each phase on its own ----------

def _direction_reference(t):
    tt = t * t
    return (1.0 - tt) / (1.0 + tt), 2.0 * t / (1.0 + tt)


def _block_values_reference(plan, comps, r, ang, alpha, coin=None,
                            rho_u=None, turn=None):
    """One block of weights._chunk_sums' kernel as it was before the
    kernel shared its intermediates: every quantity built where it is
    used, the mixture constants rebuilt per block, and the collision
    filter over every pair of points.  Returns the in-disk integrand and
    the number of samples dropped.
    """
    import numpy as np
    from formaldisk.weights import (BASE_WEIGHT, COLLISION_MARGIN,
                                    KERNEL_LOG, KERNEL_RMAX, KERNEL_RMIN,
                                    TWO_PI)
    src, tgt, (e1, e2, k1, k2), grounds, terms, signs = plan[:6]
    size, sampled, m = len(r), r.shape[1], alpha.shape[1]
    i, j = np.triu_indices(sampled + 1 + m, 1)
    r, ang, alpha = (a.T.copy() for a in (r, ang, alpha))
    t = np.tan(np.pi * alpha)
    cos, sin = _direction_reference(np.tan(np.pi * ang))
    px, py = np.empty((2, sampled + m + 1 if comps else sampled, size))
    px[:sampled], py[:sampled] = r * cos, r * sin
    if comps:
        px[sampled:-1], py[sampled:-1] = _direction_reference(t)
        px[-1], py[-1] = 1.0, 0.0
        p_comp = (1.0 - BASE_WEIGHT) / len(comps)
        v = np.array([b if kind == "pair" else a for kind, a, b in comps]) - 2
        c = np.array([a - 2 if kind == "pair" else sampled + b - 1
                      if kind == "ground" else sampled + m
                      for kind, a, b in comps])
        pick = np.searchsorted(BASE_WEIGHT + p_comp * np.arange(len(comps)),
                               coin, "right") - 1
        rows = np.flatnonzero(pick >= 0)
        at, to = (c[pick[rows]] * size + rows, v[pick[rows]] * size + rows)
        ox, oy = _direction_reference(np.tan(np.pi * turn[rows]))
        rho = KERNEL_RMIN * np.exp(rho_u[rows] * KERNEL_LOG)
        wx, wy = px.take(at) + rho * ox, py.take(at) + rho * oy
        px.reshape(-1)[to], py.reshape(-1)[to] = wx, wy
        r.reshape(-1)[to] = np.sqrt(wx * wx + wy * wy)
    keep = np.flatnonzero(np.all((r > 0.0) & (r < 1.0), axis=0))
    if len(keep) < size:
        r, px, py, t = (a.take(keep, axis=1) for a in (r, px, py, t))
    denom = 1.0
    if comps:
        d2 = (px[v] - px[c]) ** 2 + (py[v] - py[c]) ** 2
        k = np.where((d2 >= KERNEL_RMIN ** 2) & (d2 <= KERNEL_RMAX ** 2),
                     r[v] / np.maximum(d2, KERNEL_RMIN ** 2), 0.0)
        denom = BASE_WEIGHT + p_comp / KERNEL_LOG * k.sum(axis=0)

    rc = np.clip(r, 1e-12, 1.0 - 1e-12)
    scale = rc / r
    a, b = 1.0 - px[:sampled] * scale, py[:sampled] * scale
    d = a * a + b * b
    x = np.zeros((sampled + 1 + m, t.shape[1]))
    y = np.zeros_like(x)
    y[0] = 1.0
    x[1:sampled + 1] = -2.0 * b / d
    y[1:sampled + 1] = (1.0 - rc) * (1.0 + rc) / d
    x[sampled + 1:] = -1.0 / t
    chart = (np.prod(4.0 * rc / (d * d), axis=0)
             * np.prod(0.5 + 0.5 / (t * t), axis=0) / TWO_PI ** len(src))

    dx = x[tgt] - x[src]
    dy, sy = y[tgt] - y[src], y[tgt] + y[src]
    inv_n = 1.0 / (dx * dx + dy * dy)
    inv_d = 1.0 / (dx * dx + sy * sy)
    im_diff = sy * inv_d - dy * inv_n
    re = np.concatenate((dx * (inv_n + inv_d), dx * (inv_n - inv_d)))
    factors = np.concatenate((im_diff[e1] * re[k2] - im_diff[e2] * re[k1],
                              im_diff[grounds]))
    dets = signs @ factors[terms].prod(axis=1) * chart

    drop = (~np.isfinite(dets)
            | np.any((x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
                     < COLLISION_MARGIN ** 2, axis=0))
    return (np.where(drop, 0.0, dets / denom),
            size - len(dets) + int(drop.sum()))


def chunk_sums_blocked_reference(args):
    """weights._chunk_sums as it was before the kernel shared its
    intermediates: the same draws, the ground angles sorted by np.sort,
    and each block of BLOCK samples evaluated by _block_values_reference.
    Returns (sum, sumsq, kept, discarded), to be compared with ==.
    """
    import numpy as np
    from formaldisk.graphs import AdmissibleGraph
    from formaldisk.weights import BLOCK, _det_plan, _kernel_components
    graph_json, chunk_index, chunk_size, seed = args
    graph = AdmissibleGraph.from_json(graph_json)
    n, m = graph.n, graph.m
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(chunk_index,)))
    draws = [rng.random((chunk_size, n - 1)), rng.random((chunk_size, n - 1)),
             np.sort(rng.random((chunk_size, m)), axis=1)]
    comps = _kernel_components(graph)
    if comps:
        draws += [rng.random(chunk_size) for _ in range(3)]
    plan = _det_plan(graph)
    s1 = s2 = 0.0
    discarded = 0
    for lo in range(0, chunk_size, BLOCK):
        g, dropped = _block_values_reference(
            plan, comps, *(a[lo:lo + BLOCK] for a in draws))
        s1 += float(g.sum())
        s2 += float((g * g).sum())
        discarded += dropped
    return s1, s2, chunk_size, discarded
