"""First Taylor coefficient, graph evaluation, and the wheel identity.

A graph with n aerial and m ground vertices, together with one
poly-vector field per aerial vertex, determines a polydifferential
operator in m arguments: sum over all assignments of a coordinate axis
to every edge of the product over aerial vertices of the (incoming
edges)-derivative of the (outgoing edges)-component, with ground
vertices collecting their incoming derivatives into argument slots.
The operator vanishes unless every aerial out-degree matches the
number of wedge factors sitting there.  Only assignments that pick a
nonzero component at every aerial vertex contribute, so graph_operator
walks each vertex's signed components (every permutation of every
stored key) instead of all dim^E assignments: the cost is the product
of the per-vertex component counts.

The first Taylor coefficient of a field with m wedge factors is the
operator of the corolla gamma0(m) (one aerial vertex, m ground
vertices) times its weight (-1)^{m(m-1)/2}/m!: the signed HKR map, and
the j = 0 term of the twisted coefficient below.

For twisting data given by odd-coefficient vector fields, the degree
shift makes all but finitely many terms vanish and the twisted first
coefficient becomes a finite sum over surviving graphs, which are
exactly the wheel families: disjoint cycles of one-edge vertices fed
by a central vertex.  Summed once per set of j eta indices, a survivor
of cycle type (l_1, .., l_r) with m ground slots has coefficient

    (-1)^{m(m-1)/2} (1/m!) prod_i l_i theta_{l_i},

with theta the series below, whose x^l coefficient is
(-1)^{l(l-1)/2} W_l / l.  The closed form of the same sum is built from
the curvature-style matrix Xi with entries
sum_alpha eta_alpha d(d_j omega^i_alpha): the element

    det(exp Theta) = exp Tr theta(Xi),
    theta(x) = sum_l (-1)^{l(l-1)/2} (1/l) W_l x^l
             = -(1/2) log((e^{x/2} - e^{-x/2}) / x),

is contracted into gamma and quantized with the signed HKR map.  Every
entry of Xi carries one dt, so Xi^(d+1) = 0.  theta is even, so
Tr theta(Xi) needs only the traces Tr Xi^{2k} with 2k <= d, each a sum
of entry products of Xi^k with itself: no power of Xi beyond the
(d/2)-th is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as _cartesian
from math import factorial

from .series import (DEFAULT_CAP, TruncatedSeries, SeriesMatrix,
                     UnivariateSeries, bernoulli_numbers, sparse_sum)
from .polyvector import hkr_components
from .polydiff import PolyDiffOp
from .graphs import gamma0, wheel_survivors
from .weights import theta_series
from .etalgebra import (EtaFormScalar, EtaOperator,
                        contract_scalar_into_field, hkr_eta)


# ---------------------------------------------------------------------
# graph evaluation
# ---------------------------------------------------------------------

def _term_coefficient(choice, in_lists, axis, dim):
    """Product of the chosen components after their in-edge partials.

    None as soon as a factor or a partial product is zero; the unit
    series when the graph has no aerial vertex.
    """
    coeff = None
    for (_, comp), ins in zip(choice, in_lists):
        for e in ins:
            comp = comp.partial(axis[e])
            if comp.is_zero():
                return None
        coeff = comp if coeff is None else coeff * comp
        if coeff.is_zero():
            return None
    return TruncatedSeries.const(dim, 1) if coeff is None else coeff


def graph_operator(graph, fields):
    """The polydifferential operator attached to (graph, aerial fields).

    fields[i] decorates aerial vertex i+1.  Returns an operator with
    one argument slot per ground vertex; the zero operator whenever
    some aerial out-degree differs from that vertex's factor count.

    Walks the nonzero signed components of each vertex instead of all
    dim^E edge-axis assignments: a component fixes the axes of its
    vertex's out-edges, so the cost is the product over vertices of
    (stored keys x permutations of a key).  The terms are one flat
    sparse_sum, so their order does not matter, caps included.
    """
    n, m = graph.n, graph.m
    if len(fields) != n:
        raise ValueError("need %d aerial fields, got %d" % (n, len(fields)))
    dim = fields[0].dim if fields else 1
    for v in range(1, n + 1):
        if graph.out_degree(v) != fields[v - 1].degree + 1:
            return PolyDiffOp.zero(dim, m - 1)
    out_lists = [graph.out_edges(v) for v in range(1, n + 1)]
    in_lists = [graph.in_edges(v) for v in range(1, n + m + 1)]

    def terms():
        for choice in _cartesian(*map(hkr_components, fields)):
            axis = {}
            for out, (axes, _) in zip(out_lists, choice):
                axis.update(zip(out, axes))
            coeff = _term_coefficient(choice, in_lists, axis, dim)
            if coeff is None:
                continue
            slots = []
            for g in range(n + 1, n + m + 1):
                multi = [0] * dim
                for e in in_lists[g - 1]:
                    multi[axis[e] - 1] += 1
                slots.append(tuple(multi))
            yield tuple(slots), coeff
    return PolyDiffOp._make(dim, m - 1, sparse_sum(terms()))


def u_one(field):
    """First Taylor coefficient on one field: the corolla's operator.

    For a field with m wedge factors it is the operator of gamma0(m)
    times the weight (-1)^{m(m-1)/2}/m!.  A field of degree below -1 is
    zero and has no corolla; it maps to the zero operator of its degree.
    """
    m = field.degree + 1
    if m < 0:
        return PolyDiffOp.zero(field.dim, field.degree)
    return graph_operator(gamma0(m), [field]).scale(
        _subset_coefficient((), m, None))


# ---------------------------------------------------------------------
# twisting data
# ---------------------------------------------------------------------

class MaurerCartanData:
    """A tuple of vector fields omega_alpha paired with eta_alpha."""

    def __init__(self, fields):
        fields = list(fields)
        if not fields:
            raise ValueError("need at least one twisting field")
        dim = fields[0].dim
        for f in fields:
            if f.dim != dim:
                raise ValueError("dimension mismatch")
            if f.degree != 0 and not f.is_zero():
                raise ValueError("twisting data must be vector fields")
        self.dim = dim
        self.fields = fields
        self.s = len(fields)

    def component(self, alpha, i):
        """Series coefficient of d/dt_i in omega_alpha (1-based both)."""
        return self.fields[alpha - 1].comps.get((i,))


def xi_matrix(mc):
    """Matrix with entries sum_alpha eta_alpha d(d_j omega^i_alpha).

    Its container cap is the lowest cap among the twisting fields.
    """
    dim = mc.dim
    caps = [s.cap for f in mc.fields for s in f.comps.values()]
    cap = min(caps) if caps else DEFAULT_CAP
    entries = []
    for i in range(1, dim + 1):
        row = []
        for j in range(1, dim + 1):
            terms = {}
            for alpha in range(1, mc.s + 1):
                comp = mc.component(alpha, i)
                if comp is None:
                    continue
                dcomp = comp.partial(j)
                for k in range(1, dim + 1):
                    c = dcomp.partial(k)
                    if c:
                        terms[(alpha,), (k,)] = c
            row.append(EtaFormScalar._make(dim, cap, terms))
        entries.append(row)
    return SeriesMatrix(entries)


def theta_and_det(xi):
    """det(exp Theta) = exp(Tr Theta) with Theta = theta(Xi).

    theta(x) = -(1/2) log((e^{x/2} - e^{-x/2})/x) is weights.theta_series;
    its x^l coefficient is (-1)^{l(l-1)/2} W_l / l, zero for odd l.  So
    Tr Theta = sum_k theta_{2k} Tr Xi^{2k}, and only that trace is built,
    from half the powers: Tr Xi^{2k} = sum_{i,j} (Xi^k)_{ij} (Xi^k)_{ji},
    each piece at the lowest cap of the products it sums.  Every term of
    every entry must carry a dt (ValueError otherwise), so Tr Xi^{2k} = 0
    once 2k exceeds the number d of dt generators: only Xi^k with
    k <= d/2 is built, and the loop stops early at the first zero power.
    """
    if not xi.all_even_grade():
        raise ValueError("Xi entries must have even total grade")
    if any(not form for row in xi.entries for e in row for _, form in e.terms):
        raise ValueError("every term of every Xi entry must carry a dt")
    zero = xi.entries[0][0].zero_like()  # fixes dim and cap
    half = zero.dim // 2
    theta = theta_series(2 * half)

    def flat_sum(scalars):
        return EtaFormScalar._make(
            zero.dim, min(p.cap for p in scalars),
            sparse_sum(pair for p in scalars for pair in p.terms.items()))
    pieces = [zero]
    power = xi
    for k in range(1, half + 1):
        if k > 1:
            power = power * xi
        if power.is_zero():
            break
        e = power.entries
        pieces.append(flat_sum([e[i][j] * e[j][i] for i in range(xi.size)
                                for j in range(xi.size)]).scale(theta[2 * k]))
    return flat_sum(pieces).exp()


def closed_form_map(mc, field):
    """hkr(det(exp Theta) ^ field): the closed form of the twisted map."""
    det = theta_and_det(xi_matrix(mc))
    return hkr_eta(contract_scalar_into_field(det, field))


# ---------------------------------------------------------------------
# graph side of the twisted first coefficient
# ---------------------------------------------------------------------

def _subset_coefficient(partition, m, theta):
    """(-1)^{m(m-1)/2} (1/m!) prod_i l_i theta_{l_i} for cycle type partition."""
    w = Fraction((-1) ** ((m * (m - 1) // 2) % 2), factorial(m))
    for l in partition:
        w *= l * theta[l]
    return w


def twisted_first_taylor(mc, field, j_max=None):
    """Twisted first Taylor coefficient as an eta-graded operator.

    Sums eta_{alpha_1} .. eta_{alpha_j} c_Gamma U_Gamma(omega_{alpha_1},
    .., omega_{alpha_j}, gamma) over the sets alpha_1 < .. < alpha_j (a
    repeated eta squares to zero) and the surviving labeled graphs, which
    wheel_survivors builds directly; c_Gamma is the subset coefficient of
    the module docstring.  A set stands for its j! orderings, which give
    one signed term: relabelling the cycle vertices by pi permutes the
    center's spokes, so gamma's alternation gives sgn pi, and reordering
    the eta-word gives sgn pi again.
    """
    dim = field.dim
    factors = field.degree + 1
    if j_max is None:
        j_max = mc.s
    top = min(j_max, factors)
    theta = theta_series(top + 2) if top >= 2 else None  # j < 2: no cycle

    def terms():
        for j in range(0, top + 1):
            m = factors - j
            for g, ctype in wheel_survivors(j, m):
                w = _subset_coefficient(ctype, m, theta)
                if w == 0:
                    continue
                for alphas in combinations(range(1, mc.s + 1), j):
                    op = graph_operator(g, [mc.fields[a - 1] for a in alphas]
                                        + [field])
                    if op:
                        yield alphas, op.scale(w)
    return EtaOperator._make(dim, sparse_sum(terms()))


# ---------------------------------------------------------------------
# Todd series
# ---------------------------------------------------------------------

def todd_series(order):
    """q(x) = x / (1 - e^{-x}) = sum_n B_n x^n / n!, with B_1 = +1/2."""
    return UnivariateSeries([b / factorial(n) for n, b
                             in enumerate(bernoulli_numbers(order))])


def tilde_todd_series(order):
    """q~(x) = x / (e^{x/2} - e^{-x/2}), the symmetrized Todd series.

    q~(x) = q(x) e^{-x/2}, so q~_n = (2^{1-n} - 1) B_n / n!.
    """
    return UnivariateSeries([(Fraction(2) ** (1 - n) - 1) * b / factorial(n)
                             for n, b in enumerate(bernoulli_numbers(order))])


def exp_half_series(order, sign=1):
    """e^{sign x/2}."""
    coeffs = []
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        coeffs.append(Fraction(sign, 2) ** k / fact)
    return UnivariateSeries(coeffs)
