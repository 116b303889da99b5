"""First Taylor coefficient, graph evaluation, and the wheel identity.

A graph with n aerial and m ground vertices, together with one
poly-vector field per aerial vertex, determines a polydifferential
operator in m arguments: sum over all assignments of a coordinate axis
to every edge of the product over aerial vertices of the (incoming
edges)-derivative of the (outgoing edges)-component, with ground
vertices collecting their incoming derivatives into argument slots.
The operator vanishes unless every aerial out-degree matches the
number of wedge factors sitting there.  Only assignments that pick a
nonzero component at every aerial vertex and leave every differentiated
component nonzero contribute.  So graph_operator places the vertices in
order, orders each stored key one out-edge at a time with its sign, and
differentiates as soon as an edge's axis and its target are known: a
branch ends at its first zero partial instead of being built in full.

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
(d/2)-th is built.  Xi is sparse (at most two nonzero entries per row
for omega_alpha = c t_a t_b d_alpha), so its powers are built as sparse
rows, from products of nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import factorial, prod

from .series import (DEFAULT_CAP, TruncatedSeries, SeriesMatrix,
                     bernoulli_numbers, nilpotent_powers, sparse_sum,
                     univariate)
from .polyvector import contract
from .polydiff import PolyDiffOp, hkr, hkr_weight
from .graphs import gamma0, wheel_survivors
from .weights import theta_series
from .etalgebra import EtaFormScalar, EtaOperator


# ---------------------------------------------------------------------
# graph evaluation
# ---------------------------------------------------------------------

def graph_operator(graph, fields):
    """The polydifferential operator attached to (graph, aerial fields).

    fields[i] decorates aerial vertex i+1.  Returns an operator with
    one argument slot per ground vertex; the zero operator whenever
    some aerial out-degree differs from that vertex's factor count.

    Places the aerial vertices in order.  A vertex takes each stored
    key of its field, differentiated at once along its in-edges from
    vertices already placed, and hands the key's axes to its out-edges
    one at a time, in target order; taking the free axis at position p
    multiplies the sign by (-1)^p, so a full assignment carries the sign
    of its permutation.  An out-edge into an earlier vertex
    differentiates that vertex's coefficient at once, into a later one
    waits for its placement, into a ground vertex adds to that slot.  A
    branch ends at its first zero partial, as the term it would build
    is zero.  A full assignment multiplies the coefficients in vertex
    order and is kept unless the product is zero.  Partials commute, so
    every term keeps its value and cap; the terms are one flat
    sparse_sum, so their order does not matter either.
    """
    n, m = graph.n, graph.m
    if len(fields) != n:
        raise ValueError("need %d aerial fields, got %d" % (n, len(fields)))
    dim = fields[0].dim if fields else 1
    targets = [[] for _ in range(n)]  # edges are sorted: in target order
    for v, t in graph.edges:
        targets[v - 1].append(t)
    if any(len(out) != f.degree + 1 for out, f in zip(targets, fields)):
        return PolyDiffOp.zero(dim, m - 1)
    coeffs = [None] * n               # placed vertices, partials so far
    waiting = [[] for _ in range(n)]  # axes of in-edges from earlier ones
    slots = [[0] * dim for _ in range(m)]
    terms = []

    def place(v, sign):
        if v > n:
            coeff = None
            for c in coeffs:
                coeff = c if coeff is None else coeff * c
                if coeff.is_zero():
                    return
            if coeff is None:
                coeff = TruncatedSeries.const(dim, 1)
            terms.append((tuple(map(tuple, slots)),
                          coeff if sign == 1 else -coeff))
            return
        for key, coeff in fields[v - 1].comps.items():
            for a in waiting[v - 1]:
                coeff = coeff.partial(a)
                if coeff.is_zero():
                    break
            else:
                coeffs[v - 1] = coeff
                assign(v, 0, key, sign)

    def assign(v, k, free, sign):
        if k == len(targets[v - 1]):
            place(v + 1, sign)
            return
        t = targets[v - 1][k]
        for p, a in enumerate(free):
            rest = free[:p] + free[p + 1:]
            s = -sign if p % 2 else sign
            if t > n:
                slots[t - n - 1][a - 1] += 1
                assign(v, k + 1, rest, s)
                slots[t - n - 1][a - 1] -= 1
            elif t > v:
                waiting[t - 1].append(a)
                assign(v, k + 1, rest, s)
                waiting[t - 1].pop()
            else:
                old = coeffs[t - 1]
                coeffs[t - 1] = old.partial(a)
                if not coeffs[t - 1].is_zero():
                    assign(v, k + 1, rest, s)
                coeffs[t - 1] = old

    place(1, 1)
    return PolyDiffOp._make(dim, m - 1, sparse_sum(terms))


def u_one(field):
    """First Taylor coefficient on one field: the corolla's operator.

    For a field with m wedge factors it is the operator of gamma0(m)
    times the weight (-1)^{m(m-1)/2}/m!.  A field of degree below -1 is
    zero and has no corolla; it maps to the zero operator of its degree.
    """
    m = field.degree + 1
    if m < 0:
        return PolyDiffOp.zero(field.dim, field.degree)
    return graph_operator(gamma0(m), [field]).scale(hkr_weight(m))


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


def xi_matrix(mc):
    """Matrix with entries sum_alpha eta_alpha d(d_j omega^i_alpha).

    Its rows hold the nonzero entries, each at the lowest cap among the
    twisting fields, the container cap.  Only stored components are
    visited, and a first partial that vanishes is not differentiated
    again.
    """
    dim = mc.dim
    caps = [s.cap for f in mc.fields for s in f.comps.values()]
    cap = min(caps) if caps else DEFAULT_CAP
    rows = [{} for _ in range(dim)]
    for alpha, field in enumerate(mc.fields, 1):
        for (i,), comp in field.comps.items():
            for j in range(1, dim + 1):
                dcomp = comp.partial(j)
                if dcomp.is_zero():
                    continue
                for k in range(1, dim + 1):
                    c = dcomp.partial(k)
                    if c:
                        rows[i - 1].setdefault(j - 1, {})[(alpha,), (k,)] = c
    return SeriesMatrix._make(
        [{j: EtaFormScalar._make(dim, cap, t) for j, t in sorted(row.items())}
         for row in rows], EtaFormScalar._make(dim, cap, {}))


def theta_and_det(xi):
    """det(exp Theta) = exp(Tr Theta) with Theta = theta(Xi).

    theta(x) = -(1/2) log((e^{x/2} - e^{-x/2})/x) is weights.theta_series;
    its x^l coefficient is (-1)^{l(l-1)/2} W_l / l, zero for odd l.  So
    Tr Theta = sum_k theta_{2k} Tr Xi^{2k}, and only that trace is built,
    from half the powers: Tr Xi^{2k} = sum_{i,j} (Xi^k)_{ij} (Xi^k)_{ji},
    one flat sum over the products.  Every term of every entry must carry
    a dt (ValueError otherwise), so Tr Xi^{2k} = 0 once 2k exceeds the
    number d of dt generators: only Xi^k with k <= d/2 is built, and the
    loop stops early at the first zero power.

    The powers are SeriesMatrix products, which take no product of a zero
    entry.  That changes nothing here: every sum and product takes the
    lowest cap of its operands, and a nonzero Xi puts its lowest entry
    cap on Tr Xi^2, so each piece is built at that cap.
    """
    if not xi.all_even_grade():
        raise ValueError("Xi entries must have even total grade")
    entries = [xi.zero] + [e for row in xi.rows for e in row.values()]
    if any(not form for e in entries for _, form in e.terms):
        raise ValueError("every term of every Xi entry must carry a dt")
    dim, cap = xi.zero.dim, min(e.cap for e in entries)
    theta = theta_series(2 * (dim // 2))
    pieces = [xi.zero]
    for k, power in islice(nilpotent_powers(xi, dim), dim // 2):
        rows = power.rows
        trace = sparse_sum(pair for i, row in enumerate(rows)
                           for j, e in row.items() if i in rows[j]
                           for pair in (e * rows[j][i]).terms.items())
        pieces.append(EtaFormScalar._make(dim, cap, trace).scale(
            theta.coefficient((2 * k,))))
    return EtaFormScalar._make(
        dim, min(p.cap for p in pieces),
        sparse_sum(pair for p in pieces for pair in p.terms.items())).exp()


def closed_form_map(mc, field):
    """hkr(det(exp Theta) ^ field): each eta-word's form of the
    determinant is contracted into field and quantized."""
    det = theta_and_det(xi_matrix(mc))
    return EtaOperator._make(field.dim, sparse_sum(
        (eta, hkr(contract(form, field)))
        for eta, form in det.eta_parts().items()))


# ---------------------------------------------------------------------
# graph side of the twisted first coefficient
# ---------------------------------------------------------------------

def _subset_coefficient(partition, m, theta):
    """(-1)^{m(m-1)/2} (1/m!) prod_i l_i theta_{l_i} for cycle type partition.

    For one 2-cycle it is minus the signed integral of its graph:
    c_Gamma = -mc_weight(wheel_graph((2,), m + 1)).value (Monte Carlo,
    m <= 2).  The relation for other cycle types is not derived yet.
    """
    return hkr_weight(m) * prod(l * theta.coefficient((l,))
                                for l in partition)


def twisted_first_taylor(mc, field):
    """Twisted first Taylor coefficient as an eta-graded operator.

    Sums eta_{alpha_1} .. eta_{alpha_j} c_Gamma U_Gamma(omega_{alpha_1},
    .., omega_{alpha_j}, gamma) over the sets alpha_1 < .. < alpha_j (a
    repeated eta squares to zero) and the surviving labeled graphs, which
    wheel_survivors builds directly; c_Gamma is the subset coefficient of
    the module docstring.  A set stands for its j! orderings, which give
    one signed term: relabelling the cycle vertices by pi permutes the
    center's spokes, so gamma's alternation gives sgn pi, and reordering
    the eta-word gives sgn pi again.  The empty set is the corolla: the
    eta-free part is u_one(field).
    """
    dim = field.dim
    factors = field.degree + 1
    top = min(mc.s, factors)
    theta = theta_series(top + 2) if top >= 2 else None  # j < 2: no cycle

    def terms():
        # theta is even, and a derangement of an odd number of vertices
        # has a cycle of odd length: no odd j has a survivor of weight != 0
        for j in range(0, top + 1, 2):
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
    return univariate([b / factorial(n) for n, b
                       in enumerate(bernoulli_numbers(order))])


def tilde_todd_series(order):
    """q~(x) = x / (e^{x/2} - e^{-x/2}), the symmetrized Todd series.

    q~(x) = q(x) e^{-x/2}, so q~_n = (2^{1-n} - 1) B_n / n!.
    """
    return univariate([(Fraction(2) ** (1 - n) - 1) * b / factorial(n)
                       for n, b in enumerate(bernoulli_numbers(order))])
