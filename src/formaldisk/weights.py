"""Graph weights: closed-form wheel values and Monte Carlo integration.

The closed-form side reads the modified Bernoulli generating series

    sum_l  s_hat_l x^l = (1/2) log((e^{x/2} - e^{-x/2}) / x)

off the Bernoulli numbers (B_1 = +1/2): s_hat_l = B_l / (2l l!) for even
l >= 2, zero otherwise.  It sets  W_l = -(-1)^{l(l+1)/2} l s_hat_l,  so
W_1 = 0, W_2 = 1/24, W_3 = 0, W_4 = 1/1440.  theta = -s_hat is the
series of the determinant factor.

The Monte Carlo side integrates the wedge of hyperbolic angle forms

    phi(p, q) = arg((q - p)/(q - conj p)) / (2 pi)

over the quotient of the configuration space of n points in the upper
half-plane and m ordered points on the real line by z -> a z + b
(a > 0).  The gauge puts the first aerial point at i; the remaining
aerial points are sampled through the unit-disk chart w = (z-i)/(z+i)
(polar coordinates radius in (0,1), angle in (0,2pi)) and ground points
through their boundary angle in (0,2pi), which is an orientation
preserving change of variables, so the integrand is simply the
determinant of the Jacobian of the edge angles with respect to the
sample coordinates.  Edge rows follow the canonical edge order of the
graph; columns are (radius_2, angle_2, ..., radius_n, angle_n,
ground_1, ..., ground_m).

That Jacobian is never built.  Its determinant is the one taken in the
Cartesian coordinates of the points, times the chart's positive
Jacobian determinant.  An edge row is nonzero only in the columns of
its endpoints, so Laplace expansion along each vertex's block of columns
turns the determinant into a signed sum of products of 2x2 (aerial) and
1x1 (ground) minors.  The terms are found once per graph (_det_plan):
l - 1 of them for the l-wheel, one for gamma0(m), none for a graph whose
Jacobian is singular for every sample.

Plain uniform sampling has log-divergent variance: the Jacobian
determinant grows like 1/dist near a collision of two vertices joined
by an edge, and like 1/|1-w| when a sampled vertex escapes to the
boundary point w = 1 (the point at infinity of the half-plane).  Pairs
joined by a 2-cycle are harmless (their two angle rows share the
singular angular differential, which cancels in the determinant), and
so are collisions with the gauge point, whose polar chart absorbs the
angular blow-up.  The sampler therefore mixes the uniform draw with
log-radial proposal kernels (area density proportional to 1/dist^2 in
the disk chart) centered at every singular locus: the partner's w for
sampled pairs joined by an edge, exp(i alpha) for aerial-ground edges,
and w = 1 for each sampled vertex.  Each sample is weighted by the
reciprocal mixture density, which keeps the estimator unbiased, makes
the variance finite, and leaves graphs without sampled aerial vertices
(the corollas) untouched.

Samples come in chunks of CHUNK, each with its own counter-indexed
random stream, drawn and evaluated a block of BLOCK samples at a time,
so a chunk's memory is that of one block whatever CHUNK is.  Each array
of draws reads its own generator, advanced to where the array starts in
the chunk's stream, so a block draws just its own rows and gets the
values a whole-chunk draw would give it; and every array a block uses
is asked for where it is first written and carved from one array made
once per chunk (_arena), which keeps the allocator from faulting the
block's arrays in anew.  A block runs the kernel redraws, the in-disk
test 0 < r < 1, and only on the in-disk samples the mixture density,
the chart, the determinant and the collision filter.  A sample that
leaves the disk costs its draws and is counted as discarded.  No libm
sin or cos runs per sample: the direction of an angle theta comes from
one tangent t = tan(theta/2) as (1 - t^2, 2t) / (1 + t^2), and a ground
point's t also gives its chart point -1/t and chart factor
(1 + 1/t^2) / 2.  The points stay Cartesian from the base draw on; a
redraw writes the new point and its radius sqrt(x^2 + y^2).

Each quantity is computed once.  What depends on the graph alone is
built once per chunk: the determinant plan with the collision pairs
that no edge joins and the partials' (2 pi)^E (_det_plan), and the
components' moved vertices, centres and coin intervals (_mixture_plan).
Within a block, an edge's squared distance |z_q - z_p|^2, the
denominator of its partials, is also the collision filter's test for
that pair, and the filter measures only the pairs no edge joins.  The
ground angles are sorted by a min/max network over their rows, not by
a sort of each sample.  None of this changes a floating-point operation
of a sample, so the chunk sums are those of the kernel that computed
every quantity where it was used (tests/helpers.py keeps it).

The reported weight carries the orientation prefactor
(-1)^{E(E-1)/2} on top of the raw integral.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from itertools import combinations

import numpy as np

from .series import (Q0, bernoulli_numbers, exp_series, series_at,
                     univariate)

TWO_PI = 2.0 * math.pi
COLLISION_MARGIN = 1e-9
CHUNK = 250_000
BLOCK = 4096
KERNEL_RMIN = 1e-4
KERNEL_RMAX = 2.0
KERNEL_LOG = math.log(KERNEL_RMAX / KERNEL_RMIN)
BASE_WEIGHT = 0.5
# the largest m and E for which m! (mc_weight's volume) and (2 pi)^E
# (_det_plan's norm) are floats
MAX_GROUND = 170
MAX_EDGES = 386
# Cache rows carry this fingerprint and hit only on an exact match.  Bump
# the version whenever a change can move a chunk's sums, even in the last
# bits.
SAMPLER_VERSION = 4
SAMPLER = ("v%d chunk=%d rmin=%r rmax=%r base=%r margin=%r"
           % (SAMPLER_VERSION, CHUNK, KERNEL_RMIN, KERNEL_RMAX, BASE_WEIGHT,
              COLLISION_MARGIN))


# ---------------------------------------------------------------------
# closed-form wheel weights
# ---------------------------------------------------------------------

@functools.cache
def theta_series(order):
    """-(1/2) log((e^{x/2} - e^{-x/2})/x), the matrix-logarithm series.

    theta_k = -s_hat_k = -B_k / (2k k!).  Built once per process and
    order, one shared series.  Its x^k coefficient does not depend on the
    order.
    """
    return univariate([-modified_bernoulli(k) for k in range(order + 1)])

def modified_bernoulli(l):
    """s_hat_l = B_l / (2l l!) for even l >= 2, zero otherwise."""
    if l < 0:
        raise ValueError("negative index")
    if l == 0 or l % 2:
        return Q0
    return bernoulli_numbers(l)[l] / (2 * l * math.factorial(l))

def wheel_weight_closed(l):
    """W_l = -(-1)^{l(l+1)/2} l s_hat_l; zero for odd l."""
    if l < 1:
        raise ValueError("wheel length must be >= 1")
    sign = (-1) ** (((l + 1) * l // 2) % 2)
    return -sign * l * modified_bernoulli(l)

def inverse_sqrt_sinh_quotient(order):
    """sqrt(x / (e^{x/2} - e^{-x/2})) = exp(theta) as a series."""
    return series_at(exp_series(order, 1), theta_series(order))


# ---------------------------------------------------------------------
# Monte Carlo weight estimation
# ---------------------------------------------------------------------

@dataclass
class WeightEstimate:
    value: float          # signed weight, orientation prefactor included
    stderr: float
    integral: float       # raw integral of the angle-form wedge
    prefactor: int
    samples: int
    discarded: int
    seed: int
    workers: int
    digest: str

    def to_json(self):
        return asdict(self)


def _kernel_components(graph):
    """Importance-sampling components for the singular loci of a graph.

    Returns tuples ("pair", j, k) — redraw sampled vertex k near sampled
    vertex j's disk image; ("ground", j, l) — redraw sampled vertex j
    near the boundary image of ground point l; ("inf", j, None) — redraw
    j near w = 1.  Vertex 1 is the gauge point and never participates.
    """
    n = graph.n
    joined = sorted({(min(s, t), max(s, t)) for s, t in graph.edges})
    return ([("pair", a, b) if b <= n else ("ground", a, b - n)
             for a, b in joined if 2 <= a <= n]
            + [("inf", j, None) for j in range(2, n + 1)])


def _det_plan(graph):
    """The edge-angle determinant as a signed sum of block-minor products.

    A sampled vertex owns two columns of the Jacobian and a ground point
    one, and an edge row is nonzero only in the columns of its endpoints
    (the gauge point owns none).  Laplace expansion along these column
    blocks leaves one term per way to hand every edge to one of its
    endpoints so that each sampled vertex gets two edges and each ground
    point one.  The term is the product of the blocks' 2x2 (or 1x1)
    minors, signed by the order of the rows when the blocks' rows are
    concatenated in column order.  A graph with no such term has a
    structurally singular Jacobian, and its integrand is 0.

    With A, B, C an edge's Im(u - v), Re(u - v), Re(u + v) (see
    _block_values), its Cartesian partials are -(A, C) at its source,
    (A, B) at an aerial target and A at a ground target.  The sources'
    minus signs are folded into the terms' signs.

    Returns (src, tgt, minors, grounds, terms, signs, ends, apart, norm):
    src and tgt index every edge's endpoints (0-based, aerial vertices
    first, then ground); minors = (e1, e2, k1, k2) arrays, one entry per
    2x2 minor A[e1] Y[k2] - A[e2] Y[k1], where Y stacks every edge's C
    and then every edge's B (k = e at the edge's source, E + e at its
    target); grounds holds the edge of each 1x1 minor A[e]; terms indexes
    each term's factors, the 2x2 minors first and then the 1x1 ones, and
    signs holds each term's sign; ends gathers x and y at every edge's
    source and then at its target from a table of the points' x rows
    above their y rows, and apart does the same for the pairs of points
    that no edge joins, the only ones the collision filter measures on
    its own; norm = (2 pi)^E, the partials' common denominator.
    """
    n, m = graph.n, graph.m
    edges = graph.edges
    e_count = len(edges)
    blocks = range(2, n + m + 1)            # column order
    rows = {v: [] for v in blocks}
    found = []                               # (sign, blocks' row tuples)
    cap = {v: 2 if v <= n else 1 for v in blocks}
    # a vertex's edges not yet handed out minus the rows it still lacks:
    # an edge handed to one end lowers only the other end's, and a branch
    # that takes any below 0 can end in no term
    slack = {v: sum(v in edge for edge in edges) - cap.get(v, 0)
             for v in range(1, n + m + 1)}

    def assign(e):
        if e == e_count:
            order = [f for v in blocks for f in rows[v]]
            flips = sum(a > b for i, a in enumerate(order)
                        for b in order[i + 1:])
            flips += sum(edges[f][0] == v for v in blocks for f in rows[v])
            found.append((-1.0 if flips % 2 else 1.0,
                          [(v, tuple(rows[v])) for v in blocks]))
            return
        for v, w in (edges[e], edges[e][::-1]):
            if v >= 2 and len(rows[v]) < cap[v] and slack[w]:
                rows[v].append(e)
                slack[w] -= 1
                assign(e + 1)
                slack[w] += 1
                rows[v].pop()

    if min(slack.values()) >= 0:
        assign(0)
    minors = sorted({key for _, t in found for key in t if key[0] <= n})
    singles = sorted({key for _, t in found for key in t if key[0] > n})
    index = {key: i for i, key in enumerate(minors + singles)}

    def slot(e, v):
        return e if edges[e][0] == v else e_count + e

    def stacked(pairs):                     # rows of x, then of y, per end
        first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        return np.concatenate((first, first + n + m, second, second + n + m))

    joined = {frozenset(edge) for edge in edges}
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2) - 1
    return (ends[:, 0], ends[:, 1],
            np.array([(e1, e2, slot(e1, v), slot(e2, v))
                      for v, (e1, e2) in minors],
                     dtype=np.intp).reshape(-1, 4).T,
            np.array([e for _, (e,) in singles], dtype=np.intp),
            np.array([[index[key] for key in t] for _, t in found],
                     dtype=np.intp).reshape(len(found), n - 1 + m),
            np.array([sign for sign, _ in found]), stacked(ends),
            stacked([(a - 1, b - 1)
                     for a, b in combinations(range(1, n + m + 1), 2)
                     if frozenset((a, b)) not in joined]),
            TWO_PI ** e_count)


def _mixture_plan(graph):
    """The chunk's constants of the kernel redraw and mixture density.

    None for a graph with no kernel component.  Otherwise (starts, v, c,
    around, weight): the start of each component's interval of the
    coin, the row of the vertex it moves and the row of its centre in
    the table of centres, the rows of x at both and then of y at both in
    that table with its x rows above its y rows, and p_comp / KERNEL_LOG,
    the weight of the kernels' sum in the density.
    """
    comps = _kernel_components(graph)
    if not comps:
        return None
    sampled = graph.n - 1
    p_comp = (1.0 - BASE_WEIGHT) / len(comps)
    v = np.array([b if kind == "pair" else a for kind, a, b in comps]) - 2
    c = np.array([a - 2 if kind == "pair" else sampled + b - 1
                  if kind == "ground" else sampled + graph.m
                  for kind, a, b in comps])
    centres = sampled + graph.m + 1
    return (BASE_WEIGHT + p_comp * np.arange(len(comps)), v, c,
            np.concatenate((v, c, v + centres, c + centres)),
            p_comp / KERNEL_LOG)


def _direction(t, out):
    """(cos theta, sin theta) from t = tan(theta/2), with no libm sin/cos.

    Written into out = (c, s); t is left as it is.  s is 2 (t / q)
    rather than (2 t) / q: a factor of 2 is exact, so the two round
    alike.
    """
    c, s = out
    np.multiply(t, t, out=s)
    np.subtract(1.0, s, out=c)
    s += 1.0                                          # q = 1 + t^2
    c /= s
    np.divide(t, s, out=s)
    s *= 2.0
    return c, s


def _sort_rows(a, low):
    """Sort a down its first axis in place, as np.sort(a, axis=0) would.

    An odd-even transposition network of np.minimum and np.maximum:
    len(a) rounds of compare-exchanges of neighbouring rows, each a
    whole-row operation, where np.sort would sort every column apart.
    low is the row the exchanges work in.  For values that are not NaN
    the result equals np.sort's.
    """
    for start in range(len(a)):
        for k in range(start % 2, len(a) - 1, 2):
            np.minimum(a[k], a[k + 1], out=low)
            np.maximum(a[k], a[k + 1], out=a[k + 1])
            a[k] = low
    return a


_arena_words = 256 * BLOCK    # doubles: 8 MiB, above a 4-wheel block's 6.5


def _arena():
    """(buf, reset): the arrays of one block, carved from one array.

    buf(rows, cols, dtype) carves the next rows * cols items of an array
    of doubles, viewed as dtype (float, np.bool_ or np.intp), as a
    C-contiguous (rows, cols) array, or (cols,) for rows None; reset()
    hands them all back for the next block.  The array is made once per
    arena, that is per chunk, of _arena_words doubles; a block that
    needs more gets its overflowing arrays one by one, and the reset
    after it makes the array a sixteenth larger than that block's need.

    One allocation, not one per array, keeps a chunk from faulting:
    freed at a chunk's end, it lifts glibc's mmap and trim thresholds,
    and the next chunk's array takes the same heap pages again, where
    arrays of 128 KiB or more made one by one would be faulted in anew.
    One size for every graph up to the 4-wheel lets the graphs of a
    process share those pages, where a larger array per larger graph
    would leave the smaller ones resident as free heap; pages a block
    never touches cost no memory.  buf is a closure, as cheap as a lookup.
    """
    data = views = None
    top = size = 0

    def buf(rows, cols, dtype=float):
        nonlocal top
        count = cols if rows is None else rows * cols
        start = top
        if dtype is float:
            top = end = start + count
            flat = data[start:end]
        else:
            view, per = views[dtype]                  # items per double
            top = end = start - (-count // per)
            flat = view[start * per:start * per + count]
        if end > size:
            flat = np.empty(count, dtype)
        return flat if rows is None else flat.reshape(rows, cols)

    def reset():
        nonlocal data, views, top, size
        global _arena_words
        if data is None or top > size:
            _arena_words = size = max(_arena_words, top + top // 16)
            data = np.empty(size)
            views = {dtype: (data.view(dtype), 8 // np.dtype(dtype).itemsize)
                     for dtype in (np.bool_, np.intp)}
        top = 0

    reset()
    return buf, reset


def _take(a, index, out, axis=None):
    """a.take(index, axis) written into out.  numpy's default "raise"
    mode would go through a temporary; every index here is in range."""
    return a.take(index, axis=axis, out=out, mode="clip")


def _block_values(plan, mix, r, ang, alpha, coin=None, rho_u=None,
                  turn=None, *, buf):
    """Integrand of one block of draws, and the number of samples dropped.

    plan is _det_plan's and mix _mixture_plan's.  r and ang hold the
    sampled vertices' radii and angles, alpha the ground points' angles
    in any order, one sample per row; coin, rho_u and turn are the kernel
    draws.  Every angle is in turns.  buf is the chunk's _arena: each
    array the block computes, the integrand returned too, is asked of it
    where it is first written, with its rows, columns and dtype, and
    holds until the arena is reset.  Only np.flatnonzero's
    lists of the moved and of the in-disk samples are new arrays.

    The work runs on one row per coordinate, so that gathering a
    vertex's or an edge's values is a contiguous copy, and the x rows
    of a table sit above its y rows, so that one take gathers both.  The
    points are the rows of one centre table: the sampled points, the
    ground points' boundary images e^{i alpha}, then w = 1.  The coin
    picks at most one component per sample, which moves its vertex to
    the centre plus the offset; so a pair's centre is always the
    partner's base draw.  The integrand is returned for the in-disk
    samples only, 0 where the collision filter drops one.

    On them the determinant is taken in Cartesian coordinates
    z = x + iy of the points, times the chart's Jacobian determinant:
    4 r / |1 - w|^4 per sampled vertex and dq/dalpha per ground point,
    both positive.  Edge p -> q with u = 1/(z_q - z_p), v = 1/(z_q -
    conj z_p) has the partials of _det_plan, each over 2 pi.  The
    squared distance |z_q - z_p|^2 behind u is also the one the
    collision filter tests for the pair (p, q).
    """
    src, _, (e1, e2, k1, k2), grounds, terms, signs, ends, apart, norm = plan
    size, sampled, m = len(r), r.shape[1], alpha.shape[1]
    r, ang, alpha = (np.positive(a.T, out=buf(a.shape[1], size))  # copied
                     for a in (r, ang, alpha))        # to a row per column
    ang *= np.pi
    _sort_rows(alpha, buf(None, size))
    alpha *= np.pi
    t = np.tan(alpha, out=alpha)
    centres = sampled + m + 1 if mix else sampled
    p = buf(2 * centres, size)
    px, py = p[:centres], p[centres:]
    _direction(np.tan(ang, out=ang), (px[:sampled], py[:sampled]))
    px[:sampled] *= r
    py[:sampled] *= r
    if mix:
        starts, v, c, around, weight = mix
        _direction(t, (px[sampled:-1], py[sampled:-1]))
        px[-1], py[-1] = 1.0, 0.0
        # the component whose interval holds the coin: as searchsorted's
        # right side, the count of interval starts at or below the coin
        below = np.less_equal(starts[:, None], coin,
                              out=buf(len(starts), size, np.bool_))
        pick = np.sum(below, axis=0, out=buf(None, size, np.intp))
        pick -= 1
        moved = np.flatnonzero(np.greater_equal(
            pick, 0, out=buf(None, size, np.bool_)))
        count = len(moved)
        pick = _take(pick, moved, buf(None, count, np.intp))
        # flat indices of each moved sample's centre and vertex
        at = _take(c, pick, buf(None, count, np.intp))
        to = _take(v, pick, buf(None, count, np.intp))
        for index in (at, to):
            index *= size
            index += moved
        u = _take(turn, moved, buf(None, count))
        u *= np.pi
        ox, oy = _direction(np.tan(u, out=u), buf(2, count))
        rho = _take(rho_u, moved, buf(None, count))
        rho *= KERNEL_LOG
        np.exp(rho, out=rho)
        rho *= KERNEL_RMIN
        ox *= rho
        oy *= rho
        wx = _take(px, at, buf(None, count))
        wy = _take(py, at, buf(None, count))
        wx += ox
        wy += oy
        px.put(to, wx)
        py.put(to, wy)
        wx *= wx
        wy *= wy
        wx += wy
        r.put(to, np.sqrt(wx, out=wx))
    inside = np.greater(r, 0.0, out=buf(sampled, size, np.bool_))
    inside &= np.less(r, 1.0, out=buf(sampled, size, np.bool_))
    keep = np.flatnonzero(np.all(inside, axis=0,
                                 out=buf(None, size, np.bool_)))
    kept = len(keep)
    if kept < size:
        r, p, t = (_take(a, keep, buf(len(a), kept), axis=1)
                   for a in (r, p, t))
        px, py = p[:centres], p[centres:]
    denom = 1.0
    if mix:
        # the mixture density: each component's kernel around its centre,
        # from x and y at its vertex and at its centre
        comps = len(v)
        d2, centre, k, centre_y = _take(
            p, around, buf(4 * comps, kept), axis=0).reshape(4, comps, kept)
        d2 -= centre
        np.square(d2, out=d2)
        k -= centre_y
        d2 += np.square(k, out=k)
        _take(r, v, k, axis=0)
        k /= np.maximum(d2, KERNEL_RMIN ** 2, out=centre)
        near = np.greater_equal(d2, KERNEL_RMIN ** 2,
                                out=buf(comps, kept, np.bool_))
        near &= np.less_equal(d2, KERNEL_RMAX ** 2,
                              out=buf(comps, kept, np.bool_))
        np.copyto(k, 0.0, where=np.logical_not(near, out=near))
        denom = np.sum(k, axis=0, out=buf(None, kept))
        denom *= weight
        denom += BASE_WEIGHT

    # the disk chart z = i(1+w)/(1-w), with |1-w|^2 from 1 - w = a - ib:
    # x holds the gauge point, the sampled points and the ground points
    rc = np.clip(r, 1e-12, 1.0 - 1e-12, out=buf(sampled, kept))
    scale = np.divide(rc, r, out=buf(sampled, kept))
    a, b = px[:sampled], py[:sampled]
    a *= scale
    np.subtract(1.0, a, out=a)
    b *= scale
    d = a
    d *= a
    d += np.multiply(b, b, out=scale)
    xy = buf(2 * (sampled + 1 + m), kept)
    x, y = xy[:sampled + 1 + m], xy[sampled + 1 + m:]
    x[0], y[0], y[sampled + 1:] = 0.0, 1.0, 0.0
    b *= -2.0
    np.divide(b, d, out=x[1:sampled + 1])
    one_less = np.subtract(1.0, rc, out=scale)
    one_less *= np.add(1.0, rc, out=b)
    np.divide(one_less, d, out=y[1:sampled + 1])
    np.divide(-1.0, t, out=x[sampled + 1:])
    rc *= 4.0
    d *= d
    rc /= d
    t *= t
    np.divide(0.5, t, out=t)
    t += 0.5
    chart = np.prod(rc, axis=0, out=buf(None, kept))   # 4 r / |1 - w|^4
    chart *= np.prod(t, axis=0, out=buf(None, kept))    # dq/dalpha
    chart /= norm

    # x and y at every edge's source, then at its target
    e_count = len(src)
    at_src, at_tgt = _take(xy, ends, buf(4 * e_count, kept),
                           axis=0).reshape(2, 2 * e_count, kept)
    diff = np.subtract(at_tgt, at_src, out=buf(2 * e_count, kept))
    dx, dy = diff[:e_count], diff[e_count:]
    sy = at_tgt[e_count:]
    sy += at_src[e_count:]
    squares = np.multiply(diff, diff, out=at_src)
    dx2, dist2 = squares[:e_count], squares[e_count:]
    dist2 += dx2
    # collision margin: drop samples with near-coincident points, here
    # those of an edge, whose |z_q - z_p|^2 is also u's denominator
    close = np.less(dist2, COLLISION_MARGIN ** 2,
                    out=buf(e_count, kept, np.bool_))
    drop = np.any(close, axis=0, out=buf(None, kept, np.bool_))
    inv_n = np.divide(1.0, dist2, out=dist2)
    inv_d = np.multiply(sy, sy, out=at_tgt[:e_count])
    inv_d += dx2
    np.divide(1.0, inv_d, out=inv_d)
    im_diff = sy                                      # Im(u - v)
    im_diff *= inv_d
    dy *= inv_n
    im_diff -= dy
    re = buf(2 * e_count, kept)
    np.add(inv_n, inv_d, out=re[:e_count])            # Re(u + v)
    np.subtract(inv_n, inv_d, out=re[e_count:])       # Re(u - v)
    re[:e_count] *= dx
    re[e_count:] *= dx
    factors = buf(len(e1) + len(grounds), kept)
    minors = _take(im_diff, e1, factors[:len(e1)], axis=0)
    minor = buf(len(e1), kept)
    minors *= _take(re, k2, minor, axis=0)
    other = _take(im_diff, e2, buf(len(e1), kept), axis=0)
    other *= _take(re, k1, minor, axis=0)
    minors -= other
    _take(im_diff, grounds, factors[len(e1):], axis=0)
    # each term's factors multiplied left to right
    prods = _take(factors, terms[:, 0], buf(len(terms), kept), axis=0)
    factor = buf(len(terms), kept)
    for col in range(1, terms.shape[1]):
        prods *= _take(factors, terms[:, col], factor, axis=0)
    dets = np.matmul(signs, prods, out=buf(None, kept))
    dets *= chart

    hit = buf(None, kept, np.bool_)
    if len(apart):                                    # pairs no edge joins
        # x and y at each pair's first point, then at its second
        pairs = len(apart) // 4
        gap, end = _take(xy, apart, buf(4 * pairs, kept),
                         axis=0).reshape(2, 2 * pairs, kept)
        gap -= end
        np.square(gap, out=gap)
        gap[:pairs] += gap[pairs:]
        close = np.less(gap[:pairs], COLLISION_MARGIN ** 2,
                        out=buf(pairs, kept, np.bool_))
        drop |= np.any(close, axis=0, out=hit)
    np.isfinite(dets, out=hit)
    drop |= np.logical_not(hit, out=hit)
    dets /= denom
    np.copyto(dets, 0.0, where=drop)
    return dets, size - kept + int(np.count_nonzero(drop))


def _chunk_sums(args):
    """One deterministic chunk: returns (sum, sumsq, kept, discarded).

    The chunk's random stream, read in a fixed order, depends on (chunk
    index, seed) alone, so the result depends on (graph, chunk index,
    chunk size, seed) alone.  It is drawn BLOCK samples at a time: each
    of the six arrays (radii, angles, ground angles, coin, kernel radius
    and kernel angle) reads its own PCG64 on the chunk's seed, advanced
    to where the array starts in the stream, and each block draws only
    its own rows of them.  PCG64 spends one 64-bit output per double, so
    a block gets the values a draw of the whole chunk would give it, and
    an array with no columns reads nothing.  A block's draws, like every
    array it computes, are carved from the chunk's _arena, reset for the
    next block; the plans are built once per chunk.

    Both halves keep a chunk's memory at that of one block, and both
    are needed: with the draws streamed but the block's arrays made one
    by one, no chunk-sized array would lift glibc's mmap and trim
    thresholds any more, and each array of 128 KiB or more would be
    faulted in anew for every block (see _arena).
    """
    graph_json, chunk_index, chunk_size, seed = args
    from .graphs import AdmissibleGraph
    graph = AdmissibleGraph.from_json(graph_json)
    mix = _mixture_plan(graph)
    plan = _det_plan(graph)
    # radii, angles and ground angles (in turns; _block_values sorts the
    # ground angles), then coin, kernel radius and kernel angle
    widths = (graph.n - 1, graph.n - 1, graph.m) + ((1, 1, 1) if mix else ())
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    streams = [np.random.Generator(np.random.PCG64(seq).advance(
        chunk_size * sum(widths[:k]))) for k in range(len(widths))]
    buf, reset = _arena()
    s1 = s2 = 0.0
    discarded = 0
    for lo in range(0, chunk_size, BLOCK):
        size = min(BLOCK, chunk_size - lo)
        reset()
        draws = [stream.random(out=buf(size, width))
                 for stream, width in zip(streams, widths[:3])]
        draws += [stream.random(out=buf(None, size)) for stream in streams[3:]]
        g, dropped = _block_values(plan, mix, *draws, buf=buf)
        s1 += float(g.sum())
        s2 += float(np.multiply(g, g, out=buf(None, len(g))).sum())
        discarded += dropped
    return s1, s2, chunk_size, discarded


def _pool_size(workers, tasks):
    """Processes worth starting: no more than asked, chunks or the cores
    this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(workers, tasks, cores)


def moduli_dimension(graph):
    """Dimension 2(n-1) + m of the gauge-fixed configuration space.

    Raises ValueError unless the graph has an aerial vertex to gauge-fix,
    one edge (one angle form) per dimension, and passes check_size.
    """
    if graph.n < 1:
        raise ValueError("need at least one aerial vertex to gauge-fix")
    dim = 2 * (graph.n - 1) + graph.m
    if len(graph.edges) != dim:
        raise ValueError("form degree %d does not match moduli %d"
                         % (len(graph.edges), dim))
    check_size(graph.m, dim)
    return dim


def check_size(ground, edges):
    """ValueError unless a graph of this many ground vertices and edges
    has at most MAX_GROUND and MAX_EDGES, so that m! and (2 pi)^E are
    floats; callers may ask before the graph is built."""
    if ground > MAX_GROUND or edges > MAX_EDGES:
        raise ValueError("m! and (2 pi)^E are floats only for at most %d "
                         "ground vertices and %d edges, got %d and %d"
                         % (MAX_GROUND, MAX_EDGES, ground, edges))


def check_seed(seed):
    """The seed, unless numpy's seed sequences refuse it: ValueError."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


def _count(value, what):
    """value as an int (True counts 1); ValueError unless it is a
    positive integer."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError("need a positive integer " + what)
    return int(value)


def _check_run(samples, seed, workers):
    """(samples, workers) as ints, once they and the seed pass the checks
    made before any work: ValueError otherwise."""
    samples = _count(samples, "sample count")
    check_seed(seed)
    return samples, _count(workers, "worker count")


def mc_weight(graph, samples, seed=0, workers=1, chunk_size=CHUNK):
    """Monte Carlo estimate of the weight of an admissible graph.

    Deterministic for fixed (graph, samples, seed, chunk_size): chunks
    draw from counter-indexed generators and are reduced in index
    order, so the worker count never changes the result.
    """
    n, m = graph.n, graph.m
    e_count = len(graph.edges)
    dim = moduli_dimension(graph)
    samples, workers = _check_run(samples, seed, workers)
    chunk_size = _count(chunk_size, "chunk size")
    volume = (TWO_PI ** (n - 1 + m)) / math.factorial(m)
    prefactor = (-1) ** ((e_count * (e_count - 1) // 2) % 2)
    if dim == 0:
        # zero-dimensional fiber: the integral of the empty wedge is 1
        return WeightEstimate(float(prefactor), 0.0, 1.0, prefactor,
                              samples, 0, seed, workers,
                              graph.canonical_hash())

    gj = graph.to_json()
    tasks = [(gj, idx, min(chunk_size, samples - lo), seed)
             for idx, lo in enumerate(range(0, samples, chunk_size))]

    processes = _pool_size(workers, len(tasks))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_chunk_sums, tasks))
    else:
        results = [_chunk_sums(t) for t in tasks]

    s1, s2, total, discarded = (sum(column) for column in zip(*results))
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    integral = mean * volume
    stderr = math.sqrt(var / total) * volume
    return WeightEstimate(prefactor * integral, stderr, integral, prefactor,
                          total, discarded, seed, workers,
                          graph.canonical_hash())


# ---------------------------------------------------------------------
# persistent cache (JSON lines)
# ---------------------------------------------------------------------

def cache_lookup(path, digest, samples, seed):
    """Find a cached estimate, or None; tolerates missing or corrupt files.

    A row hits only if its sampler fingerprint equals SAMPLER, so rows
    written by another sampler (or before rows carried one) miss.

    Unreadable lines are skipped, a matching row with a numeric field
    missing or not a number too; one warning on stderr counts the lines
    skipped on the way.
    """
    if not os.path.exists(path):
        return None
    hit, bad = None, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    row = None
                if not isinstance(row, dict):
                    bad += 1
                    continue
                if (row.get("digest") == digest
                        and row.get("samples") == samples
                        and row.get("seed") == seed
                        and row.get("sampler") == SAMPLER):
                    numbers = {k: row.get(k) for k in (
                        "value", "stderr", "integral", "prefactor",
                        "samples", "discarded", "seed", "workers")}
                    if all(type(v) in (int, float) for v in numbers.values()):
                        hit = WeightEstimate(digest=digest, **numbers)
                        break
                    bad += 1                  # a field missing or not a number
    except OSError:
        return None
    if bad:
        print("warning: %d unreadable cache line(s) in %s ignored; "
              "missing entries will be recomputed" % (bad, path),
              file=sys.stderr)
    return hit


def cache_store(path, estimate):
    """Append one row: the estimate plus the SAMPLER that produced it."""
    row = dict(estimate.to_json(), sampler=SAMPLER)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def mc_weight_cached(graph, samples, seed=0, workers=1, cache_path="weights.jsonl"):
    _check_run(samples, seed, workers)
    digest = graph.canonical_hash()
    hit = cache_lookup(cache_path, digest, samples, seed)
    if hit is not None:
        return hit, True
    est = mc_weight(graph, samples, seed=seed, workers=workers)
    cache_store(cache_path, est)
    return est, False
