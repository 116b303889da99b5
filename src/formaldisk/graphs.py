"""Admissible directed graphs and their wheel classification.

Vertices are labeled: aerial (first type) vertices are 1..n, ground
(second type) vertices are n+1..n+m.  Edges start at aerial vertices
only, never repeat, and never form loops; a graph with n aerial and m
ground vertices at defect eps carries exactly 2n + m - 2 - eps edges.
Graphs are labeled objects: no isomorphism quotient is taken anywhere.

The canonical edge order (used for rows of the angle-form matrix and
everywhere a sign depends on edge order) is lexicographic: first by
source label, then by target label.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial


@dataclass(frozen=True)
class AdmissibleGraph:
    n: int
    m: int
    edges: tuple
    epsilon: int = 0

    def __post_init__(self):
        edges = tuple(sorted((int(s), int(t)) for s, t in self.edges))
        object.__setattr__(self, "edges", edges)
        v = self.n + self.m
        if self.n < 0 or self.m < 0:
            raise ValueError("negative vertex counts")
        if self.epsilon < 0:
            raise ValueError("negative defect %d" % self.epsilon)
        expected = 2 * self.n + self.m - 2 - self.epsilon
        if len(edges) != expected:
            raise ValueError("edge count %d, admissibility needs %d"
                             % (len(edges), expected))
        seen = set()
        for s, t in edges:
            if not 1 <= s <= self.n:
                raise ValueError("edge source %d is not aerial" % s)
            if not 1 <= t <= v:
                raise ValueError("edge target %d out of range" % t)
            if s == t:
                raise ValueError("loop at vertex %d" % s)
            if (s, t) in seen:
                raise ValueError("double edge %r" % ((s, t),))
            seen.add((s, t))

    # -- combinatorial queries ---------------------------------------

    def out_edges(self, v):
        """Outgoing edges of v in the fixed (target-sorted) order."""
        return [e for e in self.edges if e[0] == v]

    def in_edges(self, v):
        return [e for e in self.edges if e[1] == v]

    def out_degree(self, v):
        return sum(1 for e in self.edges if e[0] == v)

    def in_degree(self, v):
        return sum(1 for e in self.edges if e[1] == v)

    def edge_index(self, edge):
        return self.edges.index(tuple(edge))

    def to_json(self):
        return {"n": self.n, "m": self.m, "epsilon": self.epsilon,
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj):
        """Rebuild a graph from to_json's object; ValueError if malformed."""
        if not isinstance(obj, dict):
            raise ValueError("a graph is a JSON object, got %s"
                             % type(obj).__name__)
        for k in ("n", "m"):
            if k not in obj:
                raise ValueError("a graph needs the field %r" % k)
        if any(type(obj.get(k, 0)) is not int for k in ("n", "m", "epsilon")):
            raise ValueError("n, m and epsilon must be integers")
        edges = obj.get("edges")
        if not isinstance(edges, list) or any(
                not isinstance(e, list) or len(e) != 2
                or any(type(x) is not int for x in e) for e in edges):
            raise ValueError("edges must be a list of integer pairs")
        return cls(obj["n"], obj["m"], tuple(map(tuple, edges)),
                   obj.get("epsilon", 0))

    def canonical_hash(self):
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def enumerate_graphs(n, m, epsilon=0):
    """All labeled admissible graphs with the given vertex counts.

    Deterministic order, vertex by vertex: aerial vertex 1 takes each
    out-degree, smallest first, and for each one each set of that many
    targets in lexicographic order; for each choice vertex 2 does the
    same, and so on.
    """
    return _graphs(n, m, epsilon, None)


def _graphs(n, m, epsilon, out_degrees):
    """enumerate_graphs' graphs, in its order; when out_degrees is given,
    only those whose aerial vertex v has out-degree out_degrees[v - 1]."""
    if n < 0 or m < 0:
        raise ValueError("negative vertex counts")
    if epsilon < 0:
        raise ValueError("negative defect %d" % epsilon)
    out = []

    def rec(v, remaining, edges):
        if v > n:
            if remaining == 0:
                out.append(AdmissibleGraph(n, m, edges, epsilon))
            return
        pool = [u for u in range(1, n + m + 1) if u != v]
        for k in (range(n + m) if out_degrees is None
                  else (out_degrees[v - 1],)):
            # the later vertices can take at most n + m - 1 edges each
            if 0 <= k <= remaining <= k + (n - v) * (n + m - 1):
                for combo in combinations(pool, k):
                    rec(v + 1, remaining - k,
                        edges + tuple((v, t) for t in combo))

    rec(1, 2 * n + m - 2 - epsilon, ())
    return out


# ---------------------------------------------------------------------
# weight-vanishing patterns
# ---------------------------------------------------------------------

def vanishing_tag(graph):
    """Detect local patterns that force the weight integral to vanish.

    Returns None, or one of:
      "isolated": an aerial vertex touching no edge at all (the angle
          form cannot saturate its two moduli, so the top form is
          degenerate),
      "pendant": an aerial vertex touching exactly one edge,
      "transit": an aerial vertex with exactly one incoming and one
          outgoing edge and nothing else (the integral over that vertex
          of the two angle forms cancels by the reflection argument).

    The patterns only apply when the two moduli of the vertex survive
    gauge fixing, i.e. when 2(n-1) + m >= 2; with fewer moduli the
    group absorbs the vertex and no conclusion is drawn.
    """
    if 2 * (graph.n - 1) + graph.m < 2:
        return None
    for v in range(1, graph.n + 1):
        din = graph.in_degree(v)
        dout = graph.out_degree(v)
        if din + dout == 0:
            return "isolated"
        if din + dout == 1:
            return "pendant"
        if din == 1 and dout == 1:
            return "transit"
    return None


# ---------------------------------------------------------------------
# wheel families
# ---------------------------------------------------------------------

def _partitions_min2(j, top=None):
    """Partitions of j into parts >= 2 (and <= top), weakly decreasing
    tuples, largest first part first."""
    if j == 0:
        yield ()
    for part in range(min(j, top or j), 1, -1):
        for rest in _partitions_min2(j - part, part):
            yield (part,) + rest


def cycle_type_multiplicity(partition):
    """Number of permutations of j letters with the given cycle type."""
    j = sum(partition)
    counts = {}
    for part in partition:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for size, cnt in counts.items():
        denom *= factorial(cnt) * size ** cnt
    return factorial(j) // denom


def classify_wheels(j, center_degree):
    """Wheel families for j cycle vertices around a center of degree p.

    Returns {cycle type: number of labeled graphs with it}, the cycle
    types (multisets of cycle lengths summing to j, as weakly decreasing
    tuples) in sorted order.  Requires m = p - j + 1 >= 0 ground
    vertices.  Parts of size one are excluded (they would need a loop).
    j = 0 gives the trivial family.
    """
    if center_degree - j + 1 < 0:
        raise ValueError("no ground vertices left: j > p + 1")
    return {part: cycle_type_multiplicity(part)
            for part in sorted(_partitions_min2(j))}


def wheel_graph(partition, center_degree, reverse_cycles=False):
    """A labeled representative graph for a wheel family.

    Cycle vertices are 1..j in consecutive blocks per part, the center
    is j+1 and points at every cycle vertex and every ground vertex.
    Forward orientation sends each block vertex to its successor.
    """
    if any(part < 2 for part in partition):
        raise ValueError("wheel cycle length must be at least 2, got %r"
                         % (partition,))
    j = sum(partition)
    m = center_degree - j + 1
    if m < 0:
        raise ValueError("j > p + 1")
    edges = []
    start = 1
    for part in partition:
        block = list(range(start, start + part))
        ring = block[::-1] if reverse_cycles else block
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append((a, b))
        start += part
    center = j + 1
    for v in range(1, j + 1):
        edges.append((center, v))
    for g in range(j + 2, j + 2 + m):
        edges.append((center, g))
    return AdmissibleGraph(j + 1, m, tuple(edges))


def gamma0(m):
    """The one-aerial-vertex graph pointing at all m ground vertices."""
    edges = tuple((1, 1 + k) for k in range(1, m + 1))
    return AdmissibleGraph(1, m, edges)


def opposite_wheel(k, reverse_cycle=False):
    """The k-wheel: a k-cycle of rim vertices, each fed by the center.

    No ground vertices: the center's k spokes all point at the rim, so
    the graph has k+1 aerial vertices and 2k edges.
    """
    return wheel_graph((k,), k - 1, reverse_cycles=reverse_cycle)


def graphs_with_profile(n, m, out_degrees, epsilon=0):
    """The graphs of enumerate_graphs whose aerial vertex v has exactly
    out_degrees[v - 1] outgoing edges, in the same order; the graphs of
    other profiles are never built."""
    return _graphs(n, m, epsilon, out_degrees)


def wheel_survivors(j, m):
    """Graphs of out-degree profile (1, .., 1, j + m) that no pattern kills.

    Cycle vertices 1..j send their edge along a fixed-point-free
    permutation sigma of 1..j, and the center j+1 points at every other
    vertex.  Any other edge choice of a cycle vertex leaves some cycle
    vertex a transit vertex, so these are exactly the graphs of
    graphs_with_profile(j + 1, m, profile) that vanishing_tag lets
    through, in the same order (sigma lexicographic).  Returns
    (graph, cycle type) pairs.
    """
    center = j + 1
    spokes = tuple((center, u) for u in range(1, j + m + 2) if u != center)
    out = []
    for sigma in permutations(range(1, j + 1)):
        if any(v == t for v, t in enumerate(sigma, 1)):
            continue
        g = AdmissibleGraph(j + 1, m, tuple(enumerate(sigma, 1)) + spokes)
        out.append((g, cycle_type_of_wheelish(g, j)))
    return out


def cycle_type_of_wheelish(graph, j):
    """Cycle type of the permutation formed by the out-edges of 1..j.

    Returns None unless every one of the first j vertices has a single
    outgoing edge landing in 1..j and these edges form a fixed-point
    free permutation of 1..j.
    """
    succ = {}
    for v in range(1, j + 1):
        out = graph.out_edges(v)
        if len(out) != 1:
            return None
        t = out[0][1]
        if not 1 <= t <= j or t == v:
            return None
        succ[v] = t
    if sorted(succ.values()) != list(range(1, j + 1)):
        return None
    seen = set()
    parts = []
    for v in range(1, j + 1):
        if v in seen:
            continue
        length = 0
        u = v
        while u not in seen:
            seen.add(u)
            u = succ[u]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))
