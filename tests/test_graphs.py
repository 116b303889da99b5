from itertools import product
from math import comb, prod

import pytest

from formaldisk import (AdmissibleGraph, classify_wheels,
                        cycle_type_multiplicity, cycle_type_of_wheelish,
                        enumerate_graphs, gamma0, graphs_with_profile,
                        opposite_wheel, vanishing_tag, wheel_graph,
                        wheel_survivors)


def test_edge_count_enforced():
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 1, ())          # needs 2*1+1-2 = 1 edge
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 2, ((1, 2), (1, 3), (1, 2)))  # double edge
    with pytest.raises(ValueError):
        AdmissibleGraph(2, 0, ((1, 1), (2, 1)))          # loop
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 2, ((2, 1), (3, 1)))          # ground source


def test_edges_stored_sorted():
    g = AdmissibleGraph(2, 1, ((2, 3), (1, 3), (1, 2)))
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.out_edges(1) == [(1, 2), (1, 3)]
    assert g.in_degree(3) == 2
    assert g.edge_index((2, 3)) == 2


def test_enumeration_count_closed_form():
    # each aerial vertex independently chooses a subset of its n+m-1
    # allowed targets, so the number of graphs with E edges in total is
    # the coefficient of x^E in (1+x)^{n(n+m-1)}
    for n in range(0, 4):
        for m in range(0, 4):
            for eps in (0, 1):
                e_total = 2 * n + m - 2 - eps
                if e_total < 0:
                    continue
                got = len(enumerate_graphs(n, m, eps))
                want = comb(n * (n + m - 1), e_total) if n else int(e_total == 0)
                assert got == want, (n, m, eps, got, want)


def test_enumeration_rejects_negative_vertex_counts():
    for n, m in ((-1, 2), (1, -3)):
        with pytest.raises(ValueError, match="negative vertex counts"):
            enumerate_graphs(n, m)


def test_negative_defect_is_rejected():
    with pytest.raises(ValueError, match="negative defect"):
        enumerate_graphs(3, 1, -3)
    with pytest.raises(ValueError, match="negative defect"):
        AdmissibleGraph(1, 2, ((1, 2), (1, 3)), epsilon=-1)


def test_single_graph_families():
    assert len(enumerate_graphs(1, 2)) == 1
    assert enumerate_graphs(1, 2)[0] == gamma0(2)
    assert len(enumerate_graphs(0, 2)) == 1
    assert enumerate_graphs(0, 2)[0].edges == ()


def test_enumeration_is_deterministic():
    a = [g.edges for g in enumerate_graphs(2, 1)]
    b = [g.edges for g in enumerate_graphs(2, 1)]
    assert a == b
    assert len(set(a)) == len(a)


def test_vanishing_tags():
    # vertex 2 only relays one edge: in 1, out 1
    g = AdmissibleGraph(3, 0, ((1, 2), (2, 1), (1, 3), (3, 1)), epsilon=0)
    assert vanishing_tag(g) == "transit"
    iso = AdmissibleGraph(3, 1, ((1, 2), (2, 1), (1, 4), (2, 4), (1, 3)))
    # vertex 3 has exactly one incident edge
    assert vanishing_tag(iso) == "pendant"
    transit = AdmissibleGraph(2, 2, ((1, 2), (2, 3), (1, 3), (1, 4)))
    assert vanishing_tag(transit) == "transit"
    healthy = opposite_wheel(2)
    assert vanishing_tag(healthy) is None
    # too few moduli: no conclusion is drawn
    tiny = gamma0(1)
    assert vanishing_tag(tiny) is None


def test_wheel_families_small():
    assert classify_wheels(2, 1) == {(2,): 1}
    assert classify_wheels(3, 2) == {(3,): 2}
    assert classify_wheels(5, 4) == {(5,): 24, (3, 2): 20}
    assert list(classify_wheels(6, 5)) == [(2, 2, 2), (3, 3), (4, 2), (6,)]
    assert classify_wheels(0, 2) == {(): 1}


def test_cycle_type_multiplicity_values():
    # permutations of 4 letters: one 4-cycle class has 6 elements,
    # the 2+2 class has 3
    assert cycle_type_multiplicity((4,)) == 6
    assert cycle_type_multiplicity((2, 2)) == 3
    assert cycle_type_multiplicity((3, 2)) == 20
    assert cycle_type_multiplicity(()) == 1


def test_wheel_graph_shapes():
    w = opposite_wheel(3)
    assert (w.n, w.m) == (4, 0)
    assert len(w.edges) == 6
    assert w.out_degree(4) == 3          # the center feeds every rim vertex
    for v in (1, 2, 3):
        assert w.out_degree(v) == 1
        assert w.in_degree(v) == 2
    g = wheel_graph((2,), 2)             # j=2, p=2 -> one ground vertex
    assert (g.n, g.m) == (3, 1)
    assert g.out_degree(3) == 3
    assert cycle_type_of_wheelish(g, 2) == (2,)


@pytest.mark.parametrize("partition", [(0,), (1,), (2, 1), (-1,)])
def test_wheel_graph_rejects_cycles_shorter_than_two(partition):
    with pytest.raises(ValueError, match="cycle length must be at least 2"):
        wheel_graph(partition, 4)


def test_wheel_graph_reverse_cycles():
    a = wheel_graph((3,), 2)
    b = wheel_graph((3,), 2, reverse_cycles=True)
    assert a != b
    assert cycle_type_of_wheelish(a, 3) == (3,)
    assert cycle_type_of_wheelish(b, 3) == (3,)


def test_cycle_type_of_wheelish_rejections():
    # the corolla's first vertex points at ground, not at a cycle partner
    assert cycle_type_of_wheelish(gamma0(2), 1) is None
    two = AdmissibleGraph(2, 1, ((1, 2), (1, 3), (2, 3)))
    assert cycle_type_of_wheelish(two, 1) is None


def test_profile_filter():
    matches = graphs_with_profile(2, 1, [1, 2])
    assert matches
    for g in matches:
        assert g.out_degree(1) == 1 and g.out_degree(2) == 2


def test_survivors_match_families_j2():
    # brute force at j=2, p=2: everything surviving the vanishing scan
    # is the single 2-cycle family
    profile = [1, 1, 3]
    found = {}
    for g in graphs_with_profile(3, 1, profile):
        if vanishing_tag(g) is not None:
            continue
        ct = cycle_type_of_wheelish(g, 2)
        assert ct is not None
        found[ct] = found.get(ct, 0) + 1
    assert found == {(2,): 1}


def test_graphs_with_profile_is_the_filtered_enumeration():
    # each aerial vertex picks exactly its out-degree of targets among
    # its n+m-1 allowed ones; the other profiles are never built
    for n in range(4):
        for m in range(3):
            for eps in (0, 1):
                e_total = 2 * n + m - 2 - eps
                graphs = enumerate_graphs(n, m, eps)
                for profile in product(range(n + m), repeat=n):
                    got = graphs_with_profile(n, m, list(profile), eps)
                    assert got == [g for g in graphs if all(
                        g.out_degree(v) == k
                        for v, k in enumerate(profile, 1))]
                    want = prod(comb(n + m - 1, k) for k in profile)
                    assert len(got) == (want if sum(profile) == e_total
                                        else 0), (n, m, eps, profile)


def test_wheel_survivors_equal_the_filtered_enumeration():
    # every graph with out-degrees (1,..,1, j+m) that vanishing_tag lets
    # through is a wheel family graph, and wheel_survivors builds exactly
    # these, in the same order
    for j in range(6):
        for m in range(3):
            profile = [1] * j + [j + m]
            expected = []
            for g in graphs_with_profile(j + 1, m, profile):
                if vanishing_tag(g) is None:
                    ctype = cycle_type_of_wheelish(g, j)
                    assert ctype is not None, g
                    expected.append((g, ctype))
            assert wheel_survivors(j, m) == expected
            assert len(expected) == sum(classify_wheels(j, j + m - 1)
                                        .values())


def test_wheel_families_count_the_derangements():
    # the families of j cycle vertices are the cycle types of the
    # fixed-point-free permutations of j letters:
    # D_j = (j - 1)(D_{j-1} + D_{j-2}), D_0 = 1, D_1 = 0
    derangements = [1, 0]
    for j in range(2, 13):
        derangements.append((j - 1) * (derangements[-1] + derangements[-2]))
    for j in range(13):
        assert sum(classify_wheels(j, j).values()) == derangements[j]
    assert derangements[12] == 176_214_841


def test_json_and_hash_stability():
    g = opposite_wheel(2)
    assert AdmissibleGraph.from_json(g.to_json()) == g
    assert g.canonical_hash() == AdmissibleGraph.from_json(g.to_json()).canonical_hash()
    # hash differs between distinct graphs
    assert g.canonical_hash() != gamma0(1).canonical_hash()
