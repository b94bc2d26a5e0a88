"""Structural invariants, powers, connectivity, cliques."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma import (
    INFINITE,
    CliqueCapError,
    Graph,
    bfs_distances,
    clique_number,
    complete_graph,
    complete_bipartite,
    cycle_graph,
    diameter,
    from_edges,
    girth,
    graph_from_spec,
    invariants,
    is_connected,
    max_clique,
    max_power_degree,
    parse_graph6,
    path_graph,
    petersen,
    power_graph,
    shortest_cycle,
    square_lattice_torus,
    star_graph,
    two_degree_profile,
    vertex_connectivity,
)
from distchroma.cli import json_value

import oracles


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))
                 if possible else st.just([]))
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# BFS distances


def test_bfs_path_from_endpoint():
    assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]


def test_bfs_petersen_distance_multiset(petersen_graph):
    fw = oracles.floyd_warshall(petersen_graph)
    for v in range(10):
        mine = bfs_distances(petersen_graph, v)
        assert mine == fw[v]
        assert sorted(mine) == [0] + [1] * 3 + [2] * 6


def test_bfs_disconnected_is_infinite():
    g = from_edges(3, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, INFINITE]


def test_bfs_source_out_of_range():
    with pytest.raises(ValueError):
        bfs_distances(path_graph(3), 3)


# ---------------------------------------------------------------------------
# power graphs


def test_power_p4_gamma2():
    pg = power_graph(path_graph(4), 2)
    assert set(pg.graph.edges) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}


def test_power_petersen_gamma2_is_complete(petersen_graph):
    pg = power_graph(petersen_graph, 2)
    assert pg.graph.m == 45


def test_power_c7_gamma3_is_complete():
    pg = power_graph(cycle_graph(7), 3)
    assert pg.graph.m == 21


def test_power_gamma1_is_base():
    g = petersen()
    assert power_graph(g, 1).graph.bits == g.bits


def test_power_rejects_gamma0():
    with pytest.raises(ValueError):
        power_graph(path_graph(3), 0)


@given(graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_power_adjacency_is_distance_relation(g, gamma):
    pg = power_graph(g, gamma)
    for v in range(g.n):
        dist = bfs_distances(g, v)
        for u in range(g.n):
            expected = u != v and dist[u] <= gamma
            assert pg.graph.has_edge(v, u) == expected


def test_power_degree_bounded_by_m(corpus_lines):
    sample = [ln for ln in corpus_lines if parse_graph6(ln).max_degree() >= 3]
    for line in sample[:: max(1, len(sample) // 300)]:
        g = parse_graph6(line)
        for gamma in (2, 3):
            m_value = max_power_degree(g.max_degree(), gamma)
            pg = power_graph(g, gamma)
            assert pg.graph.max_degree() <= m_value


# ---------------------------------------------------------------------------
# girth / diameter


def test_girth_examples(petersen_graph):
    assert girth(petersen_graph) == 5
    assert girth(path_graph(6)) == INFINITE
    assert girth(complete_graph(4)) == 3


def test_girth_matches_per_edge_oracle(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 400)]:
        g = parse_graph6(line)
        assert girth(g) == oracles.brute_girth(g)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_girth_matches_oracle_random(g):
    assert girth(g) == oracles.brute_girth(g)


def test_layer_girth_matches_oracle_on_powers_and_named_graphs(corpus_lines):
    """The girth read off the BFS layers equals the per-edge oracle on every
    10th corpus graph, its square and its cube, and on the named graphs."""
    for line in corpus_lines[::10]:
        g = parse_graph6(line)
        for target in (g, power_graph(g, 2).graph, power_graph(g, 3).graph):
            assert girth(target) == oracles.brute_girth(target), line
    for spec in ("petersen", "hoffman-singleton", "tutte-coxeter", "torus:5,7", "hex:8,8"):
        g = graph_from_spec(spec)
        assert girth(g) == oracles.brute_girth(g), spec


@pytest.mark.parametrize("g, expected", [
    (cycle_graph(4), 4), (complete_bipartite(3, 3), 4),  # only the even test fires
    (cycle_graph(5), 5), (complete_graph(4), 3),  # only the odd test fires
    (from_edges(7, [(0, 1), (1, 2), (1, 3), (4, 5)]), INFINITE),  # a forest
], ids=["C4", "K33", "C5", "K4", "forest"])
def test_girth_from_one_layer_test(g, expected):
    """An edge inside layer d closes an odd cycle of length 2d+1; a vertex of
    layer d+1 with two neighbors in layer d an even one of length 2d+2."""
    assert girth(g) == expected


def test_shortest_cycle_is_a_girth_cycle(petersen_graph):
    for g in [petersen_graph, cycle_graph(9), complete_graph(5)]:
        cyc = shortest_cycle(g)
        assert cyc is not None and len(cyc) == girth(g)
        for i, v in enumerate(cyc):
            assert g.has_edge(v, cyc[(i + 1) % len(cyc)])
        assert len(set(cyc)) == len(cyc)
    assert shortest_cycle(path_graph(5)) is None


def test_diameter_examples(hoffman_singleton_graph):
    assert diameter(hoffman_singleton_graph) == 2
    assert diameter(star_graph(8)) == 2
    assert diameter(path_graph(9)) == 8
    assert diameter(from_edges(2, [])) == INFINITE


# ---------------------------------------------------------------------------
# vertex connectivity


def test_connectivity_examples(petersen_graph):
    assert vertex_connectivity(petersen_graph) == 3
    assert vertex_connectivity(path_graph(5)) == 1
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(from_edges(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(complete_graph(1)) == 0


def test_connectivity_matches_subset_oracle(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 150)]:
        g = parse_graph6(line)
        if g.n <= 7:
            assert vertex_connectivity(g) == oracles.brute_vertex_connectivity(g)


@given(graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_connectivity_matches_oracle_random(g):
    """Also with a minimum separator relabelled onto the lowest indices,
    where the scan of source vertices starts."""
    kappa = oracles.brute_vertex_connectivity(g)
    assert vertex_connectivity(g) == kappa
    separator = oracles.brute_min_separator(g) or ()
    order = [*separator, *(v for v in range(g.n) if v not in separator)]
    pos = {v: i for i, v in enumerate(order)}
    assert vertex_connectivity(from_edges(g.n, [(pos[u], pos[v]) for u, v in g.edges])) == kappa


def test_connectivity_at_most_min_degree(corpus_lines):
    for line in corpus_lines:
        g = parse_graph6(line)
        assert vertex_connectivity(g) <= g.min_degree() or g.n == 1


# ---------------------------------------------------------------------------
# cliques


def test_clique_examples(petersen_graph):
    assert clique_number(complete_graph(10)) == 10
    assert clique_number(petersen_graph) == 2
    assert clique_number(power_graph(cycle_graph(8), 2).graph) == 3


def test_clique_cap(monkeypatch):
    from distchroma import metrics

    monkeypatch.setattr(metrics, "CLIQUE_CAP", 5)
    with pytest.raises(CliqueCapError):
        clique_number(complete_graph(10))


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_clique_matches_oracle(g):
    assert clique_number(g) == oracles.brute_clique_number(g)


def test_clique_search_frees_the_graph():
    """No reference cycle keeps a searched graph alive: with the cyclic
    collector off, it goes with its last reference."""
    square = power_graph(square_lattice_torus(5, 7), 2).graph
    target = Graph(square.n, square.bits)
    alive = weakref.ref(target)
    gc.disable()
    try:
        assert max_clique(target)[0] == 5
        del target
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# two-degree


def test_two_degree_regular_graph(petersen_graph):
    assert two_degree_profile(petersen_graph) == [9] * 10


def test_two_degree_star_k13():
    # center sums three 1s, each leaf sees the degree-3 center
    assert two_degree_profile(star_graph(4)) == [3, 3, 3, 3]


def test_two_degree_p3():
    assert two_degree_profile(path_graph(3)) == [2, 2, 2]


def test_two_degree_equals_square_degree_iff_girth_5(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 250)]:
        g = parse_graph6(line)
        if g.n < 3:
            continue
        profile = two_degree_profile(g)
        sq = power_graph(g, 2).graph
        equal = all(profile[v] == sq.degree(v) for v in range(g.n))
        assert equal == (girth(g) >= 5)


# ---------------------------------------------------------------------------
# invariant report


def test_invariants_report_petersen(petersen_graph):
    rep = invariants(petersen_graph)
    assert rep.n == 10 and rep.m == 15
    assert rep.max_degree == rep.min_degree == 3
    assert rep.is_regular and not rep.is_bipartite
    assert rep.girth == 5 and rep.diameter == 2 and rep.connectivity == 3
    assert rep.two_degree_regular
    js = json_value(rep)
    assert js["girth"] == 5 and js["is_connected"] is True


def test_invariants_json_encodes_infinite_as_null():
    js = json_value(invariants(path_graph(4)))
    assert js["girth"] is None
    assert math.isinf(invariants(path_graph(4)).girth)


def test_invariants_consistency(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 200)]:
        rep = invariants(parse_graph6(line))
        assert rep.min_degree <= rep.max_degree
        assert rep.is_regular == (rep.min_degree == rep.max_degree)
        if rep.girth != INFINITE:
            assert rep.girth >= 3
        assert rep.connectivity <= max(rep.min_degree, 0)


# ---------------------------------------------------------------------------
# the M quantity


def test_max_power_degree_values():
    assert max_power_degree(3, 2) == 9
    assert max_power_degree(7, 2) == 49
    assert max_power_degree(3, 3) == 21


def test_max_power_degree_rejects_small_parameters():
    with pytest.raises(ValueError):
        max_power_degree(2, 2)
    with pytest.raises(ValueError):
        max_power_degree(3, 1)


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_max_power_degree_is_geometric_sum(delta, gamma):
    assert max_power_degree(delta, gamma) == sum(
        delta * (delta - 1) ** (k - 1) for k in range(1, gamma + 1)
    )


def test_bound_hypotheses_read_the_girth_pass(petersen_graph):
    from distchroma import tutte_coxeter
    from distchroma.coloring import bound_hypotheses

    for g in [petersen_graph, complete_graph(5), tutte_coxeter()]:
        for gamma in (2, 3):
            hyp = bound_hypotheses(g, gamma)
            assert hyp.girth == girth(g) == len(shortest_cycle(g))
