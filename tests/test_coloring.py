"""Exact solver, closed forms, and the save-a-color machinery."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma import (
    Coloring,
    CompletionFailure,
    Graph,
    PartialColoring,
    SolverBudgetError,
    SolverCapError,
    chromatic_number,
    complete_graph,
    complete_partial_coloring,
    cycle_distance_chromatic,
    cycle_graph,
    distance_chromatic_number,
    dsatur_upper_bound,
    from_edges,
    greedy_coloring,
    max_power_degree,
    normalize_coloring,
    order_by_distance_from_edge,
    parse_graph6,
    path_distance_chromatic,
    path_graph,
    petersen,
    power_graph,
    random_regular,
    save_color_strategy,
    square_lattice_torus,
    star_graph,
    tutte_coxeter,
)
from distchroma import clique_number, detect_moore, girth, is_connected
from distchroma import coloring as coloring_module
from distchroma.coloring import (
    TABUCOL_ITERATIONS, _independence_number, _solve_k, _tabucol)

import oracles

SPIDER = from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])  # legs 1,1,2 at vertex 0


# ---------------------------------------------------------------------------
# exact solver


def test_chromatic_complete_graph():
    k, w = chromatic_number(complete_graph(10))
    assert k == 10 and w.proper_on(complete_graph(10))


def test_chi2_petersen_is_ten(petersen_graph):
    k, w = distance_chromatic_number(petersen_graph, 2)
    assert k == 10
    assert w.proper_on(power_graph(petersen_graph, 2).graph)


def test_chi2_c7_is_four():
    target = power_graph(cycle_graph(7), 2).graph
    assert oracles.brute_chromatic_number(target) == 4
    k, _ = distance_chromatic_number(cycle_graph(7), 2)
    assert k == 4


def test_chi_gamma_examples_from_closed_forms():
    assert distance_chromatic_number(path_graph(5), 3)[0] == 4
    assert distance_chromatic_number(cycle_graph(6), 2)[0] == 3
    assert distance_chromatic_number(star_graph(6), 2)[0] == 6  # square is complete


def test_solver_rejects_disconnected():
    with pytest.raises(ValueError):
        distance_chromatic_number(from_edges(4, [(0, 1), (2, 3)]), 2)


def test_solver_cap():
    with pytest.raises(SolverCapError):
        chromatic_number(complete_graph(10), cap=5)
    with pytest.raises(SolverCapError):
        distance_chromatic_number(path_graph(10), 2, cap=5)


def test_solver_budget_distinct_from_unsat():
    # chi = 6 in the bracket [5, 7], so k = 6 is searched first, with a
    # tiny node budget that also stops Tabucol; the error names the bracket
    g = power_graph(tutte_coxeter(), 2).graph
    with pytest.raises(SolverBudgetError) as err:
        chromatic_number(g, node_budget=3)
    assert err.value.kind == "nodes"
    assert (err.value.lb, err.value.ub) == (5, 7)
    assert "chi in [5, 7]" in str(err.value)
    # on C13 squared, ceil(13/alpha) = ceil(13/4) = 4 = chi: nothing is searched
    assert chromatic_number(power_graph(cycle_graph(13), 2).graph, node_budget=3)[0] == 4


def test_witness_uses_every_color():
    for g in [petersen(), path_graph(6), power_graph(cycle_graph(9), 2).graph]:
        k, w = chromatic_number(g)
        assert sorted(set(w.assignment)) == list(range(k))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_path_closed_form(n, gamma):
    assert path_distance_chromatic(n, gamma) == min(n, gamma + 1)
    got, _ = distance_chromatic_number(path_graph(n), gamma)
    assert got == path_distance_chromatic(n, gamma)


def test_path_closed_form_examples():
    assert path_distance_chromatic(10, 2) == 3
    assert path_distance_chromatic(2, 5) == 2   # fewer vertices than colors
    assert path_distance_chromatic(7, 6) == 7


def test_cycle_closed_form_examples():
    assert cycle_distance_chromatic(9, 2) == 3       # divisible case
    assert cycle_distance_chromatic(7, 2) == 4       # i=3: 7 mod 3 = 1 <= 2
    assert cycle_distance_chromatic(5, 2) == 5       # i=3 fails, i=4 works
    assert cycle_distance_chromatic(3, 5) == 3       # power saturates at K3


def test_closed_forms_reject_bad_input():
    with pytest.raises(ValueError):
        path_distance_chromatic(0, 2)
    with pytest.raises(ValueError):
        cycle_distance_chromatic(2, 2)


# The search must walk the tree of oracles.reference_solve_k: the same
# colorings, the same node count, and so the same budget exhaustion points.
REFERENCE_SEARCHES = {
    "torus:5,5 gamma=3": (square_lattice_torus(5, 5), 3),
    "torus:6,7 gamma=3": (square_lattice_torus(6, 7), 3),
    "tutte-coxeter gamma=2": (tutte_coxeter(), 2),
    "random_regular(40,4,6) gamma=2": (random_regular(40, 4, seed=6), 2),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SEARCHES))
def test_search_walks_the_reference_tree(name):
    g, gamma = REFERENCE_SEARCHES[name]
    target = power_graph(g, gamma).graph
    first = oracles.reference_dsatur(target)
    assert dsatur_upper_bound(target) == normalize_coloring(first)
    upper = normalize_coloring(first).k
    ks = range(clique_number(target), upper)
    assert ks, "the instance must need a search"
    for k in ks:
        expected, nodes = oracles.reference_solve_k(target, k, None, None)
        assert _solve_k(target, k, None, None) == expected, k
        for budget in (1, 7, 100, 1000, nodes - 1, nodes):
            if budget < nodes:
                with pytest.raises(SolverBudgetError):
                    _solve_k(target, k, budget, None)
            else:
                assert _solve_k(target, k, budget, None) == expected, (k, budget)


def test_dsatur_matches_the_reference_on_corpus_powers(corpus_lines):
    for line in corpus_lines[::10]:
        g = parse_graph6(line)
        for gamma in (1, 2, 3):
            target = power_graph(g, gamma).graph
            expected = oracles.reference_dsatur(target)
            assert _solve_k(target, target.n, None, None) == expected, (line, gamma)
            assert dsatur_upper_bound(target) == normalize_coloring(expected)


def test_search_frees_the_graph():
    """No reference cycle keeps a searched graph alive: with the cyclic
    collector off, it goes with its last reference."""
    square = power_graph(tutte_coxeter(), 2).graph
    target = Graph(square.n, square.bits)
    alive = weakref.ref(target)
    gc.disable()
    try:
        k, _ = chromatic_number(target)
        lower = max(clique_number(target), -(-target.n // _independence_number(target)))
        assert lower < k < dsatur_upper_bound(target).k  # so the search ran
        del target
        assert alive() is None
    finally:
        gc.enable()


def test_independence_number_matches_brute_force(corpus_lines):
    for line in corpus_lines[::10]:
        g = parse_graph6(line)
        for gamma in (1, 2, 3):
            target = power_graph(g, gamma).graph
            assert _independence_number(target) == oracles.brute_independence_number(
                target), (line, gamma)


@pytest.mark.parametrize("name", sorted(REFERENCE_SEARCHES))
def test_bracket_keeps_chi_of_the_reference_k_loop(name):
    """chi equals the first k from omega up that the reference search
    colors, or the DSATUR count when none below it does."""
    g, gamma = REFERENCE_SEARCHES[name]
    target = power_graph(g, gamma).graph
    upper = normalize_coloring(oracles.reference_dsatur(target)).k
    expected = next((k for k in range(clique_number(target), upper)
                     if oracles.reference_solve_k(target, k, None, None)[0] is not None),
                    upper)
    assert chromatic_number(target)[0] == expected


@pytest.mark.parametrize("name", sorted(REFERENCE_SEARCHES))
def test_tabucol_is_deterministic_and_proper(name):
    g, gamma = REFERENCE_SEARCHES[name]
    target = power_graph(g, gamma).graph
    start = dsatur_upper_bound(target)
    steps = list(_tabucol(target, start))
    assert steps == list(_tabucol(target, start))
    *running, found = steps
    assert found is not None and running == [None] * len(running)
    assert len(running) <= TABUCOL_ITERATIONS
    coloring = normalize_coloring(found)
    assert coloring.k < start.k and coloring.proper_on(target)


def test_tabucol_steps_never_outnumber_search_nodes(corpus_lines, monkeypatch):
    """Tabucol advances one iteration per search node, so on a small graph
    it costs no more than the search it runs beside."""
    steps: list[list[int]] = []  # [palette, steps taken] per Tabucol run

    def counted(g, start):
        steps.append([start.k - 1, 0])
        for found in _tabucol(g, start):
            steps[-1][1] += 1
            yield found

    monkeypatch.setattr(coloring_module, "_tabucol", counted)
    searched = 0
    for line in corpus_lines[::10]:
        g = parse_graph6(line)
        for gamma in (1, 2, 3):
            target = power_graph(g, gamma).graph
            if dsatur_upper_bound(target).k == clique_number(target):
                continue
            steps.clear()
            assert chromatic_number(target)[0] == oracles.brute_chromatic_number(
                target), (line, gamma)
            for k, taken in steps:
                nodes = oracles.reference_solve_k(target, k, None, None)[1]
                assert taken <= nodes, (line, gamma, k, taken, nodes)
            searched += bool(steps)
    assert searched


def test_chi_where_the_search_and_tabucol_share_the_work():
    """omega = 6 and DSATUR = 8 on both: the first colors 7 and proves 6
    infeasible, the second proves 7 infeasible (the values of the k loop
    from omega up that this loop replaced)."""
    assert chromatic_number(power_graph(random_regular(40, 4, seed=1), 2).graph)[0] == 7
    assert distance_chromatic_number(tutte_coxeter(), 3)[0] == 8


_IMPROPER_TABUCOL = """
from distchroma import coloring, graph_from_spec, power_graph

real = coloring._tabucol

def improper(g, start):
    for found in real(g, start):
        if found:
            u, v = g.edges[0]
            found[v] = found[u]
        yield found

coloring._tabucol = improper
try:
    coloring.chromatic_number(power_graph(graph_from_spec("torus:5,7"), 2).graph)
except AssertionError as err:
    print(err)
"""


def _planted_fault_output(script: str) -> list[str]:
    """What ``script`` prints, run without and with ``python -O``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import distchroma

    src = str(Path(distchroma.__file__).resolve().parents[1])
    return [subprocess.run([sys.executable, *flags, "-c", script],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src}).stdout.strip()
            for flags in ((), ("-O",))]


def test_improper_tabucol_coloring_raises():
    """A wrong upper bound from the local search cannot become chi: the
    witness check raises, with and without ``python -O``."""
    assert _planted_fault_output(_IMPROPER_TABUCOL) == [
        "the 7-coloring found is not proper"] * 2


def test_only_the_search_checks_the_time_budget(monkeypatch):
    """The search reads the clock at its first node, not only at every
    1024th: with Tabucol stepping nothing, a search far shorter than 1024
    nodes still stops on a spent budget."""
    monkeypatch.setattr(coloring_module, "_tabucol", lambda *_: iter(()))
    target = power_graph(square_lattice_torus(4, 6), 2).graph
    assert chromatic_number(target)[0] == 6
    with pytest.raises(SolverBudgetError) as err:
        chromatic_number(target, time_budget=1e-9)
    assert err.value.kind == "time"


def test_witness_is_checked_when_dsatur_meets_the_clique_number(monkeypatch):
    """The return with nothing searched checks its witness too: an improper
    DSATUR coloring with omega colors raises."""
    path = path_graph(3)  # omega = 2; the coloring below puts 1 and 2 together
    monkeypatch.setattr(coloring_module, "dsatur_upper_bound",
                        lambda g: Coloring((0, 1, 1), 2))
    with pytest.raises(AssertionError, match="the 2-coloring found is not proper"):
        chromatic_number(path)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_proper_on_matches_the_edge_form(data):
    """The check on color-class bitmasks agrees with the edge-by-edge
    definition on every assignment of length n, proper or not."""
    n = data.draw(st.integers(min_value=0, max_value=9), label="n")
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(possible),
                              max_size=len(possible)), label="edges")
    g = from_edges(n, [e for e, kept in zip(possible, keep) if kept])
    k = data.draw(st.integers(min_value=1, max_value=4), label="k")
    assignment = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                                    min_size=n, max_size=n), label="assignment")
    expected = all(assignment[u] != assignment[v] for u, v in g.edges)
    assert Coloring(tuple(assignment), k).proper_on(g) == expected


def test_solver_minimality_against_oracle(corpus_lines):
    """Exact solver equals exhaustive labeling search on the power graphs of
    every connected graph on <= 8 vertices."""
    for line in corpus_lines:
        g = parse_graph6(line)
        for gamma in (2, 3):
            target = power_graph(g, gamma).graph
            assert chromatic_number(target)[0] == oracles.brute_chromatic_number(
                target
            ), (line, gamma)


# ---------------------------------------------------------------------------
# greedy + partial colorings


def test_greedy_with_full_palette_colors_everything(petersen_graph):
    pg = power_graph(petersen_graph, 2)
    pc = greedy_coloring(pg, list(range(10)), palette_size=pg.graph.max_degree() + 1)
    assert pc.is_complete()
    assert pc.to_coloring().proper_on(pg.graph)


def test_greedy_k4_with_three_colors_leaves_one_uncolored():
    pg = power_graph(complete_graph(4), 1)
    pc = greedy_coloring(pg, [0, 1, 2, 3], palette_size=3)
    assert len(pc.uncolored_vertices()) == 1


def test_greedy_c5_squared_with_four_colors_cannot_finish():
    pg = power_graph(cycle_graph(5), 2)  # K5
    pc = greedy_coloring(pg, [0, 1, 2, 3, 4], palette_size=4)
    assert len(pc.uncolored_vertices()) >= 1


def test_greedy_requires_permutation():
    pg = power_graph(path_graph(3), 1)
    with pytest.raises(ValueError):
        greedy_coloring(pg, [0, 1], palette_size=2)


def test_partial_coloring_enforces_properness():
    pg = power_graph(path_graph(3), 1)
    pc = PartialColoring(pg, 2)
    pc.assign(0, 0)
    with pytest.raises(ValueError):
        pc.assign(1, 0)
    with pytest.raises(ValueError):
        pc.assign(0, 1)
    pc.assign(1, 1)
    assert pc.available(2) == {0}


def test_excess_nonnegative_with_m_minus_one_palette(corpus_lines):
    sample = [ln for ln in corpus_lines
              if 3 <= parse_graph6(ln).n <= 6 and parse_graph6(ln).max_degree() >= 3]
    for line in sample[::7]:
        g = parse_graph6(line)
        if not is_connected(g):
            continue
        m_value = max_power_degree(g.max_degree(), 2)
        pg = power_graph(g, 2)
        pc = greedy_coloring(pg, list(range(g.n)), palette_size=m_value - 1)
        for v in range(g.n):
            assert pc.excess(v) >= 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_partial_coloring_bookkeeping_matches_recompute(data):
    n = data.draw(st.integers(min_value=2, max_value=7), label="n")
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible)),
                      label="edges")
    g = from_edges(n, edges)
    pg = power_graph(g, 1)
    palette = data.draw(st.integers(min_value=1, max_value=5), label="palette")
    pc = PartialColoring(pg, palette)
    for _ in range(data.draw(st.integers(min_value=0, max_value=12), label="ops")):
        uncolored = pc.uncolored_vertices()
        if uncolored:
            v = data.draw(st.sampled_from(uncolored), label="vertex")
            avail = sorted(pc.available(v))
            if avail:
                pc.assign(v, data.draw(st.sampled_from(avail), label="color"))
    # recompute every derived quantity from scratch via the public state
    expected_uncolored = [v for v in range(n) if pc.assignment[v] is None]
    assert pc.uncolored_vertices() == expected_uncolored
    assert pc.is_complete() == (not expected_uncolored)
    for v in range(n):
        neighbor_colors = {
            pc.assignment[u]
            for u in range(n)
            if g.has_edge(u, v) and pc.assignment[u] is not None
        }
        expected_avail = set(range(palette)) - neighbor_colors
        expected_unc = sum(
            1 for u in range(n) if g.has_edge(u, v) and pc.assignment[u] is None
        )
        assert pc.available(v) == expected_avail
        assert pc.uncolored_neighbors(v) == expected_unc
        assert pc.excess(v) == 1 + len(expected_avail) - expected_unc


# ---------------------------------------------------------------------------
# distance orders


def test_order_p4_middle_edge():
    assert order_by_distance_from_edge(path_graph(4), 1, 2) == [0, 3, 1, 2]


def test_order_c6():
    order = order_by_distance_from_edge(cycle_graph(6), 0, 1)
    assert order == [3, 4, 2, 5, 0, 1]


def test_order_star():
    g = star_graph(5)
    order = order_by_distance_from_edge(g, 0, 3)
    assert order[-2:] == [0, 3]
    assert set(order[:-2]) == {1, 2, 4}


def test_order_requires_edge_and_connectivity():
    with pytest.raises(ValueError):
        order_by_distance_from_edge(path_graph(4), 0, 2)
    with pytest.raises(ValueError):
        order_by_distance_from_edge(from_edges(4, [(0, 1), (2, 3)]), 0, 1)


def test_order_within_subgraph():
    g = cycle_graph(6)
    order = order_by_distance_from_edge(g, 0, 1, within={0, 1, 2, 3})
    assert order == [3, 2, 0, 1]


# ---------------------------------------------------------------------------
# completion (the greedy finishing lemma, operationally)


def test_completion_spider_every_edge():
    m_value = max_power_degree(3, 2)  # 9
    pg = power_graph(SPIDER, 2)
    for u, v in SPIDER.edges:
        pc = PartialColoring(pg, m_value - 1)
        order = order_by_distance_from_edge(SPIDER, u, v)
        result = complete_partial_coloring(pc, order, u, v)
        assert isinstance(result, Coloring)
        assert result.proper_on(pg.graph)
        assert result.k <= m_value - 1


def test_completion_trivial_when_palette_ample():
    pg = power_graph(path_graph(3), 1)
    pc = PartialColoring(pg, 5)
    pc.assign(0, 0)
    result = complete_partial_coloring(pc, [2, 1], u=2, v=1)
    assert isinstance(result, Coloring)


def test_completion_failure_on_k10_with_nine_colors():
    # hypotheses fail here; the operation must report, not loop or lie
    g = complete_graph(10)
    pg = power_graph(g, 1)
    pc = PartialColoring(pg, 9)
    order = list(range(10))
    result = complete_partial_coloring(pc, order, u=8, v=9)
    assert isinstance(result, CompletionFailure)
    assert result.blocking_vertex == 9 and result.stage == "v"


def _reference_completion(pc, order, u, v):
    """The completion as a loop: greedy along ``order``, then u tries each of
    its available colors, least first, on a copy of the state, until v has a
    color left."""
    for w in order[:-2]:
        if not pc.available(w):
            return CompletionFailure(w, "order", pc.state_digest())
        pc.assign(w, min(pc.available(w)))
    if not pc.available(u):
        return CompletionFailure(u, "u", pc.state_digest())
    for c in sorted(pc.available(u)):
        trial = PartialColoring(pc.target, pc.palette_size)
        for w, color in enumerate(pc.assignment):
            if color is not None:
                trial.assign(w, color)
        trial.assign(u, c)
        if trial.available(v):
            trial.assign(v, min(trial.available(v)))
            return trial.to_coloring()
    return CompletionFailure(v, "v", pc.state_digest())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_completion_picks_the_color_the_loop_over_u_picks(data):
    n = data.draw(st.integers(min_value=2, max_value=7), label="n")
    u, v = data.draw(st.permutations(range(n)), label="perm")[:2]
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible)),
                      label="edges")
    pg = power_graph(from_edges(n, set(edges) | {(min(u, v), max(u, v))}), 1)
    palette = data.draw(st.integers(min_value=1, max_value=5), label="palette")
    precolored = {}
    for w in data.draw(st.permutations(sorted(set(range(n)) - {u, v})), label="order"):
        if data.draw(st.booleans(), label="precolor?"):
            precolored[w] = data.draw(st.integers(0, palette - 1), label="color")
    runs = []
    for _ in range(2):
        pc = PartialColoring(pg, palette)
        for w, c in precolored.items():
            if c in pc.available(w):
                pc.assign(w, c)
        runs.append(pc)
    rest = data.draw(st.permutations(
        [w for w in runs[0].uncolored_vertices() if w not in (u, v)]), label="rest")
    order = list(rest) + [u, v]
    assert (complete_partial_coloring(runs[0], order, u, v)
            == _reference_completion(runs[1], order, u, v))


def test_completion_precondition_errors():
    pg = power_graph(path_graph(4), 2)
    # order does not end with u, v
    with pytest.raises(ValueError):
        complete_partial_coloring(PartialColoring(pg, 3), [0, 1, 2, 3], u=1, v=2)
    # order not covering all uncolored vertices
    with pytest.raises(ValueError):
        complete_partial_coloring(PartialColoring(pg, 3), [1, 2, 3], u=2, v=3)
    # u, v not adjacent in the target (distance 3 > gamma)
    with pytest.raises(ValueError):
        complete_partial_coloring(PartialColoring(pg, 3), [1, 2, 0, 3], u=0, v=3)
    # u colored already
    pc = PartialColoring(pg, 3)
    pc.assign(2, 0)
    with pytest.raises(ValueError):
        complete_partial_coloring(pc, [0, 1, 2, 3], u=2, v=3)


def test_completion_succeeds_when_hypotheses_hold(corpus_lines):
    """Empty partial coloring, palette M-1, order by distance from an edge:
    whenever excess(u) >= 1 and excess(v) >= 2 hold initially, the greedy
    completion finishes."""
    sample = [ln for ln in corpus_lines if 4 <= parse_graph6(ln).n <= 6]
    for line in sample[::5]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        for gamma in (2, 3):
            m_value = max_power_degree(g.max_degree(), gamma)
            pg = power_graph(g, gamma)
            for u, v in g.edges:
                excess_u = m_value - pg.graph.degree(u)
                excess_v = m_value - pg.graph.degree(v)
                if excess_u < 1 or excess_v < 2:
                    continue
                pc = PartialColoring(pg, m_value - 1)
                order = order_by_distance_from_edge(g, u, v)
                result = complete_partial_coloring(pc, order, u, v)
                assert isinstance(result, Coloring), (line, gamma, u, v)
                assert result.proper_on(pg.graph)


def test_power_minus_edge_pair_colorable_with_m_minus_one(corpus_lines):
    """For every edge uv of small corpus graphs, the power graph minus
    {u, v} is (M-1)-colorable."""
    sample = [ln for ln in corpus_lines if 4 <= parse_graph6(ln).n <= 6]
    for line in sample[::9]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        for gamma in (2, 3):
            m_value = max_power_degree(g.max_degree(), gamma)
            pg = power_graph(g, gamma).graph
            for u, v in g.edges:
                keep = [w for w in range(g.n) if w not in (u, v)]
                sub_edges = [
                    (keep.index(a), keep.index(b))
                    for a, b in pg.edges
                    if a in keep and b in keep
                ]
                sub = from_edges(len(keep), sub_edges)
                k, _ = chromatic_number(sub)
                assert k <= m_value - 1, (line, gamma, u, v)


# ---------------------------------------------------------------------------
# save-a-color strategies


def test_strategy_non_regular_k4_minus_edge():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    out = save_color_strategy(g, 2)
    assert out.applied == "non-regular"
    assert out.succeeded and not out.used_exact_fallback
    assert out.coloring.k <= out.palette_size == 8


def test_strategy_petersen_not_applicable(petersen_graph):
    out = save_color_strategy(petersen_graph, 2)
    assert out.applied == "not-applicable"
    assert out.coloring is None


def test_strategy_short_girth_k4():
    out = save_color_strategy(complete_graph(4), 2)
    assert out.applied == "short-girth"
    assert out.succeeded
    assert out.coloring.k <= 8
    assert distance_chromatic_number(complete_graph(4), 2)[0] == 4


def test_strategy_high_girth_tutte_coxeter_gamma3():
    g = tutte_coxeter()
    assert girth(g) == 8  # = 2*gamma + 2 for gamma 3
    out = save_color_strategy(g, 3, exact_fallback=False)
    assert out.applied == "high-girth"
    assert out.succeeded and not out.used_exact_fallback
    assert out.coloring.k <= out.palette_size == max_power_degree(3, 3) - 1
    assert out.coloring.proper_on(power_graph(g, 3).graph)


def test_exact_solver_beyond_corpus_scale():
    """Frozen values cross-checked by an independent labeling search: the
    cube of the 30-vertex girth-8 cubic graph needs 8 colors, the square
    of the 24-vertex girth-7 cubic graph needs 5."""
    from distchroma import lcf_graph

    tc3 = power_graph(tutte_coxeter(), 3).graph
    k, w = chromatic_number(tc3)
    assert k == 8 and w.proper_on(tc3)
    mcgee2 = power_graph(lcf_graph(24, (12, 7, -7), 8), 2).graph
    k, w = chromatic_number(mcgee2)
    assert k == 5 and w.proper_on(mcgee2)


def test_strategy_spider():
    out = save_color_strategy(SPIDER, 2)
    assert out.applied == "non-regular"
    assert out.succeeded
    k, _ = distance_chromatic_number(SPIDER, 2)
    assert k <= 8


def test_strategy_on_larger_cubic_graph_with_triangle():
    # 3-regular, girth 3, 14 vertices: prism extended by a cubic ladder
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(0, 2), (1, 3), (4, 7), (5, 8), (6, 9), (10, 12), (11, 13)]
    g = from_edges(14, edges)
    assert g.degrees() == [3] * 14
    assert girth(g) == 3
    out = save_color_strategy(g, 2)
    assert out.applied == "short-girth"
    assert out.succeeded
    assert out.coloring.k <= 8
    assert out.coloring.proper_on(power_graph(g, 2).graph)


def test_high_girth_gamma2_mechanics_on_mcgee(monkeypatch):
    """No graph with connectivity >= 4 and girth > 6 exists at test scale
    (the smallest is far larger), so the gamma=2 seeding is exercised on
    the McGee graph with its connectivity recorded as 4: girth 7 gives the
    same seed geometry, and its pair-deleted subgraph happens to stay
    connected."""
    from dataclasses import replace

    from distchroma import coloring, lcf_graph

    real = coloring.bound_hypotheses
    monkeypatch.setattr(coloring, "bound_hypotheses", lambda g, gamma: replace(
        real(g, gamma), connectivity=4))
    g = lcf_graph(24, (12, 7, -7), 8)  # cubic, girth 7
    assert girth(g) == 7
    pg = power_graph(g, 2)
    palette = max_power_degree(3, 2) - 1
    out = save_color_strategy(g, 2, exact_fallback=False)
    assert out.applied == "high-girth" and not out.used_exact_fallback
    result, seeds = out.coloring, out.seeds
    assert isinstance(result, Coloring)
    assert result.proper_on(pg.graph)
    assert result.k <= palette
    assert len(seeds["precolored"]) == 3  # three seeds sharing one color
    assert set(seeds["precolored"].values()) == {0}


_IMPROPER_COMPLETION = """
from distchroma import coloring, complete_graph

def improper(pc, order, u, v):
    return coloring.Coloring((0,) * pc.target.graph.n, 1)

coloring.complete_partial_coloring = improper
try:
    coloring.save_color_strategy(complete_graph(4), 2)
except AssertionError as err:
    print(err)
"""


def test_improper_completion_raises():
    """A wrong coloring from the construction cannot be reported: the
    strategy's check raises, with and without ``python -O``."""
    assert _planted_fault_output(_IMPROPER_COMPLETION) == [
        "short-girth: 1 colors, not a proper coloring within 8"] * 2


def test_strategy_gating_mcgee_not_applicable():
    # connectivity 3 < 4 keeps the gamma=2 high-girth hypothesis off
    from distchroma import lcf_graph

    g = lcf_graph(24, (12, 7, -7), 8)
    out = save_color_strategy(g, 2, exact_fallback=False)
    assert out.applied == "not-applicable"
    assert out.hypotheses["connectivity"] == 3


def test_strategy_rejects_low_degree_or_disconnected():
    with pytest.raises(ValueError):
        save_color_strategy(cycle_graph(9), 2)
    with pytest.raises(ValueError):
        save_color_strategy(from_edges(5, [(0, 1), (2, 3)]), 2)


def test_strategy_bound_holds_on_corpus_sample(corpus_lines):
    """Whenever a strategy applies, chi_gamma really is <= M-1."""
    sample = [ln for ln in corpus_lines if parse_graph6(ln).n in (5, 6, 7)]
    for line in sample[::40]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        out = save_color_strategy(g, 2)
        if out.applied == "not-applicable":
            continue
        assert out.succeeded, line
        assert out.coloring.k <= out.m_value - 1


def test_chi_at_most_m_plus_one_with_moore_equality(petersen_graph, corpus_lines):
    sample = [ln for ln in corpus_lines if parse_graph6(ln).n in (5, 6)]
    for line in sample[::6]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        m_value = max_power_degree(g.max_degree(), 2)
        k, _ = distance_chromatic_number(g, 2)
        assert k <= m_value + 1
        assert (k == m_value + 1) == detect_moore(g, 2).is_moore
    # the equality case really occurs
    assert distance_chromatic_number(petersen_graph, 2)[0] == 10


# ---------------------------------------------------------------------------
# normalization


def test_normalize_coloring():
    c = normalize_coloring([5, 5, 2, 7, 2])
    assert c.assignment == (0, 0, 1, 2, 1)
    assert c.k == 3
