"""Spectral radius, matrix identities, and the power bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma import (
    adjacency_matrix,
    chromatic_number,
    complete_graph,
    cycle_graph,
    degree_matrix,
    from_edges,
    geometric_series_bound,
    girth,
    hex_lattice,
    is_connected,
    laplacian,
    parse_graph6,
    path_graph,
    petersen,
    power_graph,
    power_matrix_inequalities,
    spectral_power_bounds,
    spectral_radius,
    square_lattice_torus,
    star_graph,
    two_degree_profile,
)
from distchroma.spectral import LAPACK_START_MAX_N

import oracles


def eig_max(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a.astype(float)).max())


# ---------------------------------------------------------------------------
# matrices


def test_adjacency_k2():
    assert adjacency_matrix(from_edges(2, [(0, 1)])).tolist() == [[0, 1], [1, 0]]


def test_adjacency_row_sums_are_degrees(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 200)]:
        g = parse_graph6(line)
        a = adjacency_matrix(g)
        assert (a == a.T).all() and (np.diag(a) == 0).all()
        assert a.sum(axis=1).tolist() == g.degrees()


def test_adjacency_square_diagonal_is_degree(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 300)]:
        g = parse_graph6(line)
        a = adjacency_matrix(g)
        assert (np.diag(a @ a) == np.array(g.degrees())).all()


def test_adjacency_matrix_is_built_once_and_read_only(petersen_graph):
    a = adjacency_matrix(petersen_graph)
    assert adjacency_matrix(petersen_graph) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 1] = 0


def test_laplacian_k2():
    assert laplacian(from_edges(2, [(0, 1)])).tolist() == [[1, -1], [-1, 1]]


def test_laplacian_annihilates_ones(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 300)]:
        lap = laplacian(parse_graph6(line))
        assert (lap.sum(axis=1) == 0).all()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_laplacian_quadratic_form(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    g = from_edges(n, edges)
    x = np.array(data.draw(st.lists(
        st.integers(min_value=-5, max_value=5), min_size=n, max_size=n)))
    direct = sum((x[u] - x[v]) ** 2 for u, v in g.edges)
    assert x @ laplacian(g) @ x == direct


# ---------------------------------------------------------------------------
# spectral radius


def test_regular_graph_radius_is_degree(petersen_graph):
    res = spectral_radius(petersen_graph)
    assert abs(res.lambda1 - 3.0) <= 1e-9
    assert res.residual <= 1e-10
    assert all(x >= 0 for x in res.perron_vector)
    assert max(res.perron_vector) == pytest.approx(1.0)


def test_star_radius_is_sqrt(petersen_graph):
    for n in range(3, 13):
        g = star_graph(n)
        res = spectral_radius(g)
        assert abs(res.lambda1 - math.sqrt(n - 1)) <= 1e-9
        assert abs(res.lambda1 - eig_max(adjacency_matrix(g))) <= 1e-9


def test_k2_radius():
    assert spectral_radius(from_edges(2, [(0, 1)])).lambda1 == pytest.approx(1.0)


def test_bipartite_tie_broken():
    assert abs(spectral_radius(cycle_graph(6)).lambda1 - 2.0) <= 1e-9
    big = hex_lattice(4, 5)
    assert abs(spectral_radius(big).lambda1 - eig_max(adjacency_matrix(big))) <= 1e-8


def test_radius_matches_dense_eigensolver(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 120)]:
        g = parse_graph6(line)
        if not is_connected(g) or g.n < 2:
            continue
        res = spectral_radius(g)
        assert abs(res.lambda1 - eig_max(adjacency_matrix(g))) <= 1e-8


def test_radius_sandwich_between_average_and_max_degree(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 200)]:
        g = parse_graph6(line)
        if not is_connected(g) or g.n < 2:
            continue
        lam = spectral_radius(g).lambda1
        avg = 2 * g.m / g.n
        assert avg - 1e-8 <= lam <= g.max_degree() + 1e-8


def test_radius_requires_connected():
    with pytest.raises(ValueError):
        spectral_radius(from_edges(3, [(0, 1)]))


def test_perron_vector_encloses_lambda1(corpus_lines):
    """The reported Perron vector brackets lambda1 in exact rationals
    (Collatz-Wielandt) on corpus graphs, their squares and cubes, and on
    both sides of the LAPACK start cut."""
    graphs = [path_graph(n) for n in (25, 26)] + [star_graph(n) for n in (25, 26)]
    graphs += [hex_lattice(5, 5), hex_lattice(2, 13), square_lattice_torus(5, 5)]
    for line in corpus_lines[1::5]:
        g = parse_graph6(line)
        graphs += [g, power_graph(g, 2).graph, power_graph(g, 3).graph]
    for g in graphs:
        res = spectral_radius(g)
        lo, hi = oracles.collatz_wielandt(g, res.perron_vector)
        assert float(lo) - 1e-12 <= res.lambda1 <= float(hi) + 1e-12
        if g.n <= LAPACK_START_MAX_N:
            assert res.iterations == 1
            assert hi - lo <= 1e-12
        else:  # the iteration stops at residual 1e-10, and so does the bracket
            assert hi - lo <= 2 * res.residual / min(res.perron_vector) + 1e-12


def test_radius_iteration_cap_is_reported(monkeypatch):
    from distchroma import SpectralConvergenceError, spectral

    g = star_graph(30)  # above the LAPACK start cut: the iteration runs
    assert spectral_radius(g).lambda1 == pytest.approx(29 ** 0.5)
    monkeypatch.setattr(spectral, "RADIUS_TOLERANCE", 1e-15)
    monkeypatch.setattr(spectral, "RADIUS_MAX_ITERATIONS", 2)
    with pytest.raises(SpectralConvergenceError):  # a new graph: not in the memo
        spectral_radius(star_graph(30))


def test_single_vertex_radius():
    assert spectral_radius(from_edges(1, [])).lambda1 == 0.0


# ---------------------------------------------------------------------------
# product inequality for nonnegative symmetric matrices


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_radius_bound(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    def sym(label):
        raw = np.array(data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
            min_size=n, max_size=n)), dtype=float)
        return raw + raw.T
    a, b = sym("a"), sym("b")
    rad = lambda m: float(max(abs(np.linalg.eigvals(m))))
    assert rad(a @ b) <= rad(a) * rad(b) + 1e-8


# ---------------------------------------------------------------------------
# matrix inequalities for powers


def test_matrix_inequalities_petersen_equality(petersen_graph):
    rep = power_matrix_inequalities(petersen_graph, 2)
    assert rep.series_dominates and rep.bound_holds
    assert rep.equality and rep.girth_predicate
    assert rep.equality_matches_girth


def test_matrix_inequalities_k4_strict():
    rep = power_matrix_inequalities(complete_graph(4), 2)
    assert rep.bound_holds and not rep.equality
    assert rep.equality_matches_girth  # girth 3 < 5


def test_matrix_inequalities_c9_gamma3():
    rep = power_matrix_inequalities(cycle_graph(9), 3)
    assert rep.bound_holds and rep.equality_left and rep.equality_right
    assert rep.girth_predicate and rep.equality_matches_girth


def test_matrix_inequalities_complete_graphs_defy_girth_at_gamma3():
    # Saturated powers: G^3 = G^2 = G for complete graphs, and the refined
    # bound collapses to equality although the girth is 3. This is the one
    # family where equality and the girth predicate disagree.
    for n in (4, 5, 6):
        rep = power_matrix_inequalities(complete_graph(n), 3)
        assert rep.bound_holds and rep.equality
        assert not rep.girth_predicate
        assert not rep.equality_matches_girth


def test_series_bound_survives_walk_count_overflow():
    # (A^16)[0, 1] of K_20 is (19^16 - 1) / 20, about 1.4e19, beyond int64
    rep = power_matrix_inequalities(complete_graph(20), 16)
    assert rep.series_dominates and rep.bound_holds and rep.equality


def test_matrix_inequalities_rejects_bad_input():
    with pytest.raises(ValueError):
        power_matrix_inequalities(petersen(), 1)
    with pytest.raises(ValueError):
        power_matrix_inequalities(from_edges(2, [(0, 1)]), 2)


# ---------------------------------------------------------------------------
# spectral power bounds


def test_spectral_bounds_petersen_equality(petersen_graph):
    rep = spectral_power_bounds(petersen_graph, 2)
    assert rep.lambda1_power == pytest.approx(9.0, abs=1e-8)
    assert rep.equality_within_tol and rep.predicate and rep.predicate_matches


def test_spectral_bounds_k4_strict():
    rep = spectral_power_bounds(complete_graph(4), 2)
    assert rep.lambda1_power == pytest.approx(3.0, abs=1e-8)
    assert not rep.equality_within_tol and not rep.predicate
    assert rep.predicate_matches


def test_spectral_bounds_c7_gamma3():
    rep = spectral_power_bounds(cycle_graph(7), 3)
    assert rep.lambda1_power == pytest.approx(6.0, abs=1e-8)  # C7^3 = K7
    assert rep.power_bound == pytest.approx(8.0, abs=1e-8)
    assert rep.strict_gap_ok and not rep.flagged_small_gap


def test_spectral_bounds_star_gamma3_gap():
    rep = spectral_power_bounds(star_graph(8), 3)
    assert rep.gap > 1e-6  # 7^(3/2) - 7


# ---------------------------------------------------------------------------
# classical chromatic bound via the radius


def test_chromatic_radius_bound_equality_cases():
    for n in (4, 5, 6):
        g = complete_graph(n)
        lam = spectral_radius(g).lambda1
        k, _ = chromatic_number(g)
        assert abs(k - (lam + 1)) <= 1e-8
    for n in (5, 7, 9):
        g = cycle_graph(n)
        lam = spectral_radius(g).lambda1
        k, _ = chromatic_number(g)
        assert abs(k - (lam + 1)) <= 1e-8  # odd cycles: chi = 3 = lambda1 + 1


def test_chromatic_radius_bound_strict_otherwise():
    for g in [petersen(), star_graph(7), cycle_graph(8), path_graph(9)]:
        lam = spectral_radius(g).lambda1
        k, _ = chromatic_number(g)
        assert k <= lam + 1 + 1e-8
        assert lam + 1 - k > 1e-6


def test_geometric_series_bound_values(petersen_graph):
    lam = spectral_radius(petersen_graph).lambda1
    assert geometric_series_bound(lam, 2) == pytest.approx(13.0, abs=1e-6)
    with pytest.raises(ValueError):
        geometric_series_bound(1.0, 2)


def test_chromatic_radius_bound_over_full_corpus(corpus_lines):
    """chi(G) <= lambda1 + 1 on every corpus graph, equality exactly on
    complete graphs (the only other equality family, odd cycles, has max
    degree 2 and never reaches a power computation here)."""
    for line in corpus_lines:
        g = parse_graph6(line)
        if g.n < 2:
            continue
        lam = spectral_radius(g).lambda1
        k, _ = chromatic_number(g)
        assert k <= lam + 1 + 1e-8, line
        is_complete = g.m == g.n * (g.n - 1) // 2
        is_odd_cycle = g.m == g.n and g.max_degree() == 2 and g.n % 2 == 1
        assert (abs(lam + 1 - k) <= 1e-8) == (is_complete or is_odd_cycle), line


def test_series_bound_dominates_chi_gamma_on_sample(corpus_lines):
    from distchroma import distance_chromatic_number

    sample = [ln for ln in corpus_lines if 4 <= parse_graph6(ln).n <= 7]
    for line in sample[::25]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        lam = spectral_radius(g).lambda1
        for gamma in (2, 3):
            k, _ = distance_chromatic_number(g, gamma)
            assert k <= geometric_series_bound(lam, gamma) + 1e-8
