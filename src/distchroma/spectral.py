"""Adjacency spectral radius and the power-graph matrix inequalities.

Entrywise matrix checks run in exact int64 arithmetic; only the spectral
radius itself is floating point, computed by power iteration on A + I
(primitive for connected graphs, which breaks the +/- lambda tie on
bipartite inputs). Up to ``LAPACK_START_MAX_N`` vertices the iteration
starts from LAPACK's Perron vector and stops after one step; above it, from
the all-ones vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, per_graph
from .metrics import girth, is_connected, power_graph, two_degree_profile

MATRIX_CAP = 2048

# Largest order whose power iteration starts from LAPACK's Perron vector.
# Up to n = 25, dsyevd solves the tridiagonal problem by QL/QR: one
# np.linalg.eigh call costs 0.3-0.6 ms of CPU. From n = 26, dstedc divides
# and conquers through dgemm, and OpenBLAS worker threads then spin for
# about 120 ms of CPU after each call (OpenBLAS 0.3.31, 2 CPUs: 100 calls
# with 2 ms of Python between them took 216 ms of CPU in 218 ms of wall
# time at n = 25, and 455 ms in 228 ms at n = 40). The loop's b @ x starts
# no thread up to n = 512, so above the cut the all-ones start is the
# thread-free path.
LAPACK_START_MAX_N = 25

# The power iteration's stopping residual and its iteration cap.
RADIUS_TOLERANCE = 1e-10
RADIUS_MAX_ITERATIONS = 10**6


class SpectralConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap before meeting tolerance."""


@per_graph
def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 int64 matrix with zero diagonal, built once per graph
    and shared, so it is read-only (``flags.writeable`` is False)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = 1
        a[v, u] = 1
    a.flags.writeable = False
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(np.array(g.degrees(), dtype=np.int64))


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; rows sum to zero."""
    return degree_matrix(g) - adjacency_matrix(g)


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    iterations: int
    residual: float
    perron_vector: tuple[float, ...]


@per_graph
def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph.

    Power iteration on B = A + I with a Rayleigh-quotient readout; converged
    when the infinity-norm residual ||B x - theta x|| drops below
    RADIUS_TOLERANCE for the unit-infinity-norm iterate x, within
    RADIUS_MAX_ITERATIONS steps. For n <= 25 it starts
    from |v|, v the top eigenvector of B from LAPACK (``eigh``), and stops
    after one step with a residual below 2e-14; for larger n it starts from
    the all-ones vector (see ``LAPACK_START_MAX_N``).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not is_connected(g):
        raise ValueError("spectral radius requires a connected graph")
    n = g.n
    if n == 1:
        return SpectralResult(0.0, 0, 0.0, (1.0,))
    b = adjacency_matrix(g) + np.eye(n)
    x = np.abs(np.linalg.eigh(b)[1][:, -1]) if n <= LAPACK_START_MAX_N else np.ones(n)
    for it in range(1, RADIUS_MAX_ITERATIONS + 1):
        y = b @ x
        theta = float(x @ y) / float(x @ x)
        residual = float(np.max(np.abs(y - theta * x))) / float(np.max(np.abs(x)))
        if residual <= RADIUS_TOLERANCE:
            x = x / np.max(np.abs(x))
            return SpectralResult(theta - 1.0, it, residual, tuple(x))
        x = y / np.max(np.abs(y))
    raise SpectralConvergenceError(
        f"no convergence to {RADIUS_TOLERANCE} "
        f"within {RADIUS_MAX_ITERATIONS} iterations"
    )


# ---------------------------------------------------------------------------
# exact entrywise inequalities for power-graph adjacency matrices


@dataclass(frozen=True)
class MatrixInequalityReport:
    """Exact-arithmetic comparison of A(G^gamma) against its walk bounds.

    Complete graphs meet the refined bound with equality at every
    gamma >= 3 although their girth is 3. For K_n, G^gamma = G, D = (n-1)I,
    L = (n-1)I - A and A^2 = (n-2)A + (n-1)I, so the left side
    A(G^(gamma-1)) A - A(D - I) - L reduces to A exactly, and so does the
    right. On K_n (n >= 4) ``equality_matches_girth`` is therefore False at
    gamma >= 3; at gamma = 2 the right side A^2 - L = (n-1)A stays strict.
    """

    gamma: int
    girth: int | float
    girth_threshold: int          # 5 for gamma=2, else 2*gamma+1
    girth_predicate: bool
    series_dominates: bool        # A(G^gamma) <= A + A^2 + ... + A^gamma
    bound_holds: bool             # refined bound(s) hold entrywise
    equality: bool                # refined bound(s) met with equality
    equality_left: bool
    equality_right: bool
    equality_matches_girth: bool


def power_matrix_inequalities(g: Graph, gamma: int) -> MatrixInequalityReport:
    """Check, in integer arithmetic: the walk-series bound on A(G^gamma),
    and the refined degree-corrected bound, whose equality is compared with
    the girth predicate girth >= 2*gamma + 1.

    The series sums the walk powers A^k clipped at 1: the left side is 0/1,
    so comparing with the clipped series is exact, while raw walk counts
    overflow int64 (on K_20 at gamma = 16). The refined bounds multiply 0/1
    matrices, whose entries stay at most n * Delta."""
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    if g.n < 3:
        raise ValueError("needs at least 3 vertices")
    if g.n > MATRIX_CAP:
        raise ValueError(f"dense matrix checks capped at n={MATRIX_CAP}")
    if not is_connected(g):
        raise ValueError("requires a connected graph")
    a = adjacency_matrix(g)
    d = degree_matrix(g)
    eye = np.eye(g.n, dtype=np.int64)
    lap = d - a
    a_pow = {0: np.zeros_like(a), 1: a}
    walk = series = a
    for k in range(2, gamma + 1):
        a_pow[k] = adjacency_matrix(power_graph(g, k).graph)
        walk = np.minimum(walk @ a, 1)
        series = series + walk
    series_ok = bool((a_pow[gamma] <= series).all())
    gir = girth(g)
    threshold = 2 * gamma + 1
    # The recurrence subtracts A(G^(gamma-2))(D - I), zero at gamma = 2; from
    # gamma = 4 on, the encoded form keeps A(D - I), the gamma = 3 term.
    back = a_pow[min(gamma - 2, 1)]
    left = a_pow[gamma - 1] @ a - back @ (d - eye) - lap
    right = a @ a_pow[gamma - 1] - (d - eye) @ back - lap
    holds = bool((a_pow[gamma] <= left).all() and (a_pow[gamma] <= right).all())
    eq_left = bool((a_pow[gamma] == left).all())
    eq_right = bool((a_pow[gamma] == right).all())
    predicate = gir >= threshold
    equality = eq_left and eq_right
    return MatrixInequalityReport(
        gamma=gamma,
        girth=gir,
        girth_threshold=threshold,
        girth_predicate=predicate,
        series_dominates=series_ok,
        bound_holds=holds,
        equality=equality,
        equality_left=eq_left,
        equality_right=eq_right,
        equality_matches_girth=equality == predicate,
    )


@dataclass(frozen=True)
class SpectralBoundReport:
    """lambda1 of G, G^(gamma-1) and G^gamma against the product bounds."""

    gamma: int
    tolerance: float
    lambda1_base: float
    lambda1_prev: float
    lambda1_power: float
    power_bound: float            # lambda1(G)^gamma
    gap: float                    # power_bound - lambda1_power
    square_leq_holds: bool        # lambda1(G^2) <= lambda1(G)^2 + tol
    equality_within_tol: bool
    predicate: bool               # 2-degree regular and girth >= 5
    predicate_matches: bool
    strict_gap_ok: bool           # gamma >= 3: gap > tol
    flagged_small_gap: bool


def spectral_power_bounds(g: Graph, gamma: int) -> SpectralBoundReport:
    """Compare lambda1 of powers against products of lambda1 of the base.

    For gamma 2 the bound lambda1(G^2) <= lambda1(G)^2 is met with equality
    exactly on 2-degree-regular graphs of girth >= 5; for gamma >= 3 the
    bound is strict, so the gap is reported and flagged (never failed) when
    it falls inside the tolerance max(1e-8, 1e-12 * n).
    """
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    if g.n < 3:
        raise ValueError("needs at least 3 vertices")
    if not is_connected(g):
        raise ValueError("requires a connected graph")
    tol = max(1e-8, 1e-12 * g.n)

    def lam(k: int) -> float:  # lambda1(G^k)
        return spectral_radius(g if k == 1 else power_graph(g, k).graph).lambda1

    lam_base, lam_prev, lam_power = lam(1), lam(gamma - 1), lam(gamma)
    bound = lam_base**gamma
    gap = bound - lam_power
    square_gap = lam_base**2 - lam(2)
    profile = two_degree_profile(g)
    predicate = len(set(profile)) <= 1 and girth(g) >= 5
    equality = abs(square_gap) <= tol
    return SpectralBoundReport(
        gamma=gamma,
        tolerance=tol,
        lambda1_base=lam_base,
        lambda1_prev=lam_prev,
        lambda1_power=lam_power,
        power_bound=bound,
        gap=gap,
        square_leq_holds=square_gap >= -tol,
        equality_within_tol=equality,
        predicate=predicate,
        predicate_matches=equality == predicate,
        strict_gap_ok=gamma < 3 or gap > tol,
        flagged_small_gap=gamma >= 3 and gap <= tol,
    )


def geometric_series_bound(lambda1: float, gamma: int) -> float:
    """(lambda1^(gamma+1) - 1) / (lambda1 - 1): walk-series chromatic bound."""
    if lambda1 <= 1:
        raise ValueError("series bound needs lambda1 > 1")
    return (lambda1 ** (gamma + 1) - 1.0) / (lambda1 - 1.0)
