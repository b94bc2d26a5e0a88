"""Independent brute-force oracles used to validate the production code.

Everything here favors obviousness over speed: exhaustive search, direct
definitions, no shared machinery with the implementations under test.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

from distchroma.coloring import SolverBudgetError
from distchroma.graphs import Graph, _iter_bits

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_girth(g: Graph) -> float:
    """Shortest cycle by per-edge BFS: remove an edge, measure the detour."""
    best = INF
    for u, v in g.edges:
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                for b in a_neighbors(g, a):
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def a_neighbors(g: Graph, v: int):
    mask = g.bits[v]
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_components(g: Graph, removed: set[int]) -> int:
    seen: set[int] = set()
    comps = 0
    for s in range(g.n):
        if s in removed or s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            a = stack.pop()
            for b in a_neighbors(g, a):
                if b not in removed and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return comps


def brute_vertex_connectivity(g: Graph) -> int:
    """Least k such that removing some k vertices disconnects the graph or
    empties it to a single vertex; checked by trying every subset."""
    if g.n <= 1:
        return 0
    if brute_components(g, set()) > 1:
        return 0
    for k in range(0, g.n - 1):
        for subset in combinations(range(g.n), k):
            if brute_components(g, set(subset)) > 1:
                return k
    return g.n - 1


def brute_clique_number(g: Graph) -> int:
    best = 1 if g.n else 0
    for k in range(2, g.n + 1):
        found = False
        for subset in combinations(range(g.n), k):
            if all(g.has_edge(a, b) for a, b in combinations(subset, 2)):
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def brute_independence_number(g: Graph) -> int:
    """The largest vertex subset with no edge inside, by trying subsets
    from the largest size down."""
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if not any(g.has_edge(a, b) for a, b in combinations(subset, 2)):
                return k
    return 0


def collatz_wielandt(g: Graph, vector) -> tuple[Fraction, Fraction]:
    """Exact min and max of (AX)_i / X_i, X the float vector scaled exactly
    to positive integers. For a connected graph they enclose lambda1
    (Collatz 1942; Wielandt 1950)."""
    exact = [Fraction(x) for x in vector]
    scale = math.lcm(*(f.denominator for f in exact))
    xs = [int(f * scale) for f in exact]
    if min(xs) <= 0:
        raise ValueError("the vector must be positive")
    quotients = [Fraction(sum(xs[u] for u in a_neighbors(g, v)), xs[v])
                 for v in range(g.n)]
    return min(quotients), max(quotients)


def brute_chromatic_number(g: Graph) -> int:
    """Try k = 1, 2, ... labelings exhaustively in index order; colors are
    canonicalized by first occurrence, which enumerates every proper
    coloring up to color permutation. Meant for n <= 8."""
    n = g.n
    if n == 0:
        return 0
    adj = g.bits
    for k in range(1, n + 1):
        forbidden = [0] * n

        def backtrack(v: int, maxcolor: int) -> bool:
            if v == n:
                return True
            allowed = ~forbidden[v] & ((1 << min(k, maxcolor + 2)) - 1)
            while allowed:
                low = allowed & -allowed
                c = low.bit_length() - 1
                allowed ^= low
                touched = []
                mask = adj[v]
                while mask:
                    lowu = mask & -mask
                    u = lowu.bit_length() - 1
                    mask ^= lowu
                    if u > v:
                        touched.append((u, forbidden[u]))
                        forbidden[u] |= 1 << c
                if backtrack(v + 1, max(maxcolor, c)):
                    return True
                for u, old in touched:
                    forbidden[u] = old
            return False

        if backtrack(0, -1):
            return k
    return n


def is_proper(g: Graph, assignment) -> bool:
    return all(assignment[u] != assignment[v] for u, v in g.edges)


# ---------------------------------------------------------------------------
# the DSATUR search written plainly, with no bitset buckets: a per-node scan
# of every uncolored vertex and per-vertex color counters. The kernel must walk
# the same tree, so it must return the same colorings, use the same number
# of nodes and exhaust a budget at the same node.


def reference_dsatur(g: Graph) -> list[int]:
    """Greedy DSATUR; the colors as assigned, not yet normalized."""
    n = g.n
    colors = [-1] * n
    sat = [0] * n
    degs = g.degrees()
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (sat[u].bit_count(), degs[u], -u),
        )
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        colors[v] = c
        for u in _iter_bits(g.bits[v]):
            sat[u] |= 1 << c
    return colors


def reference_solve_k(
    g: Graph,
    k: int,
    node_budget: int | None,
    deadline: float | None,
) -> tuple[list[int] | None, int]:
    """A proper k-coloring or None, and the number of nodes searched.

    Below n colors, a tie on saturation goes to the vertex with the most
    uncolored neighbors of its own saturation, and only then to degree."""
    n = g.n
    if n == 0:
        return [], 0
    if k <= 0:
        return None, 0
    colors = [-1] * n
    cnt = [[0] * k for _ in range(n)]  # colored-neighbor count per color
    sat = [0] * n  # bitmask of colors with cnt > 0
    degs = g.degrees()
    nodes = 0

    def same_saturation(u: int) -> int:
        """Uncolored neighbors of u that see as many colors as u does."""
        s = sat[u].bit_count()
        return sum(1 for w in _iter_bits(g.bits[u])
                   if colors[w] < 0 and sat[w].bit_count() == s)

    def pick() -> int:
        best, key = -1, None
        for u in range(n):
            if colors[u] < 0:
                ties = same_saturation(u) if k < n else 0
                cand = (sat[u].bit_count(), ties, degs[u], -u)
                if key is None or cand > key:
                    best, key = u, cand
        return best

    def rec(colored: int, used: int) -> bool:
        nonlocal nodes
        if colored == n:
            return True
        v = pick()
        limit = min(k, used + 1)
        allowed = ~sat[v] & ((1 << limit) - 1)
        while allowed:
            low = allowed & -allowed
            c = low.bit_length() - 1
            allowed ^= low
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SolverBudgetError("nodes", f"over {node_budget} decisions")
            if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                raise SolverBudgetError("time", "wall-clock limit hit")
            colors[v] = c
            for u in _iter_bits(g.bits[v]):
                if cnt[u][c] == 0:
                    sat[u] |= 1 << c
                cnt[u][c] += 1
            if rec(colored + 1, max(used, c + 1)):
                return True
            for u in _iter_bits(g.bits[v]):
                cnt[u][c] -= 1
                if cnt[u][c] == 0:
                    sat[u] &= ~(1 << c)
            colors[v] = -1
        return False

    return (list(colors) if rec(0, 0) else None), nodes
