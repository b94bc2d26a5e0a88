"""Structural invariants and distance powers of graphs.

All functions are pure and operate on immutable Graph values, so corpus
runners may evaluate them concurrently. Infinite girth/diameter are
modeled as ``math.inf``, never as an integer sentinel.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from itertools import islice

from .graphs import Graph, _iter_bits, bfs_layers, is_connected, per_graph

INFINITE = math.inf
CLIQUE_CAP = 200  # clique_number refuses larger graphs


class CliqueCapError(ValueError):
    """clique_number refused a graph larger than its cap."""


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Distances from ``source``; unreachable vertices get ``INFINITE``."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    dist: list[int | float] = [INFINITE] * g.n
    for d, layer in enumerate(bfs_layers(g, 1 << source)):
        for v in _iter_bits(layer):
            dist[v] = d
    return dist


def is_bipartite(g: Graph) -> bool:
    """True when no BFS layer of any component contains an edge (an edge
    inside a layer closes an odd cycle, and every odd cycle leaves one)."""
    seen = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        for layer in bfs_layers(g, 1 << s):
            seen |= layer
            if any(g.bits[v] & layer for v in _iter_bits(layer)):
                return False
    return True


@dataclass(frozen=True)
class PowerGraph:
    """The distance-<= gamma adjacency over the vertices of a base graph.
    Holds no reference to the base graph, so it can be memoized on it."""

    gamma: int
    graph: Graph


@per_graph
def power_graph(g: Graph, gamma: int) -> PowerGraph:
    """Graph whose edges join base vertices at distance in [1, gamma]: the
    row of v is the union of the BFS layers 1..gamma from v."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    bits = [sum(islice(bfs_layers(g, 1 << v), 1, gamma + 1)) for v in range(g.n)]
    return PowerGraph(gamma, Graph(g.n, tuple(bits)))


@per_graph
def _girth_pass(g: Graph) -> tuple[int | float, tuple | None]:
    """The girth, and the first girth-length BFS cross edge with its tree.

    BFS from every root; a cross edge (v,u) seen at depths d(v), d(u)
    witnesses a closed walk of length d(v)+d(u)+1 through the root, and the
    minimum over all roots is exactly the girth. The edge is returned as
    (v, u, parent) for the root it was seen from, or None for forests.
    """
    best: int | float = INFINITE
    hit = None
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = collections.deque([root])
        while queue:
            v = queue.popleft()
            if 2 * dist[v] >= best:
                break
            for u in _iter_bits(g.bits[v]):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif u != parent[v]:
                    cand = dist[v] + dist[u] + 1
                    if cand < best:
                        best, hit = cand, (v, u, parent)
    return best, hit


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, INFINITE for forests."""
    return _girth_pass(g)[0]


def shortest_cycle(g: Graph) -> list[int] | None:
    """Vertices of one shortest cycle in order, or None for forests.

    At the girth the two tree paths of the cross edge meet only at the root
    (a shared vertex would close a shorter cycle), so stitching them with
    the edge yields a simple cycle. Deterministic: the first girth-length
    hit in ascending root and neighbor order.
    """
    _, hit = _girth_pass(g)
    if hit is None:
        return None
    v, u, parent = hit

    def to_root(a: int) -> list[int]:
        path = []
        while a != -1:
            path.append(a)
            a = parent[a]
        return path

    return to_root(v)[::-1] + to_root(u)[:-1]


@per_graph
def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; INFINITE when disconnected."""
    best = 0
    for v in range(g.n):
        layers = list(bfs_layers(g, 1 << v))
        if sum(layers) != (1 << g.n) - 1:
            return INFINITE
        best = max(best, len(layers) - 1)
    return best


def two_degree_profile(g: Graph) -> list[int]:
    """Per-vertex sum of neighbor degrees."""
    deg = g.degrees()
    return [sum(deg[u] for u in _iter_bits(g.bits[v])) for v in range(g.n)]


def max_power_degree(delta: int, gamma: int) -> int:
    """Largest possible degree of the gamma-th power of a connected graph
    with maximum degree ``delta`` >= 3: delta * ((delta-1)^gamma - 1) / (delta-2).

    The division is exact; everything is integer arithmetic.
    """
    if delta < 3:
        raise ValueError(f"requires maximum degree >= 3, got {delta}")
    if gamma < 2:
        raise ValueError(f"requires gamma >= 2, got {gamma}")
    num = delta * ((delta - 1) ** gamma - 1)
    if num % (delta - 2):
        raise AssertionError(f"{delta - 2} does not divide {num}")
    return num // (delta - 2)


# ---------------------------------------------------------------------------
# vertex connectivity: unit-capacity max flow on the vertex-split digraph


def _local_connectivity(g: Graph, s: int, t: int) -> int:
    """Max number of internally disjoint s-t paths (s,t non-adjacent)."""
    # node 2v = v_in, 2v+1 = v_out; arc capacities are 1 everywhere.
    nn = 2 * g.n
    cap: list[dict[int, int]] = [dict() for _ in range(nn)]

    def add(a: int, b: int):
        cap[a][b] = cap[a].get(b, 0) + 1
        cap[b].setdefault(a, 0)

    for v in range(g.n):
        if v != s and v != t:
            add(2 * v, 2 * v + 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v)
        add(2 * v + 1, 2 * u)
    src, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = [-1] * nn
        prev[src] = src
        queue = collections.deque([src])
        while queue and prev[sink] < 0:
            a = queue.popleft()
            for b, c in cap[a].items():
                if c > 0 and prev[b] < 0:
                    prev[b] = a
                    queue.append(b)
        if prev[sink] < 0:
            return flow
        b = sink
        while b != src:
            a = prev[b]
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1


@per_graph
def vertex_connectivity(g: Graph) -> int:
    """Minimum vertices whose removal disconnects g or leaves one vertex.

    Complete graphs return n-1 by convention; disconnected graphs return 0.
    Scans source vertices v while v < best, which is enough: while best
    exceeds kappa, the scan reaches vertices 0..kappa, one of which lies
    outside a minimum separator S and has a non-neighbor beyond S, which
    brings best down to kappa; after that no further source can lower it.
    """
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    best = g.n - 1
    v = 0
    while v < best and v < g.n:
        others = ~g.bits[v] & ((1 << g.n) - 1) & ~(1 << v)
        for u in _iter_bits(others):
            k = _local_connectivity(g, v, u)
            if k < best:
                best = k
        v += 1
    return best


# ---------------------------------------------------------------------------
# exact maximum clique (branch and bound with greedy coloring bound)


def max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique size and one witness clique; the cap is clique_number's."""
    best: list = [0, ()]  # size, clique
    _expand(g.bits, [], (1 << g.n) - 1, best)
    return best[0], tuple(sorted(best[1]))


def _color_sort(bits: tuple[int, ...], P: int) -> list[tuple[int, int]]:
    """Greedy color classes of P; (vertex, class index) in class order."""
    out = []
    k = 0
    rest = P
    while rest:
        k += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            out.append((v, k))
            avail &= ~bits[v] & ~(1 << v)
            rest &= ~(1 << v)
    return out


def _expand(bits: tuple[int, ...], R: list[int], P: int, best: list) -> None:
    """Extend the clique R by candidates P, pruning by the color bound."""
    for v, bound in reversed(_color_sort(bits, P)):
        if len(R) + bound <= best[0]:
            return
        R.append(v)
        P2 = P & bits[v]
        if P2:
            _expand(bits, R, P2, best)
        elif len(R) > best[0]:
            best[:] = len(R), tuple(R)
        R.pop()
        P &= ~(1 << v)


def clique_number(g: Graph) -> int:
    """The clique number; raises CliqueCapError above CLIQUE_CAP vertices."""
    if g.n > CLIQUE_CAP:
        raise CliqueCapError(f"clique search capped at n={CLIQUE_CAP}, got {g.n}")
    return max_clique(g)[0]


# ---------------------------------------------------------------------------
# invariant report


@dataclass(frozen=True)
class InvariantReport:
    n: int
    m: int
    max_degree: int
    min_degree: int
    girth: int | float
    diameter: int | float
    connectivity: int
    is_connected: bool
    is_regular: bool
    is_bipartite: bool
    two_degree_regular: bool


def invariants(g: Graph) -> InvariantReport:
    degs = g.degrees()
    dmax = max(degs, default=0)
    dmin = min(degs, default=0)
    profile = two_degree_profile(g)
    return InvariantReport(
        n=g.n,
        m=g.m,
        max_degree=dmax,
        min_degree=dmin,
        girth=girth(g),
        diameter=diameter(g),
        connectivity=vertex_connectivity(g),
        is_connected=is_connected(g),
        is_regular=dmax == dmin,
        is_bipartite=is_bipartite(g),
        two_degree_regular=len(set(profile)) <= 1,
    )
