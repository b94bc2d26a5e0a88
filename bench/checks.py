"""Independent checks of distchroma outputs.

Nothing here imports distchroma: graphs are decoded from graph6 by this
module's own decoder, powers come from a plain BFS, colorability from a
small backtracking search, clique numbers from Bron-Kerbosch, and spectral
radii from ``numpy.linalg.eigvalsh``. Every check raises ``CheckError``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

LAMBDA_TOL = 1e-8
BOUND_SLACK = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def fail(message: str) -> None:
    raise CheckError(message)


def decode_graph6(line: str) -> list[set[int]]:
    """Adjacency sets of a short-form graph6 line (n <= 62)."""
    data = [ord(ch) - 63 for ch in line.strip()]
    n = data[0]
    adj: list[set[int]] = [set() for _ in range(n)]
    bits = []
    for byte in data[1:]:
        bits.extend((byte >> k) & 1 for k in range(5, -1, -1))
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                adj[u].add(v)
                adj[v].add(u)
            idx += 1
    return adj


def adjacency_from_bits(bits) -> list[set[int]]:
    """Adjacency sets from per-vertex bitmasks (the input description)."""
    return [{u for u in range(len(bits)) if mask >> u & 1} for mask in bits]


def distances(adj: list[set[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def power(adj: list[set[int]], gamma: int) -> list[set[int]]:
    """Vertices at distance 1..gamma, by BFS from every vertex."""
    out = []
    for v in range(len(adj)):
        dist = distances(adj, v)
        out.append({u for u, d in enumerate(dist) if 0 < d <= gamma})
    return out


def is_connected(adj: list[set[int]]) -> bool:
    return not adj or min(distances(adj, 0)) >= 0


def girth(adj: list[set[int]]) -> float:
    """Shortest cycle: for every edge, the detour around it plus one."""
    best = float("inf")
    for u in range(len(adj)):
        for v in adj[u]:
            if v < u:
                continue
            dist = {u: 0}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                for b in adj[a]:
                    if (a, b) == (u, v) or b in dist:
                        continue
                    dist[b] = dist[a] + 1
                    queue.append(b)
            if v in dist:
                best = min(best, dist[v] + 1)
    return best


def max_power_degree(delta: int, gamma: int) -> int:
    """M = delta * ((delta - 1)^gamma - 1) / (delta - 2), exactly."""
    num = delta * ((delta - 1) ** gamma - 1)
    if num % (delta - 2):
        fail(f"M is not an integer for delta={delta}, gamma={gamma}")
    return num // (delta - 2)


def colorable(adj: list[set[int]], k: int) -> bool:
    """Whether the graph has a proper k-coloring (plain backtracking)."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    color = [-1] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = {color[u] for u in adj[v]}
        for c in range(min(k, used + 1)):
            if c not in taken:
                color[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
        color[v] = -1
        return False

    return place(0, 0)


def clique_number(adj: list[set[int]]) -> int:
    """Bron-Kerbosch with pivoting."""
    best = 0

    def expand(size: int, cand: set[int], excl: set[int]) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + len(cand) <= best:
            return
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in list(cand - adj[pivot]):
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    expand(0, set(range(len(adj))), set())
    return best


def spectral_radius(adj: list[set[int]]) -> float:
    n = len(adj)
    a = np.zeros((n, n))
    for v in range(n):
        for u in adj[v]:
            a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def check_coloring(padj: list[set[int]], assignment, chi: int, what: str) -> None:
    """Proper on the independent power graph and uses exactly chi colors."""
    if len(assignment) != len(padj):
        fail(f"{what}: witness covers {len(assignment)} of {len(padj)} vertices")
    for v, nbrs in enumerate(padj):
        for u in nbrs:
            if assignment[u] == assignment[v]:
                fail(f"{what}: vertices {v} and {u} at distance <= gamma share "
                     f"color {assignment[v]}")
    if set(assignment) != set(range(chi)):
        fail(f"{what}: witness uses colors {sorted(set(assignment))}, "
             f"not exactly 0..{chi - 1}")


def check_minimal(padj: list[set[int]], chi: int, what: str) -> None:
    if chi > 0 and colorable(padj, chi - 1):
        fail(f"{what}: {chi - 1} colors suffice, so chi = {chi} is not minimal")


def check_bounds(entries, chi: int, what: str) -> None:
    """Every applicable bound, given as (source, value, strict, applicable),
    must allow chi."""
    for source, value, strict, applicable in entries:
        if not applicable:
            continue
        ok = chi < value + BOUND_SLACK if strict else chi <= value + BOUND_SLACK
        if not ok:
            fail(f"{what}: chi = {chi} breaks applicable bound {source} = {value}")


def check_lambda(reported: float, expected: float, what: str) -> None:
    if abs(reported - expected) > LAMBDA_TOL:
        fail(f"{what}: lambda1 = {reported!r}, eigvalsh gives {expected!r}")


def check_equal(got, expected, what: str) -> None:
    if got != expected:
        fail(f"{what}: got {got!r}, expected {expected!r}")
