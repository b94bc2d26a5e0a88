"""Exact and constructive distance coloring.

The exact solver works in a bracket [lb, ub] on the chromatic number. The
clique number is the first lower bound and a greedy DSATUR coloring the
first upper bound; when they meet, that is the answer. Otherwise lb rises
to ceil(n/alpha), alpha the clique number of the complement, and while
ub > lb a DSATUR-ordered backtracking search runs on ub - 1 colors, with a
seeded Tabucol local search advanced one iteration per search node. A
coloring from either lowers ub to its color count; a search that ends
without one proves ub - 1 infeasible, so chi = ub. So a returned value is
certified minimal, and in both cases its witness is checked proper with a
real raise. The search is a bitset kernel: the vertices are ranked
once by degree, the uncolored vertices of each saturation level form one
bitmask, and each color keeps the bitmask of vertices adjacent to it, so a
search node costs O(k) integer operations plus a pass over the top
saturation level when it holds a tie, with no scan over the vertices. The
greedy DSATUR coloring is the kernel's first descent. The constructive side
implements the save-a-color machinery: palette-limited greedy completion
driven by vertex orders of decreasing distance from a seed edge, on
bitmasks too: each vertex keeps the set of colors its neighbors use.

excess(v) = 1 + |colors available at v| - |uncolored neighbors of v in the
target graph|. Under any partial coloring with M-1 colors (M = largest
possible power-graph degree) every vertex has excess >= 0, which is what
makes the greedy completion work.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, _iter_bits, bfs_layers, per_graph
from .metrics import (
    PowerGraph,
    girth,
    is_connected,
    max_clique,
    max_power_degree,
    power_graph,
    shortest_cycle,
    vertex_connectivity,
)

DEFAULT_EXACT_CAP = 64


class SolverCapError(ValueError):
    """Input larger than the exact-search cap."""


class SolverBudgetError(RuntimeError):
    """Node or wall-clock budget exhausted; distinct from infeasibility.
    The fields sit in ``args``, so the error pickles out of a pool worker."""

    def __init__(self, kind: str, detail: str, lb: int | None = None,
                 ub: int | None = None):
        super().__init__(kind, detail, lb, ub)
        self.kind, self.detail, self.lb, self.ub = kind, detail, lb, ub

    def __str__(self) -> str:
        bracket = "" if self.lb is None else f"; chi in [{self.lb}, {self.ub}]"
        return f"{self.kind} budget exhausted: {self.detail}{bracket}"


@dataclass(frozen=True)
class Coloring:
    """Proper coloring with colors 0..k-1, each used at least once."""

    assignment: tuple[int, ...]
    k: int

    def proper_on(self, g: Graph) -> bool:
        classes = [0] * self.k
        for v, c in enumerate(self.assignment):
            classes[c] |= 1 << v
        return not any(b & classes[c] for b, c in zip(g.bits, self.assignment))


def normalize_coloring(assignment: Sequence[int]) -> Coloring:
    """Relabel colors by first occurrence; deterministic and gap-free."""
    relabel: dict[int, int] = {}
    out = []
    for c in assignment:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return Coloring(tuple(out), len(relabel))


def dsatur_upper_bound(g: Graph) -> Coloring:
    """Greedy DSATUR coloring; always succeeds, gives the search its start.
    It is the search's first descent with a palette of n colors, which never
    backtracks: the least color free at the picked vertex is always below
    its limit."""
    return normalize_coloring(_solve_k(g, g.n, None, None))


@per_graph
def _ranked(g: Graph) -> tuple[list[int], Sequence[int]]:
    """The vertices ranked by (degree descending, index ascending), and the
    neighborhood of each rank as a bitmask of ranks."""
    order = sorted(range(g.n), key=[-b.bit_count() for b in g.bits].__getitem__)
    if order == list(range(g.n)):  # already ranked, as in every regular graph
        return order, g.bits
    rank_bit = [0] * g.n
    for r, v in enumerate(order):
        rank_bit[v] = 1 << r
    nbr = []
    for v in order:
        b, mask = g.bits[v], 0
        while b:
            low = b & -b
            mask |= rank_bit[low.bit_length() - 1]
            b ^= low
        nbr.append(mask)
    return order, nbr


def _solve_k(
    g: Graph,
    k: int,
    node_budget: int | None,
    deadline: float | None,
    local: Iterator[list[int] | None] | None = None,
) -> list[int] | None:
    """Find a proper k-coloring or prove none exists.

    DSATUR vertex selection (most distinct neighbor colors; below n colors,
    then most uncolored neighbors that see as many; then highest degree,
    then lowest index) with first-occurrence color symmetry breaking:
    colors are tried in ascending order below min(k, used + 1), so at most
    one fresh color index is opened per decision. Each color tried is one
    node; the budget is checked at every node and the deadline at the first
    and every 1024th. With n colors the search is the greedy DSATUR coloring.

    ``local`` is a local search on k colors, advanced one step per node: it
    yields None while it runs and a proper coloring when it finds one,
    which the search then returns. When it stops, the search runs alone.

    The search runs on bitsets over the ranked vertices of ``_ranked``, so
    the last tie-break is the lowest set bit. ``buckets[s]`` holds the
    uncolored vertices that see s distinct colors, and ``adj[c]`` the
    vertices adjacent to color c. Giving v the color c moves N(v) & ~adj[c]
    up one bucket. An explicit stack of frames keeps each level's buckets,
    color count and old adj[c], so a backtrack restores them without
    recomputing.
    """
    n = g.n
    order, nbr = _ranked(g)
    ties = k < n  # break saturation ties by neighbors in the top bucket
    buckets = [(1 << n) - 1]  # by saturation, up to the highest nonempty one
    adj = [0] * k
    colors = [0] * n
    used = 0
    nodes = 0
    # one per colored rank: (v, colors left to try, used, buckets, color, old adj)
    frames: list[tuple] = []
    while len(frames) < n:
        b = buckets[-1]
        v = (b & -b).bit_length() - 1
        if ties and b & (b - 1):
            most, rest = -1, b
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                same = (nbr[u] & b).bit_count()
                if same > most:
                    most, v = same, u
                rest ^= low
        if len(buckets) > used:  # v sees all `used` colors: only a new one is free
            allowed = 1 << used if used < k else 0
        else:
            allowed = 0
            for c in range(min(k, used + 1)):
                if not adj[c] >> v & 1:
                    allowed |= 1 << c
        while not allowed:
            if not frames:
                return None
            v, allowed, used, buckets, c, old = frames.pop()
            adj[c] = old
        low = allowed & -allowed
        c = low.bit_length() - 1
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SolverBudgetError("nodes", f"over {node_budget} decisions")
        if deadline is not None and nodes % 1024 == 1 and time.monotonic() > deadline:
            raise SolverBudgetError("time", "wall-clock limit hit")
        found = local and next(local, None)
        if found:
            return found
        old = adj[c]
        frames.append((v, allowed ^ low, used, buckets, c, old))
        colors[v] = c
        if c == used:
            used += 1
        adj[c] = old | nbr[v]
        up = nbr[v] & ~old
        keep = ~(up | 1 << v)
        moved = [buckets[0] & keep]
        moved += [hi & keep | lo & up for lo, hi in zip(buckets, buckets[1:])]
        moved.append(buckets[-1] & up)
        while not moved[-1] and len(moved) > 1:
            moved.pop()
        buckets = moved
    out = [0] * n
    for r, v in enumerate(order):
        out[v] = colors[r]
    return out


# Tabucol's seed and its iteration budget at each palette. It runs one
# iteration per node of the search on the same palette, 15-30 us against a
# node's 5-10 us at n = 44..63 (Python 3.11 on a 2-CPU x86-64 Xeon), so at
# chi - 1, where it must fail, it runs no more iterations than the search
# takes nodes to prove that palette infeasible, nor more than the budget.
# On the two instances of the hard-exact benchmark where finding the
# coloring at chi was most of the solve (random-regular n=56 seed 1 and n=40
# seed 5, d = 3, gamma = 3), 30 seeds took a median of 1274 and 1769
# iterations to reach chi; the budget of 2000 was chosen, among 1000, 2000
# and 4000, when a failed attempt ran alone before the search. Seed 0 is the
# first one tried; with it both instances reach chi.
TABUCOL_SEED = 0
TABUCOL_ITERATIONS = 2000


@per_graph
def _independence_number(g: Graph) -> int:
    """alpha(g), the clique number of the complement."""
    full = (1 << g.n) - 1
    complement = Graph(g.n, tuple(full ^ b ^ 1 << v for v, b in enumerate(g.bits)))
    return max_clique(complement)[0]


def _tabucol(g: Graph, start: Coloring) -> Iterator[list[int] | None]:
    """Steps of a local search for a proper coloring with fewer colors
    than ``start``: None before each iteration, then the coloring if found.

    Tabucol (Hertz & de Werra, Computing 1987) with the tabu tenure of
    Galinier & Hao (J. Comb. Optim. 1999), on k = start.k - 1 colors. The
    smallest color class of ``start`` is dropped, and each of its vertices,
    in index order, takes the color seen least among its neighbors. Each
    iteration moves a conflicting vertex to the color that removes the most
    conflicts, ties broken by the seeded generator. A move back to a color
    the vertex left is tabu for a random 0..9 plus 0.6 times the number of
    conflicting vertices iterations, unless it reaches fewer conflicts than
    ever before. The run stops at zero conflicts or after
    TABUCOL_ITERATIONS; only the search it steps beside checks budgets.
    """
    rng = random.Random(TABUCOL_SEED)
    n, k = g.n, start.k - 1
    nbrs = [list(_iter_bits(b)) for b in g.bits]
    sizes = [start.assignment.count(c) for c in range(start.k)]
    drop = min(range(start.k), key=lambda c: (sizes[c], -c))
    colors = [c - (c > drop) if c != drop else -1 for c in start.assignment]
    for v in range(n):
        if colors[v] < 0:
            seen = [0] * k
            for u in nbrs[v]:
                if colors[u] >= 0:
                    seen[colors[u]] += 1
            colors[v] = seen.index(min(seen))
    counts = [[0] * k for _ in range(n)]  # counts[v][c]: neighbors of v colored c
    for v in range(n):
        for u in nbrs[v]:
            counts[v][colors[u]] += 1
    conflicts = sum(counts[v][colors[v]] for v in range(n)) // 2
    conflicting = sum(1 << v for v in range(n) if counts[v][colors[v]])
    fewest = conflicts
    tabu = [[0] * k for _ in range(n)]  # the first iteration a move is allowed
    for it in range(TABUCOL_ITERATIONS):
        if not conflicts:
            break
        yield None
        best, moves = n * n, []
        aspiration = fewest - conflicts  # a tabu move is allowed below this
        for v in _iter_bits(conflicting):
            row, cv, banned = counts[v], colors[v], tabu[v]
            own = row[cv]
            for c in range(k):
                delta = row[c] - own
                if delta > best or c == cv or (banned[c] > it and delta >= aspiration):
                    continue
                if delta < best:
                    best, moves = delta, []
                moves.append((v, c))
        if not moves:
            continue
        v, c = moves[rng.randrange(len(moves))]
        old = colors[v]
        colors[v] = c
        for u in nbrs[v]:
            row = counts[u]
            row[old] -= 1
            row[c] += 1
            if colors[u] == old and not row[old]:
                conflicting &= ~(1 << u)
            elif colors[u] == c:
                conflicting |= 1 << u
        if not counts[v][c]:
            conflicting &= ~(1 << v)
        conflicts += best
        fewest = min(fewest, conflicts)
        tabu[v][old] = it + 1 + rng.randrange(10) + int(0.6 * conflicting.bit_count())
    if not conflicts:
        yield colors


def chromatic_number(
    g: Graph,
    *,
    cap: int = DEFAULT_EXACT_CAP,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness.

    Minimality is certified: k is either a lower bound (the clique number,
    or ceil(n/alpha) once DSATUR needs more colors than the clique number)
    or the (k-1)-palette search returned infeasible. One loop searches
    ub - 1 colors, from the DSATUR count down, each search stepping a
    Tabucol run from the best coloring so far, until a search fails or ub
    reaches lb. A node budget bounds each search and the Tabucol steps
    beside it; a stop raises SolverBudgetError with the bracket [lb, ub].
    The one return checks the witness proper, searched or not.
    """
    if g.n > cap:
        raise SolverCapError(f"exact solver capped at n={cap}, got n={g.n}")
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    omega, _ = max_clique(g)
    witness = dsatur_upper_bound(g)  # its count is ub
    lb = omega if witness.k == omega else max(omega, -(-g.n // _independence_number(g)))
    try:
        while witness.k > lb:
            found = _solve_k(g, witness.k - 1, node_budget, deadline, _tabucol(g, witness))
            if found is None:
                break
            witness = normalize_coloring(found)
    except SolverBudgetError as err:
        raise SolverBudgetError(err.kind, err.detail, lb, witness.k) from None
    if not witness.proper_on(g):
        raise AssertionError(f"the {witness.k}-coloring found is not proper")
    return witness.k, witness


def distance_chromatic_number(
    g: Graph,
    gamma: int,
    *,
    cap: int = DEFAULT_EXACT_CAP,
    time_budget: float | None = None,
) -> tuple[int, Coloring]:
    """Chromatic number of the gamma-th power of a connected graph, by
    chromatic_number with the same cap and time budget (no node budget)."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if not is_connected(g):
        raise ValueError("distance chromatic number requires a connected graph")
    pg = power_graph(g, gamma)
    return chromatic_number(pg.graph, cap=cap, time_budget=time_budget)


def path_distance_chromatic(n: int, gamma: int) -> int:
    """Distance chromatic number of the path on n vertices: min(n, gamma+1)."""
    if n < 1 or gamma < 1:
        raise ValueError("need n >= 1 and gamma >= 1")
    return min(n, gamma + 1)


def cycle_distance_chromatic(n: int, gamma: int) -> int:
    """Distance chromatic number of the cycle on n vertices.

    gamma+1 when (gamma+1) divides n; otherwise the least i+1 >= gamma+2
    with n mod i <= n/i. The comparison is done as n mod i <= n // i: the
    left side is an integer, so thresholding against the rational n/i and
    against floor(n/i) agree. For n > gamma the scan stops by i = n at the
    latest (n mod n = 0); for n <= gamma the scan range is empty, but there
    the power is complete, so the value is n outright.
    """
    if n < 3 or gamma < 1:
        raise ValueError("need n >= 3 and gamma >= 1")
    if n <= gamma:
        return n
    if n % (gamma + 1) == 0:
        return gamma + 1
    i = gamma + 1
    while n % i > n // i:
        i += 1
    return i + 1


# ---------------------------------------------------------------------------
# palette-limited partial colorings


class PartialColoring:
    """Partial proper coloring of a power graph with a fixed palette.

    Kept as bitmasks, like the exact search: ``_seen[v]`` holds the colors
    on v's colored neighbors and ``_uncolored`` the uncolored vertices. The
    available colors, the excess and the uncolored neighbors of a vertex are
    read off them. It only grows: ``assign`` never clears a bit. Owned by a
    single solver run; not safe to share while mutating.
    """

    def __init__(self, target: PowerGraph, palette_size: int):
        if palette_size < 1:
            raise ValueError("palette_size must be >= 1")
        self.target = target
        self.palette_size = palette_size
        n = target.graph.n
        self.assignment: list[int | None] = [None] * n
        self._seen = [0] * n
        self._uncolored = (1 << n) - 1

    def _free(self, v: int) -> int:
        """The colors available at v, as a bitmask."""
        return ~self._seen[v] & (1 << self.palette_size) - 1

    def available(self, v: int) -> set[int]:
        return set(_iter_bits(self._free(v)))

    def uncolored_neighbors(self, v: int) -> int:
        return (self.target.graph.bits[v] & self._uncolored).bit_count()

    def excess(self, v: int) -> int:
        return 1 + self._free(v).bit_count() - self.uncolored_neighbors(v)

    def is_colored(self, v: int) -> bool:
        return self.assignment[v] is not None

    def uncolored_vertices(self) -> list[int]:
        return list(_iter_bits(self._uncolored))

    def assign(self, v: int, c: int) -> None:
        if self.assignment[v] is not None:
            raise ValueError(f"vertex {v} already colored")
        if not 0 <= c < self.palette_size:
            raise ValueError(f"color {c} outside palette of {self.palette_size}")
        if self._seen[v] >> c & 1:
            raise ValueError(f"color {c} conflicts with a neighbor of {v}")
        self.assignment[v] = c
        self._uncolored ^= 1 << v
        for u in _iter_bits(self.target.graph.bits[v]):
            self._seen[u] |= 1 << c

    def _assign_least(self, v: int) -> bool:
        """Give v its least available color; False when none is left."""
        free = self._free(v)
        if free:
            self.assign(v, (free & -free).bit_length() - 1)
        return bool(free)

    def is_complete(self) -> bool:
        return not self._uncolored

    def to_coloring(self) -> Coloring:
        if not self.is_complete():
            raise ValueError("coloring is not complete")
        return normalize_coloring(self.assignment)  # type: ignore[arg-type]

    def state_digest(self) -> str:
        blob = repr(self.assignment).encode()
        return hashlib.sha1(blob).hexdigest()[:16]


def greedy_coloring(
    pg: PowerGraph, order: Sequence[int], palette_size: int
) -> PartialColoring:
    """Color along ``order`` with the least available color; vertices with
    no available color stay uncolored (data, not an error)."""
    n = pg.graph.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    pc = PartialColoring(pg, palette_size)
    for v in order:
        pc._assign_least(v)
    return pc


@dataclass(frozen=True)
class CompletionFailure:
    """Greedy completion got stuck; identifies the blocking vertex."""

    blocking_vertex: int
    stage: str  # "order" | "u" | "v"
    state_digest: str


def order_by_distance_from_edge(
    g: Graph, u: int, v: int, within: Iterable[int] | None = None
) -> list[int]:
    """Vertices by decreasing distance from the edge uv, u and v last.

    Distances are measured inside the subgraph induced by ``within`` (all
    vertices when omitted), which must be connected and contain the edge.
    Ties break by ascending vertex index.
    """
    inside = (1 << g.n) - 1 if within is None else sum(1 << w for w in set(within))
    if not (inside >> u & 1 and inside >> v & 1):
        raise ValueError("u and v must lie in the subgraph")
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    layers = list(bfs_layers(g, 1 << u | 1 << v, inside))
    if sum(layers) != inside:
        raise ValueError("subgraph is not connected")
    return [w for layer in reversed(layers[1:]) for w in _iter_bits(layer)] + [u, v]


def complete_partial_coloring(
    pc: PartialColoring, order: Sequence[int], u: int, v: int
) -> Coloring | CompletionFailure:
    """Finish a partial coloring greedily along ``order``.

    ``order`` must list exactly the uncolored vertices with u, v as its last
    two entries, and u, v must be adjacent in the target. u takes its least
    color that leaves v one: u's color takes only itself from v. Anything
    deeper is left to the exact solver. Precondition violations raise
    ValueError, dead ends return CompletionFailure; no color is taken back.
    """
    order = list(order)
    if pc.is_colored(u) or pc.is_colored(v):
        raise ValueError("u and v must be uncolored")
    if not pc.target.graph.has_edge(u, v):
        raise ValueError("u and v must be adjacent in the target graph")
    if order[-2:] != [u, v]:
        raise ValueError("order must end with u, v")
    if sorted(order) != pc.uncolored_vertices():
        raise ValueError("order must cover exactly the uncolored vertices")

    for w in order[:-2]:
        if not pc._assign_least(w):
            return CompletionFailure(w, "order", pc.state_digest())
    free_u, free_v = pc._free(u), pc._free(v)
    if not free_u:
        return CompletionFailure(u, "u", pc.state_digest())
    if free_v.bit_count() == 1:
        free_u &= ~free_v  # leave v its one color
    if not (free_u and free_v):
        return CompletionFailure(v, "v", pc.state_digest())
    pc.assign(u, (free_u & -free_u).bit_length() - 1)
    pc._assign_least(v)
    return pc.to_coloring()


# ---------------------------------------------------------------------------
# the hypotheses of the bounds, and the save-a-color strategies that realize them

LARGE_DEGREE = 10**14  # power-graph degree from which the large-degree clique bound holds


def in_scope(g: Graph, gamma: int) -> bool:
    """Whether g is in the setting of the bounds and the strategies:
    connected with maximum degree >= 3. A gamma below 2 is a usage error,
    not a graph out of scope, so it raises ValueError."""
    if gamma < 2:
        raise ValueError(f"gamma must be >= 2, got {gamma}")
    return g.max_degree() >= 3 and is_connected(g)


def odd_degree_threshold(gamma: int) -> int:
    """Smallest Delta with (Delta - 1)^gamma > LARGE_DEGREE, in exact integer
    arithmetic. Above it (Delta odd, non-Moore) the M-1 bound kicks in."""
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    target = LARGE_DEGREE + 1
    x = max(2, int(round(target ** (1.0 / gamma))))
    while x**gamma >= target:
        x -= 1
    while x**gamma < target:
        x += 1
    return x + 1


def large_odd_degree(delta: int, gamma: int) -> bool:
    """The degree hypothesis of the odd-degree M-1 bound and of its case
    analysis: Delta odd and at least odd_degree_threshold(gamma)."""
    return delta % 2 == 1 and delta >= odd_degree_threshold(gamma)


@dataclass(frozen=True)
class BoundHypotheses:
    """The plain facts of one in-scope (graph, gamma), and every hypothesis
    of the bounds as a property of those facts alone. A Moore graph
    (Delta-regular, order M+1, girth 2*gamma+1) has diameter gamma: the
    depth-gamma BFS tree from any vertex holds 1 + Delta + ... +
    Delta(Delta-1)^(gamma-1) = M+1 distinct vertices, that is, every vertex."""

    gamma: int
    n: int
    max_degree: int
    min_degree: int
    girth: int | float
    connectivity: int | None  # computed only inside the high-girth window

    m_value = property(lambda h: max_power_degree(h.max_degree, h.gamma))
    is_regular = property(lambda h: h.min_degree == h.max_degree)
    order_matches = property(lambda h: h.n == h.m_value + 1)
    girth_is_2gamma_plus_1 = property(lambda h: h.girth == 2 * h.gamma + 1)
    is_moore = property(
        lambda h: h.is_regular and h.order_matches and h.girth_is_2gamma_plus_1)
    girth_is_2gamma = property(lambda h: h.girth == 2 * h.gamma)
    girth_not_critical = property(lambda h: not h.girth_is_2gamma_plus_1)
    non_regular = property(lambda h: not h.is_regular)
    short_girth = property(lambda h: h.girth <= 2 * h.gamma - 1)
    high_girth_window = property(
        lambda h: h.girth >= 2 * h.gamma + 2 and (h.gamma >= 3 or h.girth > 6))
    required_connectivity = property(lambda h: 3 if h.gamma >= 3 else 4)
    high_girth_connected = property(
        lambda h: h.high_girth_window and h.connectivity >= h.required_connectivity)
    odd_degree_large = property(
        lambda h: large_odd_degree(h.max_degree, h.gamma) and not h.is_moore)


@per_graph
def bound_hypotheses(g: Graph, gamma: int) -> BoundHypotheses:
    """The hypotheses record of (g, gamma), made once per graph and gamma.
    The one scope gate of the bounds and the strategies: raises ValueError
    outside the scope of in_scope."""
    if not in_scope(g, gamma):
        raise ValueError("requires a connected graph with maximum degree >= 3")
    hyp = BoundHypotheses(gamma, g.n, g.max_degree(), g.min_degree(), girth(g), None)
    if hyp.high_girth_window:
        hyp = replace(hyp, connectivity=vertex_connectivity(g))
    return hyp


@dataclass(frozen=True)
class StrategyOutcome:
    """Record of one save-a-color attempt on (g, gamma)."""

    applied: str  # "non-regular" | "short-girth" | "high-girth" | "not-applicable"
    gamma: int
    max_degree: int
    m_value: int
    palette_size: int
    hypotheses: dict
    seeds: dict | None
    coloring: Coloring | None
    failure: CompletionFailure | None
    used_exact_fallback: bool
    attempts: int

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None

    def to_json_dict(self) -> dict:
        """The fields as reported: the number of colors, not the coloring."""
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        coloring = fields.pop("coloring")
        fields["colors_used"] = coloring.k if coloring else None
        return fields


def save_color_strategy(
    g: Graph,
    gamma: int,
    *,
    exact_fallback: bool = True,
    cap: int = DEFAULT_EXACT_CAP,
) -> StrategyOutcome:
    """Try to color the gamma-th power with M-1 colors, one below the
    largest possible power-graph degree, using the first of non_regular,
    short_girth and high_girth_connected in bound_hypotheses that holds.
    Each attempt takes the next seed of ``_seeds``, precolors, and
    completes along the distance order from the seed edge; the first
    coloring ends the search. Otherwise the failure is the last
    completion's, or "seed-search-exhausted" when no seed got that far.
    Falls back to the exact solver (flagged) when the constructive run
    fails, so callers never depend on its completeness."""
    hyp = bound_hypotheses(g, gamma)
    delta, m_value = hyp.max_degree, hyp.m_value
    palette = m_value - 1
    hypotheses: dict = {"max_degree": delta, "min_degree": hyp.min_degree,
                        "girth": hyp.girth}
    if hyp.connectivity is not None:
        hypotheses["connectivity"] = hyp.connectivity
    applied = next((name for name, holds in (
        ("non-regular", hyp.non_regular),
        ("short-girth", hyp.short_girth),
        ("high-girth", hyp.high_girth_connected)) if holds), "not-applicable")

    if applied == "not-applicable":
        return StrategyOutcome(
            applied, gamma, delta, m_value, palette, hypotheses,
            None, None, None, False, 0,
        )

    pg = power_graph(g, gamma)
    result: Coloring | CompletionFailure = CompletionFailure(
        -1, "order", "seed-search-exhausted")
    seeds, attempts = None, 0
    for attempts, candidate in enumerate(_seeds(g, pg, applied), 1):
        if candidate is None:
            continue
        seed, removed = candidate
        u, v = seed["u"], seed["v"]
        pc = PartialColoring(pg, palette)
        try:
            for w, c in sorted(seed["precolored"].items()):
                pc.assign(w, c)
            order = order_by_distance_from_edge(g, u, v, set(range(g.n)) - removed)
        except ValueError:
            continue
        seeds = seed
        result = complete_partial_coloring(
            pc, [w for w in order if not pc.is_colored(w)], u, v)
        if isinstance(result, Coloring):
            break
    coloring = result if isinstance(result, Coloring) else None
    failure = result if isinstance(result, CompletionFailure) else None
    used_fallback = False
    if coloring is None and exact_fallback and g.n <= cap:
        k, witness = distance_chromatic_number(g, gamma, cap=cap)
        if k <= palette:
            coloring = witness
            used_fallback = True
    if coloring is not None and not (
            coloring.proper_on(pg.graph) and coloring.k <= palette):
        raise AssertionError(
            f"{applied}: {coloring.k} colors, not a proper coloring within {palette}")
    return StrategyOutcome(
        applied, gamma, delta, m_value, palette, hypotheses,
        seeds, coloring, failure, used_fallback, attempts,
    )


def _seeds(
    g: Graph, pg: PowerGraph, applied: str
) -> Iterator[tuple[dict, set[int]] | None]:
    """The seeds of a strategy, one per attempt: the seeds record and the
    vertices to leave out of the distance order, or None for an attempt
    that found no seed. Non-regular takes the least vertex v of minimum
    degree and its least neighbor u; short girth the least edge of a
    shortest cycle. High girth tries each rotation and orientation of a
    shortest cycle, v1 = at(0) and v2 = at(1), in lexicographic order, and
    precolors vertices near v1 so that v1 sees a repeated color. Distances
    up to gamma are read off the power graph: distance > gamma means
    distinct and not adjacent in it."""
    if applied == "non-regular":
        v = min(range(g.n), key=g.degree)
        yield {"u": min(g.neighbors(v)), "v": v, "precolored": {}}, set()
        return
    cycle = shortest_cycle(g)
    if applied == "short-girth":
        u, v = min(tuple(sorted((cycle[i], cycle[i - 1]))) for i in range(len(cycle)))
        yield {"u": u, "v": v, "precolored": {}, "cycle": cycle}, set()
        return
    gamma, near, glen = pg.gamma, pg.graph.bits, len(cycle)
    on_cycle = sum(1 << w for w in cycle)
    for start, sign in product(range(glen), (1, -1)):
        def at(off: int) -> int:
            return cycle[(start + sign * off) % glen]

        v1, v2 = at(0), at(1)
        precolored = removed = None
        if gamma >= 3:
            # x2: off the cycle, gamma - 1 steps from v1, beyond gamma from y2
            x1, y1, y2 = at(gamma), at(-1), at(-2)
            layers = bfs_layers(g, 1 << v1, ~on_cycle | 1 << v1)
            reach = next(islice(layers, gamma - 1, None), 0) & ~near[y2]
            if reach:
                x2 = (reach & -reach).bit_length() - 1
                precolored, removed = {x1: 0, y1: 0, x2: 1, y2: 1}, {y1, y2}
        else:
            # x3: off the cycle, two steps from v1, beyond 2 from x1 and x2
            x1, x2 = at(2), at(-1)
            x3 = next((x for w in _iter_bits(g.bits[v1] & ~on_cycle)
                       for x in _iter_bits(g.bits[w] & ~on_cycle)
                       if not near[x] & (1 << x1 | 1 << x2)), None)
            if x3 is not None:
                precolored, removed = {x1: 0, x2: 0, x3: 0}, {x1, x2, x3}
        yield None if precolored is None else (
            {"u": v2, "v": v1, "precolored": precolored, "cycle": cycle}, removed)
