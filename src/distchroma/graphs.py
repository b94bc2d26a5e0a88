"""Immutable simple graphs, graph6/edge-list codecs, graph generators, and
the one reader of the CLI's ``--input``.

Vertices are dense 0-based indices. Adjacency is stored as one integer
bitmask per vertex, which keeps neighborhood intersections and frontier
expansions cheap for the solvers built on top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import combinations
from typing import Iterable, Iterator


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault.
    The fields sit in ``args``, so the error pickles out of a pool worker."""

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


class EdgeListError(ValueError):
    """Malformed edge-list text; ``line`` is the 1-based source line. The
    fields sit in ``args``, so the error pickles (see Graph6Error)."""

    def __init__(self, message: str, line: int):
        super().__init__(message, line)
        self.line = line

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line})"


class GenerationError(ValueError):
    """Invalid generator parameters or exhausted random retries."""


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``bits[v]`` has bit ``u`` set iff ``uv`` is an edge. Instances are
    immutable and safe to share across threads and worker processes. Facts
    are memoized per instance (``per_graph``): a race computes one twice,
    and both get the same value.
    """

    n: int
    bits: tuple[int, ...]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(self.n):
            higher = self.bits[v] >> (v + 1)
            for off in _iter_bits(higher):
                out.append((v, v + 1 + off))
        return tuple(out)

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def degrees(self) -> list[int]:
        return [b.bit_count() for b in self.bits]

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.bits[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def max_degree(self) -> int:
        return max((b.bit_count() for b in self.bits), default=0)

    def min_degree(self) -> int:
        return min((b.bit_count() for b in self.bits), default=0)


def per_graph(fn):
    """Memoize ``fn(g, *args, **kwargs)`` on ``g`` itself, once per graph and
    argument list, freed with the graph; exceptions are not stored. Callers
    must not mutate the result, and it must not point back to ``g``."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memo(g: Graph, *args, **kwargs):
        facts = g.__dict__.setdefault("_facts", {})
        key = (name, args, tuple(sorted(kwargs.items())))
        if key not in facts:
            facts[key] = fn(g, *args, **kwargs)
        return facts[key]

    return memo


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable; duplicates collapse, loops raise."""
    bits = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return Graph(n, tuple(bits))


def validate(g: Graph) -> None:
    """Check structural invariants; raises AssertionError on violation,
    also under ``python -O``."""
    if len(g.bits) != g.n:
        raise AssertionError(f"{len(g.bits)} adjacency rows for n={g.n}")
    for v in range(g.n):
        if (g.bits[v] >> v) & 1:
            raise AssertionError(f"self-loop at {v}")
        if g.bits[v] >> g.n:
            raise AssertionError(f"adjacency bits beyond n at {v}")
        for u in _iter_bits(g.bits[v]):
            if not (g.bits[u] >> v) & 1:
                raise AssertionError(f"asymmetric edge {v},{u}")
    if from_edges(g.n, g.edges).bits != g.bits:
        raise AssertionError("edge list and adjacency disagree")


def bfs_layers(g: Graph, start: int, within: int = -1) -> Iterator[int]:
    """Breadth-first layers from the vertex set ``start``, walking only
    through the vertex set ``within`` (every vertex by default); both are
    bitmasks. Yields ``start`` as layer 0, then each nonempty frontier, so
    a vertex's layer index is its distance from ``start``. Layers are
    disjoint, so their sum is their union."""
    seen = frontier = start
    while frontier:
        yield frontier
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= g.bits[v]
        frontier = nxt & within & ~seen
        seen |= frontier


@per_graph
def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (and for n = 0)."""
    return g.n == 0 or sum(bfs_layers(g, 1)) == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# graph6 codec (McKay's format): one graph per line, bytes in 63..126.

_G6_HEADER = ">>graph6<<"
_G6_SIX_BITS = {b: format(b - 63, "06b") for b in range(63, 127)}  # byte -> its bits


def _g6_read_order(data: bytes, pos: int) -> tuple[int, int]:
    """The order at ``pos`` (1, '~' + 3 or '~~' + 6 bytes) and the position after it."""
    if pos >= len(data):
        raise Graph6Error("empty graph6 payload", pos)
    if data[pos] != 126:
        start, count = pos, 1
    elif data[pos + 1:pos + 2] == b"~":
        start, count = pos + 2, 6
    else:
        start, count = pos + 1, 3
    if start + count > len(data):
        raise Graph6Error("truncated extended length field", len(data))
    n = 0
    for i in range(start, start + count):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", i)
        n = (n << 6) | (b - 63)
    return n, start + count


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed). The
    payload is one bit string; column v holds the pairs (0, v) ... (v - 1, v)."""
    line = text.rstrip("\r\n")
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as err:
        raise Graph6Error(f"non-ASCII character {line[err.start]!r}", err.start) from None
    n, pos = _g6_read_order(data, 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error(
            f"payload too short: need {nbytes} adjacency bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing garbage after adjacency bytes", pos + nbytes)
    payload = data[pos:]
    try:
        column_bits = "".join(map(_G6_SIX_BITS.__getitem__, payload))
    except KeyError as err:
        b = err.args[0]
        raise Graph6Error(f"byte {b} outside graph6 range 63..126",
                          pos + payload.index(b)) from None
    if "1" in column_bits[nbits:]:
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    bits = [0] * n
    start = 0
    for v in range(1, n):
        bits[v] = column = int(column_bits[start:start + v][::-1], 2)
        start += v
        for u in _iter_bits(column):
            bits[u] |= 1 << v
    return Graph(n, tuple(bits))


def encode_graph6(g: Graph) -> str:
    """Encode canonically: short length form for n <= 62, zero padding. Like
    parse_graph6, the payload is one bit string, column v after column v - 1."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    else:
        head = [126, 126] + [63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0)]
    # Column v is the v low bits of g.bits[v], lowest first; the bit 1 << v
    # keeps bin() from dropping the column's leading zeros.
    bits = "".join([bin(g.bits[v] & ((1 << v) - 1) | 1 << v)[:2:-1] for v in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    payload = [63 + int(bits[i:i + 6], 2) for i in range(0, len(bits), 6)]
    return bytes(head + payload).decode("ascii")


# ---------------------------------------------------------------------------
# plain edge-list format: lines "u v", '#' comments, blank lines ignored.


def parse_edge_list(text: str) -> Graph:
    """Parse ``u v`` lines into a Graph with n = 1 + max label."""
    edges = []
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected two tokens, got {len(parts)}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer token in {parts!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListError("vertex labels must be nonnegative", lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        max_label = max(max_label, u, v)
    return from_edges(max_label + 1, edges)


# ---------------------------------------------------------------------------
# generators


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GenerationError("path needs n >= 1")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GenerationError("cycle needs n >= 3")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star on n vertices, center 0."""
    if n < 2:
        raise GenerationError("star needs n >= 2")
    return from_edges(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GenerationError("complete graph needs n >= 1")
    return from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GenerationError("complete bipartite needs both sides >= 1")
    return from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    """Petersen graph as the Kneser graph K(5,2): disjoint 2-subsets of {0..4}."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return from_edges(10, edges)


def hoffman_singleton() -> Graph:
    """Hoffman-Singleton graph via five pentagons and five pentagrams.

    Pentagon vertex (h,i) is joined to pentagram vertex (j, h*j+i mod 5);
    the result is 7-regular on 50 vertices with girth 5 and diameter 2.
    """
    def pent(h, i):
        return 5 * h + i

    def gram(j, i):
        return 25 + 5 * j + i

    edges = []
    for h in range(5):
        for i in range(5):
            edges.append((pent(h, i), pent(h, (i + 1) % 5)))
            edges.append((gram(h, i), gram(h, (i + 2) % 5)))
    for h in range(5):
        for j in range(5):
            for i in range(5):
                edges.append((pent(h, i), gram(j, (h * j + i) % 5)))
    return from_edges(50, edges)


def square_lattice_torus(rows: int, cols: int) -> Graph:
    """4-regular torus grid; both dimensions must be >= 3 to stay simple."""
    if rows < 3 or cols < 3:
        raise GenerationError("torus needs rows >= 3 and cols >= 3")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return from_edges(rows * cols, edges)


def hex_lattice(rows: int, cols: int) -> Graph:
    """Finite honeycomb patch in brick-wall form: vertical rungs at even r+c."""
    if rows < 2 or cols < 2:
        raise GenerationError("hex lattice needs rows >= 2 and cols >= 2")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows and (r + c) % 2 == 0:
                edges.append((v, v + cols))
    return from_edges(rows * cols, edges)


def tutte_coxeter() -> Graph:
    """Tutte-Coxeter graph (cubic, 30 vertices, girth 8) from its LCF code."""
    return lcf_graph(30, (-13, -9, 7, -7, 9, 13), 5)


def lcf_graph(n: int, shifts: tuple[int, ...], repeats: int) -> Graph:
    if len(shifts) * repeats != n:
        raise GenerationError("LCF shifts * repeats must equal n")
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        edges.append((i, (i + shifts[i % len(shifts)]) % n))
    return from_edges(n, edges)


RANDOM_REGULAR_RETRIES = 1000  # pairings drawn by random_regular before it gives up


def random_regular(n: int, d: int, seed: int | None = None) -> Graph:
    """Connected d-regular graph via the pairing model with rejection.

    Deterministic for a fixed seed. Raises GenerationError when all
    RANDOM_REGULAR_RETRIES pairings fail; never silently relaxes the constraints.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise GenerationError(f"invalid random-regular parameters n={n}, d={d}")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(RANDOM_REGULAR_RETRIES):
        rng.shuffle(stubs)
        bits = [0] * n
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (bits[u] >> v) & 1:
                ok = False
                break
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        if not ok:
            continue
        g = Graph(n, tuple(bits))
        if is_connected(g):
            return g
    raise GenerationError(
        f"random-regular(n={n}, d={d}) not connected/simple after "
        f"{RANDOM_REGULAR_RETRIES} retries"
    )


# ---------------------------------------------------------------------------
# --input: a spec name in the CLI mini-syntax, or a file


# spec name -> (number of parameters, builder)
_SPECS = {
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "star": (1, star_graph),
    "complete": (1, complete_graph),
    "petersen": (0, petersen),
    "hoffman-singleton": (0, hoffman_singleton),
    "tutte-coxeter": (0, tutte_coxeter),
    "complete-bipartite": (2, complete_bipartite),
    "torus": (2, square_lattice_torus),
    "hex": (2, hex_lattice),
    "random-regular": (2, random_regular),
}


def _build_spec(name: str, arg: str) -> Graph:
    """The graph of a spec name and its parameter text, e.g. ``cycle`` and
    ``7``, or ``random-regular`` and ``n=20,d=3,seed=42``."""
    kwargs = {}
    if name == "random-regular":
        kv = {}
        for item in arg.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise GenerationError(f"random-regular expects k=v items, got {item!r}")
            kv[key.strip()] = int(val)
        unknown = set(kv) - {"n", "d", "seed"}
        if unknown or "n" not in kv or "d" not in kv:
            raise GenerationError(f"random-regular needs n=,d=[,seed=]; got {sorted(kv)}")
        params, kwargs = (kv["n"], kv["d"]), {"seed": kv.get("seed")}
    else:
        params = tuple(int(x) for x in arg.split(",") if x.strip())
    arity, build = _SPECS[name]
    if len(params) != arity:
        raise GenerationError(f"{name} expects {arity} parameters, got {len(params)}")
    return build(*params, **kwargs)


def input_lines(text: str) -> list[str]:
    """The graphs that ``--input`` names, as graph6 lines, by one rule.

    A spec name builds one graph; names are case-insensitive: ``petersen``,
    ``cycle:7``, ``random-regular:n=20,d=3,seed=42``. Anything else is a
    file path, so a spec name wins over a file of the same name (``./name``
    reads the file). A file whose first non-blank line decodes as graph6
    holds one graph per non-blank line; any other file is one graph, given
    as an edge list.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name in _SPECS:
        return [encode_graph6(_build_spec(name, arg))]
    with open(text, "r", encoding="utf-8") as fh:
        body = fh.read()
    lines = [ln.strip() for ln in body.splitlines() if ln.strip()]
    try:
        parse_graph6(lines[0] if lines else "")  # an empty file: no edges
    except Graph6Error:
        return [encode_graph6(parse_edge_list(body))]
    return lines


def graph_from_spec(text: str) -> Graph:
    """The first graph that ``--input`` text names (see input_lines)."""
    return parse_graph6(input_lines(text)[0])
