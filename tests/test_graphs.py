"""Graph type, codecs, and generators."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma import (
    EdgeListError,
    GenerationError,
    Graph6Error,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    encode_graph6,
    from_edges,
    graph_from_spec,
    hex_lattice,
    hoffman_singleton,
    parse_edge_list,
    parse_graph6,
    path_graph,
    petersen,
    random_regular,
    square_lattice_torus,
    star_graph,
    tutte_coxeter,
    validate,
)
from distchroma import girth, diameter, is_connected
from distchroma.graphs import input_lines


# ---------------------------------------------------------------------------
# graph6


def test_graph6_hand_decoded_example():
    # 'D' encodes n=5; payload bits 000000 111100 select exactly the pairs
    # (0,4), (1,4), (2,4), (3,4): the star with center 4.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))


def test_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D?{").edges == parse_graph6("D?{").edges


def test_graph6_roundtrip_star():
    g = star_graph(5)
    assert parse_graph6(encode_graph6(g)).bits == g.bits


@pytest.mark.parametrize(
    "text, offset",
    [
        ("D?", 2),        # truncated payload is reported at end of input
        ("D?{{", 3),      # trailing garbage
        ("D?\x1f", 2),    # byte below 63
    ],
)
def test_graph6_errors_carry_offset(text, offset):
    with pytest.raises(Graph6Error) as err:
        parse_graph6(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [("Cé", 1), ("D?é{", 2), (">>graph6<<é", 0)])
def test_graph6_rejects_non_ascii_text(text, offset):
    """A non-ASCII character is a fault at its own offset, not a byte 63
    ('?', a valid byte) after a lossy encode: "Cé" is no empty graph."""
    with pytest.raises(Graph6Error, match="non-ASCII character") as err:
        parse_graph6(text)
    assert err.value.offset == offset


def test_graph6_nonzero_padding_rejected():
    # K2 is "A_" (bit 1 then zero padding); set a padding bit instead.
    assert parse_graph6("A_").m == 1
    with pytest.raises(Graph6Error):
        parse_graph6("A`")


def test_graph6_matches_networkx_on_corpus(corpus_lines):
    for line in corpus_lines[:: max(1, len(corpus_lines) // 500)]:
        mine = parse_graph6(line)
        ref = nx.from_graph6_bytes(line.encode())
        assert mine.n == ref.number_of_nodes()
        assert set(mine.edges) == {tuple(sorted(e)) for e in ref.edges()}


def test_graph6_encode_readable_by_networkx():
    for g in [petersen(), path_graph(7), complete_graph(9), star_graph(12)]:
        decoded = nx.from_graph6_bytes(encode_graph6(g).encode())
        assert decoded.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in decoded.edges()} == set(g.edges)


def test_graph6_long_form_above_62_vertices():
    g = path_graph(70)
    encoded = encode_graph6(g)
    assert encoded.startswith("~")
    back = parse_graph6(encoded)
    assert back.bits == g.bits


def test_graph6_corpus_roundtrip(corpus_lines):
    for line in corpus_lines:
        assert encode_graph6(parse_graph6(line)) == line


def test_input_lines_skips_blanks(tmp_path):
    p = tmp_path / "c.g6"
    p.write_text("D?{\n\n  \n@\n\n")
    lines = input_lines(str(p))
    assert lines == ["D?{", "@"]
    assert [parse_graph6(ln).n for ln in lines] == [5, 1]


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_edge_list_duplicates_collapse():
    g = parse_edge_list("0 1\n0 1")
    assert g.n == 2 and g.m == 1


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a path\n\n0 1\n1 2  # tail\n")
    assert g.m == 2


def test_edge_list_self_loop_rejected():
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("0 0")
    assert err.value.line == 1


def test_edge_list_bad_token():
    with pytest.raises(EdgeListError):
        parse_edge_list("0 x")


# ---------------------------------------------------------------------------
# generators


def test_petersen_invariants(petersen_graph):
    g = petersen_graph
    validate(g)
    assert (g.n, g.m) == (10, 15)
    assert g.degrees() == [3] * 10
    assert girth(g) == 5 and diameter(g) == 2


def test_hoffman_singleton_invariants(hoffman_singleton_graph):
    g = hoffman_singleton_graph
    validate(g)
    assert (g.n, g.m) == (50, 175)
    assert g.degrees() == [7] * 50
    assert girth(g) == 5 and diameter(g) == 2


def test_cycle6():
    g = cycle_graph(6)
    assert (g.n, g.m) == (6, 6)
    assert g.degrees() == [2] * 6


def test_tutte_coxeter():
    g = tutte_coxeter()
    validate(g)
    assert (g.n, g.m) == (30, 45)
    assert g.degrees() == [3] * 30
    assert girth(g) == 8 and diameter(g) == 4


def test_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert g.m == 12 and sorted(g.degrees()) == [3] * 4 + [4] * 3


def test_square_lattice_torus():
    g = square_lattice_torus(3, 4)
    validate(g)
    assert g.n == 12 and g.degrees() == [4] * 12
    assert is_connected(g)
    with pytest.raises(GenerationError):
        square_lattice_torus(2, 5)


def test_hex_lattice():
    g = hex_lattice(4, 6)
    validate(g)
    assert is_connected(g)
    assert g.max_degree() == 3
    assert girth(g) == 6


def test_random_regular_deterministic_and_valid():
    a = random_regular(20, 3, seed=42)
    b = random_regular(20, 3, seed=42)
    assert a.bits == b.bits
    validate(a)
    assert a.degrees() == [3] * 20
    assert is_connected(a)
    c = random_regular(20, 3, seed=43)
    assert c.bits != a.bits  # overwhelmingly likely for a real sampler


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(GenerationError):
        random_regular(5, 3)   # odd n*d
    with pytest.raises(GenerationError):
        random_regular(4, 4)   # d >= n


def test_generate_dispatch(tmp_path, monkeypatch):
    assert graph_from_spec("path:4").m == 3
    assert graph_from_spec("petersen").n == 10
    with pytest.raises(GenerationError):
        graph_from_spec("cycle")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError):  # not a spec name, so a path, and missing
        graph_from_spec("nosuch")


_DIRECT = {
    "Path": lambda: path_graph(4),
    "Cycle": lambda: cycle_graph(5),
    "Star": lambda: star_graph(6),
    "Complete": lambda: complete_graph(4),
    "Petersen": petersen,
    "HoffmanSingleton": hoffman_singleton,
    "CompleteBipartite": lambda: complete_bipartite(2, 3),
    "SquareLatticeTorus": lambda: square_lattice_torus(3, 4),
    "HexLattice": lambda: hex_lattice(2, 3),
    "RandomRegular": lambda: random_regular(8, 3, seed=1),
}


@pytest.mark.parametrize("text, family, n", [
    ("path:4", "Path", 4),
    ("cycle:5", "Cycle", 5),
    ("star:6", "Star", 6),
    ("complete:4", "Complete", 4),
    ("petersen", "Petersen", 10),
    ("hoffman-singleton", "HoffmanSingleton", 50),
    ("complete-bipartite:2,3", "CompleteBipartite", 5),
    ("torus:3,4", "SquareLatticeTorus", 12),
    ("hex:2,3", "HexLattice", 6),
    ("random-regular:n=8,d=3,seed=1", "RandomRegular", 8),
])
def test_every_spec_name_builds_its_class(text, family, n):
    g = graph_from_spec(text)
    assert g.n == n
    assert g.bits == _DIRECT[family]().bits  # the builder the name stands for
    with pytest.raises(GenerationError):  # one parameter more
        graph_from_spec(text + ("," if ":" in text else ":") + "3")


def test_tutte_coxeter_is_a_spec_name():
    assert graph_from_spec("Tutte-Coxeter").bits == tutte_coxeter().bits
    with pytest.raises(GenerationError):  # it takes no parameter
        graph_from_spec("tutte-coxeter:3")


def test_validate_raises_under_optimize():
    """validate raises explicitly, so ``python -O`` keeps its checks."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import distchroma

    src = str(Path(distchroma.__file__).resolve().parents[1])
    code = ("from distchroma.graphs import Graph, validate\n"
            "try:\n    validate(Graph(2, (0b11, 0)))\n"
            "except AssertionError as err:\n    print(err)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "self-loop at 0"


def test_spec_mini_syntax(tmp_path, monkeypatch):
    assert graph_from_spec("petersen").n == 10
    assert graph_from_spec(" Petersen").n == 10  # names are case-insensitive
    assert graph_from_spec("cycle:7").n == 7
    assert graph_from_spec("star:6").degrees().count(5) == 1
    assert graph_from_spec("complete-bipartite:3,4").m == 12
    g = graph_from_spec("random-regular:n=16,d=3,seed=7")
    assert g.degrees() == [3] * 16
    for bad in ("random-regular:n=16", "random-regular:n=16,d=3,k=1",
                "random-regular:n16,d=3"):
        with pytest.raises(GenerationError):
            graph_from_spec(bad)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError):  # anything else is a file path
        input_lines("some/file.g6")


def test_from_file(tmp_path):
    p = tmp_path / "g.g6"
    p.write_text(encode_graph6(petersen()) + "\n")
    assert graph_from_spec(str(p)).n == 10
    p2 = tmp_path / "g.edges"
    p2.write_text("0 1\n1 2\n")
    assert graph_from_spec(str(p2)).m == 2
    assert input_lines(str(p2)) == [encode_graph6(path_graph(3))]  # one graph


# ---------------------------------------------------------------------------
# property tests


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))
                 if possible else st.just([]))
    return from_edges(n, edges)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_generated_graphs_validate_and_roundtrip(g):
    validate(g)
    assert parse_graph6(encode_graph6(g)).bits == g.bits


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_star_and_path_shapes(n):
    s = star_graph(n)
    assert s.m == n - 1 and s.degree(0) == n - 1
    p = path_graph(n)
    assert p.m == n - 1 and p.degree(0) == 1


def test_bfs_layers_from_a_set_inside_a_subset():
    from distchroma.graphs import bfs_layers

    g = path_graph(6)
    assert list(bfs_layers(g, 0b1)) == [1 << d for d in range(6)]
    assert list(bfs_layers(g, 0b1100)) == [0b1100, 0b10010, 0b100001]
    # vertex 3 is outside the walk, so 4 and 5 are never reached
    assert list(bfs_layers(g, 0b1, 0b110111)) == [0b1, 0b10, 0b100]
    assert sum(bfs_layers(petersen(), 1)) == (1 << 10) - 1


# ---------------------------------------------------------------------------
# facts memoized per graph


def _bodies_run(work, names) -> dict[str, int]:
    """How often the body of each named distchroma function ran in work()."""
    import sys

    runs = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in runs and "distchroma" in code.co_filename:
            runs[code.co_name] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return runs


def test_each_fact_is_computed_once_per_graph():
    from distchroma import (evaluate_bounds, power_matrix_inequalities,
                            save_color_strategy, spectral_power_bounds)

    g = square_lattice_torus(3, 4)  # girth 3: the strategy reads the cycle

    def work():
        for gamma in (2, 3):
            evaluate_bounds(g, gamma)
            assert save_color_strategy(g, gamma).applied == "short-girth"
            power_matrix_inequalities(g, gamma)
            spectral_power_bounds(g, gamma)

    runs = _bodies_run(work, ("_root_layers", "girth", "diameter", "power_graph",
                              "shortest_cycle", "spectral_radius", "is_connected",
                              "adjacency_matrix"))
    # one BFS walk per root of G, read by its girth, diameter and powers; one
    # power graph per gamma; the strategy's cycle walk once per gamma; lambda1,
    # connectivity and A of G, G^2, G^3
    assert runs == {"_root_layers": 1, "girth": 1, "diameter": 1, "power_graph": 2,
                    "shortest_cycle": 2, "spectral_radius": 3, "is_connected": 3,
                    "adjacency_matrix": 3}


def test_facts_are_freed_with_their_graph():
    import gc
    import weakref

    from distchroma import (evaluate_bounds, power_graph, spectral_power_bounds,
                            spectral_radius)

    gc.disable()  # so only reference counts can free them
    try:
        g = square_lattice_torus(3, 4)
        evaluate_bounds(g, 2)
        spectral_power_bounds(g, 3)
        assert power_graph(g, 2) is power_graph(g, 2)
        lam = spectral_radius(g)
        assert spectral_radius(g) is lam
        refs = weakref.ref(g), weakref.ref(lam)
        del g, lam
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
