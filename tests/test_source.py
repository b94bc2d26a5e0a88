"""Rules about the library's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import distchroma


def test_no_assert_statements_in_the_library():
    """Checks are real raise statements, so they still run under python -O."""
    found = []
    for path in sorted(Path(distchroma.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _sites(match) -> list[tuple[str, str | None, str]]:
    """(file, innermost enclosing function, source line) of every node of the
    library's source that ``match`` accepts, in file and line order."""
    found = []
    for path in sorted(Path(distchroma.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        lines = text.splitlines()
        found += sorted((path.name, node.lineno, owner.get(node),
                         lines[node.lineno - 1].strip())
                        for node in ast.walk(tree) if match(node))
    return [(name, fn, line) for name, _, fn, line in found]


def test_ctrl_c_is_handled_only_in_cli_main():
    """Every subcommand's interrupt reaches one handler."""
    sites = _sites(lambda node: isinstance(node, ast.Name)
                   and node.id == "KeyboardInterrupt")
    assert [(name, fn) for name, fn, _ in sites] == [("cli.py", "main")]


def test_only_the_search_reads_the_clock_in_coloring():
    """The exact search owns the time budget: chromatic_number reads the
    clock once, to set the deadline, and only _solve_k checks it."""
    sites = [site for site in _sites(lambda node: isinstance(node, ast.Attribute)
                                     and isinstance(node.value, ast.Name)
                                     and node.value.id == "time")
             if site[0] == "coloring.py"]
    assert [fn for _, fn, _ in sites] == ["_solve_k", "chromatic_number"]
    assert sites[1][2].startswith("deadline = time.monotonic() + time_budget")


def test_in_scope_is_asked_only_at_the_scope_gates():
    """bound_hypotheses is the one scope gate of the bounds and the
    strategies; scan_one and the CLI's corpus bounds catch its
    OutOfScopeError to report a graph as out of scope, so one scope
    decision per graph serves both the row and the record."""
    sites = _sites(lambda node: isinstance(node, ast.Call) and "in_scope" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert [(name, fn) for name, fn, _ in sites] == [("coloring.py", "bound_hypotheses")]


def test_every_listed_mutant_still_applies():
    """tools/mutants.py replaces each old text once; a line edited since
    would leave a mutant that changes nothing, so each must occur once."""
    import importlib.util

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {m.name: (root / m.file).read_text(encoding="utf-8").count(m.old)
              for m in mutants.MUTANTS}
    assert counts == {m.name: 1 for m in mutants.MUTANTS}
    assert all(m.old != m.new for m in mutants.MUTANTS)
