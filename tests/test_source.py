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
