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
