#!/usr/bin/env python3
"""Run distchroma's committed mutants of bound hypotheses and guards.

Each mutant replaces one text in one source file. For each, the tool
copies ``src``, ``tests`` and ``tools`` to a temporary directory, applies
the mutant there, runs the test expected to kill it, and prints one line:

- ``killed``: the test failed on the mutant;
- ``survived``: the test passed, so no test tells the mutant apart;
- ``equivalent``: the test passed on a mutant listed as equivalent, whose
  argument follows on the line.

The checkout itself is never edited. A mutant's old text must occur once
in its file; ``tests/test_source.py`` checks that, so the list cannot go
stale without Tier-1 saying so. The list holds every hypothesis of
``coloring.BoundHypotheses`` and the guards around it. A full run takes a
few seconds per mutant; it is not part of Tier-1.

Usage: python tools/mutants.py [NAME ...]   (default: every mutant)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str        # relative to the repository root
    old: str         # occurs exactly once in the file
    new: str
    test: str        # pytest node id expected to kill it
    equivalent: str | None = None  # why no test can kill it, if none can


BOUNDS = "tests/test_bounds.py"
TABLE = f"{BOUNDS}::test_hypotheses_at_their_boundaries"
HYP = "src/distchroma/coloring.py"

MUTANTS = (
    Mutant("soundness-by-one", "src/distchroma/bounds.py",
           "exact_chi > e.value_int:", "exact_chi > e.value_int + 1:",
           f"{BOUNDS}::test_evaluate_bounds_soundness_check_fires_on_planted_chi"),
    Mutant("spectral-power-non-strict-at-3", "src/distchroma/bounds.py",
           "strict=gamma >= 3", "strict=gamma >= 4",
           f"{BOUNDS}::test_evaluate_bounds_soundness_check_fires_on_planted_chi"),
    Mutant("moore-diameter-unchecked", "src/distchroma/bounds.py",
           "if hyp.is_moore and not diameter_ok:", "if False:",
           f"{BOUNDS}::test_detect_moore_raises_on_a_moore_graph_of_another_diameter"),
    Mutant("int-form-strict-guard", "src/distchroma/bounds.py",
           "if strict and abs(value - round(value)) <= INT_GUARD:", "if False:",
           f"{BOUNDS}::test_evaluate_bounds_soundness_check_fires_on_planted_chi"),
    Mutant("cycle-closed-form", "src/distchroma/coloring.py",
           "while n % i > n // i:", "while n % i >= n // i:",
           "tests/test_coloring.py::test_cycle_closed_form_examples"),
    Mutant("odd-degree-threshold-exclusive", HYP,
           "delta >= odd_degree_threshold(gamma)", "delta > odd_degree_threshold(gamma)",
           f"{BOUNDS}::test_odd_degree_large_on_stars_at_gamma6"),
    Mutant("connectivity-scan-one-more-source", "src/distchroma/metrics.py",
           "while v < best and v < g.n:", "while v <= best and v < g.n:",
           "tests/test_metrics.py::test_connectivity_matches_oracle_random",
           equivalent="while best > kappa the scan reaches vertices 0..kappa, one of "
           "which lies outside a minimum separator S and has a non-neighbor beyond "
           "S, so best reaches kappa before v does; a source at v = best = kappa "
           "cannot lower it further"),
    # one per hypothesis of the record
    Mutant("m-value-of-min-degree", HYP,
           "max_power_degree(h.max_degree, h.gamma)", "max_power_degree(h.min_degree, h.gamma)",
           TABLE),
    Mutant("regular-within-one", HYP,
           "h.min_degree == h.max_degree", "h.min_degree + 1 >= h.max_degree", TABLE),
    Mutant("non-regular-negated", HYP,
           "lambda h: not h.is_regular", "lambda h: h.is_regular", TABLE),
    Mutant("order-at-most-m-plus-one", HYP,
           "h.n == h.m_value + 1", "h.n <= h.m_value + 1", TABLE),
    Mutant("girth-at-least-2gamma-plus-1", HYP,
           "h.girth == 2 * h.gamma + 1", "h.girth >= 2 * h.gamma + 1", TABLE),
    Mutant("moore-without-order", HYP,
           "h.is_regular and h.order_matches and", "h.is_regular and", TABLE),
    Mutant("girth-not-critical-of-moore", HYP,
           "lambda h: not h.girth_is_2gamma_plus_1", "lambda h: not h.is_moore", TABLE),
    Mutant("girth-2gamma-at-least", HYP,
           "h.girth == 2 * h.gamma)", "h.girth >= 2 * h.gamma)", TABLE),
    Mutant("short-girth-strict", HYP,
           "h.girth <= 2 * h.gamma - 1", "h.girth < 2 * h.gamma - 1", TABLE),
    Mutant("high-girth-window-gamma2-admits-6", HYP,
           "h.girth >= 2 * h.gamma + 2 and (h.gamma >= 3 or h.girth > 6)",
           "h.girth >= 2 * h.gamma + 2",
           f"{BOUNDS}::test_pg23_incidence_graph_lies_below_the_gamma2_high_girth_window"),
    Mutant("connectivity-requirement-fixed-3", HYP,
           "3 if h.gamma >= 3 else 4", "3", TABLE),
    Mutant("connectivity-requirement-exclusive", HYP,
           "h.connectivity >= h.required_connectivity",
           "h.connectivity > h.required_connectivity", TABLE),
    Mutant("odd-degree-large-on-moore", HYP,
           "large_odd_degree(h.max_degree, h.gamma) and not h.is_moore",
           "large_odd_degree(h.max_degree, h.gamma)", TABLE),
)


def run(m: Mutant, workdir: Path) -> str:
    """Apply ``m`` to a fresh copy in ``workdir`` and run its test there."""
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, workdir / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    path = workdir / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", m.test],
        cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "equivalent" if m.equivalent else "survived"
    if proc.returncode == 1:
        return "killed"
    raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if unknown := set(argv) - {m.name for m in MUTANTS}:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = 0
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            status = run(m, Path(tmp))
        survived += status == "survived"
        note = f" ({m.equivalent})" if status == "equivalent" else ""
        print(f"{status:10} {m.name}: {m.test}{note}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
