#!/usr/bin/env python3
"""Spectral side and a miniature corpus scan.

lambda1-based bounds on chi_gamma, the exact entrywise matrix comparisons
with their girth-driven equality cases, and a scan of every connected
6-vertex graph for the open-question counterexample patterns (none exist)."""

from pathlib import Path

from distchroma import (
    complete_graph,
    conjecture_scan,
    cycle_graph,
    distance_chromatic_number,
    geometric_series_bound,
    parse_graph6,
    petersen,
    power_matrix_inequalities,
    spectral_power_bounds,
    spectral_radius,
    star_graph,
)

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "connected_le8.g6"


def main():
    print("=" * 72)
    print("  SPECTRAL BOUNDS at gamma = 2")
    print("=" * 72)
    print(f"  {'graph':<16} {'lambda1':>10} {'l1^2+1':>8} {'series':>8} "
          f"{'chi2':>5} {'tight':>6}")
    for name, g in [("petersen", petersen()), ("star K1,8", star_graph(9)),
                    ("C9", cycle_graph(9)), ("K5", complete_graph(5))]:
        lam = spectral_radius(g).lambda1
        chi, _ = distance_chromatic_number(g, 2)
        square = lam * lam + 1
        series = geometric_series_bound(lam, 2) if lam > 1 else float("nan")
        tight = "yes" if abs(square - chi) < 1e-6 else "no"
        print(f"  {name:<16} {lam:>10.6f} {square:>8.2f} {series:>8.2f} "
              f"{chi:>5} {tight:>6}")

    print()
    print("  matrix-level checks (exact integers):")
    for name, g, gamma in [("petersen", petersen(), 2),
                           ("K4", complete_graph(4), 2),
                           ("C9", cycle_graph(9), 3)]:
        rep = power_matrix_inequalities(g, gamma)
        print(f"    {name:<10} gamma={gamma}: bound holds={rep.bound_holds}, "
              f"equality={rep.equality}, girth predicate={rep.girth_predicate}")
        sb = spectral_power_bounds(g, gamma)
        print(f"    {'':<10} lambda1(G^{gamma}) = {sb.lambda1_power:.6f} vs "
              f"lambda1^{gamma} = {sb.power_bound:.6f} (gap {sb.gap:.6f})")

    print()
    print("=" * 72)
    print("  MINI CONJECTURE SCAN: all connected graphs on 6 vertices")
    print("=" * 72)
    lines = [ln for ln in CORPUS.read_text().splitlines()
             if ln.strip() and parse_graph6(ln).n == 6]
    report = conjecture_scan(lines, 2)
    print(f"  scanned {report.scanned} (of {len(lines)} lines; "
          f"{report.out_of_scope} below degree 3)")
    print(f"  girth-4 family size: {report.girth_2gamma_count}")
    print(f"  chi = M candidates: {len(report.chi_equals_m_candidates)}")
    print(f"  complete-power candidates: {len(report.power_complete_m_candidates)}")
    print(f"  skipped: {report.skipped}")


if __name__ == "__main__":
    main()
