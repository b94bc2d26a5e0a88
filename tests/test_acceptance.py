"""Acceptance suite: one test per criterion, one pass/fail line each.

The exhaustive sweep over every connected graph on <= 8 vertices with max
degree >= 3 is computed once (session fixture) and shared by the criteria
that quantify over the corpus.
"""

from __future__ import annotations

import time

import pytest

from distchroma import (
    chromatic_number,
    clique_number,
    conjecture_scan,
    distance_chromatic_number,
    cycle_distance_chromatic,
    cycle_graph,
    enumerate_odd_degree_cases,
    evaluate_bounds,
    from_edges,
    hex_lattice,
    hoffman_singleton,
    max_power_degree,
    parse_graph6,
    path_distance_chromatic,
    path_graph,
    petersen,
    power_graph,
    power_matrix_inequalities,
    resolve_odd_degree_case,
    save_color_strategy,
    spectral_power_bounds,
    spectral_radius,
    square_lattice_torus,
    star_graph,
    tutte_coxeter,
)


def _sweep_record(line: str) -> dict:
    g = parse_graph6(line)
    rec = {
        "line": line,
        "n": g.n,
        "m": g.m,
        "delta": g.max_degree(),
        "is_star": g.m == g.n - 1 and g.max_degree() == g.n - 1,
        "lambda1": spectral_radius(g).lambda1,
        "by_gamma": {},
    }
    for gamma in (2, 3):
        report = evaluate_bounds(g, gamma)
        mi = power_matrix_inequalities(g, gamma)
        sb = spectral_power_bounds(g, gamma)
        rec["by_gamma"][gamma] = {
            "m_value": report.m_value,
            "exact_chi": report.exact_chi,
            "exact_status": report.exact_status,
            "equality_class": report.equality_class,
            "is_moore": report.moore.is_moore,
            "best_bound": report.best_bound,
            "bounds": [
                (e.source, e.value, e.strict, e.applicable) for e in report.bounds
            ],
            "series_dominates": mi.series_dominates,
            "bound_holds": mi.bound_holds,
            "mi_equality": mi.equality,
            "mi_girth_predicate": mi.girth_predicate,
            "sb_gap": sb.gap,
            "sb_square_holds": sb.square_leq_holds,
            "sb_equality": sb.equality_within_tol,
            "sb_predicate": sb.predicate,
            "lambda1_power": sb.lambda1_power,
        }
    # pair-deleted square graphs stay colorable with M-1 colors
    m2 = max_power_degree(g.max_degree(), 2)
    pg2 = power_graph(g, 2).graph
    worst = 0
    for u, v in g.edges:
        keep = [w for w in range(g.n) if w not in (u, v)]
        index = {w: i for i, w in enumerate(keep)}
        sub = from_edges(
            len(keep),
            [(index[a], index[b]) for a, b in pg2.edges if a in index and b in index],
        )
        worst = max(worst, chromatic_number(sub)[0])
    rec["pair_deleted_square_chi_max"] = worst
    rec["m_value_2"] = m2
    return rec


@pytest.fixture(scope="module")
def sweep(corpus_lines):
    eligible = [
        ln for ln in corpus_lines if parse_graph6(ln).max_degree() >= 3
    ]
    assert len(eligible) == 12099  # 4 + 19 + 110 + 851 + 11115 classes
    t0 = time.monotonic()
    records = [_sweep_record(ln) for ln in eligible]
    print(f"\n[sweep] {len(records)} graphs x gamma in {{2,3}} "
          f"in {time.monotonic() - t0:.1f}s")
    return records


def test_criterion_01_moore_equality():
    t0 = time.monotonic()
    p = petersen()
    chi_p, witness = distance_chromatic_number(p, 2)
    assert chi_p == 10 == max_power_degree(3, 2) + 1
    assert witness.proper_on(power_graph(p, 2).graph)
    petersen_t = time.monotonic() - t0
    assert petersen_t < 5.0

    t1 = time.monotonic()
    hs = hoffman_singleton()
    hs_power = power_graph(hs, 2).graph
    omega = clique_number(hs_power)
    assert omega == 50 == max_power_degree(7, 2) + 1  # lower bound meets M+1
    chi_hs, w = distance_chromatic_number(hs, 2)
    assert chi_hs == 50
    assert w.proper_on(hs_power)
    hs_t = time.monotonic() - t1
    assert hs_t < 60.0
    print(f"\n[criterion 1] PASS - chi2(petersen)=10 ({petersen_t:.2f}s), "
          f"chi2(hoffman-singleton)=50 via omega=50 ({hs_t:.2f}s)")


def test_criterion_02_exhaustive_soundness_sweep(sweep):
    t0 = time.monotonic()
    violations = []
    moore_equalities = 0
    for rec in sweep:
        for gamma in (2, 3):
            d = rec["by_gamma"][gamma]
            chi = d["exact_chi"]
            assert d["exact_status"] == "exact", (rec["line"], gamma)
            for source, value, strict, applicable in d["bounds"]:
                if not applicable:
                    continue
                ok = chi < value + 1e-9 if strict else chi <= value + 1e-9
                if not ok:
                    violations.append((rec["line"], gamma, source, value, chi))
            if chi == d["m_value"] + 1:
                moore_equalities += 1
    assert violations == []
    assert moore_equalities == 0  # no Moore graph with delta >= 3 has n <= 8
    print(f"\n[criterion 2] PASS - {len(sweep)} graphs x 2 gammas, "
          f"0 bound violations, 0 maximum-equality cases "
          f"({time.monotonic() - t0:.1f}s checked)")


def test_criterion_03_closed_forms_match_solver():
    t0 = time.monotonic()
    for n in range(3, 15):
        for gamma in range(2, 6):
            expected = cycle_distance_chromatic(n, gamma)
            got, _ = distance_chromatic_number(cycle_graph(n), gamma)
            assert got == expected, ("cycle", n, gamma, expected, got)
    for n in range(1, 15):
        for gamma in range(2, 6):
            expected = path_distance_chromatic(n, gamma)
            got, _ = distance_chromatic_number(path_graph(n), gamma)
            assert got == expected, ("path", n, gamma, expected, got)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"\n[criterion 3] PASS - path/cycle closed forms equal the exact "
          f"solver for 3<=n<=14, 2<=gamma<=5 ({dt:.1f}s)")


def test_criterion_04_pair_deletion_colorable(sweep):
    violations = [
        rec["line"]
        for rec in sweep
        if rec["pair_deleted_square_chi_max"] > rec["m_value_2"] - 1
    ]
    assert violations == []
    edges_checked = sum(rec["m"] for rec in sweep)
    print(f"\n[criterion 4] PASS - chi(G^2 - {{u,v}}) <= M-1 across "
          f"{edges_checked} edges of {len(sweep)} graphs, 0 violations")


# the M-1 bounds and the save-a-color strategy that realizes each of them
SAVE_A_COLOR = (("non-regular", "non-regular"), ("short-girth", "short-girth"),
                ("high-girth-connected", "high-girth"))


def _first_claimed(applicable: dict) -> str:
    return next((strategy for source, strategy in SAVE_A_COLOR
                 if applicable[source]), "not-applicable")


def test_save_color_realizes_the_first_claimed_bound(sweep):
    """A bound report claims an M-1 bound exactly when save_color_strategy
    runs the construction for the first such bound."""
    for rec in sweep:
        g = parse_graph6(rec["line"])
        for gamma in (2, 3):
            applicable = {src: app for src, _, _, app in rec["by_gamma"][gamma]["bounds"]}
            outcome = save_color_strategy(g, gamma, exact_fallback=False)
            assert outcome.applied == _first_claimed(applicable), (rec["line"], gamma)
    named = {"petersen": petersen(), "hoffman-singleton": hoffman_singleton(),
             "tutte-coxeter": tutte_coxeter(), "torus:5,7": square_lattice_torus(5, 7),
             "hex:8,8": hex_lattice(8, 8)}
    applied = set()
    for label, g in named.items():
        for gamma in (2, 3):
            report = evaluate_bounds(g, gamma, exact_cap=0)
            applicable = {e.source: e.applicable for e in report.bounds}
            outcome = save_color_strategy(g, gamma, exact_fallback=False)
            assert outcome.applied == _first_claimed(applicable), (label, gamma)
            applied.add(outcome.applied)
    assert applied == {"non-regular", "short-girth", "high-girth", "not-applicable"}


def test_criterion_05_spectral_square_characterization(sweep):
    t0 = time.monotonic()
    tol = 1e-6
    bad = []
    for rec in sweep:
        d = rec["by_gamma"][2]
        gap = rec["lambda1"] ** 2 + 1 - d["exact_chi"]
        if rec["is_star"]:
            if abs(gap) > tol:
                bad.append(("star-not-tight", rec["line"], gap))
        elif gap <= tol:
            bad.append(("unexpected-tightness", rec["line"], gap))
    for k in range(2, 13):
        g = star_graph(k + 1)
        lam = spectral_radius(g).lambda1
        chi, _ = distance_chromatic_number(g, 2)
        if abs(lam**2 + 1 - chi) > tol:
            bad.append(("star-not-tight", f"K1,{k}", lam**2 + 1 - chi))
    p = petersen()
    lam = spectral_radius(p).lambda1
    chi, _ = distance_chromatic_number(p, 2)
    if abs(lam**2 + 1 - chi) > tol:
        bad.append(("moore-not-tight", "petersen", lam**2 + 1 - chi))
    dt = time.monotonic() - t0
    assert bad == []
    assert dt < 600.0
    print(f"\n[criterion 5] PASS - chi2 = lambda1^2+1 within 1e-6 exactly for "
          f"stars and the Moore case; strictly below elsewhere ({dt:.1f}s)")


@pytest.mark.parametrize("gamma", [2, 3])
def test_criterion_06_matrix_inequalities(sweep, gamma):
    holds = all(
        rec["by_gamma"][gamma]["series_dominates"]
        and rec["by_gamma"][gamma]["bound_holds"]
        for rec in sweep
    )
    assert holds
    mismatches = [
        rec["line"]
        for rec in sweep
        if rec["by_gamma"][gamma]["mi_equality"]
        != rec["by_gamma"][gamma]["mi_girth_predicate"]
    ]
    assert mismatches == [], (
        f"gamma={gamma}: equality/girth mismatches on {mismatches} - at "
        f"gamma>=3 complete graphs satisfy the refined bound with equality "
        f"(their powers saturate: G^gamma = G) although the girth is 3, so "
        f"the stated girth-only predicate cannot hold on a corpus that "
        f"contains complete graphs"
    )
    print(f"\n[criterion 6] PASS - gamma={gamma}: entrywise checks hold and "
          f"equality matches the girth predicate on all {len(sweep)} graphs")


def test_criterion_07_spectral_power_inequality(sweep):
    for rec in sweep:
        d2 = rec["by_gamma"][2]
        assert d2["sb_square_holds"], rec["line"]
        lhs = d2["lambda1_power"]
        assert lhs <= rec["lambda1"] ** 2 + 1e-8, rec["line"]
        assert d2["sb_equality"] == d2["sb_predicate"], rec["line"]
    small_gaps = [
        rec["line"] for rec in sweep if rec["by_gamma"][3]["sb_gap"] < 1e-6
    ]
    assert small_gaps == []
    print(f"\n[criterion 7] PASS - lambda1(G^2) <= lambda1(G)^2 + 1e-8 with "
          f"equality exactly on the 2-degree-regular girth>=5 subset; "
          f"gamma=3 gaps all >= 1e-6 over {len(sweep)} graphs")


def test_criterion_08_eigensolver_accuracy():
    assert abs(spectral_radius(petersen()).lambda1 - 3.0) <= 1e-9
    assert abs(spectral_radius(star_graph(10)).lambda1 - 3.0) <= 1e-9
    assert abs(spectral_radius(cycle_graph(6)).lambda1 - 2.0) <= 1e-9
    print("\n[criterion 8] PASS - lambda1 within 1e-9 on petersen, K1,9, C6")


@pytest.mark.parametrize("gamma", [2, 3])
def test_criterion_09_conjecture_scan(corpus_lines, gamma):
    t0 = time.monotonic()
    report = conjecture_scan(corpus_lines, gamma, jobs=2)
    assert report.skipped == 0
    assert report.chi_equals_m_candidates == []
    assert report.power_complete_m_candidates == []
    assert report.scanned == 12099
    assert report.moore_count == 0
    print(f"\n[criterion 9] PASS - gamma={gamma}: scanned {report.scanned}, "
          f"0 candidates, 0 skipped ({time.monotonic() - t0:.1f}s)")


def test_criterion_10_odd_degree_case_table():
    t0 = time.monotonic()
    cases = enumerate_odd_degree_cases()
    assert cases == [(-1, 0), (0, 0), (0, 1)]
    expected = {(-1, 0): "parity", (0, 0): "clique-exclusion", (0, 1): "moore"}
    for gamma, delta in ((2, 10_000_003), (3, 46_417), (4, 3_165)):
        for (d_off, c_off), contradiction in expected.items():
            out = resolve_odd_degree_case(delta, gamma, d_off, c_off)
            assert out.contradiction == contradiction
            if contradiction == "parity":
                assert max_power_degree(delta, gamma) % 2 == 1
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"\n[criterion 10] PASS - three-case table reproduces the "
          f"contradictions (parity / clique-exclusion / moore) ({dt:.2f}s)")
