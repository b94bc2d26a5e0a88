"""Bound evaluation, Moore detection, clique exclusion, scans, odd-degree cases."""

from __future__ import annotations

import json
import math

import pytest

from distchroma import (
    SoundnessViolation,
    check_clique_exclusion,
    complete_bipartite,
    complete_graph,
    conjecture_scan,
    cycle_graph,
    detect_moore,
    distance_chromatic_number,
    encode_graph6,
    enumerate_odd_degree_cases,
    evaluate_bounds,
    from_edges,
    girth,
    hoffman_singleton,
    max_power_degree,
    odd_degree_threshold,
    parse_graph6,
    petersen,
    resolve_odd_degree_case,
    save_color_strategy,
    star_graph,
    vertex_connectivity,
)
from distchroma.cli import json_value
from distchroma.coloring import BoundHypotheses

SPIDER = from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


# ---------------------------------------------------------------------------
# Moore detection


def test_detect_moore_petersen(petersen_graph):
    cert = detect_moore(petersen_graph, 2)
    assert cert.is_moore
    assert cert.order_expected == 10
    assert cert.is_regular and cert.order_matches
    assert cert.girth_is_2gamma_plus_1 and cert.diameter_is_gamma


def test_detect_moore_hoffman_singleton(hoffman_singleton_graph):
    cert = detect_moore(hoffman_singleton_graph, 2)
    assert cert.is_moore and cert.order_expected == 50


def test_detect_moore_k4_fails_on_girth():
    cert = detect_moore(complete_graph(4), 2)
    assert not cert.is_moore
    assert not cert.girth_is_2gamma_plus_1


def test_detect_moore_rejects_low_degree():
    with pytest.raises(ValueError):
        detect_moore(cycle_graph(7), 2)


def test_no_moore_graph_at_gamma3_small():
    # petersen is Moore only for gamma 2
    cert = detect_moore(petersen(), 3)
    assert not cert.is_moore


def test_detect_moore_raises_on_a_moore_graph_of_another_diameter(monkeypatch):
    import distchroma.metrics as met

    monkeypatch.setattr(met, "diameter", lambda g: 3)
    with pytest.raises(AssertionError, match="diameter 3"):
        detect_moore(petersen(), 2)


# ---------------------------------------------------------------------------
# bound evaluation


def test_evaluate_bounds_petersen(petersen_graph):
    rep = evaluate_bounds(petersen_graph, 2)
    assert rep.m_value == 9
    assert rep.best_bound == 10
    assert rep.exact_chi == 10
    assert rep.equality_class == "moore-equality"
    assert rep.moore.is_moore
    by_source = {e.source: e for e in rep.bounds}
    assert by_source["power-degree-plus-one"].applicable
    assert not by_source["girth-not-critical"].applicable
    assert not by_source["non-regular"].applicable
    assert by_source["spectral-power"].value == pytest.approx(10.0, abs=1e-6)


def test_evaluate_bounds_k4_minus_edge():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    rep = evaluate_bounds(g, 2)
    by_source = {e.source: e for e in rep.bounds}
    assert by_source["non-regular"].applicable
    degree_side = [
        e.value_int
        for e in rep.bounds
        if e.applicable and e.source in (
            "power-degree-plus-one", "girth-not-critical", "non-regular",
            "short-girth", "high-girth-connected", "odd-degree-large")
    ]
    assert min(degree_side) == 8
    assert rep.exact_chi == 4  # diameter 2: the square is complete
    assert rep.equality_class == "strict-below"


def test_evaluate_bounds_rejects_delta2():
    with pytest.raises(ValueError):
        evaluate_bounds(cycle_graph(9), 2)


def test_evaluate_bounds_rejects_disconnected():
    with pytest.raises(ValueError):
        evaluate_bounds(from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]), 2)


def test_evaluate_bounds_cap_gives_unknown():
    rep = evaluate_bounds(petersen(), 2, exact_cap=5)
    assert rep.exact_chi is None
    assert rep.exact_status == "cap-exceeded"
    assert rep.equality_class == "unknown"
    assert rep.best_bound == 10


def test_evaluate_bounds_star():
    rep = evaluate_bounds(star_graph(6), 2)
    assert rep.exact_chi == 6
    by_source = {e.source: e for e in rep.bounds}
    # lambda1^2 + 1 = n for stars; the spectral bound is tight here
    assert by_source["spectral-power"].value == pytest.approx(6.0, abs=1e-6)
    assert rep.best_bound == 6


def test_evaluate_bounds_soundness_check_fires_on_planted_chi(monkeypatch):
    """A planted wrong chi must break the strict spectral-power bound.

    On star_graph(5) at gamma = 3, lambda1 = 2, so spectral-power is
    2**3 + 1 = 9 and strict: chi < 9, whose integer form is 8. So chi = 9
    breaks it although 9 < 9 + INT_GUARD, and chi = 8 does not."""
    import distchroma.bounds as bnd

    g = star_graph(5)
    real = bnd.col.distance_chromatic_number
    for chi in (9, 8):
        monkeypatch.setattr(bnd.col, "distance_chromatic_number",
                            lambda *a, chi=chi, **k: (chi, real(*a, **k)[1]))
        if chi == 9:
            with pytest.raises(SoundnessViolation, match="spectral-power") as exc:
                evaluate_bounds(g, 3)
            rep = exc.value.report
        else:
            rep = evaluate_bounds(g, 3)
        entry = next(e for e in rep.bounds if e.source == "spectral-power")
        assert (entry.value, entry.strict, entry.value_int) == (9.0, True, 8)
        assert (rep.best_bound, rep.exact_chi) == (8, chi)


def test_bound_report_json_roundtrip(petersen_graph):
    import json

    rep = evaluate_bounds(petersen_graph, 2)
    payload = json.dumps(json_value(rep), sort_keys=True)
    back = json.loads(payload)
    assert back["best_bound"] == 10
    assert back["moore"]["is_moore"] is True


def test_bound_report_rounds_lambda1_evidence():
    from distchroma import spectral_radius

    g = star_graph(7)  # lambda1 = sqrt(6), irrational
    lam = spectral_radius(g).lambda1
    printed = [json_value(entry)["evidence"]["lambda1"]
               for entry in evaluate_bounds(g, 2).bounds if "lambda1" in entry.evidence]
    assert printed == [float(f"{lam:.12g}")] * 2 and lam not in printed


# ---------------------------------------------------------------------------
# clique exclusion


def test_clique_lemma_spider():
    rep = check_clique_exclusion(SPIDER, 2)
    assert rep.m_value == 9
    assert rep.clique_number == 4  # K4 on {center, both short legs, mid leg}
    assert rep.properly_contains_m_clique is False
    assert not rep.power_is_complete_m


def test_clique_lemma_small_tree():
    g = from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    rep = check_clique_exclusion(g, 2)
    assert rep.clique_number is not None and rep.clique_number < 9
    assert rep.properly_contains_m_clique is False


def test_clique_lemma_k33():
    rep = check_clique_exclusion(complete_bipartite(3, 3), 2)
    assert rep.m_value == 9
    assert rep.power_order == 6
    assert rep.properly_contains_m_clique is False


def test_clique_lemma_rejects_moore(petersen_graph):
    with pytest.raises(ValueError):
        check_clique_exclusion(petersen_graph, 2)


def test_clique_lemma_cap(monkeypatch):
    from distchroma import metrics

    monkeypatch.setattr(metrics, "CLIQUE_CAP", 3)
    rep = check_clique_exclusion(complete_bipartite(3, 3), 2)
    assert rep.status == "cap-exceeded"
    assert rep.clique_number is None


def test_clique_lemma_on_corpus_sample(corpus_lines):
    from distchroma import is_connected

    checked = 0
    for line in corpus_lines[::31]:
        g = parse_graph6(line)
        if g.max_degree() < 3 or not is_connected(g):
            continue
        for gamma in (2, 3):
            if detect_moore(g, gamma).is_moore:
                continue
            rep = check_clique_exclusion(g, gamma)
            assert rep.properly_contains_m_clique is False, (line, gamma)
            assert not rep.power_is_complete_m, (line, gamma)
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# conjecture scan


def test_scan_empty():
    rep = conjecture_scan([], 2)
    assert rep.scanned == 0 and not rep.chi_equals_m_candidates and not rep.power_complete_m_candidates


def test_scan_petersen_only(petersen_graph):
    rep = conjecture_scan([encode_graph6(petersen_graph)], 2)
    assert rep.scanned == 1
    assert rep.moore_count == 1
    assert not rep.chi_equals_m_candidates  # Moore graphs are out of scope for this one
    assert not rep.power_complete_m_candidates


def test_scan_small_corpus(corpus_lines):
    small = [ln for ln in corpus_lines if parse_graph6(ln).n <= 6]
    rep = conjecture_scan(small, 2)
    assert rep.skipped == 0
    assert rep.scanned + rep.out_of_scope == len(small)
    assert not rep.chi_equals_m_candidates
    assert not rep.power_complete_m_candidates
    assert rep.girth_2gamma_count > 0  # girth-4 graphs exist here


def test_scan_counts_skipped_on_tiny_cap(corpus_lines):
    small = [ln for ln in corpus_lines if parse_graph6(ln).n == 6][:20]
    rep = conjecture_scan(small, 2, exact_cap=5)
    assert rep.skipped == len([ln for ln in small
                               if parse_graph6(ln).max_degree() >= 3])


@pytest.mark.parametrize("gamma", [2, 3])
def test_scan_one_computes_no_diameter(gamma, corpus_lines, monkeypatch):
    """The three Moore conditions imply diameter gamma, so scan_one never
    computes a diameter, and its records stay the same."""
    import distchroma.bounds as bnd
    import distchroma.metrics as met

    sample = corpus_lines[::10] + [encode_graph6(petersen()),
                                   encode_graph6(hoffman_singleton())]
    before = [bnd.scan_one(ln, gamma) for ln in sample]
    assert any(rec.get("is_moore") for rec in before) == (gamma == 2)

    def no_diameter(g):
        raise AssertionError("scan_one computed a diameter")

    monkeypatch.setattr(met, "diameter", no_diameter)
    assert [bnd.scan_one(ln, gamma) for ln in sample] == before


def test_one_scope_decision_keeps_usage_errors_apart():
    """A graph out of scope gets an out-of-scope row from scan_one and from
    the CLI's corpus bounds; a gamma below 2 stays a usage error there."""
    import distchroma.bounds as bnd
    from distchroma.cli import _eval_one

    for g in (cycle_graph(6), from_edges(8, SPIDER.edges + ((5, 6), (6, 7)))):
        line = encode_graph6(g)
        assert bnd.scan_one(line, 2) == {"status": "out-of-scope", "graph6": line}
        assert json.loads(_eval_one(line, 2, 10, None, "jsonl"))["status"] == "out-of-scope"
    line = encode_graph6(petersen())
    for call in (lambda: bnd.scan_one(line, 1), lambda: _eval_one(line, 1, 10, None, "csv")):
        with pytest.raises(ValueError, match="gamma must be >= 2"):
            call()


def test_scan_parallel_matches_serial(corpus_lines):
    small = [ln for ln in corpus_lines if parse_graph6(ln).n == 7][:300]
    serial = conjecture_scan(small, 2, jobs=1)
    parallel = conjecture_scan(small, 2, jobs=2)
    assert serial == parallel


# ---------------------------------------------------------------------------
# odd-degree large-Delta case analysis


def test_odd_degree_threshold_values():
    assert odd_degree_threshold(2) == 10_000_002
    assert odd_degree_threshold(3) == 46_417


def test_odd_degree_threshold_is_tight():
    for gamma in (2, 3, 4, 5):
        d0 = odd_degree_threshold(gamma)
        assert (d0 - 1) ** gamma >= 10**14 + 1
        assert (d0 - 2) ** gamma < 10**14 + 1


def test_enumerate_cases():
    assert enumerate_odd_degree_cases() == [(-1, 0), (0, 0), (0, 1)]


@pytest.mark.parametrize(
    "d_off, c_off, expected",
    [(-1, 0, "parity"), (0, 0, "clique-exclusion"), (0, 1, "moore")],
)
def test_case_table(d_off, c_off, expected):
    delta = odd_degree_threshold(3)
    if delta % 2 == 0:
        delta += 1
    out = resolve_odd_degree_case(delta, 3, d_off, c_off)
    assert out.contradiction == expected
    assert len(out.facts) == 3


def test_case_analysis_m_parity():
    # M is odd whenever delta is odd: the parity contradiction is real.
    for delta in (3, 5, 7, 9, 11, 10_000_003):
        for gamma in (2, 3, 4):
            assert max_power_degree(delta, gamma) % 2 == 1


def test_case_analysis_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        resolve_odd_degree_case(10_000_004, 2, 0, 0)  # even delta
    with pytest.raises(ValueError):
        resolve_odd_degree_case(101, 2, 0, 0)  # below threshold
    with pytest.raises(ValueError):
        resolve_odd_degree_case(10_000_003, 2, -1, 1)  # infeasible case


@pytest.mark.parametrize("gamma", [2, 3, 4, 5])
def test_case_analysis_threshold_is_odd_degree_threshold(gamma):
    threshold = odd_degree_threshold(gamma)
    for delta in range(threshold - 4, threshold + 5):
        if delta % 2 == 0:
            continue
        if delta < threshold:
            with pytest.raises(ValueError, match="threshold"):
                resolve_odd_degree_case(delta, gamma, 0, 1)
        else:
            assert resolve_odd_degree_case(delta, gamma, 0, 1).contradiction == "moore"


def test_odd_degree_bound_not_applicable_at_desk_scale(petersen_graph):
    rep = evaluate_bounds(petersen_graph, 2)
    entry = next(e for e in rep.bounds if e.source == "odd-degree-large")
    assert not entry.applicable
    assert entry.evidence["threshold"] == 10_000_002


# ---------------------------------------------------------------------------
# every hypothesis just inside and just outside its boundary


def _record(**facts) -> BoundHypotheses:
    """A hypotheses record with no graph behind it: the facts of the
    Petersen graph at gamma = 2, with ``facts`` put in their place."""
    base = dict(gamma=2, n=10, max_degree=3, min_degree=3, girth=5, connectivity=None)
    return BoundHypotheses(**{**base, **facts})


MOORE_AT_THRESHOLD = dict(gamma=3, n=max_power_degree(46_417, 3) + 1, max_degree=46_417,
                          min_degree=46_417, girth=7)

HYPOTHESIS_BOUNDARIES = [  # (property, facts, expected value)
    ("m_value", {}, 9),
    ("m_value", dict(gamma=3), 21),
    ("m_value", dict(min_degree=2), 9),
    ("is_regular", {}, True),
    ("is_regular", dict(min_degree=2), False),
    ("non_regular", {}, False),
    ("non_regular", dict(min_degree=2), True),
    ("order_matches", {}, True),
    ("order_matches", dict(n=9), False),
    ("order_matches", dict(n=11), False),
    ("girth_is_2gamma_plus_1", {}, True),
    ("girth_is_2gamma_plus_1", dict(girth=4), False),
    ("girth_is_2gamma_plus_1", dict(girth=6), False),
    ("girth_not_critical", {}, False),
    ("girth_not_critical", dict(girth=4), True),
    ("girth_not_critical", dict(girth=6), True),
    ("girth_not_critical", dict(n=11), False),
    ("is_moore", {}, True),
    ("is_moore", dict(min_degree=2), False),
    ("is_moore", dict(n=11), False),
    ("is_moore", dict(girth=6), False),
    ("girth_is_2gamma", dict(girth=4), True),
    ("girth_is_2gamma", dict(girth=3), False),
    ("girth_is_2gamma", {}, False),
    ("short_girth", dict(girth=3), True),
    ("short_girth", dict(girth=4), False),
    ("short_girth", dict(gamma=3, girth=5), True),
    ("short_girth", dict(gamma=3, girth=6), False),
    ("high_girth_window", dict(girth=6, connectivity=4), False),
    ("high_girth_window", dict(girth=7, connectivity=4), True),
    ("high_girth_window", dict(gamma=3, girth=7, connectivity=3), False),
    ("high_girth_window", dict(gamma=3, girth=8, connectivity=3), True),
    ("high_girth_window", dict(girth=math.inf, connectivity=1), True),
    ("required_connectivity", {}, 4),
    ("required_connectivity", dict(gamma=3), 3),
    ("high_girth_connected", dict(girth=6, connectivity=4), False),
    ("high_girth_connected", dict(girth=7, connectivity=3), False),
    ("high_girth_connected", dict(girth=7, connectivity=4), True),
    ("high_girth_connected", dict(gamma=3, girth=8, connectivity=2), False),
    ("high_girth_connected", dict(gamma=3, girth=8, connectivity=3), True),
    ("odd_degree_large", dict(gamma=3, n=10**6, max_degree=46_415), False),
    ("odd_degree_large", dict(gamma=3, n=10**6, max_degree=46_416), False),
    ("odd_degree_large", dict(gamma=3, n=10**6, max_degree=46_417), True),
    ("odd_degree_large", dict(gamma=3, n=10**6, max_degree=46_418), False),
    ("odd_degree_large", MOORE_AT_THRESHOLD, False),
]


@pytest.mark.parametrize(
    "prop, facts, expected", HYPOTHESIS_BOUNDARIES,
    ids=[f"{prop}-{i}" for i, (prop, _, _) in enumerate(HYPOTHESIS_BOUNDARIES)])
def test_hypotheses_at_their_boundaries(prop, facts, expected):
    """Each hypothesis is a function of the record's facts alone, so it is
    put on both sides of its boundary with no graph built, even where the
    boundary lies at a degree of 46,417, odd_degree_threshold(3)."""
    assert getattr(_record(**facts), prop) == expected


@pytest.mark.parametrize("n, applicable", [(216, False), (217, False), (218, True)])
def test_odd_degree_large_on_stars_at_gamma6(n, applicable):
    """At gamma = 6 the threshold is 217, an odd degree that a star reaches:
    Delta = 215 is below it, 216 is even, and 217 is odd and at it."""
    rep = evaluate_bounds(star_graph(n), 6)
    entry = next(e for e in rep.bounds if e.source == "odd-degree-large")
    assert entry.evidence == {"delta": n - 1, "threshold": 217}
    assert entry.applicable == applicable


def pg23_incidence():
    """The point-line incidence graph of PG(2, 3): point i meets line 13 + j
    iff (j - i) mod 13 is in the difference set {0, 1, 3, 9}."""
    return from_edges(26, [(i, 13 + j) for i in range(13) for j in range(13)
                           if (j - i) % 13 in (0, 1, 3, 9)])


def test_pg23_incidence_graph_lies_below_the_gamma2_high_girth_window():
    """Girth 6 is one below the window's 7 at gamma = 2, although the
    connectivity, 4, meets the requirement: neither the bound nor the
    strategy claims high girth."""
    g = pg23_incidence()
    assert (g.n, g.degrees(), girth(g), vertex_connectivity(g)) == (26, [4] * 26, 6, 4)
    rep = evaluate_bounds(g, 2)
    entry = next(e for e in rep.bounds if e.source == "high-girth-connected")
    assert not entry.applicable and entry.evidence["connectivity"] is None
    assert rep.exact_chi == 13
    assert save_color_strategy(g, 2).applied == "not-applicable"
