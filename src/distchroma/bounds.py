"""Upper bounds for distance chromatic numbers and their equality cases.

Evaluates every applicable degree and spectral bound against the exact
value, detects Moore graphs (the unique equality case of the M+1 bound),
checks the clique exclusion for non-Moore graphs, and scans corpora for
would-be counterexamples to the open questions: a non-Moore graph with
chi_gamma = M, a graph of girth 2*gamma with chi_gamma = M, or a power
graph equal to the complete graph K_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator

from . import coloring as col
from . import metrics as met
from . import spectral as spec
from .coloring import LARGE_DEGREE, odd_degree_threshold
from .graphs import Graph, encode_graph6, parse_graph6
from .metrics import max_power_degree

INT_GUARD = 1e-9  # slack when flooring real-valued bounds to integers


class SoundnessViolation(AssertionError):
    """An exact chromatic number exceeded a bound that applied to it.

    This is the build-failing event: it means either the implementation or
    a theorem it encodes is wrong. Carries the offending report; the message
    and report sit in ``args``, so the error pickles with its report.
    """

    def __init__(self, message: str, report: "BoundReport | None" = None):
        super().__init__(message, report)
        self.report = report

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class MooreCertificate:
    delta: int
    gamma: int
    order_expected: int  # M + 1
    is_regular: bool
    order_matches: bool
    girth_is_2gamma_plus_1: bool
    diameter_is_gamma: bool
    is_moore: bool


def detect_moore(g: Graph, gamma: int) -> MooreCertificate:
    """The Moore conditions of the hypotheses record, with diameter gamma as
    evidence. No hardcoded graph list; works on arbitrary inputs."""
    hyp = col.bound_hypotheses(g, gamma)
    diameter_ok = met.diameter(g) == gamma
    if hyp.is_moore and not diameter_ok:
        raise AssertionError(f"a Moore graph of diameter {met.diameter(g)}, "
                             f"not gamma = {gamma}")
    return MooreCertificate(hyp.max_degree, gamma, hyp.m_value + 1, hyp.is_regular,
                            hyp.order_matches, hyp.girth_is_2gamma_plus_1,
                            diameter_ok, hyp.is_moore)


@dataclass(frozen=True)
class BoundEntry:
    source: str
    value: float
    value_int: int        # integer form used for best-bound comparison
    strict: bool          # True: chi < value; False: chi <= value
    applicable: bool
    evidence: dict


@dataclass(frozen=True)
class BoundReport:
    graph6: str
    gamma: int
    delta: int
    m_value: int
    bounds: tuple[BoundEntry, ...]
    best_bound: int
    exact_chi: int | None
    exact_status: str     # "exact" | "cap-exceeded" | "budget-exceeded"
    witness: col.Coloring | None
    moore: MooreCertificate
    equality_class: str   # "moore-equality" | "strict-below" | "unknown"


def _int_form(value: float, strict: bool) -> int:
    """Largest integer chi consistent with the bound, guarded against float
    error: floor(value) for chi <= value, one less at integers for chi < value."""
    if strict and abs(value - round(value)) <= INT_GUARD:
        return int(round(value)) - 1
    return math.floor(value + INT_GUARD)


def evaluate_bounds(
    g: Graph,
    gamma: int,
    *,
    exact_cap: int = col.DEFAULT_EXACT_CAP,
    time_budget: float | None = None,
) -> BoundReport:
    """Evaluate every bound whose hypotheses hold, solve exactly when under
    the cap, classify the equality case, and self-check soundness.

    Raises SoundnessViolation if the exact value beats an applicable bound.
    """
    hyp = col.bound_hypotheses(g, gamma)
    delta, gir, m_value = hyp.max_degree, hyp.girth, hyp.m_value
    moore = detect_moore(g, gamma)

    entries: list[BoundEntry] = []

    def add(source, value, *, strict=False, applicable=True, **evidence):
        entries.append(
            BoundEntry(source, float(value), _int_form(float(value), strict),
                       strict, applicable, dict(evidence)))

    add("power-degree-plus-one", m_value + 1, delta=delta)
    add("girth-not-critical", m_value, applicable=hyp.girth_not_critical, girth=gir)
    add("non-regular", m_value - 1, applicable=hyp.non_regular,
        min_degree=hyp.min_degree, max_degree=delta)
    add("short-girth", m_value - 1, applicable=hyp.short_girth, girth=gir)
    add("high-girth-connected", m_value - 1, applicable=hyp.high_girth_connected,
        girth=gir, connectivity=hyp.connectivity,
        required_connectivity=hyp.required_connectivity)
    add("odd-degree-large", m_value - 1, applicable=hyp.odd_degree_large,
        delta=delta, threshold=odd_degree_threshold(gamma))

    # In scope, lambda1 >= sqrt(Delta) >= sqrt(3) > 1 and n >= Delta + 1 >= 4:
    # both spectral bounds always apply.
    lam = spec.spectral_radius(g).lambda1
    add("spectral-series", spec.geometric_series_bound(lam, gamma), lambda1=lam)
    add("spectral-power", lam**gamma + 1, strict=gamma >= 3, lambda1=lam)

    best = min(e.value_int for e in entries if e.applicable)

    exact_chi: int | None = None
    witness = None
    status = "exact"
    try:
        exact_chi, witness = col.distance_chromatic_number(
            g, gamma, cap=exact_cap, time_budget=time_budget)
    except col.SolverCapError:
        status = "cap-exceeded"
    except col.SolverBudgetError as err:
        status = f"budget-exceeded:{err.kind}"

    if exact_chi is None:
        equality = "unknown"
    elif exact_chi == m_value + 1:
        equality = "moore-equality"
    else:
        equality = "strict-below"

    report = BoundReport(
        graph6=encode_graph6(g),
        gamma=gamma,
        delta=delta,
        m_value=m_value,
        bounds=tuple(entries),
        best_bound=best,
        exact_chi=exact_chi,
        exact_status=status,
        witness=witness,
        moore=moore,
        equality_class=equality,
    )

    if exact_chi is not None:
        for e in entries:
            if e.applicable and exact_chi > e.value_int:
                raise SoundnessViolation(
                    f"chi_{gamma} = {exact_chi} breaks bound "
                    f"{e.source} = {e.value}", report)
        if equality == "moore-equality" and not moore.is_moore:
            raise SoundnessViolation(
                f"chi_{gamma} = M+1 on a non-Moore graph", report)
    return report


# ---------------------------------------------------------------------------
# clique exclusion for non-Moore graphs


@dataclass(frozen=True)
class CliqueExclusionReport:
    graph6: str
    gamma: int
    m_value: int
    power_order: int
    clique_number: int | None      # None when the cap was exceeded
    properly_contains_m_clique: bool | None
    power_is_complete_m: bool
    status: str                    # "checked" | "cap-exceeded"


def power_is_complete_m(pg: Graph, m_value: int) -> bool:
    """Whether the power graph pg is the complete graph K_M."""
    return pg.n == m_value and pg.m == m_value * (m_value - 1) // 2


def check_clique_exclusion(g: Graph, gamma: int) -> CliqueExclusionReport:
    """For a non-Moore graph, the gamma-th power must not contain a clique
    of size M while also having more than M vertices. Also records whether
    the power equals K_M outright (expected never)."""
    hyp = col.bound_hypotheses(g, gamma)
    if hyp.is_moore:
        raise ValueError("clique exclusion applies to non-Moore graphs only")
    pg = met.power_graph(g, gamma).graph
    complete_m = power_is_complete_m(pg, hyp.m_value)
    try:
        omega = met.clique_number(pg)
    except met.CliqueCapError:
        return CliqueExclusionReport(
            encode_graph6(g), gamma, hyp.m_value, pg.n, None, None,
            complete_m, "cap-exceeded")
    properly = omega >= hyp.m_value and pg.n > hyp.m_value
    return CliqueExclusionReport(
        encode_graph6(g), gamma, hyp.m_value, pg.n, omega, properly,
        complete_m, "checked")


# ---------------------------------------------------------------------------
# corpus scanning for the open questions


@dataclass(frozen=True)
class ScanCandidate:
    kind: str       # "chi-equals-m" | "power-complete-m"
    graph6: str
    chi: int | None
    m_value: int
    invariants: met.InvariantReport


@dataclass
class ScanReport:
    gamma: int
    scanned: int = 0
    moore_count: int = 0
    out_of_scope: int = 0
    skipped: int = 0
    girth_2gamma_count: int = 0
    chi_equals_m_candidates: list[ScanCandidate] = field(default_factory=list)
    power_complete_m_candidates: list[ScanCandidate] = field(default_factory=list)

    def add(self, rec: dict) -> None:
        """Count one scan_one record, listing it when it is a candidate."""
        if rec["status"] == "out-of-scope":
            self.out_of_scope += 1
            return
        if rec["status"] == "skipped":
            self.skipped += 1
            return
        self.scanned += 1
        self.moore_count += rec["is_moore"]
        self.girth_2gamma_count += rec["girth_2gamma"]
        chi = rec["chi"]
        if not rec["is_moore"] and chi is not None and chi >= rec["m_value"]:
            self.chi_equals_m_candidates.append(_candidate("chi-equals-m", rec))
        if rec["power_complete_m"]:
            self.power_complete_m_candidates.append(_candidate("power-complete-m", rec))


def scan_one(line: str, gamma: int, exact_cap: int = col.DEFAULT_EXACT_CAP) -> dict:
    """Classify one graph6 line; returns a plain dict so pool workers can
    ship it cheaply."""
    g = parse_graph6(line)
    try:
        hyp = col.bound_hypotheses(g, gamma)
    except col.OutOfScopeError:
        return {"status": "out-of-scope", "graph6": line}
    pg = met.power_graph(g, gamma).graph
    rec = {
        "status": "scanned",
        "graph6": line,
        "m_value": hyp.m_value,
        "is_moore": hyp.is_moore,
        "girth_2gamma": hyp.girth_is_2gamma,
        "power_complete_m": power_is_complete_m(pg, hyp.m_value),
        "chi": None,
    }
    try:
        chi, _ = col.distance_chromatic_number(g, gamma, cap=exact_cap)
        rec["chi"] = chi
    except (col.SolverCapError, col.SolverBudgetError) as err:
        rec["status"] = "skipped"
        rec["reason"] = str(err)
    return rec


def _apply(fn, args: tuple, line: str):
    return fn(line, *args)


def map_lines(fn, lines: list[str], *args, jobs: int = 1) -> Iterator:
    """``fn(line, *args)`` for every line, yielded in input order as soon as
    each result is ready; over a pool of ``jobs`` worker processes when
    jobs > 1. The workers ignore SIGINT: Ctrl-C reaches this process, and
    leaving the ``with`` block terminates them."""
    if jobs > 1 and len(lines) > 1:
        import multiprocessing as mp
        import signal

        with mp.Pool(jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
            yield from pool.imap(partial(_apply, fn, args), lines, chunksize=64)
    else:
        for ln in lines:
            yield fn(ln, *args)


def _candidate(kind: str, rec: dict) -> ScanCandidate:
    invariants = met.invariants(parse_graph6(rec["graph6"]))
    return ScanCandidate(kind, rec["graph6"], rec["chi"], rec["m_value"], invariants)


def conjecture_scan(
    lines: Iterable[str],
    gamma: int,
    *,
    exact_cap: int = col.DEFAULT_EXACT_CAP,
    jobs: int = 1,
) -> ScanReport:
    """Scan a graph6 corpus for counterexample candidates.

    Skipped entries (cap or budget) are counted, never dropped. With jobs
    > 1 a process pool evaluates graphs concurrently; output order is the
    input order either way.
    """
    if gamma < 2:
        raise ValueError("gamma must be >= 2")
    todo = [ln.strip() for ln in lines if ln.strip()]
    report = ScanReport(gamma=gamma)
    for rec in map_lines(scan_one, todo, gamma, exact_cap, jobs=jobs):
        report.add(rec)
    return report


# ---------------------------------------------------------------------------
# odd-degree case analysis (the large-Delta bound reduced to pure logic)


@dataclass(frozen=True)
class OddCaseOutcome:
    power_delta_offset: int   # Delta(G^gamma) - M: -1 or 0
    chi_offset: int           # chi(G^gamma) - M: 0 or +1
    contradiction: str        # "parity" | "clique-exclusion" | "moore"
    facts: tuple[str, ...]


def enumerate_odd_degree_cases() -> list[tuple[int, int]]:
    """All (Delta(G^gamma) - M, chi - M) pairs a counterexample could have:
    chi >= M by assumption, chi <= Delta(G^gamma) + 1 <= M + 1 by the greedy
    bound, ruling out (−1, +1)."""
    cases = []
    for d_off in (-1, 0):
        for c_off in (0, 1):
            if c_off <= d_off + 1:
                cases.append((d_off, c_off))
    return cases


def resolve_odd_degree_case(
    delta: int, gamma: int, power_delta_offset: int, chi_offset: int
) -> OddCaseOutcome:
    """Reproduce the contradiction for one case of a hypothetical odd-degree
    counterexample (non-Moore, regular, chi >= M, Delta at least the
    threshold). Pure arithmetic on (delta, gamma); no graph is built."""
    if not col.large_odd_degree(delta, gamma):
        raise ValueError("case analysis assumes an odd delta at least the "
                         f"large-degree threshold {odd_degree_threshold(gamma)}")
    if (power_delta_offset, chi_offset) not in enumerate_odd_degree_cases():
        raise ValueError("not a feasible case: chi <= Delta(G^gamma) + 1")
    m_value = max_power_degree(delta, gamma)
    if power_delta_offset == -1 and chi_offset == 0:
        # chi = max degree + 1 forces the power to be complete of order M;
        # a Delta-regular graph of odd order M then has odd degree sum.
        if m_value % 2 != 1:
            raise AssertionError("M inherits oddness from delta")
        return OddCaseOutcome(
            power_delta_offset, chi_offset, "parity",
            (
                f"power graph is complete of order M = {m_value}",
                f"degree sum M * delta = {m_value * delta} is odd",
                "handshake parity is violated",
            ),
        )
    if power_delta_offset == 0 and chi_offset == 0:
        # chi exceeds Delta(G^gamma) - 1, so with Delta(G^gamma) >= 10^14 the
        # large-degree clique bound forces a clique of size M; the order
        # exceeds M (else the power is K_M with max degree M-1), so the
        # power properly contains K_M, impossible for non-Moore graphs.
        if m_value < LARGE_DEGREE:
            raise AssertionError(f"M = {m_value} below 10^14 past the threshold")
        return OddCaseOutcome(
            power_delta_offset, chi_offset, "clique-exclusion",
            (
                f"clique of size M = {m_value} exists in the power graph",
                "order exceeds M, so the clique is proper",
                "non-Moore graphs cannot properly contain such a clique",
            ),
        )
    # power_delta_offset == 0, chi_offset == 1
    return OddCaseOutcome(
        power_delta_offset, chi_offset, "moore",
        (
            f"chi = M + 1 = {m_value + 1} attains the maximum",
            "equality holds only for Moore graphs",
            "contradicts the non-Moore hypothesis",
        ),
    )
