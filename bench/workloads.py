"""Inputs and timed rounds of the three workloads.

Every call into the program goes through a module attribute
(``bounds.evaluate_bounds``, not a name imported from it), so that the
spans installed by ``spans.Tracer`` see it. Each operation is timed alone;
its outputs are reduced to plain JSON values after its timer stops.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "data" / "connected_le8.g6"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import distchroma  # noqa: E402
from distchroma import bounds, coloring, graphs, metrics, spectral  # noqa: E402

# Connected graphs on <= 8 vertices (OEIS A001349: 1+1+2+6+21+112+853+11117)
# and those among them with maximum degree >= 3, i.e. all but the 14 paths
# and cycles on 1..8 vertices.
CORPUS_SIZE = 12113
ELIGIBLE_SIZE = 12099

SWEEP_SIZE = 1200
BOUNDS_LEG_SIZE = 4000

# hard-exact: (label, generator, arguments, gamma, chi). Fixed by rule,
# including the random-regular generator seeds, because the search time of
# one random-regular instance varies by three orders of magnitude between
# generator seeds (README.md); --seed sets the solve order and the
# relabelling checks. Each entry finishes within seconds on the parent code.
# The 4-regular family fills the middle of the time distribution, so that
# the median solve is not one instance sitting in a gap. chi is the exact
# value every report must give; README.md says how each one is certified.
HARD_INSTANCES = (
    ("random-regular:n=56,d=3,seed=1", "random_regular", (56, 3, 1), 3, 9),
    ("random-regular:n=40,d=3,seed=5", "random_regular", (40, 3, 5), 3, 9),
    ("random-regular:n=48,d=3,seed=4", "random_regular", (48, 3, 4), 3, 9),
    ("random-regular:n=40,d=3,seed=3", "random_regular", (40, 3, 3), 3, 9),
    ("random-regular:n=40,d=4,seed=2", "random_regular", (40, 4, 2), 3, 16),
    ("random-regular:n=40,d=4,seed=1", "random_regular", (40, 4, 1), 2, 7),
    ("random-regular:n=40,d=4,seed=2", "random_regular", (40, 4, 2), 2, 7),
    ("random-regular:n=40,d=4,seed=3", "random_regular", (40, 4, 3), 2, 7),
    ("random-regular:n=40,d=4,seed=4", "random_regular", (40, 4, 4), 2, 7),
    ("random-regular:n=40,d=4,seed=5", "random_regular", (40, 4, 5), 2, 7),
    ("random-regular:n=40,d=4,seed=6", "random_regular", (40, 4, 6), 2, 7),
    ("random-regular:n=44,d=4,seed=1", "random_regular", (44, 4, 1), 2, 8),
    ("random-regular:n=44,d=4,seed=2", "random_regular", (44, 4, 2), 2, 7),
    ("random-regular:n=44,d=4,seed=3", "random_regular", (44, 4, 3), 2, 7),
    ("random-regular:n=44,d=4,seed=4", "random_regular", (44, 4, 4), 2, 7),
    ("random-regular:n=44,d=4,seed=5", "random_regular", (44, 4, 5), 2, 7),
    ("random-regular:n=44,d=4,seed=6", "random_regular", (44, 4, 6), 2, 7),
    ("random-regular:n=44,d=3,seed=1", "random_regular", (44, 3, 1), 3, 9),
    ("random-regular:n=44,d=3,seed=1", "random_regular", (44, 3, 1), 2, 5),
    ("torus:5,7", "square_lattice_torus", (5, 7), 3, 12),
    ("torus:5,7", "square_lattice_torus", (5, 7), 2, 7),
    ("torus:6,7", "square_lattice_torus", (6, 7), 3, 11),
    ("torus:6,7", "square_lattice_torus", (6, 7), 2, 6),
    ("torus:5,5", "square_lattice_torus", (5, 5), 3, 13),
    ("torus:5,5", "square_lattice_torus", (5, 5), 2, 5),
    ("hex:6,6", "hex_lattice", (6, 6), 2, 4),
    ("hex:8,8", "hex_lattice", (8, 8), 3, 6),
    ("petersen", "petersen", (), 2, 10),
    ("petersen", "petersen", (), 3, 10),
    ("hoffman-singleton", "hoffman_singleton", (), 2, 50),
    ("hoffman-singleton", "hoffman_singleton", (), 3, 50),
    ("tutte-coxeter", "tutte_coxeter", (), 2, 6),
    ("tutte-coxeter", "tutte_coxeter", (), 3, 8),
)
HARD_CHI = {(label, gamma): chi for label, _, _, gamma, chi in HARD_INSTANCES}

# Instances whose exact solve stays well under a second under any vertex
# relabelling tried (15 random relabellings each); the relabelling check
# draws from these.
RELABEL_SAFE = (
    ("tutte-coxeter", 2), ("tutte-coxeter", 3), ("torus:6,7", 2),
    ("torus:5,5", 2), ("torus:5,5", 3), ("hex:6,6", 2),
    ("random-regular:n=40,d=4,seed=2", 2), ("random-regular:n=44,d=3,seed=1", 2),
    ("random-regular:n=44,d=3,seed=1", 3),
)
RELABEL_CHECKS = 3

# corpus-cli legs: (subcommand, gamma, jobs, input file, extra arguments).
CLI_LEGS = (
    ("scan", 2, 1, "scan_input.g6", ()),
    ("scan", 3, 1, "scan_input.g6", ()),
    ("bounds", 2, 2, "bounds_input.g6", ("--format", "jsonl")),
)


def corpus_lines() -> list[str]:
    return [ln.strip() for ln in CORPUS.read_text().splitlines() if ln.strip()]


def stratified_sample(items: list, strata: list, size: int, rng: random.Random,
                      index: int = 0) -> list:
    """Seeded sample with each stratum's share of the population, so that
    samples drawn with different seeds have the same make-up. Samples with
    consecutive ``index`` are disjoint until a stratum runs out; then that
    stratum wraps around."""
    groups: dict = {}
    for item, key in zip(items, strata):
        groups.setdefault(key, []).append(item)
    exact = {key: len(group) * size / len(items) for key, group in groups.items()}
    take = {key: int(share) for key, share in exact.items()}
    short = size - sum(take.values())
    for key in sorted(exact, key=lambda k: (int(exact[k]) - exact[k], k))[:short]:
        take[key] += 1
    chosen = []
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        start = index * take[key]
        chosen.extend(group[(start + i) % len(group)] for i in range(take[key]))
    rng.shuffle(chosen)
    return chosen


def sweep_inputs(seed: int, index: int = 0) -> list[str]:
    """Stratified (by order and size) sample of the connected <= 8-vertex
    corpus graphs with maximum degree >= 3; round ``index`` of a run gets
    its own sample."""
    eligible, strata = [], []
    for line in corpus_lines():
        g = graphs.parse_graph6(line)
        if g.max_degree() >= 3:
            eligible.append(line)
            strata.append((g.n, g.m))
    if len(eligible) != ELIGIBLE_SIZE:
        raise RuntimeError(f"corpus has {len(eligible)} graphs with max degree >= 3, "
                           f"expected {ELIGIBLE_SIZE}")
    return stratified_sample(eligible, strata, SWEEP_SIZE, random.Random(seed), index)


def build_instance(generator: str, params: tuple):
    fn = getattr(graphs, generator)
    if generator == "random_regular":
        return fn(params[0], params[1], seed=params[2])
    return fn(*params)


def hard_inputs(seed: int) -> list[tuple[str, int, graphs.Graph]]:
    """The hard-exact instances in a seeded order."""
    built = {}
    out = []
    for label, generator, params, gamma, _chi in HARD_INSTANCES:
        if label not in built:
            built[label] = build_instance(generator, params)
        out.append((label, gamma, built[label]))
    random.Random(seed).shuffle(out)
    return out


def cli_inputs(seed: int, workdir: Path) -> dict[str, int]:
    """Write the corpus-cli input files; returns the line count of each.

    The scan legs read the whole corpus in a seeded order, so their summary
    counts are fixed; the bounds leg reads a stratified sample by order.
    """
    rng = random.Random(seed)
    lines = corpus_lines()
    scan_lines = rng.sample(lines, len(lines))
    orders = [ord(line[0]) - 63 for line in lines]
    bounds_lines = stratified_sample(lines, orders, BOUNDS_LEG_SIZE, rng)
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = {}
    for name, chosen in (("scan_input.g6", scan_lines), ("bounds_input.g6", bounds_lines)):
        (workdir / name).write_text("".join(ln + "\n" for ln in chosen))
        sizes[name] = len(chosen)
    return sizes


def setup(workload: str, seed: int) -> None:
    """What a round does before its first timed operation."""
    if workload == "sweep":
        sweep_inputs(seed)
    elif workload == "hard-exact":
        hard_inputs(seed)
    else:
        raise ValueError(f"{workload} has no in-process set-up")


# ---------------------------------------------------------------------------
# outputs reduced to JSON values


def _lambda_evidence(report) -> float | None:
    for entry in report.bounds:
        if entry.source == "spectral-power":
            return entry.evidence["lambda1"]
    return None


def report_json(report) -> dict:
    return {
        "gamma": report.gamma,
        "chi": report.exact_chi,
        "status": report.exact_status,
        "m_value": report.m_value,
        "best_bound": report.best_bound,
        "witness": list(report.witness.assignment) if report.witness else None,
        "bounds": [[e.source, e.value, e.strict, e.applicable] for e in report.bounds],
        "lambda1": _lambda_evidence(report),
        "is_moore": report.moore.is_moore,
        "equality_class": report.equality_class,
    }


# ---------------------------------------------------------------------------
# timed operations


def sweep_record(line: str):
    """The acceptance-sweep record of one graph (tests/test_acceptance.py)."""
    g = graphs.parse_graph6(line)
    lam = spectral.spectral_radius(g)
    per_gamma = []
    for gamma in (2, 3):
        report = bounds.evaluate_bounds(g, gamma)
        mi = spectral.power_matrix_inequalities(g, gamma)
        sb = spectral.spectral_power_bounds(g, gamma)
        per_gamma.append((report, mi, sb))
    pg2 = metrics.power_graph(g, 2).graph
    worst = 0
    for u, v in g.edges:
        keep = [w for w in range(g.n) if w not in (u, v)]
        index = {w: i for i, w in enumerate(keep)}
        sub = graphs.from_edges(
            len(keep),
            [(index[a], index[b]) for a, b in pg2.edges if a in index and b in index],
        )
        worst = max(worst, coloring.chromatic_number(sub)[0])
    return lam, per_gamma, worst


def sweep_json(line: str, result) -> dict:
    lam, per_gamma, worst = result
    return {
        "line": line,
        "lambda1": lam.lambda1,
        "by_gamma": [
            dict(report_json(report),
                 series_dominates=mi.series_dominates,
                 lambda1_base=sb.lambda1_base,
                 lambda1_prev=sb.lambda1_prev,
                 lambda1_power=sb.lambda1_power)
            for report, mi, sb in per_gamma
        ],
        "pair_deleted_max": worst,
    }


def hard_report(g, gamma: int):
    """The report a user asks for on one instance: every bound with the
    exact value, and the save-a-color construction where it applies."""
    report = bounds.evaluate_bounds(g, gamma)
    strategy = coloring.save_color_strategy(g, gamma, exact_fallback=False)
    return report, strategy


def hard_json(label: str, g, result) -> dict:
    report, strategy = result
    return {
        "label": label,
        "bits": list(g.bits),
        "report": report_json(report),
        "strategy": {
            "applied": strategy.applied,
            "palette": strategy.palette_size,
            "m_value": strategy.m_value,
            "colors": strategy.coloring.k if strategy.coloring else None,
            "assignment": (list(strategy.coloring.assignment)
                           if strategy.coloring else None),
        },
    }


def peak_rss_kb() -> int:
    """High-water resident set of this process since it was started.

    Read from /proc rather than getrusage, whose ru_maxrss keeps the
    parent's high-water mark across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def relabel_chi(label: str, gamma: int, seed: int) -> int:
    """Exact value of a seeded relabelling of one hard-exact instance."""
    generator, params = next((gen, par) for lab, gen, par, _, _ in HARD_INSTANCES
                             if lab == label)
    g = build_instance(generator, params)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = graphs.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return coloring.distance_chromatic_number(h, gamma)[0]
