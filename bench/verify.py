"""Checks of each workload's outputs against ``checks``, and the planted
wrong results each check must reject.

A verify function takes the JSON outputs of one round and raises
``checks.CheckError`` on the first disagreement.
"""

from __future__ import annotations

import copy
import json

import checks as ck

SCANNED = 12099          # connected graphs on <= 8 vertices with max degree >= 3
OUT_OF_SCOPE = 14        # the paths and cycles among them


class Graph:
    """Independent facts about one input graph, computed once."""

    def __init__(self, adj: list[set[int]]):
        self.adj = adj
        self.n = len(adj)
        self.delta = max((len(a) for a in adj), default=0)
        self.connected = ck.is_connected(adj)
        self._powers: dict[int, list[set[int]]] = {1: adj}
        self._lambda: dict[int, float] = {}
        self._chi: dict[int, int] = {}
        self._moore: dict[int, bool] = {}
        self._girth = None

    def power(self, gamma: int) -> list[set[int]]:
        if gamma not in self._powers:
            self._powers[gamma] = ck.power(self.adj, gamma)
        return self._powers[gamma]

    def lambda1(self, gamma: int = 1) -> float:
        if gamma not in self._lambda:
            self._lambda[gamma] = ck.spectral_radius(self.power(gamma))
        return self._lambda[gamma]

    def chi(self, gamma: int) -> int:
        """The distance chromatic number, by backtracking (small graphs)."""
        if gamma not in self._chi:
            k = 0
            while not ck.colorable(self.power(gamma), k):
                k += 1
            self._chi[gamma] = k
        return self._chi[gamma]

    @property
    def girth(self) -> float:
        if self._girth is None:
            self._girth = ck.girth(self.adj)
        return self._girth

    def is_moore(self, gamma: int) -> bool:
        if gamma not in self._moore:
            m_value = ck.max_power_degree(self.delta, gamma)
            regular = all(len(a) == self.delta for a in self.adj)
            diameter = max(max(ck.distances(self.adj, v)) for v in range(self.n))
            self._moore[gamma] = (regular and self.n == m_value + 1
                                  and self.girth == 2 * gamma + 1 and diameter == gamma)
        return self._moore[gamma]

    def power_complete_m(self, gamma: int) -> bool:
        """Order M and G^gamma complete."""
        return (self.n == ck.max_power_degree(self.delta, gamma)
                and all(len(p) == self.n - 1 for p in self.power(gamma)))


def check_report(g: Graph, rep: dict, what: str, *, minimal: bool) -> None:
    """One evaluate_bounds report: exact status, M, witness, bounds, lambda1,
    Moore classification, and (for small graphs) minimality."""
    gamma, chi = rep["gamma"], rep["chi"]
    what = f"{what} gamma={gamma}"
    ck.check_equal(rep["status"], "exact", f"{what}: exact_status")
    ck.check_equal(rep["m_value"], ck.max_power_degree(g.delta, gamma), f"{what}: M")
    padj = g.power(gamma)
    ck.check_coloring(padj, rep["witness"], chi, what)
    if minimal:
        ck.check_minimal(padj, chi, what)
    ck.check_bounds(rep["bounds"], chi, what)
    if rep["lambda1"] is not None:
        ck.check_lambda(rep["lambda1"], g.lambda1(), f"{what}: bound evidence")
    moore = g.is_moore(gamma)
    ck.check_equal(rep["is_moore"], moore, f"{what}: Moore classification")
    if moore:
        ck.check_equal(chi, rep["m_value"] + 1, f"{what}: chi of a Moore graph")


# ---------------------------------------------------------------------------
# sweep


def verify_sweep(records: list[dict]) -> None:
    for rec in records:
        what = f"sweep {rec['line']}"
        g = Graph(ck.decode_graph6(rec["line"]))
        if g.delta < 3 or not g.connected or g.n > 8:
            ck.fail(f"{what}: input outside the sweep corpus")
        ck.check_lambda(rec["lambda1"], g.lambda1(), f"{what}: spectral_radius")
        for d in rec["by_gamma"]:
            gamma = d["gamma"]
            check_report(g, d, what, minimal=True)
            tag = f"{what} gamma={gamma}"
            ck.check_lambda(d["lambda1_base"], g.lambda1(), f"{tag}: base")
            ck.check_lambda(d["lambda1_prev"], g.lambda1(gamma - 1), f"{tag}: G^(gamma-1)")
            ck.check_lambda(d["lambda1_power"], g.lambda1(gamma), f"{tag}: G^gamma")
            ck.check_equal(d["series_dominates"], True, f"{tag}: walk-series bound")
        ck.check_equal(rec["pair_deleted_max"], pair_deleted_max(g),
                       f"{what}: max chi(G^2 - {{u,v}}) over edges uv")


def pair_deleted_max(g: Graph) -> int:
    p2 = g.power(2)
    worst = 0
    for u in range(g.n):
        for v in g.adj[u]:
            if v < u:
                continue
            keep = [w for w in range(g.n) if w not in (u, v)]
            sub = [p2[w] - {u, v} for w in keep]
            index = {w: i for i, w in enumerate(keep)}
            sub = [{index[x] for x in nbrs} for nbrs in sub]
            # the maximum only grows where this subgraph needs more colors
            while not ck.colorable(sub, worst):
                worst += 1
    return worst


# ---------------------------------------------------------------------------
# hard-exact


def verify_hard(records: list[dict], expected: dict[tuple[str, int], int]) -> None:
    """``expected`` maps (label, gamma) to the instance's exact chi."""
    for rec in records:
        g = Graph(ck.adjacency_from_bits(rec["bits"]))
        rep = rec["report"]
        gamma, chi = rep["gamma"], rep["chi"]
        what = f"hard-exact {rec['label']}"
        check_report(g, rep, what, minimal=False)
        omega = ck.clique_number(g.power(gamma))
        if chi < omega:
            ck.fail(f"{what} gamma={gamma}: chi = {chi} below clique number {omega}")
        ck.check_equal(chi, expected.get((rec["label"], gamma)), f"{what} gamma={gamma}: chi")
        strat = rec["strategy"]
        ck.check_equal(strat["palette"], rep["m_value"] - 1, f"{what}: palette M-1")
        if strat["assignment"] is not None:
            ck.check_coloring(g.power(gamma), strat["assignment"], strat["colors"],
                              f"{what} gamma={gamma} save-a-color")
            if strat["colors"] > strat["palette"]:
                ck.fail(f"{what} gamma={gamma}: save-a-color used {strat['colors']} "
                        f"colors, more than M-1 = {strat['palette']}")


# ---------------------------------------------------------------------------
# corpus-cli


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verify_cli(inputs: dict[str, list[str]], outputs: dict[str, list[dict]],
               legs: dict, facts: dict | None = None) -> None:
    """``outputs`` maps a leg name to its parsed JSON lines; ``facts`` caches
    the independent facts of each input line between calls."""
    facts = {} if facts is None else facts

    def graph(line: str) -> Graph:
        if line not in facts:
            facts[line] = Graph(ck.decode_graph6(line))
        return facts[line]

    for name, (command, gamma, _jobs, input_name, _extra) in legs.items():
        if command != "bounds":
            continue
        lines = inputs[input_name]
        rows = outputs[name]
        ck.check_equal(len(rows), len(lines) + 1, f"{name}: line count")
        for line, rep in zip(lines, rows[1:]):
            ck.check_equal(rep.get("graph6"), line, f"{name}: report order")
            g = graph(line)
            if g.delta < 3:
                ck.check_equal(rep.get("status"), "out-of-scope", f"{name} {line}")
                continue
            check_report(g, {"gamma": rep["gamma"], "chi": rep["exact_chi"],
                             "status": rep["exact_status"], "m_value": rep["m_value"],
                             "witness": rep["witness"]["assignment"],
                             "bounds": [[b["source"], b["value"], b["strict"],
                                         b["applicable"]] for b in rep["bounds"]],
                             "lambda1": _evidence_lambda(rep),
                             "is_moore": rep["moore"]["is_moore"]},
                         f"{name} {line}", minimal=True)

    for name, (command, gamma, _jobs, input_name, _extra) in legs.items():
        if command != "scan":
            continue
        lines = inputs[input_name]
        rows = outputs[name]
        ck.check_equal(len(rows), len(lines) + 2, f"{name}: line count")
        girth_2gamma = 0
        for line, rec in zip(lines, rows[1:-1]):
            ck.check_equal(rec["graph6"], line, f"{name}: record order")
            g = graph(line)
            if g.delta < 3:
                ck.check_equal(rec["status"], "out-of-scope", f"{name} {line}")
                continue
            ck.check_equal(rec["status"], "scanned", f"{name} {line}")
            ck.check_equal(rec["m_value"], ck.max_power_degree(g.delta, gamma),
                           f"{name} {line}: M")
            ck.check_equal(rec["girth_2gamma"], g.girth == 2 * gamma,
                           f"{name} {line}: girth == 2 gamma")
            girth_2gamma += g.girth == 2 * gamma
            ck.check_equal(rec["chi"], g.chi(gamma), f"{name} {line}: chi")
            ck.check_equal(rec["is_moore"], g.is_moore(gamma), f"{name} {line}: is_moore")
            ck.check_equal(rec["power_complete_m"], g.power_complete_m(gamma),
                           f"{name} {line}: power_complete_m")
        summary = rows[-1]["summary"]
        ck.check_equal(summary["gamma"], gamma, f"{name}: summary gamma")
        ck.check_equal(summary["scanned"], SCANNED, f"{name}: summary scanned")
        ck.check_equal(summary["out_of_scope"], OUT_OF_SCOPE, f"{name}: summary out_of_scope")
        ck.check_equal(summary["skipped"], 0, f"{name}: summary skipped")
        ck.check_equal(summary["moore_count"], 0, f"{name}: summary moore_count")
        ck.check_equal(summary["girth_2gamma_count"], girth_2gamma,
                       f"{name}: summary girth_2gamma_count")
        ck.check_equal(summary["chi_equals_m_candidates"], [], f"{name}: candidates")
        ck.check_equal(summary["power_complete_m_candidates"], [], f"{name}: candidates")


def _evidence_lambda(rep: dict) -> float | None:
    for b in rep["bounds"]:
        if b["source"] == "spectral-power":
            return b["evidence"]["lambda1"]
    return None


# ---------------------------------------------------------------------------
# planted wrong results


def _conflict(assignment: list[int], padj: list[set[int]]) -> list[int]:
    """The assignment with one vertex given the color of a power neighbour."""
    wrong = list(assignment)
    v = next(v for v in range(len(padj)) if padj[v])
    wrong[v] = wrong[min(padj[v])]
    return wrong


def _extra_color(assignment: list[int]) -> list[int]:
    """A proper coloring with one color more: a vertex that shares its color
    gets a fresh one."""
    wrong = list(assignment)
    v = next(v for v, c in enumerate(wrong) if wrong.count(c) > 1)
    wrong[v] = max(wrong) + 1
    return wrong


def _room_for_one_more(chi: int, best_bound: int, assignment: list[int]) -> bool:
    """chi + 1 would pass the bounds and the witness checks, so that only
    the minimality check can object to it."""
    return chi + 1 <= best_bound and len(set(assignment)) < len(assignment)


def _rejection(verify, wrong) -> str | None:
    try:
        verify(wrong)
    except ck.CheckError as err:
        return str(err)
    return None


def planted(workload: str, outputs, *, inputs=None, legs=None, facts=None,
            expected=None) -> dict:
    """Plant wrong results in copies of verified outputs: a witness with one
    conflict; chi one too high, with a proper witness for it; on hard-exact,
    chi one too low; on corpus-cli, a wrong scan chi and a wrong summary
    count. Returns each plant's rejection message, None where it was
    accepted."""
    trials = []
    if workload == "sweep":
        rec = next(r for r in outputs
                   if _room_for_one_more(r["by_gamma"][0]["chi"], r["by_gamma"][0]["best_bound"],
                                         r["by_gamma"][0]["witness"]))
        d = rec["by_gamma"][0]
        padj = ck.power(ck.decode_graph6(rec["line"]), d["gamma"])
        conflict = copy.deepcopy(rec)
        conflict["by_gamma"][0]["witness"] = _conflict(d["witness"], padj)
        plus_one = copy.deepcopy(rec)
        plus_one["by_gamma"][0]["witness"] = _extra_color(d["witness"])
        plus_one["by_gamma"][0]["chi"] = d["chi"] + 1
        trials = [("witness conflict", verify_sweep, [conflict]),
                  ("chi one too high", verify_sweep, [plus_one])]
    elif workload == "hard-exact":
        rec = next(r for r in outputs if _room_for_one_more(
            r["report"]["chi"], r["report"]["best_bound"], r["report"]["witness"]))
        rep = rec["report"]
        padj = ck.power(ck.adjacency_from_bits(rec["bits"]), rep["gamma"])
        conflict = copy.deepcopy(rec)
        conflict["report"]["witness"] = _conflict(rep["witness"], padj)
        plus_one = copy.deepcopy(rec)
        plus_one["report"]["witness"] = _extra_color(rep["witness"])
        plus_one["report"]["chi"] = rep["chi"] + 1
        minus_one = copy.deepcopy(rec)
        minus_one["report"]["chi"] = rep["chi"] - 1
        trials = [(name, lambda o: verify_hard(o, expected), [wrong])
                  for name, wrong in (("witness conflict", conflict),
                                      ("chi one too high", plus_one),
                                      ("chi one too low", minus_one))]
    else:
        scan = next((n for n, leg in legs.items() if leg[0] == "scan"), None)
        bnds = next((n for n, leg in legs.items() if leg[0] == "bounds"), None)
        if scan is not None:
            rows = outputs[scan]
            summary = copy.deepcopy(rows[-1])
            summary["summary"]["scanned"] += 1
            i = next(i for i, r in enumerate(rows) if r.get("status") == "scanned")
            wrong_chi = copy.deepcopy(rows[i])
            wrong_chi["chi"] += 1
            for name, wrong in (("wrong summary count", rows[:-1] + [summary]),
                                ("wrong scan chi", rows[:i] + [wrong_chi] + rows[i + 1:])):
                trials.append((name,
                               lambda o: verify_cli(inputs, o, {scan: legs[scan]}, facts),
                               {scan: wrong}))
        if bnds is not None:
            header = outputs[bnds][0]
            row = next(r for r in outputs[bnds][1:] if r.get("witness") and _room_for_one_more(
                r["exact_chi"], r["best_bound"], r["witness"]["assignment"]))
            one_line = {legs[bnds][3]: [row["graph6"]]}
            padj = ck.power(ck.decode_graph6(row["graph6"]), row["gamma"])
            conflict = copy.deepcopy(row)
            conflict["witness"]["assignment"] = _conflict(row["witness"]["assignment"], padj)
            plus_one = copy.deepcopy(row)
            plus_one["witness"]["assignment"] = _extra_color(row["witness"]["assignment"])
            plus_one["exact_chi"] += 1
            for name, wrong in (("witness conflict", conflict), ("chi one too high", plus_one)):
                trials.append((name,
                               lambda o: verify_cli(one_line, o, {bnds: legs[bnds]}, facts),
                               {bnds: [header, wrong]}))
    return {name: _rejection(verify, wrong) for name, verify, wrong in trials}
