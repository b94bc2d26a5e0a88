"""Smoke test of what the benchmark harness in bench/ calls in the library.

The harness imports the library by module attribute and calls it with
fixed signatures. A change that breaks one of those calls fails here,
in seconds, instead of in a benchmark run. The bench modules are imported
as they are; the tracer is not installed.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        return {name: importlib.import_module(name)
                for name in ("workloads", "verify", "spans")}
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_function_resolves(bench):
    for module, name in bench["spans"].TRACED:
        assert callable(getattr(importlib.import_module(f"distchroma.{module}"), name))


def test_sweep_record_of_one_corpus_line(bench):
    wl = bench["workloads"]
    line = next(ln for ln in wl.corpus_lines()
                if wl.graphs.parse_graph6(ln).max_degree() >= 3)
    record = json.loads(json.dumps(wl.sweep_json(line, wl.sweep_record(line))))
    bench["verify"].verify_sweep([record])


def test_hard_reports_and_a_relabelled_solve(bench):
    wl = bench["workloads"]
    records = []
    for label, generator, params, gamma, _chi in wl.HARD_INSTANCES:
        if (label, gamma) in (("hex:6,6", 2), ("petersen", 2)):
            g = wl.build_instance(generator, params)
            result = wl.hard_report(g, gamma)
            records.append(json.loads(json.dumps(wl.hard_json(label, g, result))))
    assert len(records) == 2
    bench["verify"].verify_hard(records, wl.HARD_CHI)
    assert ("hex:6,6", 2) in wl.RELABEL_SAFE
    assert wl.relabel_chi("hex:6,6", 2, seed=1) == wl.HARD_CHI["hex:6,6", 2]
