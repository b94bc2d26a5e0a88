"""Benchmark of distchroma: three workloads, outputs checked, one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (README.md): ``sweep``, ``corpus-cli``, ``hard-exact``. A run
repeats whole rounds of its workload for about ``--seconds`` seconds, each
round in a fresh process, so that nothing one round computes can serve the
next. Then it checks every output against independent computations and
prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full record of the run goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("sweep", "corpus-cli", "hard-exact")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
CALLS_PER_GRAPH = ("metrics.power_graph", "metrics.girth", "metrics.shortest_cycle",
                   "metrics.diameter", "metrics.is_connected")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh process per set-up probe and per round
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--round", choices=("plain", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DISTCHROMA_CAP_N", None)  # the default exact-solver cap
    return env


def run_process(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run to completion in its own session, so that a timeout also ends
    the pool workers a CLI leg forked. A process still running after
    CHILD_TIMEOUT_S is killed and returns a non-zero status."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, env=program_env(),
                            **kwargs)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if timed_out or proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if timed_out:
        return subprocess.CompletedProcess(cmd, -signal.SIGKILL, "",
                                           f"killed after {CHILD_TIMEOUT_S} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples;
    None without samples."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# child side: one round of sweep or hard-exact


def run_round(workload: str, seed: int, index: int, traced: bool) -> int:
    import workloads as wl

    if workload == "sweep":
        items = [((line,), (line,)) for line in wl.sweep_inputs(seed, index)]
        operation, to_json = wl.sweep_record, wl.sweep_json
    else:
        items = [((label, g), (g, gamma)) for label, gamma, g in wl.hard_inputs(seed)]
        operation, to_json = wl.hard_report, wl.hard_json
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    ops = []
    for key, op_args in items:
        # CPU time of this process: on an idle machine it equals the wall
        # time, and it leaves out the time the machine's other work takes
        # from this process, which would otherwise set the tail
        start = time.process_time()
        try:
            result = operation(*op_args)
        except Exception as err:  # an operation that fails is counted, not fatal
            ops.append({"ms": (time.process_time() - start) * 1e3, "error": repr(err)})
            continue
        ms = (time.process_time() - start) * 1e3
        ops.append({"ms": ms, "out": to_json(*key, result)})
    print(json.dumps({
        "ops": ops,
        "peak_rss_kb": wl.peak_rss_kb(),
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


# ---------------------------------------------------------------------------
# parent side


def child_round(args, index: int, traced: bool) -> dict:
    import workloads as wl

    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", "traced" if traced else "plain",
           "--index", str(index)]
    start = time.perf_counter()
    proc = run_process(cmd)
    if proc.returncode != 0:
        # every item of the round counts as failed; there is nothing to check
        items = wl.SWEEP_SIZE if args.workload == "sweep" else len(wl.HARD_INSTANCES)
        return {"traced": traced, "op_ms": [], "busy_s": time.perf_counter() - start,
                "items": items, "failed": items,
                "errors": [f"round process exited {proc.returncode}: {proc.stderr[-500:]}"],
                "outputs": [], "peak_rss_kb": 0, "trace": None, "output_bytes": 0}
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = payload["ops"]
    return {
        "traced": traced,
        "op_ms": [op["ms"] for op in ops],
        "busy_s": sum(op["ms"] for op in ops) / 1e3,
        "items": len(ops),
        "failed": sum("error" in op for op in ops),
        "errors": [op["error"] for op in ops if "error" in op][:5],
        "outputs": [op.get("out") for op in ops],
        "peak_rss_kb": payload["peak_rss_kb"],
        "trace": payload["trace"],
        "output_bytes": 0,
    }


def cli_round(workdir: Path, sizes: dict, index: int, traced: bool, jobs_one: bool) -> dict:
    import workloads as wl

    legs, traces, op_ms, busy, failed, errors, out_bytes, peak = {}, [], [], 0.0, 0, [], 0, 0
    for command, gamma, jobs, input_name, extra in wl.CLI_LEGS:
        name = f"{command}-g{gamma}"
        output = workdir / f"{name}.r{index}.jsonl"
        report = workdir / f"{name}.r{index}.report.json"
        cmd = [sys.executable, str(BENCH / "cli_leg.py"), str(report),
               "traced" if traced else "plain", command, "--input", input_name,
               "--gamma", str(gamma), "--jobs", str(1 if jobs_one else jobs),
               "--output", output.name, *extra]
        start = time.perf_counter()
        proc = run_process(cmd, cwd=workdir)
        wall = time.perf_counter() - start
        busy += wall
        op_ms.append(wall * 1e3 / sizes[input_name])
        if proc.returncode != 0:
            failed += 1
            errors.append(f"{name} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        legs[name] = output
        out_bytes += output.stat().st_size
        leg = json.loads(report.read_text())
        peak = max(peak, leg["peak_rss_kb"])
        if traced:
            traces.append(leg["trace"])
    return {
        "traced": traced,
        "op_ms": op_ms,
        "busy_s": busy,
        "items": sum(sizes[leg[3]] for leg in wl.CLI_LEGS),
        "legs_run": len(wl.CLI_LEGS),
        "failed": failed,
        "errors": errors,
        "outputs": legs,
        "peak_rss_kb": peak,
        "trace": spans.merge(traces) if traced else None,
        "output_bytes": out_bytes,
    }


def setup_probe(args) -> float:
    if args.workload == "corpus-cli":
        cmd = [sys.executable, "-m", "distchroma.cli", "--version"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    proc = run_process(cmd)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
    return elapsed


def check(args, rounds: list[dict], workdir: Path) -> tuple[list[str], dict]:
    """Independent checks of every round, then the planted faults; returns
    the problems found and how each planted fault was rejected. Operations
    that failed are counted in "failed" and have no output to check."""
    import workloads as wl

    problems, plants = [], {}
    try:
        if args.workload == "corpus-cli":
            inputs = {name: (workdir / name).read_text().split()
                      for name in ("scan_input.g6", "bounds_input.g6")}
            done: dict = {}  # each leg's first output
            for r in rounds:
                for name, path in r["outputs"].items():
                    done.setdefault(name, path)
            legs = {name: leg for leg in wl.CLI_LEGS
                    if (name := f"{leg[0]}-g{leg[1]}") in done}
            first = {name: verify.read_jsonl(path) for name, path in done.items()}
            facts: dict = {}
            verify.verify_cli(inputs, first, legs, facts)
            for i, r in enumerate(rounds):
                for name, path in r["outputs"].items():
                    checks.check_equal(_body_digest(path), _body_digest(done[name]),
                                       f"{name} round {i} output against its first output")
            if legs:
                plants = verify.planted(args.workload, first, inputs=inputs, legs=legs,
                                        facts=facts)
        else:
            outputs = [[out for out in r["outputs"] if out is not None]
                       for r in rounds if r["outputs"]]
            for round_outputs in outputs:
                if args.workload == "sweep":
                    if len(round_outputs) < 1000:
                        checks.fail(f"sweep round of {len(round_outputs)} graphs, "
                                    f"fewer than 1000")
                    verify.verify_sweep(round_outputs)
                else:
                    verify.verify_hard(round_outputs, wl.HARD_CHI)
            if outputs and args.workload == "hard-exact":
                _check_relabelled(args.seed)
            if outputs:
                plants = verify.planted(args.workload, outputs[0], expected=wl.HARD_CHI)
        if not plants:
            checks.fail("no operation succeeded, so nothing was checked")
        problems += [f"planted fault not rejected: {name}"
                     for name, rejection in plants.items() if rejection is None]
    except checks.CheckError as err:
        problems.append(str(err))
    return problems, plants


def _body_digest(path: Path) -> str:
    """Digest of a CLI output without its header line, which records the
    --jobs setting."""
    with open(path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def _check_relabelled(seed: int) -> None:
    import random

    import workloads as wl

    rng = random.Random(seed)
    for label, gamma in rng.sample(wl.RELABEL_SAFE, wl.RELABEL_CHECKS):
        relabelled = wl.relabel_chi(label, gamma, rng.randrange(2**32))
        checks.check_equal(relabelled, wl.HARD_CHI[(label, gamma)],
                           f"hard-exact {label} gamma={gamma}: chi after relabelling")


def end_to_end(args, rounds: list[dict], setup_times: list[float]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    # if no operation completed, the round time per item stands in for them
    op_ms = ([ms for r in plain for ms in r["op_ms"]]
             or [r["busy_s"] * 1e3 / r["items"] for r in plain])
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "graphs_per_s": {"value": statistics.median(r["items"] / r["busy_s"] for r in plain),
                         "unit": "1/s"},
        "graph_p50_ms": {"value": percentile(op_ms, 50), "unit": "ms"},
        "graph_p99_ms": {"value": percentile(op_ms, 99), "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in plain) / 1024, "unit": "MB"},
    }


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    snap = spans.merge([r["trace"] for r in traced if r["trace"]])
    k = len(traced)
    items = traced[0]["items"]
    out = {}
    for name in spans.TRACED_NAMES:
        out[f"{name}.calls"] = {"value": snap["calls"].get(name, 0) / k, "unit": "count"}
        out[f"{name}.self_s"] = {"value": snap["self_s"].get(name, 0.0) / k, "unit": "s"}
    for name in CALLS_PER_GRAPH:
        out[f"{name}.calls_per_graph"] = {"value": snap["calls"].get(name, 0) / k / items,
                                          "unit": "count"}
    solves = snap["calls"].get("coloring.chromatic_number", 0)
    out["coloring.search_free_share"] = {
        "value": 100.0 * snap["search_free"] / solves if solves else 0.0, "unit": "%"}
    out["cli.output_bytes"] = {"value": sum(r["output_bytes"] for r in traced) / k,
                               "unit": "bytes"}
    overhead = (statistics.median(r["busy_s"] for r in traced)
                / statistics.median(r["busy_s"] for r in plain) - 1.0)
    out["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return out


def run_benchmark(args) -> int:
    import workloads as wl

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    try:
        sizes = wl.cli_inputs(args.seed, workdir) if args.workload == "corpus-cli" else {}
        setup_times = [setup_probe(args) for _ in range(SETUP_PROBES)]
        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            # a traced run alternates plain and traced rounds on the same inputs,
            # so that the tracing overhead is measured against rounds run alongside
            traced = args.trace == 1 and len(rounds) % 2 == 1
            if args.workload == "corpus-cli":
                rounds.append(cli_round(workdir, sizes, len(rounds), traced,
                                        jobs_one=args.trace == 1))
            else:
                rounds.append(child_round(args, 0 if args.trace else len(rounds), traced))
            elapsed = time.perf_counter() - start
            if args.trace == 1 and len(rounds) < 2:
                continue
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
        problems, plants = check(args, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "corpus-cli":
        attempted = sum(r["legs_run"] for r in rounds)
    else:
        attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(args, rounds, setup_times)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems, planted_faults=plants, setup_probes_s=setup_times,
                  errors=[e for r in rounds for e in r["errors"]],
                  rounds=[{"traced": r["traced"], "items": r["items"], "busy_s": r["busy_s"],
                           "p50_ms": percentile(r["op_ms"], 50),
                           "p99_ms": percentile(r["op_ms"], 99), "op_ms": r["op_ms"]}
                          for r in rounds],
                  trace=(spans.merge([r["trace"] for r in rounds if r["traced"] and r["trace"]])
                         if args.trace else None))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distchroma" / "__init__.py").is_file():
        print(f"bench: the program's source is missing (no {SRC / 'distchroma'})",
              file=sys.stderr)
        return 2
    import workloads as wl

    program = Path(wl.distchroma.__file__).resolve()
    if SRC not in program.parents:
        print(f"bench: distchroma imported from {program}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.setup(args.workload, args.seed)
        return 0
    if args.round:
        return run_round(args.workload, args.seed, args.index, args.round == "traced")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
