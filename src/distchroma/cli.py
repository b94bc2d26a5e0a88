"""Command-line interface.

Exit codes: 0 success (skipped items allowed unless --strict), 1 operational
or usage error, 2 soundness violation (an exact value beat a bound that
applied), 130 Ctrl-C, for every subcommand (main is its one handler).
Outputs are deterministic for a fixed config: sorted JSON keys, stable
tie-breaking everywhere, timestamps only on stderr. json_value encodes every
report as strict JSON; _emit writes every one-document report with its header,
and _stream every report of one line per graph (scan, corpus bounds).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import __version__
from . import bounds as bnd
from . import coloring as col
from . import metrics as met
from . import spectral as spec
from .graphs import encode_graph6, graph_from_spec, input_lines, parse_graph6

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SOUNDNESS = 2


def json_value(value):
    """A report as JSON values: a dataclass as its fields, floats at 12
    significant digits (eigensolver last-bit noise stays out), inf as None,
    tuples as lists, dicts and nested reports recursively."""
    if value is None or type(value) in (bool, int, str):
        return value
    if isinstance(value, float):
        return None if value == math.inf else float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {name: json_value(getattr(value, name)) for name in fields}
    return value


def _dumps(payload, indent: int | None = None) -> str:
    """Strict JSON, sorted keys: no Infinity or NaN token is ever written."""
    return json.dumps(json_value(payload), sort_keys=True, indent=indent,
                      allow_nan=False)


def _header(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"tool": "distchroma", "version": __version__, "config": config}


def _emit(args: argparse.Namespace, body: dict) -> int:
    """Write the header and then the body fields to --output or stdout."""
    text = _dumps({"header": _header(args), **body}, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _stream(args: argparse.Namespace, head: list[str], rows, mode: str = "w") -> int:
    """Write the head lines and then the lines of the iterator ``rows``, each
    flushed as it arrives, to --output or stdout. The first row is computed
    before anything is opened, so an error on the first graph leaves no
    output, and an interrupt keeps every row written so far."""
    first = list(itertools.islice(rows, 1))
    out = open(args.output, mode, encoding="utf-8") if args.output else sys.stdout
    try:
        for row in itertools.chain(head, first, rows):
            out.write(row + "\n")
            out.flush()
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_invariants(args) -> int:
    g = graph_from_spec(args.input)
    return _emit(args, {"graph6": encode_graph6(g), "invariants": met.invariants(g)})


def cmd_power(args) -> int:
    g = graph_from_spec(args.input)
    power = met.power_graph(g, args.gamma).graph
    return _emit(args, {"graph6": encode_graph6(g), "power_graph6": encode_graph6(power),
                        "power_degrees": power.degrees()})


def cmd_color(args) -> int:
    g = graph_from_spec(args.input)
    if args.exact:
        chi, witness = col.distance_chromatic_number(
            g, args.gamma, cap=args.cap, time_budget=args.timeout)
        print(f"chi_{args.gamma} = {chi}", file=sys.stderr)
        body = {"chi": chi, "witness": witness}
    elif args.palette is not None:
        pc = col.greedy_coloring(met.power_graph(g, args.gamma), range(g.n), args.palette)
        body = {"palette": args.palette, "uncolored": pc.uncolored_vertices(),
                "assignment": pc.assignment}
    else:
        outcome = col.save_color_strategy(g, args.gamma, cap=args.cap)
        body = {"strategy": outcome.to_json_dict()}
    return _emit(args, {"graph6": encode_graph6(g), **body})


def cmd_spectral(args) -> int:
    g = graph_from_spec(args.input)
    body = {"graph6": encode_graph6(g), "spectral": spec.spectral_radius(g)}
    if args.gamma >= 2:
        body["matrix_inequalities"] = spec.power_matrix_inequalities(g, args.gamma)
        body["power_bounds"] = spec.spectral_power_bounds(g, args.gamma)
    return _emit(args, body)


CSV_COLUMNS = ("id", "n", "delta", "gamma", "M", "best_bound", "exact_chi",
               "equality_class")


def _csv_line(*values) -> str:
    return ",".join("" if v is None else str(v) for v in values)


def _eval_one(line: str, gamma: int, cap: int, timeout: float | None,
              fmt: str) -> str:
    """The output line of one graph6 line: its csv row, or its JSON report."""
    g = parse_graph6(line)
    try:
        report = bnd.evaluate_bounds(g, gamma, exact_cap=cap, time_budget=timeout)
    except col.OutOfScopeError:
        if fmt == "csv":
            return _csv_line(line, g.n, g.max_degree(), gamma, None, None, None,
                             "out-of-scope")
        return _dumps({"graph6": line, "status": "out-of-scope"})
    if fmt == "csv":
        return _csv_line(report.graph6, g.n, report.delta, gamma, report.m_value,
                         report.best_bound, report.exact_chi, report.equality_class)
    return _dumps(report)


def cmd_bounds(args) -> int:
    lines = input_lines(args.input)
    if args.format == "json":
        if len(lines) > 1:
            raise ValueError(f"--format json writes one report, and {args.input} "
                             f"holds {len(lines)} graphs: use --format jsonl")
        return _emit(args, {"report": bnd.evaluate_bounds(
            parse_graph6(lines[0]), args.gamma, exact_cap=args.cap,
            time_budget=args.timeout)})

    head = ([f"# distchroma {__version__} gamma={args.gamma}", _csv_line(*CSV_COLUMNS)]
            if args.format == "csv" else [_dumps({"header": _header(args)})])
    return _stream(args, head, bnd.map_lines(
        _eval_one, lines, args.gamma, args.cap, args.timeout, args.format, jobs=args.jobs))


def cmd_formulas(args) -> int:
    if args.path is not None:
        family, n, formula = "path", args.path, col.path_distance_chromatic
    else:
        family, n, formula = "cycle", args.cycle, col.cycle_distance_chromatic
    chi = formula(n, args.gamma)
    _emit(args, {"family": family, "n": n, "gamma": args.gamma, "chi": chi})
    print(chi)
    return EXIT_OK


def _resume(args, report: bnd.ScanReport) -> tuple[int, bool] | None:
    """Fold the records in the output of an earlier run into report, as they
    are read; returns their count and whether that run finished (its last
    line is the summary), or None when starting afresh. A torn last line, cut
    off by a crash, is cut off the file too. Raises ValueError when the
    earlier run's header has another config."""
    if not (args.resume and os.path.exists(args.output)):
        return None
    done, last, whole = 0, None, 0
    with open(args.output, "rb") as fh:
        for ln in fh:
            if not ln.endswith(b"\n"):
                os.truncate(args.output, whole)
                break
            whole += len(ln)
            if not ln.strip():
                continue
            row = json.loads(ln)
            if last is None:
                config = row.get("header", {}).get("config", {})
                changed = [k for k in ("gamma", "cap", "input")
                           if config.get(k) != getattr(args, k)]
                if changed:
                    raise ValueError(f"cannot resume {args.output}: its header has "
                                     f"another {', '.join(changed)}")
            elif "status" in row:
                report.add(row)
                done += 1
            last = row
    return None if last is None else (done, "summary" in last)


def cmd_scan(args) -> int:
    lines = input_lines(args.input)
    report = bnd.ScanReport(gamma=args.gamma)
    resumed = _resume(args, report)
    done, finished = resumed or (0, False)
    if not finished:
        def rows():
            for rec in bnd.map_lines(bnd.scan_one, lines[done:], args.gamma, args.cap,
                                     jobs=args.jobs):
                report.add(rec)
                yield _dumps(rec)
            yield _dumps({"summary": report})

        head = [] if resumed else [_dumps({"header": _header(args)})]
        _stream(args, head, rows(), "a" if resumed else "w")
    if report.chi_equals_m_candidates or report.power_complete_m_candidates:
        print("counterexample candidate found", file=sys.stderr)
        return EXIT_SOUNDNESS
    if report.skipped and args.strict:
        return EXIT_ERROR
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own status, 2, is EXIT_SOUNDNESS."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distchroma",
        description="distance chromatic numbers, bounds, and corpus scans")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--input": dict(required=True,
                        help="file path or graph spec like petersen, cycle:7, "
                             "random-regular:n=20,d=3,seed=42"),
        "--gamma": dict(type=int, default=2),
        "--output": dict(default=None),
        "--cap": dict(type=int, default=col.DEFAULT_EXACT_CAP),
        "--timeout": dict(type=float, default=None),
        "--jobs": dict(type=int, default=1),
    }

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
        return p

    command("invariants", cmd_invariants, "structural invariants as JSON",
            "--input", "--output")
    command("power", cmd_power, "gamma-th power of the graph",
            "--input", "--gamma", "--output")

    p = command("color", cmd_color, "exact or constructive distance coloring",
                "--input", "--gamma", "--output", "--cap", "--timeout")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="run the exact solver (default: save-a-color strategy)")
    mode.add_argument("--palette", type=int, default=None,
                      help="greedy-color the power graph with this many colors")

    command("spectral", cmd_spectral, "spectral radius and matrix checks",
            "--input", "--gamma", "--output")

    p = command("bounds", cmd_bounds, "evaluate every applicable bound",
                "--input", "--gamma", "--output", "--cap", "--timeout", "--jobs")
    p.add_argument("--format", choices=("json", "jsonl", "csv"), default="json",
                   help="json: the report of one graph; jsonl: a header line and "
                        "one report per graph; csv: one row per graph")

    p = command("formulas", cmd_formulas, "closed forms for paths and cycles",
                "--gamma", "--output")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--path", type=int, default=None)
    family.add_argument("--cycle", type=int, default=None)

    p = command("scan", cmd_scan, "conjecture scan over the input graphs",
                "--input", "--gamma", "--cap", "--jobs")
    p.add_argument("--output", default=None, help="JSON-lines report path")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any graph was skipped")
    p.add_argument("--resume", action="store_true",
                   help="continue the scan in --output: skip the graphs it "
                        "already has records for; a finished scan is left as is")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "color" and args.timeout is not None and not args.exact:
        parser.error("color reads --timeout only with --exact")
    if args.command == "color" and args.palette and args.cap != col.DEFAULT_EXACT_CAP:
        parser.error("color does not read --cap with --palette")
    if args.command == "scan" and args.resume and not args.output:
        parser.error("scan --resume continues the file named by --output")
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted; rows already written are kept", file=sys.stderr)
        return 130
    except bnd.SoundnessViolation as err:
        print(f"SOUNDNESS VIOLATION: {err}", file=sys.stderr)
        print(_dumps(err.report), file=sys.stderr)
        return EXIT_SOUNDNESS
    except (col.SolverBudgetError, spec.SpectralConvergenceError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
