#!/usr/bin/env python3
"""Print sha256 digests of distchroma's deterministic outputs.

Two checkouts that print the same lines write the same bytes for:

- ``scan`` and ``bounds --format jsonl|csv`` over the shipped corpus at
  gamma = 2 and 3 (a jsonl file without its header line, which records
  the output path; a csv file whole);
- for petersen, hoffman-singleton, tutte-coxeter, torus:5,7 and hex:8,8:
  ``invariants``, and at gamma = 2 and 3 the ``color`` strategy,
  ``color --palette`` with 2 colors (some vertices stay uncolored) and
  with n colors (every vertex is colored), ``spectral``, ``power`` and
  ``bounds --format json``;
- ``color --exact``, chi with its witness, of torus:5,7, torus:6,7 and
  tutte-coxeter at gamma = 2 and 3. Each solve has a DSATUR count above
  the clique number, so its witness pins the exact search and the seeded
  Tabucol stepped beside it: whichever of the two colors a palette first;
- ``formulas --path`` at n = 1..8 and ``--cycle`` at n = 3..12, both at
  gamma = 1..5, one line per family. The cycles reach every case of the
  closed form: n <= gamma, (gamma + 1) dividing n, and the scan.

A JSON document is digested without its header (it records the output
path), a color strategy as its ``strategy`` field alone. ``bounds``
reports print lambda1 and every bound value rounded to 12 significant
digits, so eigensolver last-bit noise does not reach them; still, lambda1
comes from the machine's LAPACK, so compare digests taken on one machine.
They are not pinned in the tests.

Usage: python tools/output_digests.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from distchroma import cli, graph_from_spec  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "connected_le8.g6"
NAMED = ("petersen", "hoffman-singleton", "tutte-coxeter", "torus:5,7", "hex:8,8")
EXACT = ("torus:5,7", "torus:6,7", "tutte-coxeter")


def pin(out: Path, label: str, *runs: list[str], keep: str | None = None) -> None:
    """Run each argv into ``out``, whose suffix names the format; print the
    label, the largest exit code and the digest of the outputs in order."""
    data, codes = b"", []
    for argv in runs:
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(sys.stderr):  # formulas prints chi
            codes.append(cli.main([*argv, "--output", str(out)]))
        body = out.read_bytes() if out.exists() else b""
        if out.suffix == ".jsonl":
            body = body.split(b"\n", 1)[1]
        elif out.suffix == ".json":
            payload = json.loads(body)
            payload.pop("header")
            body = json.dumps(payload[keep] if keep else payload, sort_keys=True).encode()
        data += body
    print(f"{label} exit={max(codes)} {hashlib.sha256(data).hexdigest()}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, default=2)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, csv, doc = (Path(tmp, "out" + s) for s in (".jsonl", ".csv", ".json"))
        for gamma in (2, 3):
            corpus = ["--input", str(CORPUS), "--gamma", str(gamma),
                      "--jobs", str(args.jobs)]
            pin(jsonl, f"scan gamma={gamma}", ["scan", *corpus])
            pin(jsonl, f"bounds gamma={gamma}", ["bounds", *corpus, "--format", "jsonl"])
            pin(csv, f"bounds --format csv gamma={gamma}",
                ["bounds", *corpus, "--format", "csv"])
        named = [(name, gamma) for name in NAMED for gamma in (2, 3)]
        for name, gamma in named:
            pin(doc, f"color {name} gamma={gamma}",
                ["color", "--input", name, "--gamma", str(gamma)],
                keep="strategy")
        for name, gamma in named:
            for palette in (2, graph_from_spec(name).n):
                pin(doc, f"color --palette {palette} {name} gamma={gamma}",
                    ["color", "--input", name, "--gamma", str(gamma),
                     "--palette", str(palette)])
        for name in EXACT:
            for gamma in (2, 3):
                pin(doc, f"color --exact {name} gamma={gamma}",
                    ["color", "--exact", "--input", name, "--gamma", str(gamma)])
        for name in NAMED:
            pin(doc, f"invariants {name}", ["invariants", "--input", name])
            for gamma in (2, 3):
                pin(doc, f"spectral {name} gamma={gamma}",
                    ["spectral", "--input", name, "--gamma", str(gamma)])
        for command, extra in (("power", ()), ("bounds", ("--format", "json"))):
            for name, gamma in named:
                pin(doc, " ".join([command, *extra, name, f"gamma={gamma}"]),
                    [command, "--input", name, "--gamma", str(gamma), *extra])
        for family, sizes in (("path", range(1, 9)), ("cycle", range(3, 13))):
            pin(doc, f"formulas --{family}", *(
                ["formulas", f"--{family}", str(n), "--gamma", str(gamma)]
                for n in sizes for gamma in range(1, 6)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
