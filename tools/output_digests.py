#!/usr/bin/env python3
"""Print sha256 digests of distchroma's deterministic outputs.

Two checkouts that print the same lines write the same bytes for:

- ``scan`` and ``bounds --format jsonl`` over the shipped corpus at
  gamma = 2 and 3, header line excluded (it records the output path);
- ``bounds --format csv`` over the shipped corpus at gamma = 2 and 3,
  the whole file (its comment line holds no path);
- the ``color`` strategy JSON of petersen, hoffman-singleton,
  tutte-coxeter (read from a graph6 file), torus:5,7 and hex:8,8 at
  gamma = 2 and 3;
- the ``color --palette`` JSON of the five named graphs at gamma = 2
  and 3, header excluded: the greedy coloring with 2 colors, which leaves
  some vertices uncolored, and with n colors, which colors every vertex;
- the ``color --exact`` JSON, chi with its witness coloring, of torus:5,7,
  torus:6,7 and tutte-coxeter at gamma = 2 and 3, header excluded. Each
  of these solves has a DSATUR count above the clique number, so its
  witness pins the exact search and the seeded Tabucol stepped beside it:
  whichever of the two colors a palette first;
- the ``invariants`` JSON of the five named graphs, and their
  ``spectral`` JSON at gamma = 2 and 3, header excluded.

``bounds`` reports print lambda1 and every bound value rounded to 12
significant digits, so eigensolver last-bit noise does not reach them;
still, lambda1 comes from the machine's LAPACK, so compare digests taken
on one machine. They are not pinned in the tests.

Usage: python tools/output_digests.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from distchroma import (  # noqa: E402
    cli, encode_graph6, graph_from_spec, tutte_coxeter)

CORPUS = ROOT / "tests" / "data" / "connected_le8.g6"
NAMED = ("petersen", "hoffman-singleton", "tutte-coxeter", "torus:5,7", "hex:8,8")
EXACT = ("torus:5,7", "torus:6,7", "tutte-coxeter")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, default=2)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tutte = Path(tmp, "tutte-coxeter.g6")
        tutte.write_text(encode_graph6(tutte_coxeter()) + "\n")
        for gamma in (2, 3):
            for command, extra in (("scan", ()), ("bounds", ("--format", "jsonl"))):
                out = Path(tmp, f"{command}{gamma}.jsonl")
                code = cli.main([command, "--input", str(CORPUS), "--gamma", str(gamma),
                                 "--jobs", str(args.jobs), "--output", str(out), *extra])
                body = out.read_bytes().split(b"\n", 1)[1]
                print(f"{command} gamma={gamma} exit={code} {_digest(body)}")
            out = Path(tmp, f"bounds{gamma}.csv")
            code = cli.main(["bounds", "--input", str(CORPUS), "--gamma", str(gamma),
                             "--jobs", str(args.jobs), "--output", str(out),
                             "--format", "csv"])
            print(f"bounds --format csv gamma={gamma} exit={code} "
                  f"{_digest(out.read_bytes())}")
        for name in NAMED:
            spec = str(tutte) if name == "tutte-coxeter" else name
            for gamma in (2, 3):
                out = Path(tmp, "color.json")
                code = cli.main(["color", "--input", spec, "--gamma", str(gamma),
                                 "--output", str(out)])
                strategy = json.loads(out.read_text())["strategy"]
                text = json.dumps(strategy, sort_keys=True).encode()
                print(f"color {name} gamma={gamma} exit={code} {_digest(text)}")
        for name in NAMED:
            spec = str(tutte) if name == "tutte-coxeter" else name
            for gamma in (2, 3):
                for palette in (2, graph_from_spec(spec).n):
                    out = Path(tmp, "palette.json")
                    code = cli.main(["color", "--input", spec, "--gamma", str(gamma),
                                     "--palette", str(palette), "--output", str(out)])
                    payload = json.loads(out.read_text())
                    del payload["header"]
                    text = json.dumps(payload, sort_keys=True).encode()
                    print(f"color --palette {palette} {name} gamma={gamma} "
                          f"exit={code} {_digest(text)}")
        for name in EXACT:
            spec = str(tutte) if name == "tutte-coxeter" else name
            for gamma in (2, 3):
                out = Path(tmp, "exact.json")
                code = cli.main(["color", "--exact", "--input", spec, "--gamma", str(gamma),
                                 "--output", str(out)])
                payload = json.loads(out.read_text())
                del payload["header"]
                text = json.dumps(payload, sort_keys=True).encode()
                print(f"color --exact {name} gamma={gamma} exit={code} {_digest(text)}")
        for name in NAMED:
            spec = str(tutte) if name == "tutte-coxeter" else name
            runs = [("invariants", None)] + [("spectral", gamma) for gamma in (2, 3)]
            for command, gamma in runs:
                out = Path(tmp, f"{command}.json")
                flags = () if gamma is None else ("--gamma", str(gamma))
                code = cli.main([command, "--input", spec, *flags, "--output", str(out)])
                payload = json.loads(out.read_text())
                del payload["header"]
                text = json.dumps(payload, sort_keys=True).encode()
                at = "" if gamma is None else f" gamma={gamma}"
                print(f"{command} {name}{at} exit={code} {_digest(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
