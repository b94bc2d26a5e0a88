"""Command-line surface: flags, outputs, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from distchroma import encode_graph6, graph_from_spec, petersen, star_graph
from distchroma.cli import EXIT_ERROR, EXIT_OK, EXIT_SOUNDNESS, main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_color_exact_petersen(capsys):
    code, out = run(capsys, "color", "--input", "petersen", "--gamma", "2", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["chi"] == 10
    assert len(payload["witness"]["assignment"]) == 10
    assert payload["header"]["version"]


def test_color_strategy_default(capsys):
    code, out = run(capsys, "color", "--input", "complete:4", "--gamma", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["strategy"]["applied"] == "short-girth"


def test_formulas_cycle(capsys):
    code, out = run(capsys, "formulas", "--cycle", "7", "--gamma", "2")
    assert code == EXIT_OK
    assert out.strip().endswith("4")
    payload = json.loads(out.rsplit("\n", 2)[0])
    assert payload["chi"] == 4


def test_formulas_path(capsys):
    code, out = run(capsys, "formulas", "--path", "10", "--gamma", "2")
    assert code == EXIT_OK
    assert json.loads(out.rsplit("\n", 2)[0])["chi"] == 3


def test_invariants_json(capsys):
    code, out = run(capsys, "invariants", "--input", "hoffman-singleton")
    assert code == EXIT_OK
    inv = json.loads(out)["invariants"]
    assert inv["n"] == 50 and inv["girth"] == 5 and inv["diameter"] == 2


def test_invariants_girth_null_for_trees(capsys):
    code, out = run(capsys, "invariants", "--input", "star:7")
    assert json.loads(out)["invariants"]["girth"] is None


def test_power_command(capsys):
    code, out = run(capsys, "power", "--input", "cycle:7", "--gamma", "3")
    payload = json.loads(out)
    assert payload["power_degrees"] == [6] * 7


def test_spectral_command(capsys):
    code, out = run(capsys, "spectral", "--input", "petersen", "--gamma", "2")
    payload = json.loads(out)
    assert payload["spectral"]["lambda1"] == pytest.approx(3.0, abs=1e-9)
    assert payload["matrix_inequalities"]["equality"] is True


def test_bounds_command(capsys):
    code, out = run(capsys, "bounds", "--input", "petersen", "--gamma", "2")
    payload = json.loads(out)
    assert payload["report"]["best_bound"] == 10
    assert payload["report"]["equality_class"] == "moore-equality"


def test_bad_input_exits_one(capsys):
    code, _ = run(capsys, "invariants", "--input", "no-such-file.g6")
    assert code == EXIT_ERROR


def test_bad_parameters_exit_one(capsys):
    code, _ = run(capsys, "color", "--input", "cycle:9", "--gamma", "2", "--exact")
    assert code == EXIT_OK  # exact solve of C9^2 is fine (chi=3)
    code, _ = run(capsys, "bounds", "--input", "cycle:9", "--gamma", "2")
    assert code == EXIT_ERROR  # bounds need max degree >= 3


def test_scan_file_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join([
        encode_graph6(petersen()),
        encode_graph6(star_graph(5)),
    ]) + "\n")
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    code1 = main(["scan", "--input", str(corpus), "--gamma", "2",
                  "--output", str(out1)])
    code2 = main(["scan", "--input", str(corpus), "--gamma", "2",
                  "--output", str(out2)])
    assert code1 == code2 == EXIT_OK
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if '"header"' not in ln]
    assert strip(out1) == strip(out2)  # byte-identical below the config header
    lines = [json.loads(ln) for ln in out1.read_text().splitlines()]
    assert "header" in lines[0]
    assert "summary" in lines[-1]
    summary = lines[-1]["summary"]
    assert summary["scanned"] == 2 and summary["moore_count"] == 1


def test_scan_parallel_matches_serial_output(tmp_path, capsys, corpus_lines):
    corpus = tmp_path / "c.g6"
    small = [ln for ln in corpus_lines if len(ln) <= 6][:120]  # n <= 7
    corpus.write_text("\n".join(small) + "\n")
    ser = tmp_path / "ser.jsonl"
    par = tmp_path / "par.jsonl"
    assert main(["scan", "--input", str(corpus), "--output", str(ser)]) == EXIT_OK
    assert main(["scan", "--input", str(corpus), "--output", str(par),
                 "--jobs", "2"]) == EXIT_OK
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if '"header"' not in ln]
    assert strip(ser) == strip(par)


def test_scan_resume(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    lines = [encode_graph6(star_graph(k)) for k in (4, 5, 6, 7)]
    corpus.write_text("\n".join(lines) + "\n")
    full = tmp_path / "full.jsonl"
    main(["scan", "--input", str(corpus), "--output", str(full)])
    # simulate an interrupted run: header + first two records only
    partial = tmp_path / "part.jsonl"
    partial.write_text("".join(full.read_text().splitlines(keepends=True)[:3]))
    main(["scan", "--input", str(corpus), "--output", str(partial), "--resume"])
    below_header = lambda p: p.read_text().splitlines()[1:]
    assert below_header(partial) == below_header(full)
    summaries = [ln for ln in partial.read_text().splitlines() if '"summary"' in ln]
    assert len(summaries) == 1
    assert json.loads(summaries[0])["summary"]["scanned"] == 4
    # resuming a finished scan leaves it as it is
    before = partial.read_bytes()
    assert main(["scan", "--input", str(corpus), "--output", str(partial),
                 "--resume"]) == EXIT_OK
    assert partial.read_bytes() == before


def test_scan_resume_rejects_another_config(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(petersen()) + "\n" + encode_graph6(star_graph(5)) + "\n")
    out = tmp_path / "s.jsonl"
    main(["scan", "--input", str(corpus), "--output", str(out)])
    partial = "".join(out.read_text().splitlines(keepends=True)[:2])
    out.write_text(partial)
    capsys.readouterr()
    for flag, value in (("--gamma", "3"), ("--cap", "20")):
        code = main(["scan", "--input", str(corpus), "--output", str(out),
                     "--resume", flag, value])
        assert code == EXIT_ERROR
        assert "cannot resume" in capsys.readouterr().err
        assert out.read_text() == partial


def test_scan_output_bytes_pinned(tmp_path, capsys):
    """Scan records hold no floats, so these digests (records and summary,
    header excluded) are the same on every platform."""
    import hashlib

    from conftest import CORPUS_PATH

    expected = {
        2: "aa5bb0bc0eaf1f1ba273ef9ac304015cd30cfbaca411bb3205dccccb095bc2fb",
        3: "cc636b1d34220feaf0bc182d4820accfba898dadb09ba2abe5141b7837fdd5c8",
    }
    for gamma, digest in expected.items():
        out = tmp_path / f"scan{gamma}.jsonl"
        assert main(["scan", "--input", str(CORPUS_PATH), "--gamma", str(gamma),
                     "--jobs", "2", "--output", str(out)]) == EXIT_OK
        body = out.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == digest, gamma


def test_color_palette_mode(capsys):
    code, out = run(capsys, "color", "--input", "complete:4", "--gamma", "1",
                    "--palette", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["uncolored"]) == 1


def test_bounds_corpus_jsonl_and_csv(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join([
        encode_graph6(petersen()),
        encode_graph6(star_graph(5)),
    ]) + "\n")
    out_jsonl = tmp_path / "b.jsonl"
    code = main(["bounds", "--input", str(corpus), "--gamma", "2",
                 "--format", "jsonl", "--output", str(out_jsonl)])
    assert code == EXIT_OK
    lines = out_jsonl.read_text().splitlines()
    assert '"header"' in lines[0]
    reports = [json.loads(ln) for ln in lines[1:]]
    assert [r["best_bound"] for r in reports] == [10, 5]

    out_csv = tmp_path / "b.csv"
    code = main(["bounds", "--input", str(corpus), "--gamma", "2",
                 "--format", "csv", "--output", str(out_csv), "--jobs", "2"])
    assert code == EXIT_OK
    rows = out_csv.read_text().splitlines()
    assert rows[0].startswith("# distchroma")
    assert rows[1] == "id,n,delta,gamma,M,best_bound,exact_chi,equality_class"
    assert rows[2].endswith("moore-equality")
    assert len(rows) == 4


def test_bounds_corpus_honours_timeout(tmp_path, capsys):
    from distchroma import random_regular

    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(random_regular(40, 3, seed=1)) + "\n"
                      + encode_graph6(petersen()) + "\n")
    out = tmp_path / "b.jsonl"
    code = main(["bounds", "--input", str(corpus), "--gamma", "3", "--timeout",
                 "0.0001", "--format", "jsonl", "--output", str(out)])
    assert code == EXIT_OK
    reports = [json.loads(ln) for ln in out.read_text().splitlines()[1:]]
    # petersen needs no search (clique = DSATUR), so it stays exact
    assert [r["exact_status"] for r in reports] == ["budget-exceeded:time", "exact"]


def test_bounds_corpus_marks_low_degree_out_of_scope(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    from distchroma import cycle_graph, path_graph

    corpus.write_text("\n".join([
        encode_graph6(path_graph(4)),       # delta 2: out of scope
        encode_graph6(petersen()),
        encode_graph6(cycle_graph(5)),      # delta 2: out of scope
    ]) + "\n")
    out_csv = tmp_path / "b.csv"
    code = main(["bounds", "--input", str(corpus), "--gamma", "2",
                 "--format", "csv", "--output", str(out_csv)])
    assert code == EXIT_OK
    rows = out_csv.read_text().splitlines()[2:]
    assert rows[0].endswith("out-of-scope")
    assert rows[1].endswith("moore-equality")
    assert rows[2].endswith("out-of-scope")


def test_bounds_corpus_error_is_not_out_of_scope(tmp_path, monkeypatch, capsys):
    import distchroma.cli as cli

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure on an in-scope graph")

    monkeypatch.setattr(cli.bnd, "evaluate_bounds", boom)
    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(star_graph(5)) + "\n"
                      + encode_graph6(petersen()) + "\n")
    out = tmp_path / "b.jsonl"
    code = main(["bounds", "--input", str(corpus), "--gamma", "2",
                 "--format", "jsonl", "--output", str(out)])
    assert code == EXIT_ERROR
    assert "synthetic failure" in capsys.readouterr().err
    assert not out.exists()


def test_scan_error_on_the_first_graph_writes_nothing(tmp_path, capsys):
    """Like corpus bounds, scan computes its first record before it writes
    the header: at gamma 1 the first graph fails, and no output is left."""
    out = tmp_path / "s.jsonl"
    for output in (["--output", str(out)], []):
        code = main(["scan", "--input", "petersen", "--gamma", "1", *output])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == ""
        assert "error:" in captured.err
    assert not out.exists()


def test_soundness_violation_exit_code(monkeypatch, capsys):
    import distchroma.bounds as bnd
    import distchroma.cli as cli

    real_evaluate = bnd.evaluate_bounds

    def boom(*args, **kwargs):
        raise bnd.SoundnessViolation("synthetic", real_evaluate(petersen(), 2))

    monkeypatch.setattr(cli.bnd, "evaluate_bounds", boom)
    code = main(["bounds", "--input", "complete:4", "--gamma", "2"])
    assert code == EXIT_SOUNDNESS


def test_budget_error_exits_one(monkeypatch, capsys):
    import distchroma.cli as cli
    import distchroma.coloring as coloring

    def boom(*args, **kwargs):
        raise coloring.SolverBudgetError("time", "wall-clock limit hit")

    monkeypatch.setattr(cli.col, "distance_chromatic_number", boom)
    code = main(["color", "--input", "petersen", "--gamma", "2", "--exact"])
    assert code == EXIT_ERROR


def test_scan_strict_exits_on_skips(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(petersen()) + "\n")
    assert main(["scan", "--input", str(corpus), "--cap", "5"]) == EXIT_OK
    capsys.readouterr()
    assert main(["scan", "--input", str(corpus), "--cap", "5",
                 "--strict"]) == EXIT_ERROR
    capsys.readouterr()


def _exception_samples():
    """One instance of every exception class defined in distchroma."""
    import importlib
    import inspect
    import pkgutil

    import distchroma
    from distchroma import bounds

    report = bounds.evaluate_bounds(petersen(), 2)
    samples = {
        "Graph6Error": ("payload too short", 2),
        "EdgeListError": ("expected two tokens, got 3", 4),
        "GenerationError": ("cycle needs n >= 3",),
        "CliqueCapError": ("clique search capped at n=5, got 10",),
        "SolverCapError": ("exact solver capped at n=5, got n=10",),
        "SolverBudgetError": ("nodes", "over 3 decisions", 5, 7),
        "SpectralConvergenceError": ("no convergence",),
        "SoundnessViolation": ("chi_2 = 11 breaks bound x = 10.0", report),
    }
    found = {}
    for info in pkgutil.iter_modules(distchroma.__path__):
        module = importlib.import_module(f"distchroma.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found[name] = cls
    assert sorted(found) == sorted(samples)
    out = [found[name](*args) for name, args in samples.items()]
    out.append(found["SolverBudgetError"]("time", "wall-clock limit hit"))
    out.append(found["SoundnessViolation"]("broken bound"))
    return out


def test_every_exception_survives_pickling():
    """A pool worker's error reaches the parent by pickle: unpickling calls
    the class with ``args``, so a constructor that keeps only the message
    there would raise TypeError in the pool's result thread and hang it."""
    import pickle

    samples = _exception_samples()
    for err in samples:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err) and back.args == err.args
        assert vars(back) == vars(err)
    assert str(samples[-2]) == "time budget exhausted: wall-clock limit hit"
    assert str(samples[-1]) == "broken bound" and samples[-1].report is None


def _run_cli(*argv, timeout=30.0, interrupt_at=None, stdout=None):
    """The distchroma command in a subprocess of its own session. A run
    that outlives ``timeout`` has its process group killed and fails. With
    ``interrupt_at`` a path, the group gets SIGINT, as Ctrl-C sends it, once
    that file holds three lines; with it a number, that many seconds after
    the start. With ``stdout`` a string, the run must print exactly that."""
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    import distchroma

    env = dict(os.environ, PYTHONPATH=str(Path(distchroma.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "distchroma.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    start = time.monotonic()
    deadline = start + timeout

    def due() -> bool:
        if isinstance(interrupt_at, (int, float)):
            return time.monotonic() >= start + interrupt_at
        return interrupt_at.exists() and interrupt_at.read_bytes().count(b"\n") >= 3

    while interrupt_at is not None and proc.poll() is None and time.monotonic() < deadline:
        if due():
            os.killpg(proc.pid, signal.SIGINT)
            break
        time.sleep(0.005)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"distchroma {' '.join(argv)} still running after {timeout} s")
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass  # no process of its group is left
    else:
        os.killpg(proc.pid, signal.SIGKILL)
        pytest.fail(f"distchroma {' '.join(argv)} left processes running")
    assert stdout is None or out == stdout
    return proc.returncode, err


@pytest.mark.parametrize("command", [["bounds", "--format", "jsonl"], ["scan"]],
                         ids=["bounds", "scan"])
def test_malformed_line_stops_a_pool_run(tmp_path, command):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("D?{\nD?{\nD?\nD?{\n")
    argv = [*command, "--input", str(corpus), "--gamma", "2"]
    serial = _run_cli(*argv, "--jobs", "1")
    assert serial == (EXIT_ERROR, "error: payload too short: need 2 adjacency "
                                  "bytes, have 1 (byte offset 2)\n")
    assert _run_cli(*argv, "--jobs", "2") == serial


def test_env_cap_override(capsys):
    code, _ = run(capsys, "color", "--input", "petersen", "--gamma", "2", "--exact",
                  "--cap", "5")
    assert code == EXIT_ERROR  # petersen has 10 > 5 vertices


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("graph", ["star:6", "petersen"])
def test_every_output_is_strict_json(graph, tmp_path, monkeypatch, capsys):
    import distchroma.cli as cli

    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(graph_from_spec(graph)) + "\n")
    g2 = ["--input", graph, "--gamma", "2"]
    outputs = []
    for argv in (["invariants", "--input", graph], ["power", *g2], ["color", *g2],
                 ["color", "--exact", *g2], ["color", "--palette", "30", *g2],
                 ["spectral", *g2], ["bounds", *g2]):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        outputs.append(out)
    strategy = _strict_json(outputs[2])["strategy"]
    assert strategy["hypotheses"]["girth"] == (None if graph == "star:6" else 5)
    code, out = run(capsys, "formulas", "--cycle", "7", "--gamma", "2")
    outputs.append(out.rsplit("\n", 2)[0])  # the JSON before the printed value
    for argv in (["bounds", "--format", "jsonl"], ["scan"]):
        code, out = run(capsys, *argv, "--input", str(corpus))
        assert code == EXIT_OK
        outputs.extend(out.splitlines())

    report = cli.bnd.evaluate_bounds(graph_from_spec(graph), 2)

    def violation(*args, **kwargs):
        raise cli.bnd.SoundnessViolation("synthetic", report)

    monkeypatch.setattr(cli.bnd, "evaluate_bounds", violation)
    assert main(["bounds", "--input", graph, "--gamma", "2"]) == EXIT_SOUNDNESS
    outputs.append(capsys.readouterr().err.splitlines()[1])
    for text in outputs:
        _strict_json(text)


@pytest.mark.parametrize("argv", [
    ["invariants", "--input", "petersen"],
    ["power", "--input", "petersen", "--gamma", "3"],
    ["spectral", "--input", "petersen", "--gamma", "2"],
    ["formulas", "--cycle", "7", "--gamma", "2"],
    ["bounds", "--input", "petersen", "--gamma", "2", "--format", "json"],
    ["color", "--input", "petersen", "--gamma", "2"],
    ["color", "--input", "petersen", "--gamma", "2", "--exact"],
    ["color", "--input", "petersen", "--gamma", "2", "--palette", "3"],
], ids=["invariants", "power", "spectral", "formulas", "bounds-json", "color-strategy",
        "color-exact", "color-palette"])
def test_output_file_holds_what_stdout_shows(argv, tmp_path, capsys):
    """--output takes the report off stdout; only the header's output field
    tells the file from what stdout showed."""
    out = tmp_path / "report.json"
    code, shown = run(capsys, *argv)
    code_file, rest = run(capsys, *argv, "--output", str(out))
    assert code == code_file == EXIT_OK
    assert rest == ("4\n" if argv[0] == "formulas" else "")  # formulas prints chi last
    assert shown.endswith(rest)
    report = shown[:len(shown) - len(rest)]

    def without_output(text: str) -> dict:
        payload = json.loads(text)
        del payload["header"]["config"]["output"]
        return payload

    assert without_output(out.read_text()) == without_output(report)


def test_one_line_graph6_file_is_a_corpus(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(petersen()) + "\n")
    code, out = run(capsys, "bounds", "--input", str(corpus), "--format", "jsonl")
    lines = out.splitlines()
    assert code == EXIT_OK and len(lines) == 2
    assert "header" in json.loads(lines[0])
    assert json.loads(lines[1])["best_bound"] == 10

    corpus.write_text("@\n")  # the graph on no vertices: out of scope
    code, out = run(capsys, "bounds", "--input", str(corpus), "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith("gamma=2")
    assert out.splitlines()[2].endswith("out-of-scope")


def test_every_subcommand_reads_a_spec_before_a_file(tmp_path, monkeypatch, capsys):
    """--input names the same graphs everywhere: a spec name wins over a file
    of the same name, and ./name reads the file."""
    from distchroma import complete_graph

    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen").write_text(encode_graph6(complete_graph(4)) + "\n")
    for name, g in (("petersen", petersen()), ("./petersen", complete_graph(4))):
        code, out = run(capsys, "bounds", "--input", name, "--format", "jsonl")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[1])["graph6"] == encode_graph6(g)
        code, out = run(capsys, "invariants", "--input", name)
        assert code == EXIT_OK and json.loads(out)["graph6"] == encode_graph6(g)
        code, out = run(capsys, "scan", "--input", name)
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[1])["graph6"] == encode_graph6(g)


def test_bounds_rows_whatever_the_input(capsys):
    code, out = run(capsys, "bounds", "--input", "petersen", "--format", "jsonl")
    assert code == EXIT_OK and len(out.splitlines()) == 2
    code, out = run(capsys, "bounds", "--input", "cycle:9", "--format", "csv")
    rows = out.splitlines()
    assert code == EXIT_OK and len(rows) == 3
    assert rows[0].endswith("gamma=2")
    assert rows[2] == f"{encode_graph6(graph_from_spec('cycle:9'))},9,2,2,,,,out-of-scope"


def test_bounds_json_takes_one_graph(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(encode_graph6(petersen()) + "\n")
    code, out = run(capsys, "bounds", "--input", str(corpus))
    assert code == EXIT_OK and json.loads(out)["report"]["best_bound"] == 10

    corpus.write_text(encode_graph6(petersen()) + "\n" + encode_graph6(star_graph(5)) + "\n")
    code = main(["bounds", "--input", str(corpus), "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR and captured.out == ""
    assert "jsonl" in captured.err


def test_scan_reads_a_spec_and_an_edge_list(tmp_path, capsys):
    code, out = run(capsys, "scan", "--input", "petersen")
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["summary"]["moore_count"] == 1
    edges = tmp_path / "k4.edges"
    edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out = run(capsys, "scan", "--input", str(edges))
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert code == EXIT_OK and summary["scanned"] == 1 and summary["moore_count"] == 0


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _scan_argv(tmp_path, corpus_lines) -> tuple[list[str], list[str]]:
    lines = corpus_lines[:120]
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s.jsonl"
    return lines, ["scan", "--input", str(corpus), "--jobs", "1", "--output", str(out)]


def test_scan_interrupted_then_resumed_equals_uninterrupted(
        tmp_path, monkeypatch, capsys, corpus_lines):
    import distchroma.bounds as bnd

    lines, argv = _scan_argv(tmp_path, corpus_lines)
    out = tmp_path / "s.jsonl"
    assert main(argv) == EXIT_OK
    full = out.read_bytes()
    out.unlink()

    real_scan_one = bnd.scan_one

    def interrupted(line, *args):
        if line == lines[49]:
            raise KeyboardInterrupt
        return real_scan_one(line, *args)

    monkeypatch.setattr(bnd, "scan_one", interrupted)
    assert main(argv) == 130
    kept = out.read_bytes().splitlines()
    assert len(kept) == 50 and '"header"' in kept[0].decode()
    assert [json.loads(ln)["graph6"] for ln in kept[1:]] == lines[:49]
    monkeypatch.setattr(bnd, "scan_one", real_scan_one)
    assert main(argv + ["--resume"]) == EXIT_OK
    assert out.read_bytes() == full


INTERRUPTED = "interrupted; rows already written are kept\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ctrl_c_on_a_scan_then_resume_equals_uninterrupted(tmp_path, capsys,
                                                           corpus_lines, jobs):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(corpus_lines[-3000:]) + "\n")
    out = tmp_path / "s.jsonl"
    argv = ["scan", "--input", str(corpus), "--jobs", jobs, "--output", str(out)]
    assert main(argv) == EXIT_OK
    full = out.read_bytes()
    out.unlink()
    assert _run_cli(*argv, interrupt_at=out) == (130, INTERRUPTED)
    kept = out.read_bytes()
    assert 3 <= kept.count(b"\n") < full.count(b"\n") and full.startswith(kept)
    assert main(argv + ["--resume"]) == EXIT_OK
    assert out.read_bytes() == full


def test_ctrl_c_on_an_exact_color_run_exits_130(tmp_path):
    """Ctrl-C stops every subcommand the same way, here one second into an
    exact solve: exit 130, one stderr line, and no report written."""
    out = tmp_path / "F.json"
    assert _run_cli("color", "--exact", "--input", "random-regular:n=48,d=3,seed=1",
                    "--gamma", "3", "--output", str(out),
                    interrupt_at=1.0, stdout="") == (130, INTERRUPTED)
    assert not out.exists()


def test_ctrl_c_on_a_pooled_bounds_run_keeps_whole_lines(tmp_path, corpus_lines):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(corpus_lines[-2000:]) + "\n")
    out = tmp_path / "b.jsonl"
    assert _run_cli("bounds", "--format", "jsonl", "--input", str(corpus), "--jobs",
                    "2", "--output", str(out), interrupt_at=out) == (130, INTERRUPTED)
    text = out.read_text()
    assert text.endswith("\n") and 3 <= text.count("\n") < 2001
    assert all(json.loads(ln) for ln in text.splitlines())


def test_scan_frees_each_record_once_written(tmp_path, monkeypatch, capsys,
                                             corpus_lines):
    import gc
    import weakref

    import distchroma.bounds as bnd

    class Record(dict):
        pass

    real_scan_one = bnd.scan_one
    refs, freed = [], []

    def tracked(line, *args):
        if len(refs) == 20:
            gc.collect()
            freed.append(refs[1]() is None)
        rec = Record(real_scan_one(line, *args))
        refs.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(bnd, "scan_one", tracked)
    _, argv = _scan_argv(tmp_path, corpus_lines)
    assert main(argv) == EXIT_OK
    assert len(refs) == 120 and freed == [True]


def test_scan_resume_cuts_a_torn_record(tmp_path, capsys, corpus_lines):
    _, argv = _scan_argv(tmp_path, corpus_lines)
    out = tmp_path / "s.jsonl"
    assert main(argv) == EXIT_OK
    full = out.read_bytes()
    ends = [i for i, b in enumerate(full) if b == ord("\n")]
    out.write_bytes(full[:ends[30] + 10])  # ten bytes into the 31st record
    assert main(argv + ["--resume"]) == EXIT_OK
    assert out.read_bytes() == full


@pytest.mark.parametrize("argv", [
    ["bounds", "--input", "petersen", "--format", "xml"],
    ["scan", "--gamma", "2"],
    ["invariants", "--input", "petersen", "--gamma", "3"],
    ["invariants", "--input", "petersen", "--cap", "10"],
    ["invariants", "--input", "petersen", "--timeout", "1"],
    ["power", "--input", "petersen", "--cap", "10"],
    ["power", "--input", "petersen", "--timeout", "1"],
    ["spectral", "--input", "petersen", "--cap", "10"],
    ["spectral", "--input", "petersen", "--timeout", "1"],
    ["spectral", "--input", "petersen", "--tolerance", "1e-10"],
    ["formulas", "--gamma", "2"],
    ["formulas", "--path", "5", "--cycle", "7"],
    ["color", "--input", "petersen", "--exact", "--palette", "3"],
    ["color", "--input", "petersen", "--timeout", "1e-6"],
    ["color", "--input", "petersen", "--palette", "3", "--timeout", "1"],
    ["color", "--input", "petersen", "--palette", "3", "--cap", "1"],
    ["scan", "--input", "petersen", "--resume"],
])
def test_usage_error_exits_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--help"])
    assert exc.value.code == 0
