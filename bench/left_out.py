"""Instances left out of hard-exact, with their [omega, DSATUR] intervals.

    python3 bench/left_out.py

For each instance: the clique number and the DSATUR color count of the
power graph (the solver's starting interval), then ``evaluate_bounds`` under
a wall-clock budget of LIMIT_S seconds, which these instances exhaust today.
"""

from __future__ import annotations

import time

import workloads  # noqa: F401  (puts the program's source on sys.path)
from distchroma import bounds, coloring, graphs, metrics

LIMIT_S = 30.0

LEFT_OUT = (
    ("torus:5,6", 3),
    ("torus:7,9", 2),
    ("torus:7,9", 3),
    ("random-regular:n=64,d=3,seed=2", 3),
    ("random-regular:n=44,d=3,seed=2", 3),
    ("random-regular:n=44,d=3,seed=5", 3),
    ("random-regular:n=48,d=3,seed=1", 3),
    ("random-regular:n=48,d=3,seed=6", 3),
)


def main() -> None:
    for spec, gamma in LEFT_OUT:
        g = graphs.graph_from_spec(spec)
        power = metrics.power_graph(g, gamma).graph
        omega = metrics.clique_number(power)
        upper = coloring.dsatur_upper_bound(power).k
        start = time.perf_counter()
        report = bounds.evaluate_bounds(g, gamma, time_budget=LIMIT_S)
        elapsed = time.perf_counter() - start
        print(f"{spec:34s} gamma={gamma} n={g.n:3d} [omega, DSATUR] = [{omega}, {upper}] "
              f"status={report.exact_status} chi={report.exact_chi} after {elapsed:.1f}s",
              flush=True)


if __name__ == "__main__":
    main()
