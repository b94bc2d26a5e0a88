#!/usr/bin/env python3
"""The equality story: chi_gamma <= M+1 everywhere, with equality exactly
for Moore graphs. Petersen (degree 3) and Hoffman-Singleton (degree 7)
are the classic diameter-2 witnesses."""

import time

from distchroma import (
    clique_number,
    complete_graph,
    detect_moore,
    distance_chromatic_number,
    evaluate_bounds,
    hoffman_singleton,
    max_power_degree,
    petersen,
    power_graph,
)


def main():
    print("=" * 72)
    print("  MOORE CERTIFICATES")
    print("=" * 72)
    for name, g, gamma in [
        ("petersen", petersen(), 2),
        ("hoffman-singleton", hoffman_singleton(), 2),
        ("K4", complete_graph(4), 2),
        ("petersen (gamma=3)", petersen(), 3),
    ]:
        cert = detect_moore(g, gamma)
        print(f"  {name:<22} regular={cert.is_regular} order={cert.order_matches} "
              f"girth={cert.girth_is_2gamma_plus_1} diam={cert.diameter_is_gamma} "
              f"=> moore={cert.is_moore}")

    print()
    print("=" * 72)
    print("  EQUALITY AT THE TOP: exact = M + 1")
    print("=" * 72)
    t = time.time()
    chi_p, _ = distance_chromatic_number(petersen(), 2)
    print(f"  chi_2(petersen)           = {chi_p} = M+1 = "
          f"{max_power_degree(3, 2) + 1}   ({time.time() - t:.2f}s)")

    t = time.time()
    hs = hoffman_singleton()
    omega = clique_number(power_graph(hs, 2).graph)
    chi_hs, _ = distance_chromatic_number(hs, 2)
    print(f"  chi_2(hoffman-singleton)  = {chi_hs} = M+1 = "
          f"{max_power_degree(7, 2) + 1}   (clique lower bound {omega}, "
          f"{time.time() - t:.2f}s)")

    print()
    print("  For a non-Moore graph the report classifies strictly below:")
    rep = evaluate_bounds(complete_graph(5), 2)
    print(f"  K5 at gamma=2: exact {rep.exact_chi}, best bound "
          f"{rep.best_bound}, class {rep.equality_class}")


if __name__ == "__main__":
    main()
