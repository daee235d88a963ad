"""Reproduce the reference figures quoted in perfbench/README.md.

    python3 perfbench/figures.py    # about two minutes, most of it CT and ETTC

Each line is one call timed once with wall time, from the root of a checkout.
Markets give every school students/schools seats and every student a list
of min(schools, 10) schools; the search instances use 0.8 acceptance.
"""
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gen import TRADING, random_spec  # noqa: E402
from schoolchoice import (  # noqa: E402
    check_stable_set, enumerate_matchings, phi_horizon, run_ct, run_da, run_ettc, run_fct,
    run_ttc,
)
from schoolchoice.textio import parse_instance, parse_matching  # noqa: E402

MARKETS = [
    ("ttc", run_ttc, 1000, 50), ("fct", run_fct, 1000, 50), ("ct", run_ct, 300, 15),
    ("ettc", run_ettc, 200, 10), ("da", run_da, 10000, 20), ("da", run_da, 2000, 100),
    ("ct", run_ct, 1000, 50), ("ettc", run_ettc, 500, 25),
]
SEARCH = [(5, (1, 1, 2)), (5, (1, 2, 2)), (6, (1, 2, 2))]
HORIZON = [(3, 2_000_000), (5, 2_000_000), (12, 200_000)]


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def main():
    rng = random.Random(2212)
    for name, fn, n, m in MARKETS:
        problem = parse_instance(random_spec(rng, n, [n // m] * m, list_len=min(m, 10)).text())
        print(f"run_{name} {n}x{m}: {timed(fn, problem):.2f} s", flush=True)
    for n, quotas in SEARCH:
        problem = parse_instance(random_spec(rng, n, quotas).text())
        universe = enumerate_matchings(problem)
        target = run_ttc(problem)[0]
        seconds = timed(check_stable_set, problem, [target], universe=universe)
        print(f"reverse BFS, one target, {len(universe)} matchings: {seconds:.2f} s", flush=True)
    problem = parse_instance(TRADING.text())
    da = parse_matching(problem, "i1->s1, i2->s2, i3->s1, i4->s3")
    for depth, budget in HORIZON:
        seconds = timed(phi_horizon, problem, da, 3, depth_cap=depth, node_budget=budget)
        print(f"phi_horizon(DA, k=3), trading instance, depth cap {depth}, "
              f"budget {budget}: {seconds:.2f} s", flush=True)


if __name__ == "__main__":
    main()
