"""Byte-level guard on the search's answers.

Each seeded instance (at most 80 matchings) maps to one sha256 digest over
`phi_horizon` from seeded starts for every horizon 1-3, depth cap 1-3 and
node budget 7, 50 and the default (the small budgets pin how a cut-short
search spends its budget); `check_stable_set` at horizon 2 and 3 with depth
cap 2 for {TTC}, {DA}, both, and three of the seeded starts (whose own
searches then stay exhaustive); `find_singleton_stable_sets(horizon=2)` on
universes of at most 20 matchings; and `phi` and `check_stable_set` under
full lookahead.  The digests in `search_golden.json` were recorded before
the horizon search moved onto bitsets; a mismatch names the instance whose
answers changed.

After an intended behaviour change, regenerate the file with
`PYTHONPATH=src python tests/test_search_golden.py`.
"""
import hashlib
import json
import random
from pathlib import Path

from schoolchoice import (
    check_stable_set,
    enumerate_matchings,
    find_singleton_stable_sets,
    phi,
    phi_horizon,
    run_da,
    run_ttc,
)
from schoolchoice.farsight import DEFAULT_NODE_BUDGET

from conftest import random_problem

GOLDEN = Path(__file__).with_name("search_golden.json")
INSTANCES = 40
MAX_MATCHINGS = 80
SINGLETON_MAX = 20
STARTS = 4
BUDGETS = (7, 50, DEFAULT_NODE_BUDGET)


def instances() -> dict:
    rng = random.Random(707)
    out = {}
    while len(out) < INSTANCES:
        problem = random_problem(rng, max_students=5, max_schools=3)
        universe = enumerate_matchings(problem)
        if len(universe) <= MAX_MATCHINGS:
            out[f"random_{len(out):02d}"] = (problem, universe)
    return out


def _literals(matchings) -> list:
    return sorted(mu.literal() for mu in matchings)


def _report(report) -> list:
    return [
        [mu.literal() for mu in report.candidate],
        [[a.literal(), b.literal()] for a, b in report.internal_violations],
        [mu.literal() for mu in report.external_violations],
        report.verdict,
        report.partial,
    ]


def digest(problem, universe, seed: int) -> str:
    starts = random.Random(seed).sample(universe, min(STARTS, len(universe)))
    ttc, da = run_ttc(problem)[0], run_da(problem)
    sets = ([ttc], [da], [ttc, da])
    record = {"horizon": [], "sets": [], "full": []}
    for mu in starts:
        for k in (1, 2, 3):
            for depth in (1, 2, 3):
                for budget in BUDGETS:
                    res = phi_horizon(
                        problem, mu, k, depth_cap=depth, universe=universe,
                        node_budget=budget,
                    )
                    record["horizon"].append([_literals(res.reachable), res.partial])
        record["full"].append(_literals(phi(problem, mu, universe=universe)))
    for k in (2, 3):
        for cand in sets + (starts[:3],):
            report = check_stable_set(problem, cand, horizon=k, universe=universe, depth_cap=2)
            record["sets"].append(_report(report))
    for cand in sets:
        record["full"].append(_report(check_stable_set(problem, cand, universe=universe)))
    if len(universe) <= SINGLETON_MAX:
        found = find_singleton_stable_sets(problem, horizon=2, universe=universe)
        record["singletons"] = [mu.literal() for mu in found]
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def all_digests() -> dict:
    return {
        name: digest(problem, universe, seed)
        for seed, (name, (problem, universe)) in enumerate(instances().items())
    }


def test_search_answers_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = all_digests()
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"search answers changed on {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
