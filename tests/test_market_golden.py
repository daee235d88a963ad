"""Byte-level guard on the trading mechanisms at market scale.

`replay_golden.json` stops at five students and three schools, where steps
with several cycles and long pointer skips are rare.  Here each of 30
instances maps to one sha256 digest over the outcome and trace of
`run_ttc`, `run_fct`, `run_ct` and `run_ettc` (the same record as
`test_replay_golden`): 24 seeded markets of 20-400 students and 2-40
schools, with lists of 1-6 schools or each school listed with probability
0.8.  Four more draws give each school a random prefix of a priority order;
`Problem` rejects them, since priorities are strict orders of all students,
and their record holds the `ValidationError` that construction raised.
Two large markets of 1000-2000 students and 20 schools with 50 seats or
more each, drawn from a stream of their own, reach deep into the priority
orders as CT and ETTC hand out seats step after step.

After an intended behaviour change, regenerate the file with
`PYTHONPATH=src python tests/test_market_golden.py`.
"""
import hashlib
import json
import random
from pathlib import Path

from schoolchoice import Problem, ValidationError

from test_replay_golden import _mechanism_record

GOLDEN = Path(__file__).with_name("market_golden.json")
MECHANISMS = ("ct", "ettc", "fct", "ttc")
MARKETS = 24
PARTIAL_PRIORITIES = 4
LARGE = 2


def random_market(rng: random.Random, partial: bool = False, large: bool = False) -> Problem:
    """A seeded market; with `partial`, each priority order is a random prefix;
    `large` draws 1000-2000 students and 20 schools of at least 50 seats."""
    if large:
        n, m = rng.randint(1000, 2000), 20
    else:
        n = rng.randint(20, 120 if partial else 400)
        m = rng.randint(2, 40)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    low = 50 if large else 1
    quotas = {s: rng.randint(low, max(low, 2 * n // m)) for s in schools}
    list_len = rng.choice((1, 2, 3, 4, 5, 6, None))
    prefs = {}
    for i in students:
        if list_len is None:
            listed = [s for s in schools if rng.random() < 0.8]
            rng.shuffle(listed)
        else:
            listed = rng.sample(schools, min(list_len, m))
        prefs[i] = tuple(listed)
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = tuple(order[: rng.randint(0, n)] if partial else order)
    return Problem(students, schools, quotas, prefs, prios)


def instances() -> dict:
    """Name -> problem, or the ValidationError its construction raised."""
    rng = random.Random(909)
    out = {f"market_{k:02d}": random_market(rng) for k in range(MARKETS)}
    for k in range(PARTIAL_PRIORITIES):
        try:
            out[f"partial_{k}"] = random_market(rng, partial=True)
        except ValidationError as exc:
            out[f"partial_{k}"] = exc
    rng = random.Random(1212)
    out.update((f"large_{k}", random_market(rng, large=True)) for k in range(LARGE))
    return out


def record(problem) -> dict:
    if isinstance(problem, ValidationError):
        return {"error": f"ValidationError: {problem}"}
    return _mechanism_record(problem, MECHANISMS)


def all_digests() -> dict:
    return {
        name: hashlib.sha256(json.dumps(record(problem), sort_keys=True).encode()).hexdigest()
        for name, problem in instances().items()
    }


def test_market_traces_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = all_digests()
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"behaviour changed on {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
