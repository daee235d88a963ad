"""Seeded instance generators and the four worked instances.

Every generator returns a `Spec`: plain tuples and dicts that the reference
computations read directly, plus `text()`, the instance document the program
parses.  The program under test only ever sees the text.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    students: tuple
    schools: tuple
    quotas: dict
    prefs: dict  # student -> tuple of acceptable schools, best first
    prios: dict  # school -> tuple of all students, highest priority first

    def text(self) -> str:
        lines = ["students: " + " ".join(self.students), "schools: " + " ".join(self.schools)]
        lines += [f"quota {s} = {self.quotas[s]}" for s in self.schools]
        lines += [f"pref {i}: " + " ".join(self.prefs[i]) for i in self.students]
        lines += [f"priority {s}: " + " ".join(self.prios[s]) for s in self.schools]
        return "\n".join(lines) + "\n"


def literal(spec: Spec, assign: dict) -> str:
    """Matching literal in the program's format; `None` means unmatched."""
    return ", ".join(
        f"{i}->{assign[i] if assign[i] is not None else 'self'}" for i in spec.students
    )


def parse_literal(literal_text: str) -> dict:
    out = {}
    for term in literal_text.split(","):
        i, s = (part.strip() for part in term.split("->"))
        out[i] = None if s == "self" else s
    return out


def random_spec(rng: random.Random, n: int, quotas, list_len=None) -> Spec:
    """n students, one school per quota; random preferences and priorities.

    With `list_len` every student lists that many schools; otherwise each
    school is acceptable with probability 0.8.
    """
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, len(quotas) + 1))
    prefs = {}
    for i in students:
        if list_len is None:
            listed = [s for s in schools if rng.random() < 0.8]
            rng.shuffle(listed)
        else:
            listed = rng.sample(schools, min(list_len, len(schools)))
        prefs[i] = tuple(listed)
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = tuple(order)
    return Spec(students, schools, dict(zip(schools, quotas)), prefs, prios)


def random_start(rng: random.Random, spec: Spec) -> dict:
    """A uniformly drawn student order filled into random free seats or self."""
    free = {s: spec.quotas[s] for s in spec.schools}
    out = {}
    for i in spec.students:
        options = [s for s in spec.schools if free[s] > 0] + [None]
        pick = rng.choice(options)
        if pick is not None:
            free[pick] -= 1
        out[i] = pick
    return out


def _spec(students, schools, quotas, prefs, prios) -> Spec:
    return Spec(tuple(students.split()), tuple(schools.split()), quotas,
                {i: tuple(p.split()) for i, p in prefs.items()},
                {s: tuple(p.split()) for s, p in prios.items()})


# The four worked instances of the README and the acceptance suite.
TRADING = _spec(
    "i1 i2 i3 i4", "s1 s2 s3", {"s1": 2, "s2": 1, "s3": 1},
    {"i1": "s1 s2 s3", "i2": "s1 s2 s3", "i3": "s2 s1 s3", "i4": "s1 s3 s2"},
    {"s1": "i1 i3 i4 i2", "s2": "i1 i2 i4 i3", "s3": "i2 i3 i4 i1"},
)
CLINCH_SMALL = _spec(
    "i1 i2 i3", "s1 s2", {"s1": 2, "s2": 1},
    {"i1": "s2 s1", "i2": "s1 s2", "i3": "s2 s1"},
    {"s1": "i1 i2 i3", "s2": "i2 i3 i1"},
)
ITERATED_CLINCH = _spec(
    "i1 i2 i3 i4", "s1 s2 s3", {"s1": 2, "s2": 1, "s3": 1},
    {"i1": "s2 s1", "i2": "s1 s2", "i3": "s2 s1", "i4": "s3"},
    {"s1": "i4 i1 i2 i3", "s2": "i2 i3 i1 i4", "s3": "i4 i1 i2 i3"},
)
SEAT_ENDOWMENT = _spec(
    "i1 i2 i3 i4", "s1 s2 s3", {"s1": 2, "s2": 1, "s3": 1},
    {"i1": "s1 s2 s3", "i2": "s3 s1 s2", "i3": "s2 s1 s3", "i4": "s2 s3 s1"},
    {"s1": "i2 i4 i1 i3", "s2": "i1 i2 i3 i4", "s3": "i1 i4 i2 i3"},
)

# build_path_to_ettc emits a certificate the validator rejects from
# ETTC_FAULT_START on this instance (step 5: s1 cannot admit its newcomers).
ETTC_FAULT = _spec(
    "i1 i2 i3 i4", "s1 s2 s3", {"s1": 1, "s2": 2, "s3": 2},
    {"i1": "s3 s2 s1", "i2": "s2 s3 s1", "i3": "s1 s3 s2", "i4": "s1 s2 s3"},
    {"s1": "i2 i3 i4 i1", "s2": "i4 i1 i2 i3", "s3": "i3 i2 i1 i4"},
)
ETTC_FAULT_START = "i1->s2, i2->s2, i3->s1, i4->s3"

# check_stable_set({TTC}, horizon=3, depth_cap=2) answers `unstable` on these,
# with partial=True and only external violations.
HORIZON_FAULTS = (
    _spec(
        "i1 i2 i3 i4", "s1 s2", {"s1": 1, "s2": 1},
        {"i1": "s2", "i2": "s1", "i3": "s1 s2", "i4": "s2 s1"},
        {"s1": "i1 i3 i4 i2", "s2": "i2 i1 i4 i3"},
    ),
    _spec(
        "i1 i2 i3 i4", "s1 s2", {"s1": 1, "s2": 1},
        {"i1": "s2", "i2": "s1 s2", "i3": "s2", "i4": "s1 s2"},
        {"s1": "i3 i2 i4 i1", "s2": "i4 i2 i1 i3"},
    ),
)
