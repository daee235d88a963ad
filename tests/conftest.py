import random

import pytest

from schoolchoice import Problem, SELF, reachability_matrix
from schoolchoice.model import enumerate_matchings


@pytest.fixture(scope="session")
def trading_instance():
    """Four students, three schools; one seat trade happens under TTC."""
    return Problem(
        ("i1", "i2", "i3", "i4"),
        ("s1", "s2", "s3"),
        {"s1": 2, "s2": 1, "s3": 1},
        {
            "i1": ("s1", "s2", "s3"),
            "i2": ("s1", "s2", "s3"),
            "i3": ("s2", "s1", "s3"),
            "i4": ("s1", "s3", "s2"),
        },
        {
            "s1": ("i1", "i3", "i4", "i2"),
            "s2": ("i1", "i2", "i4", "i3"),
            "s3": ("i2", "i3", "i4", "i1"),
        },
    )


@pytest.fixture(scope="session")
def ttc_h3_case():
    """Eight students, three schools, and a start from which the TTC
    builder's certificate holds under full lookahead but fails at horizon
    3 (step 0: student i2 does not weakly improve)."""
    p = Problem(
        tuple(f"i{k}" for k in range(1, 9)),
        ("s1", "s2", "s3"),
        {"s1": 2, "s2": 3, "s3": 2},
        {
            "i1": ("s3", "s1", "s2"), "i2": ("s1", "s2", "s3"), "i3": ("s2",),
            "i4": ("s2", "s1"), "i5": ("s3", "s2"), "i6": ("s3", "s2"),
            "i7": ("s2", "s3", "s1"), "i8": ("s3", "s2", "s1"),
        },
        {
            "s1": ("i3", "i4", "i7", "i6", "i2", "i8", "i5", "i1"),
            "s2": ("i8", "i7", "i5", "i3", "i4", "i6", "i1", "i2"),
            "s3": ("i2", "i5", "i7", "i1", "i6", "i3", "i8", "i4"),
        },
    )
    start = matching_of(
        p, i1="s3", i2="s2", i3="s2", i4="s2", i5="self", i6="s1", i7="s3", i8="self"
    )
    return p, start


@pytest.fixture(scope="session")
def clinch_small_instance():
    """Three students, two schools; clinching blocks one priority trade."""
    return Problem(
        ("i1", "i2", "i3"),
        ("s1", "s2"),
        {"s1": 2, "s2": 1},
        {"i1": ("s2", "s1"), "i2": ("s1", "s2"), "i3": ("s2", "s1")},
        {"s1": ("i1", "i2", "i3"), "s2": ("i2", "i3", "i1")},
    )


@pytest.fixture(scope="session")
def iterated_clinch_instance():
    """Clinching cascades over several rounds before any trade.

    The third school ranks only one student in the source tables; the
    priority order is completed with the remaining students in declared
    order, which no computation on this instance ever consults.
    """
    return Problem(
        ("i1", "i2", "i3", "i4"),
        ("s1", "s2", "s3"),
        {"s1": 2, "s2": 1, "s3": 1},
        {"i1": ("s2", "s1"), "i2": ("s1", "s2"), "i3": ("s2", "s1"), "i4": ("s3",)},
        {
            "s1": ("i4", "i1", "i2", "i3"),
            "s2": ("i2", "i3", "i1", "i4"),
            "s3": ("i4", "i1", "i2", "i3"),
        },
    )


@pytest.fixture(scope="session")
def seat_endowment_instance():
    """Pairwise seat trading differs from plain trading cycles here."""
    return Problem(
        ("i1", "i2", "i3", "i4"),
        ("s1", "s2", "s3"),
        {"s1": 2, "s2": 1, "s3": 1},
        {
            "i1": ("s1", "s2", "s3"),
            "i2": ("s3", "s1", "s2"),
            "i3": ("s2", "s1", "s3"),
            "i4": ("s2", "s3", "s1"),
        },
        {
            "s1": ("i2", "i4", "i1", "i3"),
            "s2": ("i1", "i2", "i3", "i4"),
            "s3": ("i1", "i4", "i2", "i3"),
        },
    )


def matching_of(problem, **assignment):
    return problem.matching(
        {i: (SELF if s == "self" else s) for i, s in assignment.items()}
    )


@pytest.fixture(scope="session")
def trading_goldens(trading_instance):
    p = trading_instance
    return {
        "ttc": matching_of(p, i1="s1", i2="s1", i3="s2", i4="s3"),
        "da": matching_of(p, i1="s1", i2="s2", i3="s1", i4="s3"),
        "ia": matching_of(p, i1="s1", i2="s3", i3="s2", i4="s1"),
        "detour1": matching_of(p, i1="s1", i2="self", i3="s2", i4="s1"),
        "detour2": matching_of(p, i1="s1", i2="s3", i3="s2", i4="s1"),
        "detour3": matching_of(p, i1="s1", i2="s2", i3="self", i4="s1"),
        "detour4": matching_of(p, i1="s1", i2="s2", i3="s3", i4="s1"),
        "detour5": matching_of(p, i1="s1", i2="s2", i3="s1", i4="self"),
        "walkthrough_start": matching_of(p, i1="s1", i2="s2", i3="s3", i4="s1"),
    }


@pytest.fixture(scope="session")
def trading_universe(trading_instance):
    return enumerate_matchings(trading_instance)


@pytest.fixture(scope="session")
def trading_reachability(trading_instance, trading_universe):
    """Full reachability map of the trading instance, computed once: rows
    as int bitsets, R[x] >> t & 1 iff t is in phi(x); and the index map."""
    R, _ = reachability_matrix(trading_instance, universe=trading_universe)
    index = {mu: k for k, mu in enumerate(trading_universe)}
    return R, index


def random_problem(rng: random.Random, max_students=5, max_schools=4, full_prefs=False):
    n = rng.randint(1, max_students)
    m = rng.randint(1, max_schools)
    students = [f"i{k}" for k in range(1, n + 1)]
    schools = [f"s{k}" for k in range(1, m + 1)]
    quotas = {s: rng.randint(1, 3) for s in schools}
    prefs = {}
    for i in students:
        listed = list(schools) if full_prefs else [s for s in schools if rng.random() < 0.8]
        rng.shuffle(listed)
        prefs[i] = tuple(listed)
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = tuple(order)
    return Problem(tuple(students), tuple(schools), quotas, prefs, prios)


def random_matching(rng: random.Random, problem):
    """A feasible matching: each student in turn takes a random school with
    a free seat, or stays unmatched."""
    seats = dict(problem.quotas)
    assignment = {}
    for i in problem.students:
        a = rng.choice([s for s in problem.schools if seats[s] > 0] + [SELF])
        if a is not SELF:
            seats[a] -= 1
        assignment[i] = a
    return problem.matching(assignment)
