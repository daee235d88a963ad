import itertools
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from schoolchoice import (
    FARSIGHTED,
    Coalition,
    PathCertificate,
    Problem,
    SELF,
    build_path_to_ttc,
    can_enforce,
    check_stable_set,
    enumerate_matchings,
    find_singleton_stable_sets,
    find_stable_sets,
    is_individually_rational,
    phi,
    phi_horizon,
    reachability_matrix,
    run_ct,
    run_da,
    run_ttc,
    school_move_admissible,
    sort_matchings,
    validate_path,
    validate_path_horizon,
)
from schoolchoice import farsight
from schoolchoice.farsight import (
    BLOCKED, UNREPLACED, MoveStep, PathViolation, _EdgeOracle, _school_verdict, _step_violation,
)
from schoolchoice.model import CapacityError
from schoolchoice.textio import InstanceParseError, certificate_from_dict, certificate_to_dict

from conftest import matching_of, random_problem


def edge(oracle, xa, xb):
    """The coalition the search forms for the move xa -> xb, or None: the
    structural screen of one pair, read from the oracle's tables.

    Someone must move and no school may block the move (see
    `_school_verdict`); `looks` says under which lookaheads it holds.  The
    coalition is a list of student indices (joiners, then leavers whose
    school does not replace them) and a set of school indices.
    """
    def verdict(s):
        held, ends = (oracle.codes[s][oracle.rid[x][s]] for x in (xa, xb))
        return _school_verdict(oracle.quota[s], held.bit_count(), ends & ~held, held & ~ends)

    m, va, vb = oracle.m, oracle.vecs[xa], oracle.vecs[xb]
    moved = [i for i in oracle.students if va[i] != vb[i]]
    joiners = [i for i in moved if vb[i] != m]
    gaining = {vb[i] for i in joiners}
    if not moved or any(verdict(s) == BLOCKED for s in gaining):
        return None
    unreplaced = [i for i in moved if va[i] != m and verdict(va[i]) == UNREPLACED]
    return joiners + unreplaced, gaining


def find_enforcing_coalition(problem, a, b, ref):
    """The coalition the search forms for the move a -> b under lookahead
    ref, or None when it makes no such move: `edge` and `looks` on an
    oracle of its own over a, b and ref, each listed once."""
    universe = list(dict.fromkeys((a, b, ref)))
    xa, xb, xref = map(universe.index, (a, b, ref))
    oracle = _EdgeOracle(problem, universe)
    found = edge(oracle, xa, xb)
    if found is None or not oracle.looks(xa, xb) >> xref & 1:
        return None
    students, schools = found
    return Coalition(
        students={problem.students[i] for i in students},
        schools={problem.schools[s] for s in schools},
    )


@pytest.fixture(scope="module")
def walkthrough(trading_instance, trading_goldens):
    """The five-matching improving path of the trading instance."""
    p = trading_instance
    mus = [
        trading_goldens["walkthrough_start"],
        matching_of(p, i1="s1", i2="s2", i3="s1", i4="self"),
        matching_of(p, i1="s1", i2="self", i3="self", i4="self"),
        matching_of(p, i1="s1", i2="s1", i3="s2", i4="self"),
        trading_goldens["ttc"],
    ]
    coalitions = [
        Coalition({"i2", "i3"}, {"s1", "s2"}),
        Coalition({"i2", "i3"}, set()),
        Coalition({"i2", "i3"}, {"s1", "s2"}),
        Coalition({"i4"}, {"s3"}),
    ]
    steps = tuple(
        MoveStep(mus[k], mus[k + 1], coalitions[k]) for k in range(4)
    )
    return PathCertificate(tuple(mus), steps, FARSIGHTED)


class TestCanEnforce:
    def test_walkthrough_first_move(self, trading_instance, walkthrough):
        # i4 is pushed out without belonging to the coalition
        step = walkthrough.steps[0]
        assert can_enforce(trading_instance, step.source, step.target, step.coalition)

    def test_leavers_alone_can_destroy_their_matches(self, trading_instance, walkthrough):
        step = walkthrough.steps[1]
        assert can_enforce(trading_instance, step.source, step.target, step.coalition)

    def test_missing_mandatory_members(self, trading_instance, walkthrough):
        step = walkthrough.steps[0]
        assert not can_enforce(
            trading_instance, step.source, step.target, Coalition({"i2"}, set())
        )

    def test_gaining_school_must_join(self, trading_instance, walkthrough):
        step = walkthrough.steps[0]
        assert not can_enforce(
            trading_instance, step.source, step.target,
            Coalition({"i2", "i3"}, {"s2"}),
        )


def oracle_can_enforce(problem, a, b, coalition):
    """`can_enforce` read straight from its docstring, on per-school roster
    frozensets."""
    if a == b or (not coalition.students and not coalition.schools):
        return False
    for s in problem.schools:
        old = frozenset(i for i in problem.students if a.school_of(i) == s)
        new = frozenset(i for i in problem.students if b.school_of(i) == s)
        if new - old:
            if s not in coalition.schools or not new - old <= coalition.students:
                return False
        elif old - new:
            if s not in coalition.schools and not old - new <= coalition.students:
                return False
    return True


def oracle_school_move_admissible(problem, s, a, b):
    """`school_move_admissible` from its docstring: the newcomers fit beside
    the old roster, or the leavers map one-to-one onto higher-priority
    newcomers (tried over every injection)."""
    old = [i for i in problem.students if a.school_of(i) == s]
    new = [i for i in problem.students if b.school_of(i) == s]
    joiners = [i for i in new if i not in old]
    leavers = [i for i in old if i not in new]
    if len(old) + len(joiners) <= problem.quota(s):
        return True
    return any(
        all(problem.higher_priority(s, j, i) for i, j in zip(leavers, pick))
        for pick in itertools.permutations(joiners, len(leavers))
    )


def random_move(rng, p, uni):
    """A random (a, b, coalition) triple over the universe: equal endpoints,
    rosters that only shrink, or any pair, with an empty coalition, the
    agents the move touches (some dropped, extra members added), or random
    subsets of all agents."""
    a = rng.choice(uni)
    kind = rng.randrange(5)
    if kind == 0:
        b = a
    elif kind == 1:
        seated = [i for i in p.students if a.school_of(i) is not SELF]
        gone = rng.sample(seated, rng.randint(1, len(seated))) if seated else []
        b = a.reassign({i: SELF for i in gone})
    else:
        b = rng.choice(uni)
    moved = [i for i in p.students if a.school_of(i) != b.school_of(i)]
    touched = {x for i in moved for x in (a.school_of(i), b.school_of(i)) if x is not SELF}
    shape = rng.randrange(4)
    if shape == 0:
        return a, b, Coalition(set(), set())
    if shape == 3:
        return a, b, Coalition(
            {i for i in p.students if rng.random() < 0.5},
            {s for s in p.schools if rng.random() < 0.5},
        )
    students = {i for i in moved if rng.random() < 0.85}
    schools = {s for s in touched if rng.random() < 0.85}
    if shape == 2:
        students |= {i for i in p.students if rng.random() < 0.4}
        schools |= {s for s in p.schools if rng.random() < 0.4}
    return a, b, Coalition(students, schools)


class TestCanEnforceOracle:
    def test_agrees_with_the_docstring_on_random_moves(self):
        rng = random.Random(1010)
        verdicts = {True: 0, False: 0}
        admits = {True: 0, False: 0}
        shrinking = 0
        for _ in range(60):
            p = random_problem(rng, max_students=5, max_schools=3)
            uni = enumerate_matchings(p)
            for _ in range(40):
                a, b, co = random_move(rng, p, uni)
                got = can_enforce(p, a, b, co)
                assert got == oracle_can_enforce(p, a, b, co), (a, b, co)
                verdicts[got] += 1
                shrinking += a != b and all(
                    a.school_of(i) == b.school_of(i) or b.school_of(i) is SELF
                    for i in p.students
                )
                for s in p.schools:
                    admits[school_move_admissible(p, s, a, b)] += 1
                    assert school_move_admissible(p, s, a, b) == (
                        oracle_school_move_admissible(p, s, a, b)
                    ), (s, a, b)
        assert min(verdicts.values()) > 300 and shrinking > 300
        assert min(admits.values()) > 100

    def test_equal_endpoints_and_empty_coalitions(self, trading_instance, walkthrough):
        step = walkthrough.steps[0]
        everyone = Coalition(set(trading_instance.students), set(trading_instance.schools))
        assert not can_enforce(trading_instance, step.source, step.source, everyone)
        assert not can_enforce(trading_instance, step.source, step.target, Coalition(set(), set()))

    def test_shrinking_roster_needs_the_school_or_every_leaver(self, trading_instance):
        a = matching_of(trading_instance, i1="s1", i2="s1", i3="s2", i4="s3")
        b = matching_of(trading_instance, i1="self", i2="self", i3="s2", i4="s3")
        assert can_enforce(trading_instance, a, b, Coalition({"i1", "i2"}, set()))
        assert can_enforce(trading_instance, a, b, Coalition(set(), {"s1"}))
        assert can_enforce(trading_instance, a, b, Coalition({"i3"}, {"s1", "s3"}))
        assert not can_enforce(trading_instance, a, b, Coalition({"i1", "i3"}, {"s2"}))


class TestSchoolMoveAdmissible:
    def test_replacement_by_higher_priority(self, trading_instance, trading_goldens):
        a = trading_goldens["ttc"]  # s1 holds i1, i2
        b = matching_of(trading_instance, i1="s1", i2="self", i3="s1", i4="s3")
        assert school_move_admissible(trading_instance, "s1", a, b)

    def test_spare_capacity(self, trading_instance):
        a = matching_of(trading_instance, i1="s1", i2="self", i3="self", i4="self")
        b = matching_of(trading_instance, i1="s1", i2="s1", i3="self", i4="self")
        assert school_move_admissible(trading_instance, "s1", a, b)

    def test_lower_priority_newcomer_rejected(self, trading_instance):
        a = matching_of(trading_instance, i1="s1", i2="self", i3="s1", i4="self")
        b = matching_of(trading_instance, i1="s1", i2="s1", i3="self", i4="self")
        # i2 (rank 4 at s1) cannot replace i3 (rank 2)
        assert not school_move_admissible(trading_instance, "s1", a, b)

    @pytest.mark.parametrize("quota", [1, 2, 3])
    def test_every_roster_pair_against_injections(self, quota):
        # one school over six students, every pair of rosters its quota
        # allows: past the quota, admissible exactly when some injection
        # maps the leavers to distinct newcomers of higher priority
        students = tuple(f"i{k}" for k in range(1, 7))
        order = ("i4", "i1", "i6", "i2", "i5", "i3")
        p = Problem(
            students, ("s1",), {"s1": quota}, {i: ("s1",) for i in students}, {"s1": order}
        )
        rank = {i: r for r, i in enumerate(order)}
        rosters = [
            frozenset(roster)
            for size in range(quota + 1) for roster in itertools.combinations(students, size)
        ]
        matchings = [
            p.matching({i: "s1" if i in roster else SELF for i in students}) for roster in rosters
        ]
        over = {True: 0, False: 0}
        widest = 0  # most leavers replaced in one admissible move
        for old, a in zip(rosters, matchings):
            for new, b in zip(rosters, matchings):
                joiners, leavers = sorted(new - old), sorted(old - new)
                if len(old) + len(joiners) <= quota:
                    expect = True
                else:
                    expect = any(
                        all(rank[j] < rank[i] for i, j in zip(leavers, pick))
                        for pick in itertools.permutations(joiners, len(leavers))
                    )
                    over[expect] += 1
                    if expect:
                        widest = max(widest, len(leavers))
                assert school_move_admissible(p, "s1", a, b) == expect, (old, new)
        assert over[True] and over[False]
        assert widest == quota


class TestFindEnforcingCoalition:
    def test_walkthrough_first_move(self, trading_instance, trading_goldens, walkthrough):
        step = walkthrough.steps[0]
        found = find_enforcing_coalition(
            trading_instance, step.source, step.target, trading_goldens["ttc"]
        )
        assert found is not None
        assert can_enforce(trading_instance, step.source, step.target, found)
        # every member willing: weak improvement toward the end, one strict
        ranks = [
            (
                trading_instance.pref_rank(i, trading_goldens["ttc"].school_of(i)),
                trading_instance.pref_rank(i, step.source.school_of(i)),
            )
            for i in found.students
        ]
        assert all(ra <= rc for ra, rc in ranks)
        assert any(ra < rc for ra, rc in ranks)

    def test_no_strict_improver(self, trading_instance, trading_goldens, walkthrough):
        step = walkthrough.steps[0]
        assert (
            find_enforcing_coalition(
                trading_instance, step.source, step.target, step.source
            )
            is None
        )

    def test_nobody_volunteers_to_lose_a_seat(self, trading_instance, trading_goldens):
        mu5 = matching_of(trading_instance, i1="s1", i2="s2", i3="s1", i4="self")
        assert (
            find_enforcing_coalition(
                trading_instance, trading_goldens["ttc"], mu5, mu5
            )
            is None
        )


    def test_walkthrough_coalitions(self, trading_instance, trading_goldens, walkthrough):
        # the search forms the agents a move touches, looking at the path's end
        expected = [
            ({"i3"}, {"s1"}),
            ({"i2", "i3"}, set()),
            ({"i2", "i3"}, {"s1", "s2"}),
            ({"i4"}, {"s3"}),
        ]
        for step, (students, schools) in zip(walkthrough.steps, expected):
            found = find_enforcing_coalition(
                trading_instance, step.source, step.target, trading_goldens["ttc"]
            )
            assert found == Coalition(students, schools)

    def test_every_search_move_passes_the_validator(self):
        # search within validator: each move the search makes, with the
        # coalition it forms, is one the certificate checker accepts; on
        # criterion 6's instances that is about a thousand moves
        rng = random.Random(61)
        instances = moves = 0
        while instances < 50:
            p = random_problem(rng, max_students=3, max_schools=3)
            universe = enumerate_matchings(p, cap=100)
            if len(universe) > 8:
                continue
            instances += 1
            for a, b, ref in itertools.product(universe, repeat=3):
                coalition = find_enforcing_coalition(p, a, b, ref)
                if coalition is not None:
                    moves += 1
                    assert _step_violation(p, a, b, coalition, ref) is None, (a, b, ref)
        assert moves > 1000


class TestPhi:
    def test_deferred_acceptance_reaches_only_trading_outcome(
        self, trading_instance, trading_goldens, trading_universe
    ):
        result = phi(trading_instance, trading_goldens["da"], universe=trading_universe)
        assert result == {trading_goldens["ttc"]}

    def test_trading_outcome_reaches_exactly_four(
        self, trading_instance, trading_goldens, trading_universe
    ):
        result = phi(trading_instance, trading_goldens["ttc"], universe=trading_universe)
        assert result == {
            trading_goldens["detour1"],
            trading_goldens["detour2"],
            trading_goldens["detour3"],
            trading_goldens["detour4"],
        }
        assert trading_goldens["detour5"] not in result

    def test_never_contains_the_source(self, trading_instance, trading_goldens, trading_universe):
        for key in ("ttc", "da", "ia"):
            mu = trading_goldens[key]
            assert mu not in phi(trading_instance, mu, universe=trading_universe)

    def test_detours_reach_deferred_acceptance(
        self, trading_instance, trading_goldens, trading_reachability
    ):
        R, index = trading_reachability
        da = index[trading_goldens["da"]]
        for key in ("detour1", "detour2", "detour3", "detour4", "detour5"):
            assert R[index[trading_goldens[key]]] >> da & 1

    def test_relabeling_invariance(self, trading_instance, trading_goldens):
        p = trading_instance
        smap = {"i1": "a", "i2": "b", "i3": "c", "i4": "d"}
        cmap = {"s1": "x", "s2": "y", "s3": "z"}
        q = Problem(
            tuple(smap[i] for i in p.students),
            tuple(cmap[s] for s in p.schools),
            {cmap[s]: p.quota(s) for s in p.schools},
            {smap[i]: tuple(cmap[s] for s in p.preferences[i]) for i in p.students},
            {cmap[s]: tuple(smap[i] for i in p.priorities[s]) for s in p.schools},
        )
        mu = trading_goldens["da"]
        mu_q = q.matching(
            {smap[i]: (SELF if mu.school_of(i) is SELF else cmap[mu.school_of(i)]) for i in p.students}
        )
        relabeled = {
            frozenset(
                (i, "self" if m.school_of(i) is SELF else m.school_of(i))
                for i in q.students
            )
            for m in phi(q, mu_q)
        }
        expected = {
            frozenset(
                (smap[i], "self" if m.school_of(i) is SELF else cmap[m.school_of(i)])
                for i in p.students
            )
            for m in phi(p, mu)
        }
        assert relabeled == expected


def first_move_by(w: PathCertificate, coalition: Coalition) -> PathCertificate:
    """The walkthrough w with its first move credited to coalition."""
    first = MoveStep(w.matchings[0], w.matchings[1], coalition)
    return PathCertificate(w.matchings, (first,) + w.steps[1:], FARSIGHTED)


def one_move_by(p, w, coalition, **seats) -> PathCertificate:
    """One move from the start of walkthrough w to the matching of seats."""
    a, b = w.matchings[0], matching_of(p, **seats)
    return PathCertificate((a, b), (MoveStep(a, b, coalition),), FARSIGHTED)


class TestValidatePath:
    def test_walkthrough_accepted(self, trading_instance, walkthrough):
        assert validate_path(trading_instance, walkthrough) is None

    def test_reversed_path_rejected(self, trading_instance, walkthrough):
        mus = tuple(reversed(walkthrough.matchings))
        steps = tuple(
            MoveStep(mus[k], mus[k + 1], walkthrough.steps[-1 - k].coalition)
            for k in range(len(mus) - 1)
        )
        cert = PathCertificate(mus, steps, FARSIGHTED)
        violation = validate_path(trading_instance, cert)
        assert violation is not None
        assert "improve" in violation.condition or "enforce" in violation.condition

    def test_repeated_matching_rejected(self, trading_instance, walkthrough):
        mus = walkthrough.matchings + (walkthrough.matchings[0],)
        steps = walkthrough.steps + (
            MoveStep(mus[-2], mus[-1], Coalition({"i2"}, set())),
        )
        cert = PathCertificate(mus, steps, FARSIGHTED)
        violation = validate_path(trading_instance, cert)
        assert violation is not None
        assert "distinct" in violation.condition

    @pytest.mark.parametrize("broken, message", [
        (lambda p, w: PathCertificate(w.matchings[:1], (), FARSIGHTED),
         "path must contain at least two matchings"),
        (lambda p, w: PathCertificate(w.matchings[:2] + w.matchings[:1], w.steps[:1] + (
            MoveStep(w.matchings[1], w.matchings[0], Coalition({"i2"}, set())),)),
         "matchings not distinct"),
        (lambda p, w: PathCertificate(w.matchings, w.steps[:-1]),
         "step count does not match matching count"),
        (lambda p, w: PathCertificate(w.matchings, w.steps[1:2] + w.steps[:1] + w.steps[2:]),
         "step 0: step endpoints disagree with the matching sequence"),
        (lambda p, w: first_move_by(w, Coalition(set(), {"s1", "s2"})),
         "step 0: coalition has no student"),
        # i3 joins s1 without being in the coalition
        (lambda p, w: first_move_by(w, Coalition({"i2"}, {"s1", "s2"})),
         "step 0: coalition cannot enforce the move"),
        # i4 leaves s1 for s3 at the path's end, which she ranks below s1
        (lambda p, w: first_move_by(w, Coalition({"i2", "i3", "i4"}, {"s1", "s2"})),
         "step 0: student i4 does not weakly improve"),
        # s1 drops i4 and keeps i1, who stays where she was
        (lambda p, w: one_move_by(
            p, w, Coalition({"i1"}, {"s1"}), i1="s1", i2="s2", i3="s3", i4="self"),
         "step 0: no strict improver in the coalition"),
        # s1 is full and i2 ranks below i4, whose seat she takes
        (lambda p, w: one_move_by(
            p, w, Coalition({"i2"}, {"s1", "s2"}), i1="s1", i2="s1", i3="s3", i4="self"),
         "step 0: school s1 cannot admit its newcomers"),
        (lambda p, w: PathCertificate(w.matchings, w.steps, 0), "invalid horizon 0"),
    ], ids=["one-matching", "repeat", "step-count", "endpoints", "no-student", "enforce",
            "weakly-improve", "strict-improver", "admit", "horizon"])
    def test_every_violation_message(self, trading_instance, walkthrough, broken, message):
        violation = validate_path(trading_instance, broken(trading_instance, walkthrough))
        assert str(violation) == message


class TestValidatePathHorizon:
    def test_one_validator_under_both_names(self):
        assert validate_path_horizon is validate_path

    def test_validate_path_reads_the_certificate_horizon(self, ttc_h3_case):
        # the same moves pass under full lookahead and fail three ahead
        p, start = ttc_h3_case
        cert = build_path_to_ttc(p, start)
        assert validate_path(p, cert) is None
        bounded = PathCertificate(cert.matchings, cert.steps, 3)
        assert str(validate_path(p, bounded)) == "step 0: student i2 does not weakly improve"

    def test_three_ahead_suffices(self, trading_instance, walkthrough):
        cert = PathCertificate(walkthrough.matchings, walkthrough.steps, 3)
        assert validate_path_horizon(trading_instance, cert) is None

    def test_one_ahead_fails_at_the_vacate_move(self, trading_instance, walkthrough):
        cert = PathCertificate(walkthrough.matchings, walkthrough.steps, 1)
        violation = validate_path_horizon(trading_instance, cert)
        assert violation is not None
        assert violation.step == 1

    def test_long_horizon_reduces_to_full_lookahead(self, trading_instance, walkthrough):
        cert = PathCertificate(walkthrough.matchings, walkthrough.steps, 99)
        assert validate_path_horizon(trading_instance, cert) is None

    @pytest.mark.parametrize("horizon", [True, 0, 1.5, "far"])
    def test_horizon_must_be_a_positive_integer(self, trading_instance, walkthrough, horizon):
        # the searches' rule: True is no k = 1, and 1.5 is not truncated
        cert = PathCertificate(walkthrough.matchings, walkthrough.steps, horizon)
        assert validate_path(trading_instance, cert) == PathViolation(
            -1, f"invalid horizon {horizon!r}"
        )
        data = {**certificate_to_dict(walkthrough), "horizon": horizon}
        with pytest.raises(InstanceParseError, match="horizon must be"):
            certificate_from_dict(trading_instance, data)


class TestPhiHorizon:
    def test_three_ahead_reaches_trading_outcome(
        self, trading_instance, trading_goldens, trading_universe
    ):
        result = phi_horizon(
            trading_instance, trading_goldens["da"], 3,
            depth_cap=12, universe=trading_universe, node_budget=200_000,
        )
        assert trading_goldens["ttc"] in result.reachable
        # three moves suffice, and {TTC} is stable at that depth cap too
        ttc = trading_goldens["ttc"]
        res = phi_horizon(
            trading_instance, trading_goldens["da"], 3, depth_cap=3, universe=trading_universe
        )
        assert ttc in res.reachable
        report = check_stable_set(
            trading_instance, [ttc], horizon=3, universe=trading_universe, depth_cap=3
        )
        assert report.verdict == "stable"

    def test_huge_horizon_equals_full_lookahead(self):
        p = Problem(
            ("i1", "i2"), ("s1",), {"s1": 1},
            {"i1": ("s1",), "i2": ("s1",)},
            {"s1": ("i2", "i1")},
        )
        universe = enumerate_matchings(p)
        for mu in universe:
            full = phi(p, mu, universe=universe)
            res = phi_horizon(p, mu, k=len(universe), universe=universe)
            assert not res.partial
            assert res.reachable == full

    @pytest.mark.xfail(strict=True, reason="partial is set at the depth cap with no extension")
    def test_depth_cap_that_cuts_no_path_is_not_partial(self):
        # the one move from i1->s1 leads back to i1->self, already on the
        # path, so a cap of one move cuts nothing short
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ("s1",)}, {"s1": ("i1",)})
        start = matching_of(p, i1="self")
        assert phi_horizon(p, start, 1, depth_cap=2).partial is False
        assert phi_horizon(p, start, 1, depth_cap=1).partial is False

    def test_depth_cap_one_is_myopic(self, trading_instance, trading_goldens, trading_universe):
        res = phi_horizon(
            trading_instance, trading_goldens["da"], 1,
            depth_cap=1, universe=trading_universe,
        )
        for mu in res.reachable:
            assert (
                find_enforcing_coalition(
                    trading_instance, trading_goldens["da"], mu, mu
                )
                is not None
            )


class TestStableSets:
    def test_singleton_trading_outcome_stable(
        self, trading_instance, trading_goldens, trading_universe
    ):
        report = check_stable_set(
            trading_instance, [trading_goldens["ttc"]], universe=trading_universe
        )
        assert report.verdict == "stable"

    def test_deferred_acceptance_singleton_fails_externally(
        self, trading_instance, trading_goldens, trading_universe
    ):
        report = check_stable_set(
            trading_instance, [trading_goldens["da"]], universe=trading_universe
        )
        assert report.verdict == "unstable"
        assert trading_goldens["ttc"] in report.external_violations
        assert not report.internal_violations

    def test_immediate_acceptance_singleton_fails_externally(
        self, trading_instance, trading_goldens, trading_universe
    ):
        report = check_stable_set(
            trading_instance, [trading_goldens["ia"]], universe=trading_universe
        )
        assert report.verdict == "unstable"
        assert trading_goldens["da"] in report.external_violations

    def test_find_singletons(self, trading_instance, trading_goldens, trading_universe):
        found = find_singleton_stable_sets(trading_instance, universe=trading_universe)
        assert found == [trading_goldens["ttc"]]

    def test_singleton_query_agrees_with_the_set_check(self):
        # the two reach one rule by different runs: every matching's own
        # exhaustive search, against goal-stopped searches with the lone
        # candidate's own run skipped
        rng = random.Random(2021)
        instances = found = 0
        while instances < 16:
            p = random_problem(rng, 4, 3)
            universe = enumerate_matchings(p)
            if not 2 <= len(universe) <= 19:
                continue
            instances += 1
            for horizon in (FARSIGHTED, 1, 2, 3):
                want = [
                    mu for mu in universe
                    if check_stable_set(p, [mu], horizon, universe=universe).verdict == "stable"
                ]
                got = find_singleton_stable_sets(p, horizon, universe=universe)
                assert got == sort_matchings(want), horizon
                found += len(got)
        assert found  # some singletons are stable, so both sides are read

    def test_iterated_clinch_outcome_is_singleton_stable(self, iterated_clinch_instance):
        mu, _ = run_ct(iterated_clinch_instance)
        found = find_singleton_stable_sets(iterated_clinch_instance)
        assert mu in found

    def test_two_agent_instance(self):
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ("s1",)}, {"s1": ("i1",)})
        found = find_singleton_stable_sets(p)
        assert [m.literal() for m in found] == ["i1->s1"]

    def test_cut_off_horizon_search_is_inconclusive(self):
        # every search from outside {TTC} reaches the depth cap of 2 before
        # it finds TTC, so no external violation is known
        p = Problem(
            ("i1", "i2", "i3", "i4"), ("s1", "s2"), {"s1": 1, "s2": 1},
            {"i1": ("s2",), "i2": ("s1",), "i3": ("s1", "s2"), "i4": ("s2", "s1")},
            {"s1": ("i1", "i3", "i4", "i2"), "s2": ("i2", "i1", "i4", "i3")},
        )
        ttc, _ = run_ttc(p)
        report = check_stable_set(p, [ttc], horizon=3, depth_cap=2)
        assert report.verdict == "inconclusive"
        assert report.partial
        assert not report.external_violations and not report.internal_violations
        assert check_stable_set(p, [ttc], horizon=3, depth_cap=3).verdict == "stable"

    def test_horizon_three_sweep_is_conclusive(self):
        # every source within three reverse levels of TTC is certified
        # without its own depth-first search, so each check finishes
        rng = random.Random(2212)
        start = time.perf_counter()
        unstable = []
        for number in range(400):
            p = random_problem(rng, 5, 3)
            report = check_stable_set(p, [run_ttc(p)[0]], horizon=3)
            assert report.verdict != "inconclusive", number
            if report.verdict == "unstable":
                unstable.append(number)
        assert unstable == [127, 136, 346, 370]
        assert time.perf_counter() - start < 5.0

    def test_prefilter_levels_are_the_horizon_paths(self):
        # at most min(k, depth cap) reverse levels: every source the search
        # certifies by a path that short is in the prefilter, and no other
        rng = random.Random(2213)
        instances = 0
        while instances < 12:
            p = random_problem(rng, 4, 3)
            universe = enumerate_matchings(p)
            if not 3 <= len(universe) <= 30:
                continue
            instances += 1
            oracle = _EdgeOracle(p, universe)
            for t in range(len(universe)):
                for k in (1, 2, 3):
                    want = sum(
                        1 << x for x in range(len(universe)) if x != t and
                        farsight._phi_horizon(oracle, x, k, k, 10**6)[0] >> t & 1
                    )
                    assert oracle.sources_reaching(t, k) == want, (t, k)

    def test_depth_cap_without_horizon_rejected(self, trading_instance, trading_goldens):
        # full lookahead has no depth to cap; a cap there would be ignored
        for cap in (0, 1, 12):
            with pytest.raises(ValueError, match="depth cap"):
                check_stable_set(trading_instance, [trading_goldens["ttc"]], depth_cap=cap)

    def test_horizon_below_one_rejected(self, trading_instance, trading_goldens, trading_universe):
        ttc = trading_goldens["ttc"]
        with pytest.raises(ValueError):
            check_stable_set(trading_instance, [ttc], horizon=0, universe=trading_universe)
        with pytest.raises(ValueError):
            find_singleton_stable_sets(trading_instance, 0, universe=trading_universe)

    @pytest.mark.parametrize("horizon", [0, 1.9, 0.5, True])
    def test_horizon_must_be_a_positive_integer(
        self, trading_instance, trading_goldens, trading_universe, horizon
    ):
        # neither truncated (1.9 is not 1) nor read as a number (True is not 1)
        p, ttc = trading_instance, trading_goldens["ttc"]
        searches = [
            lambda: check_stable_set(p, [ttc], horizon=horizon, universe=trading_universe),
            lambda: find_singleton_stable_sets(p, horizon, universe=trading_universe),
            lambda: phi_horizon(p, ttc, horizon, universe=trading_universe),
        ]
        for search in searches:
            with pytest.raises(ValueError, match="horizon must be"):
                search()

    def test_phi_horizon_needs_an_integer_horizon(self, trading_instance, trading_goldens):
        with pytest.raises(ValueError, match="integer horizon"):
            phi_horizon(trading_instance, trading_goldens["ttc"], FARSIGHTED)

    def test_find_sets_up_to_three(
        self, trading_instance, trading_goldens, trading_universe
    ):
        # {TTC} is the only stable set of any size, so the DA and IA
        # outcomes are in none
        found = find_stable_sets(trading_instance, universe=trading_universe)
        assert found == [[trading_goldens["ttc"]]]

    def test_cut_search_raises_rather_than_lists(
        self, trading_instance, trading_universe, monkeypatch
    ):
        # the search needs more than one node here
        monkeypatch.setattr(farsight, "DEFAULT_NODE_BUDGET", 1)
        with pytest.raises(CapacityError, match="stable-set search"):
            find_stable_sets(trading_instance, universe=trading_universe)

    def test_candidate_outside_the_universe_rejected(
        self, trading_instance, trading_goldens, trading_universe
    ):
        ttc = trading_goldens["ttc"]
        rest = [mu for mu in trading_universe if mu != ttc]
        for horizon in (FARSIGHTED, 3):
            with pytest.raises(ValueError, match="not in the enumerated universe"):
                check_stable_set(trading_instance, [ttc], horizon=horizon, universe=rest)

    def test_search_matches_the_subset_lattice(self):
        # the sets of every size up to three on instances of at most 40
        # matchings, and of every size at all on instances of at most 12
        rng = random.Random(1801)
        cases = several = 0
        while cases < 300:
            p = random_problem(rng, 5, 3)
            uni = enumerate_matchings(p)
            if len(uni) > 40:
                continue
            cases += 1
            found = find_stable_sets(p, universe=uni)
            sizes = (1, 2, 3, len(uni)) if len(uni) <= 12 else (1, 2, 3)
            for size in sizes:
                want = lattice_stable_sets(p, uni, size)
                assert [s for s in found if len(s) <= size] == want, size
                several += len(want) > 1
        assert several  # the order among several sets is checked too


class TestRefusedArguments:
    """Arguments the searches refuse with a ValueError rather than answer."""

    @pytest.mark.parametrize("search", [
        "phi", "phi_horizon", "check_stable_set", "reachability_matrix", "find_stable_sets",
    ])
    def test_universe_that_repeats_a_matching(
        self, trading_instance, trading_goldens, trading_universe, search
    ):
        # a repeated TTC made {TTC} unstable and [TTC, TTC] a stable set
        p, ttc, u = trading_instance, trading_goldens["ttc"], list(trading_universe)
        calls = {
            "phi": lambda: phi(p, ttc, universe=u + u[:1]),
            "phi_horizon": lambda: phi_horizon(p, ttc, 2, universe=u[:1] + u),
            "check_stable_set": lambda: check_stable_set(p, [ttc], universe=u + u[:5]),
            "reachability_matrix": lambda: reachability_matrix(p, universe=u + u[-1:]),
            "find_stable_sets": lambda: find_stable_sets(p, universe=u + u[:3]),
        }
        check_stable_set(p, [ttc], universe=u)  # a shared oracle for u is no excuse
        with pytest.raises(ValueError, match="repeats a matching"):
            calls[search]()

    @pytest.mark.parametrize("cap", [1.5, -1, True, "2"])
    def test_depth_cap_is_none_or_a_count(
        self, trading_instance, trading_goldens, trading_universe, cap
    ):
        # 1.5 answered as 2 did, and -1 and True were taken
        p, u = trading_instance, trading_universe
        with pytest.raises(ValueError, match="depth_cap must be None or an integer >= 0"):
            phi_horizon(p, trading_goldens["da"], 3, depth_cap=cap, universe=u)
        with pytest.raises(ValueError, match="depth_cap must be None or an integer >= 0"):
            check_stable_set(p, [trading_goldens["ttc"]], horizon=3, depth_cap=cap, universe=u)

    def test_depth_cap_zero_is_a_cap(self, trading_instance, trading_goldens, trading_universe):
        res = phi_horizon(trading_instance, trading_goldens["da"], 3, depth_cap=0,
                          universe=trading_universe)
        assert not res.reachable and res.partial

    @pytest.mark.parametrize("value", [0, -3, 0.5, 1.5, True, None])
    def test_cap_and_node_budget_are_positive_counts(
        self, trading_instance, trading_goldens, trading_universe, value
    ):
        # a node budget of 1.5 reached what 2 did, and cap=True raised
        # "more than True matchings"
        p, u = trading_instance, trading_universe
        start = matching_of(p, i1="s1", i2="s1", i3="s2", i4="self")
        with pytest.raises(ValueError, match="node_budget must be an integer >= 1"):
            phi_horizon(p, start, 3, depth_cap=3, universe=u, node_budget=value)
        with pytest.raises(ValueError, match="^cap must be an integer >= 1"):
            enumerate_matchings(p, cap=value)


def lattice_stable_sets(problem, uni, max_size):
    """Every stable set of at most max_size matchings, by walking the subset
    lattice in literal order: a reference for the search."""
    cols, _ = farsight._reach_columns(farsight._oracle(problem, uni), range(len(uni)), None, None)
    n = len(uni)
    everyone = (1 << n) - 1
    order = sorted(range(n), key=lambda x: uni[x].literal())
    results = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(order, size):
            if any(
                cols[b] >> a & 1 or cols[a] >> b & 1
                for a, b in itertools.combinations(combo, 2)
            ):
                continue
            covered = 0
            for c in combo:
                covered |= cols[c] | 1 << c
            if covered == everyone:
                results.append([uni[x] for x in combo])
    return results


# ---------------------------------------------------------------------------
# Independent reachability oracle: depth-first enumeration of simple paths,
# re-deriving every move condition from scratch.
# ---------------------------------------------------------------------------

def oracle_edge(problem, a, b, ref, replacement=True, departure=True):
    """The search's edge rule from scratch.  replacement=False drops the
    replacement rule at schools pushed past their quota, so that their
    leavers count as unreplaced; departure=False lets an unreplaced leaver
    go without a strict gain."""
    if a == b:
        return False
    joiners, gains, losses = [], {}, {}
    for i in problem.students:
        xa, xb = a.school_of(i), b.school_of(i)
        if xa == xb:
            continue
        if xb is not SELF:
            joiners.append(i)
            gains.setdefault(xb, []).append(i)
        if xa is not SELF:
            losses.setdefault(xa, []).append(i)
    replaced = set()
    held, seated = a.rosters, ref.rosters
    for s, incoming in gains.items():
        old = held[s]
        if replacement and len(old) + len(incoming) > problem.quota(s):
            left = sorted(losses.get(s, []), key=lambda j: problem.priority_rank(s, j))
            come = sorted(incoming, key=lambda j: problem.priority_rank(s, j))
            if len(left) > len(come):
                return False
            for t in range(len(left)):
                if problem.priority_rank(s, come[t]) >= problem.priority_rank(s, left[t]):
                    return False
            replaced.update(left)
    strict = False
    for i in joiners:
        ra = problem.pref_rank(i, ref.school_of(i))
        rc = problem.pref_rank(i, a.school_of(i))
        if ra > rc:
            return False
        if ra < rc:
            strict = True
        s = b.school_of(i)
        roster = seated[s]
        if i not in roster and not any(
            problem.higher_priority(s, i, j) for j in roster
        ):
            return False
    for s, left in losses.items():
        # anyone giving up a seat without being replaced acts voluntarily,
        # which takes a strict gain at the end relative to the seat lost
        for i in left:
            if i in replaced:
                continue
            ra = problem.pref_rank(i, ref.school_of(i))
            rc = problem.pref_rank(i, a.school_of(i))
            if ra < rc:
                strict = True
            elif departure:
                return False
    return strict


def oracle_phi(problem, universe, mu):
    out = set()
    for ref in universe:
        if ref == mu:
            continue
        stack = [(mu, frozenset([mu]))]
        found = False
        while stack and not found:
            cur, seen = stack.pop()
            for nxt in universe:
                if nxt in seen or not oracle_edge(problem, cur, nxt, ref):
                    continue
                if nxt == ref:
                    found = True
                    break
                stack.append((nxt, seen | {nxt}))
        if found:
            out.add(ref)
    return out


def oracle_looks(problem, universe):
    """Per ordered pair of matchings, the lookaheads under which oracle_edge
    lets the move happen."""
    return {
        (a, b): {ref for ref in universe if oracle_edge(problem, a, b, ref)}
        for a in universe for b in universe
    }


def oracle_phi_horizon(universe, holds, mu, k, depth_cap):
    """phi_horizon from scratch: the ends of the simple paths of at most
    depth_cap moves from mu whose every move holds (per `oracle_looks`)
    against the matching k steps later, or the path's end when nearer."""
    out = set()
    stack = [(mu,)]
    while stack:
        path = stack.pop()
        end = len(path) - 1
        if end and all(path[min(l + k, end)] in holds[path[l], path[l + 1]] for l in range(end)):
            out.add(path[-1])
        if end < depth_cap:
            # a move that holds under no lookahead is on no certified path
            stack.extend(
                path + (nxt,) for nxt in universe
                if nxt not in path and holds[path[-1], nxt]
            )
    return out


class TestReachabilityOracle:
    def test_search_matches_simple_path_enumeration(self):
        rng = random.Random(61)
        instances = 0
        while instances < 50:
            p = random_problem(rng, max_students=3, max_schools=3)
            universe = enumerate_matchings(p, cap=100)
            if len(universe) > 8:
                continue
            instances += 1
            for mu in universe:
                assert phi(p, mu, universe=universe) == oracle_phi(p, universe, mu)

    def test_horizon_search_matches_simple_path_enumeration(self):
        rng = random.Random(77)
        instances = 0
        shorter = 0  # answers that a horizon below the depth cap changes
        while instances < 20:
            p = random_problem(rng, max_students=4, max_schools=2)
            universe = enumerate_matchings(p)
            if not 6 <= len(universe) <= 12:
                continue
            instances += 1
            holds = oracle_looks(p, universe)
            for mu in universe:
                for depth in (1, 2, 3, 4):
                    answers = []
                    for k in (1, 2, 3):
                        got = phi_horizon(p, mu, k, depth_cap=depth, universe=universe)
                        expect = oracle_phi_horizon(universe, holds, mu, k, depth)
                        assert got.reachable == expect, (mu.literal(), k, depth)
                        answers.append(expect)
                    shorter += answers[0] != answers[2] or answers[1] != answers[2]
        assert shorter

    def test_trading_instance_spotcheck(self, trading_instance, trading_goldens, trading_universe):
        # spot-check one edge of the walkthrough against the raw conditions
        start = trading_goldens["walkthrough_start"]
        nxt = matching_of(trading_instance, i1="s1", i2="s2", i3="s1", i4="self")
        assert oracle_edge(trading_instance, start, nxt, trading_goldens["ttc"])


def kernel_instances():
    """34 seeded instances, each with three lookahead indices: 30 of 4-5
    students, two schools and at most 40 matchings; then 4 of six students
    and three schools, one of quota 3, whose universe is the individually
    rational matchings that fill that school (44 of them), so that a move
    can replace three leavers at once."""
    rng = random.Random(404)
    instances = 0
    while instances < 30:
        n = rng.randint(4, 5)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = ("s1", "s2")
        quotas = {"s1": rng.randint(1, 2), "s2": 1}
        prefs = {i: tuple(rng.sample(schools, rng.randint(1, 2))) for i in students}
        prios = {s: tuple(rng.sample(students, n)) for s in schools}
        p = Problem(students, schools, quotas, prefs, prios)
        universe = enumerate_matchings(p)
        if len(universe) > 40:
            continue
        instances += 1
        yield p, universe, rng.sample(range(len(universe)), 3)
    rng = random.Random(405)
    students = tuple(f"i{k}" for k in range(1, 7))
    schools = ("s1", "s2", "s3")
    for _ in range(4):
        prefs = {i: ("s1",) for i in students}
        for i, s in zip(rng.sample(students, 2), ("s2", "s3")):
            prefs[i] = tuple(rng.sample(("s1", s), 2))
        prios = {s: tuple(rng.sample(students, 6)) for s in schools}
        p = Problem(students, schools, {"s1": 3, "s2": 1, "s3": 1}, prefs, prios)
        universe = [
            mu for mu in enumerate_matchings(p)
            if is_individually_rational(p, mu) and len(mu.rosters["s1"]) == 3
        ]
        yield p, universe, rng.sample(range(len(universe)), 3)


class TestEdgeKernel:
    def test_matches_independent_oracle_edge(self):
        replacement = {True: 0, False: 0}  # over-capacity moves by injection outcome
        replaced_edges = 0
        widest = 0  # most leavers one school replaces on an edge
        for p, universe, refs in kernel_instances():
            oracle = _EdgeOracle(p, universe)
            rosters = [mu.rosters for mu in universe]
            for x, a in enumerate(universe):
                for y, b in enumerate(universe):
                    over = [
                        s for s in p.schools
                        if len(rosters[x][s] | rosters[y][s]) > p.quota(s)
                    ]
                    if over:
                        admissible = all(school_move_admissible(p, s, a, b) for s in over)
                        replacement[admissible] += 1
                    allowed = oracle.looks(x, y)
                    for t in refs:
                        got = bool(allowed >> t & 1)
                        assert got == oracle_edge(p, a, b, universe[t]), (x, y, t)
                        replaced_edges += got and bool(over)
                        if got:
                            widest = max([widest] + [
                                len(rosters[x][s] - rosters[y][s]) for s in over
                            ])
        assert replacement[True] and replacement[False]
        assert replaced_edges
        assert widest == 3

    def test_bitset_sets_match_edge(self):
        # pairs the bitsets drop that would pass without the replacement
        # rule (a blocked school) or the departure rule (a reluctant leaver)
        removed = {"replacement": 0, "departure": 0}
        for p, universe, refs in kernel_instances():
            oracle = _EdgeOracle(p, universe)
            n = len(universe)
            for x in range(n):
                screened = [y for y in range(n) if edge(oracle, x, y)]
                assert oracle.succ_mask(x) == sum(1 << y for y in screened)
            for t in refs:
                masks = oracle.student_masks(t)
                for y, b in enumerate(universe):
                    got = oracle.predecessors(y, masks, oracle.all)
                    edges = [x for x in range(n) if oracle.looks(x, y) >> t & 1]
                    assert got == sum(1 << x for x in edges), (y, t)
                    for x, a in enumerate(universe):
                        if not got >> x & 1:
                            for rule in removed:
                                removed[rule] += oracle_edge(
                                    p, a, b, universe[t], **{rule: False}
                                )
        assert removed["replacement"] and removed["departure"]

    def test_direct_is_the_looks_diagonal(self):
        # direct(x): the moves x -> y that hold under their own target y,
        # on each universe as enumerated and shuffled
        rng = random.Random(406)
        rows = 0
        for p, universe, _ in kernel_instances():
            for uni in (universe, rng.sample(universe, len(universe))):
                oracle = _EdgeOracle(p, uni)
                n = len(uni)
                for x in range(n):
                    want = sum(1 << y for y in range(n) if oracle.looks(x, y) >> y & 1)
                    assert oracle.direct(x) == want, x
                    rows += want != 0
        assert rows

    def test_reverse_search_makes_no_edge_call(
        self, trading_instance, trading_goldens, trading_universe, monkeypatch
    ):
        # the reverse search takes whole predecessor sets: no call per pair;
        # phi reads `looks` only on the source's own first moves
        calls = []
        looks = _EdgeOracle.looks
        monkeypatch.setattr(
            _EdgeOracle, "looks", lambda self, a, b: calls.append((a, b)) or looks(self, a, b)
        )
        p, uni = trading_instance, trading_universe
        da, ttc = trading_goldens["da"], trading_goldens["ttc"]
        assert phi(p, da, universe=uni) == {ttc}
        src = uni.index(da)
        oracle = _EdgeOracle(p, uni)
        assert calls == [(src, y) for y in range(len(uni)) if oracle.succ_mask(src) >> y & 1]
        calls.clear()
        assert check_stable_set(p, [da], universe=uni).verdict == "unstable"
        assert find_stable_sets(p, universe=uni) == [[ttc]]
        assert calls == []

    def test_search_leaves_numpy_unimported(self):
        script = (
            "import sys\n"
            "from schoolchoice import Problem, check_stable_set, find_stable_sets, phi_horizon\n"
            "from schoolchoice import reachability_matrix, run_ttc\n"
            "p = Problem(('i1', 'i2'), ('s1',), {'s1': 1}, {'i1': ('s1',), 'i2': ('s1',)},\n"
            "            {'s1': ('i2', 'i1')})\n"
            "mu, _ = run_ttc(p)\n"
            "check_stable_set(p, [mu])\n"
            "check_stable_set(p, [mu], horizon=2)\n"
            "phi_horizon(p, p.empty_matching(), 2)\n"
            "reachability_matrix(p)\n"
            "find_stable_sets(p)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


def defined_tables(problem, universe):
    """Every table of the oracle's roster index and lookahead tables,
    recomputed from its definition one matching at a time."""
    m, vecs = len(problem.schools), [mu._assign for mu in universe]
    students, rank, prio = range(len(problem.students)), problem._pref_rank, problem._prio_rank

    def matchings(test):
        return sum(1 << x for x, vec in enumerate(vecs) if test(vec))

    def anchored(vec, s, i):  # vec seats i at s, or someone at s whom i outranks
        return vec[i] == s or any(vec[j] == s and prio[s][i] < prio[s][j] for j in students)

    seats = range(m + 1)
    tables = {
        "seat": [[matchings(lambda v: v[i] == c) for c in seats] for i in students],
        "above": [[matchings(lambda v: rank[i][v[i]] < rank[i][c]) for c in seats]
                  for i in students],
        "atleast": [[matchings(lambda v: rank[i][v[i]] <= rank[i][c]) for c in seats]
                    for i in students],
        "anchor": [[matchings(lambda v: anchored(v, s, i)) for i in students] for s in range(m)],
        "codes": [], "roster_masks": [],
    }
    ids = []  # per school, roster -> id, in order of first appearance
    for s in range(m):
        found = {}
        for vec in vecs:
            found.setdefault(frozenset(i for i in students if vec[i] == s), len(found))
        ids.append(found)
        tables["codes"].append([sum(1 << prio[s][i] for i in roster) for roster in found])
        tables["roster_masks"].append([
            matchings(lambda v: frozenset(i for i in students if v[i] == s) == roster)
            for roster in found
        ])
    tables["rid"] = [
        tuple(ids[s][frozenset(i for i in students if vec[i] == s)] for s in range(m))
        for vec in vecs
    ]
    return tables


def assert_tables_as_defined(problem, universe):
    oracle = _EdgeOracle(problem, universe)
    for name, table in defined_tables(problem, universe).items():
        assert getattr(oracle, name) == table, name
    return oracle


def sampled_matchings(rng, p, count):
    """count distinct matchings of p, each student seated at random among
    her acceptable schools and SELF until the quotas hold, in random order."""
    found = {}
    while len(found) < count:
        pick = {i: rng.choice(p.preferences[i] + (SELF,)) for i in p.students}
        taken = [s for s in pick.values() if s is not SELF]
        if all(taken.count(s) <= p.quota(s) for s in taken):
            mu = p.matching(pick)
            found[mu] = mu
    return list(found)


def tall_instances():
    """6 seeded instances of 9-12 students, two schools of quota 2-5 and a
    sample of 40 matchings, each with three lookahead indices."""
    rng = random.Random(407)
    for _ in range(6):
        n = rng.randint(9, 12)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = ("s1", "s2")
        prefs = {i: tuple(rng.sample(schools, rng.randint(1, 2))) for i in students}
        prios = {s: tuple(rng.sample(students, n)) for s in schools}
        p = Problem(students, schools, {s: rng.randint(2, 5) for s in schools}, prefs, prios)
        yield p, sampled_matchings(rng, p, 40), rng.sample(range(40), 3)


def wide_instance():
    """10 students, 300 schools of quota 2 and a sample of 50 matchings: a
    seat takes two bytes, and the students' lists pair schools whose
    indices share their low byte (0 and 256, ...)."""
    rng = random.Random(409)
    students = tuple(f"i{k}" for k in range(1, 11))
    schools = tuple(f"s{k}" for k in range(1, 301))
    pool = schools[:4] + schools[255:260]
    prefs = {i: tuple(rng.sample(pool, 5)) for i in students}
    prios = {s: tuple(rng.sample(students, 10)) for s in schools}
    p = Problem(students, schools, {s: 2 for s in schools}, prefs, prios)
    return p, sampled_matchings(rng, p, 50)


class TestOracleTables:
    """The roster index and lookahead tables against their definitions, on
    shuffled universes; the tall instances give roster codes past 8 priority
    ranks, and the wide one seats past 256 schools."""

    def test_kernel_instances(self):
        rng = random.Random(408)
        for p, universe, _ in kernel_instances():
            for uni in (universe, rng.sample(universe, len(universe))):
                assert_tables_as_defined(p, uni)

    def test_tall_instances(self):
        high = 0  # roster codes with a priority rank of 8 or more
        for p, universe, refs in tall_instances():
            oracle = assert_tables_as_defined(p, universe)
            high += sum(code >> 8 != 0 for codes in oracle.codes for code in codes)
            n = len(universe)
            for t in refs:
                masks = oracle.student_masks(t)
                for y, b in enumerate(universe):
                    want = [oracle_edge(p, a, b, universe[t]) for a in universe]
                    assert oracle.predecessors(y, masks, oracle.all) == sum(
                        1 << x for x in range(n) if want[x]
                    ), (y, t)
                    assert [oracle.looks(x, y) >> t & 1 for x in range(n)] == want, (y, t)
        assert high

    def test_wide_instance(self):
        oracle = assert_tables_as_defined(*wide_instance())
        seated = {c for vec in oracle.vecs for c in vec}
        assert {0, 256} <= seated or {1, 257} <= seated or {2, 258} <= seated


def reference_masks(oracle, t):
    """Per student, whether lookahead t anchors her claim at each school,
    and the matchings whose seat for her she ranks weakly, and strictly,
    below her seat in t."""
    ref = oracle.vecs[t]
    anchored = [[col[i] >> t & 1 for col in oracle.anchor] for i in oracle.students]
    weak = [oracle.all & ~row[d] for row, d in zip(oracle.above, ref)]
    strict = [oracle.all & ~row[d] for row, d in zip(oracle.atleast, ref)]
    return anchored, weak, strict


def reference_predecessors(oracle, masks, y, within):
    """The matchings in `within` with an edge into y under the lookahead of
    `reference_masks`, by the edge rule read one student at a time: each
    joiner weakly improves and claims an anchored seat, each student who
    leaves a seat unreplaced strictly improves, and someone strictly
    improves."""
    anchored, weak, strict = masks
    m, got, unreplaced = oracle.m, within, []
    for s, r in enumerate(oracle.rid[y]):
        by = oracle.groups(s, r, True)
        got &= ~by[BLOCKED]
        unreplaced.append(by[UNREPLACED])
    improver = 0
    for i, d in enumerate(oracle.vecs[y]):
        seats = oracle.seat[i]
        stay = seats[d]
        if d != m:
            got &= stay | weak[i] if anchored[i][d] else stay
            improver |= strict[i] & ~stay
        gone = 0
        for c in range(m):
            if c != d:
                gone |= seats[c] & unreplaced[c]
        got &= ~gone | strict[i]
        improver |= gone
    return got & improver


class TestPerSchoolClauses:
    """`predecessors` reads each school's memoised clauses; the student-by-
    student rule must give the same set for every (lookahead, target), on
    universes as enumerated and shuffled."""

    def assert_as_reference(self, p, universe):
        oracle = _EdgeOracle(p, universe)
        n = len(universe)
        nonempty = 0
        for t in range(n):  # targets in sequence on one oracle
            masks, ref = oracle.student_masks(t), reference_masks(oracle, t)
            for y in range(n):
                got = oracle.predecessors(y, masks, oracle.all)
                assert got == reference_predecessors(oracle, ref, y, oracle.all), (t, y)
                nonempty += got != 0
        return nonempty

    @pytest.mark.parametrize("instances", [kernel_instances, tall_instances])
    def test_matches_the_student_rule(self, instances):
        rng = random.Random(410)
        nonempty = 0
        for p, universe, _ in instances():
            for uni in (universe, rng.sample(universe, len(universe))):
                nonempty += self.assert_as_reference(p, uni)
        assert nonempty

    def test_matches_the_student_rule_wide(self):
        p, universe = wide_instance()
        rng = random.Random(411)
        for uni in (universe, rng.sample(universe, len(universe))):
            self.assert_as_reference(p, uni)

    def test_no_memo_leaks_between_lookaheads(self):
        # several reverse searches in sequence on one oracle answer as each
        # on a fresh oracle, and a bounded search is the fresh BFS cut short
        for p, universe, refs in kernel_instances():
            shared = _EdgeOracle(p, universe)
            for t in refs + refs[::-1]:
                fresh = _EdgeOracle(p, universe)
                assert shared.sources_reaching(t) == fresh.sources_reaching(t), t
                within = [shared.sources_reaching(t, levels) for levels in range(4)]
                assert within[0] == 0
                assert all(a & ~b == 0 for a, b in zip(within, within[1:]))


def small_problems(rng, count):
    """count problems drawn from rng with 2-20 matchings each."""
    while count:
        p = random_problem(rng, 4, 3)
        if 2 <= len(enumerate_matchings(p)) <= 20:
            count -= 1
            yield p


def twin(p):
    """p with every preference list and priority order reversed: the same
    acceptable sets and quotas, so the same assignment vectors."""
    return Problem(
        p.students, p.schools, p.quotas,
        {i: prefs[::-1] for i, prefs in p.preferences.items()},
        {s: order[::-1] for s, order in p.priorities.items()},
    )


def searches(p, uni):
    """One call of each search that goes through the shared oracle."""
    a, b = uni[0], uni[-1]
    return [
        lambda: phi(p, a, universe=uni),
        lambda: check_stable_set(p, [a], universe=uni),
        lambda: check_stable_set(p, [a, b], universe=uni),
        lambda: find_singleton_stable_sets(p, universe=uni),
        lambda: reachability_matrix(p, universe=uni)[0],
        lambda: phi_horizon(p, b, 2, depth_cap=3, universe=uni),
        lambda: check_stable_set(p, [b], horizon=2, universe=uni, depth_cap=3),
    ]


def count_builds(monkeypatch):
    """Record every `_EdgeOracle` built from now on."""
    built = []
    init = _EdgeOracle.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_EdgeOracle, "__init__", counting)
    return built


def fresh_answers(monkeypatch, p, uni):
    """The answers of `searches` with a new oracle for every call."""
    with monkeypatch.context() as m:
        m.setattr(farsight, "_oracle", _EdgeOracle)
        return [search() for search in searches(p, uni)]


class TestUniverseOrder:
    def test_shuffled_universe_gives_the_same_answers(
        self, trading_instance, trading_universe
    ):
        # roster ids and every bitset follow the universe's order; the
        # answers, as matchings, must not
        rng = random.Random(1515)
        cases = [(trading_instance, trading_universe)]
        while len(cases) < 5:
            p = random_problem(rng, 4, 3)
            uni = enumerate_matchings(p)
            if 10 <= len(uni) <= 80:
                cases.append((p, uni))
        for p, uni in cases:
            ttc, da = run_ttc(p)[0], run_da(p)
            shuffled = rng.sample(uni, len(uni))
            checks = [
                lambda u, c=c, h=h, d=d: check_stable_set(p, c, horizon=h, universe=u, depth_cap=d)
                for c in ([ttc], [da], [ttc, da])
                for h, d in ((FARSIGHTED, None), (2, 3), (3, 3))
            ]
            checks += [
                lambda u, mu=mu, k=k: phi_horizon(p, mu, k, depth_cap=3, universe=u)
                for mu in (uni[0], uni[-1], da) for k in (1, 2, 3)
            ]
            for check in checks:
                assert check(shuffled) == check(uni)


class TestSharedOracle:
    def test_consecutive_searches_build_one_oracle(self, monkeypatch):
        p = next(small_problems(random.Random(31), 1))  # new, so not in the slot
        built = count_builds(monkeypatch)
        universe = enumerate_matchings(p)
        check_stable_set(p, [run_ttc(p)[0]], universe=universe)
        check_stable_set(p, [run_da(p)], universe=universe)
        assert len(built) == 1
        # equal content hits the slot: a copy, or the universe enumerated again
        for search in searches(p, list(universe)):
            search()
        phi(p, run_da(p))
        find_stable_sets(p)
        assert len(built) == 1

    def test_interleaved_problems_match_fresh_oracles(self, monkeypatch):
        differ = 0
        for p in small_problems(random.Random(32), 12):
            q = twin(p)
            uni = enumerate_matchings(p)
            assert enumerate_matchings(q) == uni
            want = {id(r): fresh_answers(monkeypatch, r, uni) for r in (p, q)}
            differ += want[id(p)] != want[id(q)]
            got = {id(p): [], id(q): []}
            for sp, sq in zip(searches(p, uni), searches(q, uni)):
                got[id(p)].append(sp())
                got[id(q)].append(sq())
            assert got == want
        assert differ  # a slot keyed on the universe alone would fail

    def test_universe_mutated_in_place_misses_the_slot(self, monkeypatch):
        for p in small_problems(random.Random(33), 12):
            uni = enumerate_matchings(p)
            for search in searches(p, uni):
                search()
            for mutate in (list.reverse, lambda u: u.pop(len(u) // 2)):
                mutate(uni)
                want = fresh_answers(monkeypatch, p, uni)
                assert [search() for search in searches(p, uni)] == want

    def test_enforcing_coalition_keeps_the_slot(self, monkeypatch):
        p = next(small_problems(random.Random(34), 1))
        universe = enumerate_matchings(p)
        built = count_builds(monkeypatch)
        check_stable_set(p, [universe[0]], universe=universe)
        kept = farsight._slot
        find_enforcing_coalition(p, universe[0], universe[-1], universe[-1])
        assert farsight._slot is kept
        check_stable_set(p, [universe[-1]], universe=universe)
        assert len(built) == 2  # the slot's and the coalition's own

    def test_concurrent_callers_get_their_own_answers(self, monkeypatch):
        for p in small_problems(random.Random(35), 10):  # twins that answer differently
            q = twin(p)
            uni = enumerate_matchings(p)
            want = {id(r): fresh_answers(monkeypatch, r, uni) for r in (p, q)}
            if want[id(p)] != want[id(q)]:
                break
        else:
            pytest.fail("no problem answers unlike its twin")
        wrong = []

        def work(r):
            for _ in range(25):
                # new but equal matchings each time, so the universe is
                # compared element by element
                got = [search() for search in searches(r, enumerate_matchings(r))]
                wrong.append(got != want[id(r)])

        run_threads([lambda r=r: work(r) for r in (p, q, p, q)])
        assert len(wrong) == 100 and not any(wrong)

    def test_threads_sharing_one_oracle_fill_its_memos_whole(self, monkeypatch):
        rng = random.Random(36)
        uni = []
        while not 60 <= len(uni) <= 120:
            p = random_problem(rng, 5, 3)
            uni = enumerate_matchings(p)
        with monkeypatch.context() as m:
            m.setattr(farsight, "_oracle", _EdgeOracle)
            want = reachability_matrix(p, universe=uni)[0]
        wrong = []
        for _ in range(20):
            farsight._oracle(p, uni)  # a new oracle, memos empty, for all threads
            start = threading.Barrier(4, timeout=60)

            def work():
                start.wait()
                wrong.append(reachability_matrix(p, universe=uni)[0] != want)

            run_threads([work] * 4)
        assert len(wrong) == 80 and not any(wrong)


def run_threads(targets):
    """Run each target in its own thread, switching threads as often as the
    interpreter allows, and check that all of them finished."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
