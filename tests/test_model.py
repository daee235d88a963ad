import itertools
import random
from collections import Counter

import pytest

from schoolchoice import (
    SELF,
    CapacityError,
    Matching,
    Problem,
    ValidationError,
    enumerate_matchings,
    has_no_justified_envy,
    is_individually_rational,
    is_non_wasteful,
    is_pareto_efficient,
    is_stable,
    pareto_dominates,
)

from conftest import matching_of, random_matching, random_problem


def brute_force_count(problem):
    """Independent counting oracle: filter the full assignment product."""
    options = list(problem.schools) + [SELF]
    total = 0
    for combo in itertools.product(options, repeat=len(problem.students)):
        counts = Counter(a for a in combo if a is not SELF)
        if all(counts[s] <= problem.quota(s) for s in problem.schools):
            total += 1
    return total


class TestValidateProblem:
    def test_well_formed(self, trading_instance):
        p = trading_instance
        again = Problem(p.students, p.schools, p.quotas, p.preferences, p.priorities)
        assert again == p

    def test_priority_not_a_permutation(self):
        with pytest.raises(ValidationError) as err:
            Problem(
                ("i1", "i2"), ("s1",), {"s1": 1},
                {"i1": ("s1",), "i2": ("s1",)},
                {"s1": ("i1",)},
            )
        assert any("not a permutation" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("students, order, diagnostics", [
        (("i1", "i2"), ("i1",), ["priority of 's1' is not a permutation of the students"]),
        (("i1", "i2"), ("i1", "i9"), ["priority of 's1' is not a permutation of the students"]),
        (("i1", "i2"), ("i1", "i1"), ["priority of 's1' is not a permutation of the students"]),
        (("i1", "i2"), ("i2", "i1", "i2"),
         ["priority of 's1' is not a permutation of the students"]),
        # a student list with duplicates is compared as a multiset
        (("i1", "i1", "i2"), ("i1", "i1", "i2"), ["duplicate student identifier 'i1'"]),
        (("i1", "i1", "i2"), ("i1", "i2", "i2"),
         ["duplicate student identifier 'i1'",
          "priority of 's1' is not a permutation of the students"]),
        (("i1", "i1", "i2"), ("i1", "i2"),
         ["duplicate student identifier 'i1'",
          "priority of 's1' is not a permutation of the students"]),
        (("i1", "i2"), ("i2", "i1"), []),
    ])
    def test_permutation_diagnostics(self, students, order, diagnostics):
        args = (students, ("s1",), {"s1": 1}, {i: ("s1",) for i in students}, {"s1": order})
        if not diagnostics:
            Problem(*args)
            return
        with pytest.raises(ValidationError) as err:
            Problem(*args)
        assert err.value.diagnostics == diagnostics

    def test_zero_quota(self):
        with pytest.raises(ValidationError) as err:
            Problem(("i1",), ("s1",), {"s1": 0}, {"i1": ("s1",)}, {"s1": ("i1",)})
        assert any("must be >= 1" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("quota, diagnostic", [
        (1.5, "quota of school 's1' must be an integer, not 1.5"),
        (2.0, "quota of school 's1' must be an integer, not 2.0"),
        (True, "quota of school 's1' must be an integer, not True"),
        (False, "quota of school 's1' must be an integer, not False"),
        ("2", "quota of school 's1' must be an integer, not '2'"),
        (None, "no quota given for school 's1'"),
    ])
    def test_quota_must_be_an_integer(self, quota, diagnostic):
        # a float quota once built and then broke the mechanisms
        with pytest.raises(ValidationError) as err:
            Problem(("i1", "i2"), ("s1",), {"s1": quota},
                    {"i1": ("s1",), "i2": ("s1",)}, {"s1": ("i1", "i2")})
        assert err.value.diagnostics == [diagnostic]

    def test_hash_in_a_name(self):
        # an instance document drops a line's text from `#` on, so such a
        # name would not read back
        with pytest.raises(ValidationError) as err:
            Problem(("i#1", "i2"), ("s#",), {"s#": 1},
                    {"i#1": ("s#",), "i2": ()}, {"s#": ("i2", "i#1")})
        assert err.value.diagnostics == [
            "identifier 'i#1' cannot be written in an instance document",
            "identifier 's#' cannot be written in an instance document",
        ]

    def test_duplicate_preference_entry(self):
        with pytest.raises(ValidationError) as err:
            Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ("s1", "s1")}, {"s1": ("i1",)})
        assert any("twice" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("problem, diagnostics", [
        ((("i1", "i2", "i1", "i2"), ("s1",), {"s1": 1}, {"i1": (), "i2": ()},
          {"s1": ("i1", "i2", "i1", "i2")}),
         ["duplicate student identifier 'i1'", "duplicate student identifier 'i2'"]),
        ((("i1",), ("s2", "s1", "s2"), {"s1": 1, "s2": 1}, {"i1": ()},
          {"s1": ("i1",), "s2": ("i1",)}),
         ["duplicate school identifier 's2'"]),
        ((("x", "i1", "a"), ("x", "a"), {"x": 1, "a": 1}, {"x": (), "i1": (), "a": ()},
          {"x": ("x", "i1", "a"), "a": ("x", "i1", "a")}),
         ["identifier 'a' used for both a student and a school",
          "identifier 'x' used for both a student and a school"]),
        ((("i1",), ("s1", "s2", "s3"), {"s2": 0, "s3": -1, "s9": 1}, {"i1": ()},
          {"s1": ("i1",), "s2": ("i1",), "s3": ("i1",)}),
         ["no quota given for school 's1'", "quota of school 's2' must be >= 1, got 0",
          "quota of school 's3' must be >= 1, got -1", "quota given for unknown school 's9'"]),
        ((("i1", "i2"), ("s1",), {"s1": 1}, {"i2": ("s9", "s1", "s9", "s1"), "i7": ()},
          {"s1": ("i1", "i2")}),
         ["no preference list for student 'i1'",
          "preference of 'i2' lists unknown school 's9'",
          "preference of 'i2' lists unknown school 's9'",
          "preference of 'i2' lists school 's9' twice",
          "preference of 'i2' lists school 's1' twice",
          "preference list for unknown student 'i7'"]),
        ((("i1",), ("s1", "s2"), {"s1": 1, "s2": 1}, {"i1": ()},
          {"s2": ("i1", "i9"), "s8": ("i1",)}),
         ["no priority order for school 's1'",
          "priority of 's2' is not a permutation of the students",
          "priority order for unknown school 's8'"]),
        # `self` in any case is the unmatched target of a literal; each
        # distinct name gets one diagnostic, duplicates and all
        ((("i1", "self"), ("Self", "SELF", "s->1", "Self"),
          {"Self": 1, "SELF": 1, "s->1": 1},
          {"i1": (), "self": ()},
          {s: ("i1", "self") for s in ("Self", "SELF", "s->1")}),
         ["duplicate school identifier 'Self'",
          "school 'Self' is named self, which matching literals reserve",
          "school 'SELF' is named self, which matching literals reserve",
          "identifier 's->1' cannot be written in a matching literal"]),
        ((("i 1", "i,2", "", "i\t3", "i->4"), ("s 1", "s,2"), {"s 1": 1, "s,2": 1},
          {"i 1": (), "i,2": (), "": (), "i\t3": (), "i->4": ()},
          {s: ("i 1", "i,2", "", "i\t3", "i->4") for s in ("s 1", "s,2")}),
         ["identifier 'i 1' cannot be written in a matching literal",
          "identifier 'i,2' cannot be written in a matching literal",
          "identifier '' cannot be written in a matching literal",
          "identifier 'i\\t3' cannot be written in a matching literal",
          "identifier 's 1' cannot be written in a matching literal",
          "identifier 's,2' cannot be written in a matching literal"]),
        # `;` separates the literals of a set of matchings
        ((("i;1", "i2"), ("s;",), {"s;": 1}, {"i;1": ("s;",), "i2": ()}, {"s;": ("i2", "i;1")}),
         ["identifier 'i;1' cannot be written in a set of matchings",
          "identifier 's;' cannot be written in a set of matchings"]),
        # a space in one name and an empty other name leave as many parts
        ((("i 1", ""), ("s1",), {"s1": 1}, {"i 1": (), "": ()}, {"s1": ("i 1", "")}),
         ["identifier 'i 1' cannot be written in a matching literal",
          "identifier '' cannot be written in a matching literal"]),
    ])
    def test_every_diagnostic_kind(self, problem, diagnostics):
        with pytest.raises(ValidationError) as err:
            Problem(*problem)
        assert err.value.diagnostics == diagnostics
        assert str(err.value) == "; ".join(diagnostics)


class TestEnumeration:
    def test_single_student_single_school(self):
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ("s1",)}, {"s1": ("i1",)})
        matchings = enumerate_matchings(p)
        assert len(matchings) == 2
        assert {mu.literal() for mu in matchings} == {"i1->s1", "i1->self"}

    def test_two_students_one_seat(self):
        p = Problem(
            ("i1", "i2"), ("s1",), {"s1": 1},
            {"i1": ("s1",), "i2": ("s1",)},
            {"s1": ("i1", "i2")},
        )
        # value produced by the product-filter oracle: three matchings
        assert brute_force_count(p) == 3
        assert len(enumerate_matchings(p)) == 3

    def test_trading_instance_matches_oracle(self, trading_instance, trading_universe):
        assert brute_force_count(trading_instance) == 115
        assert len(trading_universe) == 115
        assert len(set(trading_universe)) == 115

    def test_oracle_agreement_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_problem(rng, max_students=5, max_schools=4)
            assert len(enumerate_matchings(p)) == brute_force_count(p)

    def test_capacity_guard(self):
        students = tuple(f"i{k}" for k in range(12))
        schools = ("s1", "s2", "s3", "s4")
        p = Problem(
            students, schools, {s: 3 for s in schools},
            {i: schools for i in students},
            {s: students for s in schools},
        )
        with pytest.raises(CapacityError):
            enumerate_matchings(p, cap=1000)

    def test_includes_irrational_assignments(self):
        p = Problem(
            ("i1",), ("s1",), {"s1": 1}, {"i1": ()}, {"s1": ("i1",)}
        )
        # i1 finds no school acceptable, yet the assignment to s1 is feasible
        assert len(enumerate_matchings(p)) == 2


class TestMatchingInvariants:
    def test_quota_enforced_on_construction(self, trading_instance):
        with pytest.raises(ValidationError):
            matching_of(trading_instance, i1="s2", i2="s2", i3="s1", i4="s1")

    def test_missing_student_rejected(self, trading_instance):
        with pytest.raises(ValidationError):
            trading_instance.matching({"i1": "s1"})

    def test_roster_consistency(self, trading_instance, trading_goldens):
        mu = trading_goldens["ttc"]
        rosters = mu.rosters
        for i in trading_instance.students:
            a = mu.school_of(i)
            if a is not SELF:
                assert i in rosters[a]
        for s in trading_instance.schools:
            for i in rosters[s]:
                assert mu.school_of(i) == s


def student_view_problems(rng, count):
    """Seeded random problems, each with one student whose list is empty."""
    for _ in range(count):
        p = random_problem(rng, max_students=5, max_schools=3)
        prefs = dict(p.preferences)
        prefs[rng.choice(p.students)] = ()
        yield Problem(p.students, p.schools, p.quotas, prefs, p.priorities)


class TestMatchingViews:
    def test_views_match_per_student_definitions(self):
        rng = random.Random(4242)
        seen_self = 0
        for p in student_view_problems(rng, 40):
            m = len(p.schools)
            for mu in enumerate_matchings(p):
                seat = {
                    i: SELF if k == m else p.schools[k] for i, k in zip(p.students, mu._assign)
                }
                seen_self += SELF in seat.values()
                assert mu.assignment == seat
                assert all(mu.school_of(i) is seat[i] for i in p.students)
                rosters = {
                    s: frozenset(i for i in p.students if seat[i] == s) for s in p.schools
                }
                assert mu.rosters == rosters
                # built in student order, so iteration order matches too
                assert all(list(mu.rosters[s]) == list(r) for s, r in rosters.items())
                assert mu.literal() == ", ".join(
                    f"{i}->{'self' if seat[i] is SELF else seat[i]}" for i in p.students
                )
                assert p.matching(seat) == mu
        assert seen_self > 1000


def outcome(build):
    """What build() gives: the matching's vector, or the exception's type,
    message and diagnostics."""
    try:
        mu = build()
    except ValidationError as exc:
        return type(exc), str(exc), exc.diagnostics
    return mu.problem, mu._assign, hash(mu)


class TestReassign:
    def test_reassign_is_the_constructor_on_the_updated_assignment(self):
        rng = random.Random(1313)
        kinds = Counter()
        for _ in range(400):
            p = random_problem(rng, max_students=7, max_schools=4)
            mu = random_matching(rng, p)
            targets = list(p.schools) + [SELF, None, "s99"]
            for _ in range(8):
                movers = rng.sample(p.students, rng.randint(0, len(p.students)))
                movers += rng.sample(["i99", "x"], rng.choice([0, 0, 0, 1, 2]))
                changes = {i: rng.choice(targets) for i in movers}
                got = outcome(lambda: mu.reassign(changes))
                assert got == outcome(lambda: Matching(p, {**mu.assignment, **changes})), (
                    mu.literal(), changes)
                kinds[got[1].split(" ", 1)[0] if got[0] is ValidationError else "ok"] += 1
        # every outcome occurs: a matching, and each of the three exceptions
        assert set(kinds) == {"ok", "assignment", "student", "school"}
        assert min(kinds.values()) > 100

    def test_none_is_no_spelling_of_self(self, trading_instance):
        mu = trading_instance.empty_matching()
        message = "student 'i1' assigned to unknown school None"
        with pytest.raises(ValidationError, match=message):
            Matching(trading_instance, {**mu.assignment, "i1": None})
        with pytest.raises(ValidationError, match=message):
            mu.reassign({"i1": None})


class TestIndividualRationality:
    def test_trading_outcome(self, trading_instance, trading_goldens):
        assert is_individually_rational(trading_instance, trading_goldens["ttc"])

    def test_all_unmatched(self, trading_instance):
        assert is_individually_rational(
            trading_instance, trading_instance.empty_matching()
        )

    def test_unacceptable_school(self):
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ()}, {"s1": ("i1",)})
        assert not is_individually_rational(p, p.matching({"i1": "s1"}))


class TestNonWastefulness:
    def test_trading_outcome(self, trading_instance, trading_goldens):
        assert is_non_wasteful(trading_instance, trading_goldens["ttc"])

    def test_all_unmatched_wasteful(self, trading_instance):
        assert not is_non_wasteful(trading_instance, trading_instance.empty_matching())

    def test_everyone_on_top_choice(self):
        p = Problem(
            ("i1", "i2"), ("s1", "s2"), {"s1": 1, "s2": 1},
            {"i1": ("s1", "s2"), "i2": ("s2", "s1")},
            {"s1": ("i1", "i2"), "s2": ("i1", "i2")},
        )
        assert is_non_wasteful(p, p.matching({"i1": "s1", "i2": "s2"}))


class TestJustifiedEnvy:
    def test_deferred_acceptance_outcome_clean(self, trading_instance, trading_goldens):
        assert has_no_justified_envy(trading_instance, trading_goldens["da"])

    def test_trading_outcome_envied(self, trading_instance, trading_goldens):
        # i4 prefers s1 to s3 and outranks i2 there
        assert not has_no_justified_envy(trading_instance, trading_goldens["ttc"])

    def test_empty_matching_envy_free(self, trading_instance):
        assert has_no_justified_envy(
            trading_instance, trading_instance.empty_matching()
        )


class TestStability:
    def test_verdicts(self, trading_instance, trading_goldens):
        assert is_stable(trading_instance, trading_goldens["da"])
        assert not is_stable(trading_instance, trading_goldens["ttc"])
        assert not is_stable(trading_instance, trading_goldens["ia"])


class TestParetoDominance:
    def test_trading_dominates_deferred_acceptance(self, trading_instance, trading_goldens):
        assert pareto_dominates(
            trading_instance, trading_goldens["ttc"], trading_goldens["da"]
        )
        assert not pareto_dominates(
            trading_instance, trading_goldens["da"], trading_goldens["ttc"]
        )

    def test_irreflexive(self, trading_instance, trading_goldens):
        for mu in trading_goldens.values():
            assert not pareto_dominates(trading_instance, mu, mu)

    def test_irreflexive_and_transitive_on_small_instances(self):
        rng = random.Random(23)
        for _ in range(6):
            p = random_problem(rng, max_students=3, max_schools=2)
            matchings = enumerate_matchings(p)
            dom = {
                (a, b)
                for a in range(len(matchings))
                for b in range(len(matchings))
                if pareto_dominates(p, matchings[a], matchings[b])
            }
            assert not any((a, a) in dom for a in range(len(matchings)))
            for a, b in dom:
                for c in range(len(matchings)):
                    if (b, c) in dom:
                        assert (a, c) in dom


class TestParetoEfficiency:
    def test_trading_outcome_efficient(self, trading_instance, trading_goldens, trading_universe):
        assert is_pareto_efficient(
            trading_instance, trading_goldens["ttc"], universe=trading_universe
        )

    def test_deferred_acceptance_dominated(self, trading_instance, trading_goldens, trading_universe):
        assert not is_pareto_efficient(
            trading_instance, trading_goldens["da"], universe=trading_universe
        )

    def test_immediate_acceptance_efficient(self, trading_instance, trading_goldens, trading_universe):
        assert is_pareto_efficient(
            trading_instance, trading_goldens["ia"], universe=trading_universe
        )
