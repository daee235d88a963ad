import itertools
import random
import time

import pytest

from schoolchoice import (
    SELF,
    Matching,
    Problem,
    ValidationError,
    enumerate_matchings,
    is_individually_rational,
    is_non_wasteful,
    is_pareto_efficient,
    is_stable,
    run_ct,
    run_da,
    run_ettc,
    run_fct,
    run_ia,
    run_mechanism,
    run_ttc,
)

from schoolchoice.mechanisms import _Pointers

from conftest import matching_of, random_problem
from test_paths import market_problem


class TestTopTradingCycles:
    def test_trading_instance(self, trading_instance, trading_goldens):
        mu, trace = run_ttc(trading_instance)
        assert mu == trading_goldens["ttc"]
        assert [[str(c) for c in st.cycles] for st in trace.steps] == [
            ["(s1,i1)"],
            ["(s1,i3,s2,i2)"],
            ["(s3,i4)"],
        ]

    def test_seat_endowment_instance(self, seat_endowment_instance):
        mu, _ = run_ttc(seat_endowment_instance)
        assert mu == matching_of(
            seat_endowment_instance, i1="s1", i2="s3", i3="s2", i4="s1"
        )

    def test_empty_preferences_self_cycle(self):
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ()}, {"s1": ("i1",)})
        mu, trace = run_ttc(p)
        assert mu.school_of("i1") is SELF
        assert trace.steps[0].cycles[0].is_self_cycle


class TestDeferredAcceptance:
    def test_trading_instance(self, trading_instance, trading_goldens):
        assert run_da(trading_instance) == trading_goldens["da"]

    def test_seat_endowment_instance(self, seat_endowment_instance):
        assert run_da(seat_endowment_instance) == matching_of(
            seat_endowment_instance, i1="s1", i2="s1", i3="s2", i4="s3"
        )

    def test_single_pair(self):
        p = Problem(("i1",), ("s1",), {"s1": 1}, {"i1": ("s1",)}, {"s1": ("i1",)})
        assert run_da(p).school_of("i1") == "s1"


class TestImmediateAcceptance:
    def test_trading_instance(self, trading_instance, trading_goldens):
        assert run_ia(trading_instance) == trading_goldens["ia"]

    def test_distinct_top_choices(self):
        p = Problem(
            ("i1", "i2"), ("s1", "s2"), {"s1": 1, "s2": 1},
            {"i1": ("s1", "s2"), "i2": ("s2", "s1")},
            {"s1": ("i1", "i2"), "s2": ("i1", "i2")},
        )
        mu = run_ia(p)
        assert mu.school_of("i1") == "s1" and mu.school_of("i2") == "s2"

    def test_permanent_acceptance_blocks_later_round(self):
        p = Problem(
            ("i1", "i2"), ("s1", "s2"), {"s1": 1, "s2": 1},
            {"i1": ("s1", "s2"), "i2": ("s1", "s2")},
            {"s1": ("i2", "i1"), "s2": ("i1", "i2")},
        )
        mu = run_ia(p)
        assert mu.school_of("i2") == "s1"
        assert mu.school_of("i1") == "s2"


class TestFirstClinchAndTrade:
    def test_clinch_small_instance(self, clinch_small_instance):
        mu, trace = run_fct(clinch_small_instance)
        assert mu == matching_of(clinch_small_instance, i1="s1", i2="s1", i3="s2")
        # clinches: i2 up front, i1 at the very end; i3 trades in between
        assert trace.steps[0].clinch_rounds[0].clinches == [("i2", "s1")]
        assert [str(c) for c in trace.steps[1].cycles] == ["(s2,i3)"]
        assert trace.steps[2].clinch_rounds[0].clinches == [("i1", "s1")]

    def test_matches_plain_trading_when_guarantees_idle(self, trading_instance):
        assert run_fct(trading_instance)[0] == run_ttc(trading_instance)[0]

    def test_iterated_clinch_instance(self, iterated_clinch_instance):
        mu, _ = run_fct(iterated_clinch_instance)
        assert mu == matching_of(
            iterated_clinch_instance, i1="s2", i2="s1", i3="s1", i4="s3"
        )


class TestClinchAndTrade:
    def test_iterated_clinch_instance(self, iterated_clinch_instance):
        mu, trace = run_ct(iterated_clinch_instance)
        assert mu == matching_of(
            iterated_clinch_instance, i1="s1", i2="s1", i3="s2", i4="s3"
        )
        rounds = trace.steps[0].clinch_rounds
        assert [r.clinches for r in rounds] == [
            [("i4", "s3")],
            [("i2", "s1")],
            [("i3", "s2")],
        ]
        assert [str(c) for c in trace.steps[0].cycles] == ["(s1,i1)"]

    def test_clinch_small_instance(self, clinch_small_instance):
        assert run_ct(clinch_small_instance)[0] == run_fct(clinch_small_instance)[0]

    def test_trading_instance(self, trading_instance):
        assert run_ct(trading_instance)[0] == run_ttc(trading_instance)[0]


class TestEquitableTopTradingCycles:
    def test_seat_endowment_instance(self, seat_endowment_instance):
        mu, trace = run_ettc(seat_endowment_instance)
        assert mu == matching_of(
            seat_endowment_instance, i1="s1", i2="s3", i3="s1", i4="s2"
        )
        assert trace.steps[0].pairs == [
            ("i1", "s2"),
            ("i1", "s3"),
            ("i2", "s1"),
            ("i4", "s1"),
        ]
        assert len(trace.steps[0].pair_cycles) == 1
        assert len(trace.steps[0].pair_cycles[0]) == 4
        assert trace.steps[1].pairs == [("i3", "s1")]

    def test_clinch_small_instance(self, clinch_small_instance):
        assert run_ettc(clinch_small_instance)[0] == run_ttc(clinch_small_instance)[0]

    def test_trading_instance(self, trading_instance):
        assert run_ettc(trading_instance)[0] == run_ttc(trading_instance)[0]

    def test_iterated_clinch_instance(self, iterated_clinch_instance):
        assert run_ettc(iterated_clinch_instance)[0] == run_ttc(iterated_clinch_instance)[0]


class TestMechanismInvariants:
    MECHS = ("ttc", "da", "ia", "fct", "ct", "ettc")
    EFFICIENT = ("ttc", "ia", "fct", "ct", "ettc")

    def test_random_instances(self):
        rng = random.Random(97)
        for _ in range(120):
            p = random_problem(rng)
            universe = enumerate_matchings(p)
            for name in self.MECHS:
                mu, trace = run_mechanism(name, p)
                assert is_individually_rational(p, mu), name
                assert is_non_wasteful(p, mu), name
                if trace is not None:
                    seen = [i for st in trace.steps for i in st.matches]
                    assert sorted(seen) == sorted(p.students), name
            assert is_stable(p, run_da(p))
            for name in self.EFFICIENT:
                mu, _ = run_mechanism(name, p)
                assert is_pareto_efficient(p, mu, universe=universe), name

    def test_malformed_priorities_rejected_or_every_mechanism_runs(self):
        """Each priority order is drawn as a permutation, a proper prefix, a
        copy with a student repeated, a copy with an unknown student, or no
        order: the constructor names exactly the schools whose order is not
        a permutation, or every mechanism returns a feasible matching."""
        rng = random.Random(1111)
        built = rejected = 0
        for _ in range(300):
            base = random_problem(rng, max_students=6, max_schools=4)
            prios, bad = {}, set()
            for s in base.schools:
                order = list(base.priorities[s])
                kind = rng.choice(("permutation",) * 4 + ("prefix", "repeat", "unknown", "none"))
                if kind == "prefix":
                    order = order[: rng.randrange(len(order))]
                elif kind == "repeat":
                    order.insert(rng.randrange(len(order) + 1), rng.choice(order))
                elif kind == "unknown":
                    order[rng.randrange(len(order))] = "i99"
                if kind != "none":
                    prios[s] = tuple(order)
                if kind != "permutation":
                    bad.add(s)
            try:
                p = Problem(base.students, base.schools, base.quotas, base.preferences, prios)
            except ValidationError as err:
                named = {s for s in base.schools if any(repr(s) in d for d in err.diagnostics)}
                assert named == bad
                rejected += 1
                continue
            assert not bad
            for name in self.MECHS:
                mu, _ = run_mechanism(name, p)
                assert isinstance(mu, Matching) and mu.problem is p, name
            built += 1
        assert built > 50 and rejected > 50

    def test_capacity_never_negative_in_traces(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_problem(rng)
            for name in ("ttc", "fct", "ct", "ettc"):
                _, trace = run_mechanism(name, p)
                for st in trace.steps:
                    assert all(q >= 0 for q in st.capacities.values())


class TestStepLoop:
    """The one step loop of the trading mechanisms stops a run whose step
    matched no one, instead of looping on it."""

    def test_a_step_that_matches_no_one_raises(self, trading_instance):
        with pytest.raises(AssertionError, match="fct made no progress"):
            _Pointers(trading_instance).run("fct", lambda record: None)

    def test_ttc_stops_when_a_trading_round_matches_no_one(
        self, trading_instance, monkeypatch
    ):
        calls = []

        def trade(self, step, held=()):
            calls.append(step)
            if len(calls) > 50:
                raise RuntimeError("trading rounds never stop")

        monkeypatch.setattr(_Pointers, "trade", trade)
        with pytest.raises(AssertionError, match="ttc made no progress"):
            run_ttc(trading_instance)


def _heir_problem(rng: random.Random) -> Problem:
    """Up to 30 students and 6 schools; lists of any length, the empty one
    included, and quotas from 1 to two above the number of students."""
    n, m = rng.randint(1, 30), rng.randint(1, 6)
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    quotas = {s: rng.randint(1, n + 2) for s in schools}
    prefs = {i: tuple(rng.sample(schools, rng.randint(0, m))) for i in students}
    prios = {s: tuple(rng.sample(students, n)) for s in schools}
    return Problem(students, schools, quotas, prefs, prios)


def _top_unmatched(p: Problem, s: str, matched, capacity: dict) -> list:
    """The capacity[s] highest-priority students at s not in matched."""
    return [i for i in p.priorities[s] if i not in matched][: capacity[s]]


def _in_student_order(p: Problem, students) -> tuple:
    return tuple(sorted(students, key=p.student_index))


def _best_with_a_seat(p: Problem, i: str, capacity: dict):
    return next((s for s in p.preferences[i] if capacity[s] > 0), SELF)


def _ia_by_definition(p: Problem) -> Matching:
    """Immediate acceptance, round by round: every unmatched student applies
    to her next choice, and each school admits its highest-priority
    applicants up to the seats it has left."""
    seats = {s: p.quota(s) for s in p.schools}
    school_of = dict.fromkeys(p.students, SELF)
    for r in range(len(p.schools)):
        applying = {i for i in p.students if school_of[i] is SELF and r < len(p.preferences[i])}
        for s in p.schools:
            admitted = [i for i in p.priorities[s]
                        if i in applying and p.preferences[i][r] == s][: seats[s]]
            for i in admitted:
                school_of[i] = s
            seats[s] -= len(admitted)
    return p.matching(school_of)


class TestHeirsAgainstPriorityOrders:
    """FCT's and CT's guarantees, clinches and exclusions, ETTC's seat
    endowments and IA's outcome, recomputed from the priority orders and
    the trace's own capacities and matches alone."""

    PROBLEMS = 200

    def problems(self, seed: int) -> list:
        rng = random.Random(seed)
        problems = [_heir_problem(rng) for _ in range(self.PROBLEMS)]
        return problems + [market_problem(rng, rng.randint(10, 200), rng.randint(3, 8))
                           for _ in range(20)]

    def test_fct_guarantees_and_clinches(self):
        # a school guarantees its seats to its first quota students by
        # priority, once; each step a student clinches the best school with
        # a seat left if it guarantees her one
        clinched = 0
        for p in self.problems(1215):
            _, trace = run_fct(p)
            g = {s: _in_student_order(p, p.priorities[s][: p.quota(s)]) for s in p.schools}
            assert trace.guarantees_initial == g, p
            matched: set = set()
            for st in trace.steps:
                [r] = st.clinch_rounds
                assert (r.round, r.guarantees) == (1, g), (p, st.step)
                best = {i: _best_with_a_seat(p, i, st.capacities)
                        for i in p.students if i not in matched}
                assert r.clinches == [(i, s) for i, s in best.items()
                                      if s is not SELF and i in g[s]], (p, st.step)
                clinched += len(r.clinches)
                matched.update(st.matches)
        assert clinched

    def test_ct_excluded(self):
        # after step 1, the students who skip clinching are the unmatched
        # ones whose pointer school in the last trading round, the best with
        # a seat once that step's clinches took theirs, still has a seat
        excluded = 0
        for p in self.problems(1216):
            _, trace = run_ct(p)
            assert trace.steps[0].excluded == (), p
            matched: set = set()
            for last, st in zip(trace.steps, trace.steps[1:]):
                capacity = dict(last.capacities)
                for r in last.clinch_rounds:
                    for _, s in r.clinches:
                        capacity[s] -= 1
                matched.update(last.matches)
                pointer = {i: _best_with_a_seat(p, i, capacity)
                           for i in p.students if i not in matched}
                assert st.excluded == tuple(
                    i for i, s in pointer.items() if s is not SELF and st.capacities[s] > 0
                ), (p, st.step)
                excluded += len(st.excluded)
        assert excluded

    def test_ia_against_its_definition(self):
        rng = random.Random(1217)
        for _ in range(500):
            p = market_problem(rng, rng.randint(10, 80), rng.randint(3, 8))
            assert run_ia(p) == _ia_by_definition(p), p

    def test_ct_guarantees_and_clinches(self):
        rng = random.Random(1212)
        for _ in range(self.PROBLEMS):
            p = _heir_problem(rng)
            _, trace = run_ct(p)
            matched: set = set()
            for st in trace.steps:
                capacity, barred = dict(st.capacities), set(st.excluded)

                def guarantees():
                    return {
                        s: tuple(
                            i
                            for i in _in_student_order(p, _top_unmatched(p, s, matched, capacity))
                            if i not in barred
                        )
                        for s in p.schools
                    }

                def clinches(g):
                    return [
                        (i, p.preferences[i][0])
                        for i in p.students
                        if i not in matched and p.preferences[i]
                        and i in g[p.preferences[i][0]]
                    ]

                for k, r in enumerate(st.clinch_rounds, 1):
                    assert r.round == k
                    g = guarantees()
                    assert r.guarantees == g, (p, st.step, k)
                    assert r.clinches == clinches(g), (p, st.step, k)
                    for i, s in r.clinches:
                        matched.add(i)
                        capacity[s] -= 1
                assert not clinches(guarantees()), (p, st.step)
                matched.update(st.matches)

    def test_ct_reads_no_heir_window_after_trading(self, monkeypatch):
        # no student can clinch after step 1, so CT computes no guarantee
        # once its first trading round has run
        heirs, trade = _Pointers.heirs, _Pointers.trade

        def traded(ptrs, *args, **kwargs):
            ptrs.traded = True
            return trade(ptrs, *args, **kwargs)

        def guarded(ptrs, s):
            if getattr(ptrs, "traded", False):
                raise RuntimeError(f"heir window of {s} read after trading")
            return heirs(ptrs, s)

        monkeypatch.setattr(_Pointers, "trade", traded)
        monkeypatch.setattr(_Pointers, "heirs", guarded)
        rng = random.Random(1214)
        problems = [_heir_problem(rng) for _ in range(self.PROBLEMS)]
        problems += [market_problem(rng, rng.randint(10, 200), rng.randint(3, 8))
                     for _ in range(10)]
        for p in problems:
            _, trace = run_ct(p)
            assert all(not st.clinch_rounds for st in trace.steps[1:]), p

    def test_ettc_pairs_and_holders(self):
        rng = random.Random(1213)
        for _ in range(self.PROBLEMS):
            p = _heir_problem(rng)
            _, trace = run_ettc(p)
            matched: set = set()
            for st in trace.steps:
                heirs = {s: _top_unmatched(p, s, matched, st.capacities) for s in p.schools}
                pairs = sorted(
                    ((i, s) for s in p.schools for i in heirs[s]),
                    key=lambda pair: (p.student_index(pair[0]), p.school_index(pair[1])),
                )
                assert st.pairs == pairs, (p, st.step)
                paired = {s for _, s in pairs}
                for cyc in st.pair_cycles:
                    for (i, s), nxt in zip(cyc, cyc[1:] + cyc[:1]):
                        best = next(t for t in p.preferences[i] if t in paired)
                        holder = min(heirs[best], key=lambda j: p.priority_rank(s, j))
                        assert nxt == (holder, best), (p, st.step, (i, s))
                matched.update(st.matches)


class TestMarketScale:
    """Trading keeps one pointer state across its steps, so a step costs
    about the schools plus the students it moves, not students x schools;
    CT's guarantees and ETTC's heirs come from heir windows kept the same
    way, not from ranking the whole pool at every school each round."""

    @staticmethod
    def market(n: int) -> Problem:
        """n students, 20 schools of n // 20 seats, lists of four."""
        rng = random.Random(2212)
        students = tuple(f"i{k}" for k in range(1, n + 1))
        schools = tuple(f"s{k}" for k in range(1, 21))
        prefs = {i: tuple(rng.sample(schools, 4)) for i in students}
        prios = {s: tuple(rng.sample(students, len(students))) for s in schools}
        return Problem(students, schools, dict.fromkeys(schools, n // 20), prefs, prios)

    @staticmethod
    def assert_runs_within(p: Problem, run, seconds: float) -> None:
        start = time.perf_counter()
        mu, _ = run(p)
        elapsed = time.perf_counter() - start
        assert elapsed < seconds, (run.__name__, elapsed)
        assert is_individually_rational(p, mu), run.__name__
        assert is_non_wasteful(p, mu), run.__name__

    def test_ttc_and_fct_on_5000_students(self):
        p = self.market(5000)
        for run in (run_ttc, run_fct):
            self.assert_runs_within(p, run, 2.0)

    def test_ct_on_2000_students(self):
        self.assert_runs_within(self.market(2000), run_ct, 1.0)

    def test_ettc_on_7000_students(self):
        # ETTC still walks its whole pair graph at every step, so its time
        # grows faster than CT's; the market is this large so that a bound
        # with threefold headroom still catches a return to ranking the
        # whole pool in each round
        self.assert_runs_within(self.market(7000), run_ettc, 9.0)


def all_preference_lists(schools):
    out = []
    for r in range(len(schools) + 1):
        out.extend(itertools.permutations(schools, r))
    return out


class TestStrategyProofnessSpotCheck:
    """No unilateral misreport strictly helps under trading or deferred
    acceptance.  Exhaustive over two-student/two-school problems; seeded
    sampling over the three-by-three family, every misreport tried."""

    def _assert_no_profitable_lie(self, p):
        for mech in ("ttc", "da"):
            truth, _ = run_mechanism(mech, p)
            for i in p.students:
                for alt in all_preference_lists(p.schools):
                    if alt == p.preferences[i]:
                        continue
                    q = Problem(
                        p.students, p.schools, p.quotas,
                        {**p.preferences, i: alt}, p.priorities,
                    )
                    lied, _ = run_mechanism(mech, q)
                    assert not p.prefers(i, lied.school_of(i), truth.school_of(i)), (
                        mech, i, alt,
                    )

    def test_exhaustive_two_by_two(self):
        schools = ("s1", "s2")
        students = ("i1", "i2")
        pref_options = all_preference_lists(schools)
        prio_options = list(itertools.permutations(students))
        for p1, p2 in itertools.product(pref_options, repeat=2):
            for f1, f2 in itertools.product(prio_options, repeat=2):
                for q1, q2 in itertools.product((1, 2), repeat=2):
                    p = Problem(
                        students, schools, {"s1": q1, "s2": q2},
                        {"i1": p1, "i2": p2}, {"s1": f1, "s2": f2},
                    )
                    self._assert_no_profitable_lie(p)

    def test_sampled_three_by_three(self):
        rng = random.Random(5150)
        for _ in range(150):
            p = random_problem(rng, max_students=3, max_schools=3)
            self._assert_no_profitable_lie(p)
