import random

import pytest

from schoolchoice import (
    FARSIGHTED,
    PathCertificate,
    Problem,
    build_path_to_ct,
    build_path_to_ettc,
    build_path_to_fct,
    build_path_to_ttc,
    enumerate_matchings,
    run_ct,
    run_ettc,
    run_fct,
    run_mechanism,
    run_ttc,
    school_move_admissible,
    validate_path,
    validate_path_horizon,
)
from schoolchoice.mechanisms import MechanismTrace
from schoolchoice.model import SELF
from schoolchoice.paths import (
    ConstructionError, ConstructionLog, IdentityError, _PathAccumulator,
)
from schoolchoice.textio import dump_certificate, load_certificate

from conftest import matching_of, random_matching, random_problem

BUILDERS = {
    "ttc": (build_path_to_ttc, run_ttc),
    "fct": (build_path_to_fct, run_fct),
    "ct": (build_path_to_ct, run_ct),
    "ettc": (build_path_to_ettc, run_ettc),
}


class TestWalkthroughSequences:
    def test_trading_path(self, trading_instance, trading_goldens):
        cert = build_path_to_ttc(trading_instance, trading_goldens["walkthrough_start"])
        assert [m.literal() for m in cert.matchings] == [
            "i1->s1, i2->s2, i3->s3, i4->s1",
            "i1->s1, i2->s2, i3->s1, i4->self",
            "i1->s1, i2->self, i3->self, i4->self",
            "i1->s1, i2->s1, i3->s2, i4->self",
            "i1->s1, i2->s1, i3->s2, i4->s3",
        ]
        coalitions = [
            (sorted(st.coalition.students), sorted(st.coalition.schools))
            for st in cert.steps
        ]
        assert coalitions == [
            (["i2", "i3"], ["s1", "s2"]),
            (["i2", "i3"], []),
            (["i2", "i3"], ["s1", "s2"]),
            (["i4"], ["s3"]),
        ]

    def test_clinch_path(self, clinch_small_instance):
        start = matching_of(clinch_small_instance, i1="s2", i2="s1", i3="s1")
        cert = build_path_to_fct(clinch_small_instance, start)
        assert [m.literal() for m in cert.matchings] == [
            "i1->s2, i2->s1, i3->s1",
            "i1->self, i2->s1, i3->s2",
            "i1->s1, i2->s1, i3->s2",
        ]
        coalitions = [
            (sorted(st.coalition.students), sorted(st.coalition.schools))
            for st in cert.steps
        ]
        assert coalitions == [(["i3"], ["s2"]), (["i1"], ["s1"])]

    def test_iterated_clinch_path(self, iterated_clinch_instance):
        start = matching_of(iterated_clinch_instance, i1="s2", i2="s1", i3="s1", i4="s3")
        cert = build_path_to_ct(iterated_clinch_instance, start)
        assert [m.literal() for m in cert.matchings] == [
            "i1->s2, i2->s1, i3->s1, i4->s3",
            "i1->self, i2->s1, i3->s2, i4->s3",
            "i1->s1, i2->s1, i3->s2, i4->s3",
        ]

    def test_seat_endowment_path(self, seat_endowment_instance):
        start = matching_of(seat_endowment_instance, i1="s1", i2="s3", i3="s2", i4="s1")
        cert = build_path_to_ettc(seat_endowment_instance, start)
        assert [m.literal() for m in cert.matchings] == [
            "i1->s1, i2->s3, i3->s2, i4->s1",
            "i1->s2, i2->s1, i3->self, i4->s1",
            "i1->self, i2->self, i3->self, i4->self",
            "i1->s1, i2->s3, i3->self, i4->s2",
            "i1->s1, i2->s3, i3->s1, i4->s2",
        ]
        coalitions = [
            (sorted(st.coalition.students), sorted(st.coalition.schools))
            for st in cert.steps
        ]
        assert coalitions == [
            (["i1", "i2", "i4"], ["s1", "s2"]),
            (["i1", "i2", "i4"], []),
            (["i1", "i2", "i4"], ["s1", "s2", "s3"]),
            (["i3"], ["s1"]),
        ]


class TestBuilderBasics:
    def test_identity_rejected(self, trading_instance):
        target, _ = run_ttc(trading_instance)
        with pytest.raises(IdentityError):
            build_path_to_ttc(trading_instance, target)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_replay_short_of_the_outcome_raises(self, name, trading_instance, monkeypatch):
        # an empty trace replays no move, so the start is not the outcome
        builder, runner = BUILDERS[name]
        target, _ = runner(trading_instance)
        empty = (target, MechanismTrace(name, []))
        monkeypatch.setattr(f"schoolchoice.paths.{runner.__name__}", lambda problem: empty)
        with pytest.raises(ConstructionError, match="instead of the mechanism outcome"):
            builder(trading_instance, target.reassign({"i1": SELF}))

    def test_single_alignment_move(self, clinch_small_instance):
        target, _ = run_fct(clinch_small_instance)
        start = target.reassign({"i1": SELF})
        cert = build_path_to_fct(clinch_small_instance, start)
        assert len(cert.steps) == 1
        assert cert.end == target

    def test_single_completion_move(self, seat_endowment_instance):
        target, _ = run_ettc(seat_endowment_instance)
        start = target.reassign({"i3": SELF})
        cert = build_path_to_ettc(seat_endowment_instance, start)
        assert len(cert.steps) == 1
        assert sorted(cert.steps[0].coalition.students) == ["i3"]
        assert sorted(cert.steps[0].coalition.schools) == ["s1"]

    def test_log_moves_appear_in_order(self, trading_instance, trading_goldens):
        log = ConstructionLog()
        cert = build_path_to_ttc(
            trading_instance, trading_goldens["walkthrough_start"], log
        )
        logged = [m for _, _, m in log.entries]
        pos = 0
        for mu in cert.matchings[1:]:
            pos = logged.index(mu, pos) + 1  # raises if out of order


def exhaustive_instance_check(problem, universe):
    for name, (builder, runner) in BUILDERS.items():
        target, trace = runner(problem)
        n_cycles = sum(
            len(st.cycles) + len(st.pair_cycles) for st in trace.steps
        )
        n_alignments = sum(len(st.clinch_rounds) for st in trace.steps)
        bound = 3 * n_cycles + n_alignments + 1
        for mu in universe:
            if mu == target:
                continue
            cert = builder(problem, mu)
            assert cert.end == target, (name, mu.literal())
            assert validate_path(problem, cert) is None, (name, mu.literal())
            assert len(cert.steps) <= bound, (name, mu.literal())


class TestExhaustiveOverWorkedInstances:
    def test_trading_instance(self, trading_instance, trading_universe):
        exhaustive_instance_check(trading_instance, trading_universe)

    def test_clinch_small_instance(self, clinch_small_instance):
        exhaustive_instance_check(
            clinch_small_instance, enumerate_matchings(clinch_small_instance)
        )

    def test_iterated_clinch_instance(self, iterated_clinch_instance):
        exhaustive_instance_check(
            iterated_clinch_instance, enumerate_matchings(iterated_clinch_instance)
        )

    def test_seat_endowment_instance(self, seat_endowment_instance):
        exhaustive_instance_check(
            seat_endowment_instance, enumerate_matchings(seat_endowment_instance)
        )


class TestHorizonProperties:
    def test_trading_paths_validate_three_ahead(self, trading_instance, trading_universe):
        target, _ = run_ttc(trading_instance)
        for mu in trading_universe:
            if mu == target:
                continue
            cert = build_path_to_ttc(trading_instance, mu)
            bounded = PathCertificate(cert.matchings, cert.steps, 3)
            assert validate_path_horizon(trading_instance, bounded) is None

    def test_one_ahead_fails_on_the_walkthrough(self, trading_instance, trading_goldens):
        cert = build_path_to_ttc(trading_instance, trading_goldens["walkthrough_start"])
        bounded = PathCertificate(cert.matchings, cert.steps, 1)
        assert validate_path_horizon(trading_instance, bounded) is not None


class TestRandomInstances:
    def test_builders_on_sampled_instances(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 25:
            p = random_problem(rng, max_students=4, max_schools=3)
            universe = enumerate_matchings(p, cap=3000)
            if len(universe) > 130:
                continue
            checked += 1
            for name, (builder, runner) in BUILDERS.items():
                target, _ = runner(p)
                for mu in universe:
                    if mu == target:
                        continue
                    cert = builder(p, mu)
                    assert cert.end == target, (name, p, mu.literal())
                    assert validate_path(p, cert) is None, (name, p, mu.literal())


def market_problem(rng, n, m):
    """n students and m schools with about n seats in all; each student
    lists a random subset of the schools in random order."""
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    quotas = {s: max(1, round(rng.uniform(0.6, 1.6) * n / m)) for s in schools}
    prefs = {i: tuple(rng.sample(schools, rng.randint(0, m))) for i in students}
    prios = {s: tuple(rng.sample(students, n)) for s in schools}
    return Problem(students, schools, quotas, prefs, prios)


class TestMarketStarts:
    def test_certificates_validate(self):
        # sized so that an ETTC replay without the seat hand-off fails here
        rng = random.Random(1414)
        for _ in range(400):
            p = market_problem(rng, rng.randint(10, 40), rng.randint(3, 8))
            start = random_matching(rng, p)
            for name, (builder, _) in BUILDERS.items():
                try:
                    cert = builder(p, start)
                except IdentityError:
                    continue
                violation = validate_path(p, cert)
                assert violation is None, (name, p, start.literal(), str(violation))


class TestClearFallback:
    @pytest.mark.parametrize("name", BUILDERS)
    def test_clear_precedes_a_join_a_school_refuses(self, name, monkeypatch):
        # the movers vacate first only where a school they join cannot
        # admit its newcomers by the school rule
        builder, _ = BUILDERS[name]
        join, replaced = _PathAccumulator.join, []

        def spy(acc, moves, phase, detail, clear=None):
            cur, target, n = acc.current, acc.joined(moves), len(acc.log.entries)
            join(acc, moves, phase, detail, clear)
            if any(d == clear for _, d, _ in acc.log.entries[n:]):
                replaced.append((cur, target, set(moves.values())))

        monkeypatch.setattr(_PathAccumulator, "join", spy)
        rng = random.Random(528)
        for _ in range(3000):
            p = random_problem(rng, 6, 4)
            start, log = random_matching(rng, p), ConstructionLog()
            try:
                cert = builder(p, start, log)
            except IdentityError:
                continue
            if replaced:
                break
        else:
            pytest.fail(f"no {name} replay clears on 3000 seeded starts")
        assert any(detail.startswith("clear ") for _, detail, _ in log.entries)
        assert validate_path(p, cert) is None, (p, start.literal())
        for cur, target, schools in replaced:
            assert target != cur
            assert not all(school_move_admissible(p, s, cur, target) for s in schools)


class TestCertificateRoundTrip:
    def test_builder_certificates_survive_json(self):
        rng = random.Random(1414)
        built = 0
        for n in range(10, 41, 2):
            p = market_problem(rng, n, rng.randint(3, 8))
            start = random_matching(rng, p)
            for name, (builder, _) in BUILDERS.items():
                try:
                    cert = builder(p, start)
                except IdentityError:
                    continue
                built += 1
                back = load_certificate(p, dump_certificate(cert))
                assert back.matchings == cert.matchings, name
                assert [st.coalition for st in back.steps] == [
                    st.coalition for st in cert.steps], name
                assert back.horizon == cert.horizon, name
                assert str(validate_path(p, back)) == str(validate_path(p, cert)), name
        assert built >= 60


def parsed(students, schools, quotas, prefs, prios):
    return Problem(
        tuple(students.split()),
        tuple(schools.split()),
        quotas,
        {i: tuple(p.split()) for i, p in prefs.items()},
        {s: tuple(f.split()) for s, f in prios.items()},
    )


class TestKnownBuilderDefects:
    """Builder defects, each reproduced on one small instance; an xfail
    marks one still open."""

    def test_seat_trading_certificate_validates(self):
        p = parsed(
            "i1 i2 i3 i4", "s1 s2 s3", {"s1": 1, "s2": 2, "s3": 2},
            {"i1": "s3 s2 s1", "i2": "s2 s3 s1", "i3": "s1 s3 s2", "i4": "s1 s2 s3"},
            {"s1": "i2 i3 i4 i1", "s2": "i4 i1 i2 i3", "s3": "i3 i2 i1 i4"},
        )
        start = matching_of(p, i1="s2", i2="s2", i3="s1", i4="s3")
        violation = validate_path(p, build_path_to_ettc(p, start))
        assert violation is None, str(violation)

    @pytest.mark.xfail(strict=True, reason="step 0: student i2 does not weakly improve")
    def test_trading_certificate_validates_three_ahead(self, ttc_h3_case):
        p, start = ttc_h3_case
        cert = build_path_to_ttc(p, start)
        assert validate_path(p, cert) is None
        violation = validate_path_horizon(p, PathCertificate(cert.matchings, cert.steps, 3))
        assert violation is None, str(violation)
