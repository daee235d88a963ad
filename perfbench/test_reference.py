"""The reference computations checked on the four worked instances.

Expected values are the paper's and the README's, written out here, never
the library's output.  Run with `python3 perfbench/test_reference.py` or
under pytest.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from gen import (  # noqa: E402
    CLINCH_SMALL, ITERATED_CLINCH, SEAT_ENDOWMENT, TRADING, literal, parse_literal,
)

T_TTC = "i1->s1, i2->s1, i3->s2, i4->s3"
T_DA = "i1->s1, i2->s2, i3->s1, i4->s3"
T_IA = "i1->s1, i2->s3, i3->s2, i4->s1"
DETOURS = [
    "i1->s1, i2->self, i3->s2, i4->s1",
    "i1->s1, i2->s3, i3->s2, i4->s1",
    "i1->s1, i2->s2, i3->self, i4->s1",
    "i1->s1, i2->s2, i3->s3, i4->s1",
]
DETOUR5 = "i1->s1, i2->s2, i3->s1, i4->self"
WALKTHROUGH = {
    "horizon": "farsighted",
    "matchings": [
        "i1->s1, i2->s2, i3->s3, i4->s1",
        "i1->s1, i2->s2, i3->s1, i4->self",
        "i1->s1, i2->self, i3->self, i4->self",
        "i1->s1, i2->s1, i3->s2, i4->self",
        T_TTC,
    ],
    "steps": [
        {"coalition": {"students": ["i2", "i3"], "schools": ["s1", "s2"]}},
        {"coalition": {"students": ["i2", "i3"], "schools": []}},
        {"coalition": {"students": ["i2", "i3"], "schools": ["s1", "s2"]}},
        {"coalition": {"students": ["i4"], "schools": ["s3"]}},
    ],
}


def test_mechanism_goldens():
    goldens = [
        (TRADING, T_TTC, T_DA),
        (CLINCH_SMALL, "i1->s2, i2->s1, i3->s1", "i1->s1, i2->s1, i3->s2"),
        (ITERATED_CLINCH, "i1->s2, i2->s1, i3->s1, i4->s3", "i1->s1, i2->s1, i3->s2, i4->s3"),
        (SEAT_ENDOWMENT, "i1->s1, i2->s3, i3->s2, i4->s1", "i1->s1, i2->s1, i3->s2, i4->s3"),
    ]
    for spec, ttc, da in goldens:
        assert literal(spec, ref.top_trading_cycles(spec)) == ttc
        assert literal(spec, ref.deferred_acceptance(spec)) == da


def test_matching_properties():
    ttc, da, ia = (parse_literal(x) for x in (T_TTC, T_DA, T_IA))
    # DA is stable: rational, not wasteful, no justified envy
    assert ref.individually_rational(TRADING, da)
    assert not ref.wasteful_students(TRADING, da) and not ref.justified_envy(TRADING, da)
    # TTC and IA are efficient; TTC Pareto dominates DA
    assert ref.pareto_efficient(TRADING, ttc) and ref.pareto_efficient(TRADING, ia)
    assert not ref.pareto_efficient(TRADING, da)
    # under TTC, i4 prefers s1 and outranks its occupant i2 there
    assert ref.justified_envy(TRADING, ttc) == [("i4", "s1")]
    empty = {i: None for i in TRADING.students}
    assert ref.wasteful_students(TRADING, empty) == list(TRADING.students)
    assert not ref.pareto_efficient(TRADING, empty)


def test_trading_reachability():
    universe = ref.all_matchings(TRADING)
    assert len(universe) == 115
    index = {literal(TRADING, m): k for k, m in enumerate(universe)}
    reach = ref.Reach(TRADING, universe)
    to_ttc = reach.sources(index[T_TTC])
    assert len(to_ttc) == 114  # TTC is reachable from every other matching
    to_da = reach.sources(index[T_DA])
    for key in DETOURS + [DETOUR5]:
        assert index[key] in to_da
    phi_da = {t for t in range(115) if t != index[T_DA] and index[T_DA] in reach.sources(t)}
    assert phi_da == {index[T_TTC]}
    phi_ttc = {t for t in range(115) if t != index[T_TTC] and index[T_TTC] in reach.sources(t)}
    assert phi_ttc == {index[key] for key in DETOURS}
    # with paths of at most three moves TTC is already reached from DA
    assert index[T_TTC] in reach.within(index[T_DA], 3)


def test_certificate_checker():
    assert ref.certificate_violation(TRADING, WALKTHROUGH) is None
    assert ref.certificate_violation(TRADING, {**WALKTHROUGH, "horizon": 3}) is None
    myopic = ref.certificate_violation(TRADING, {**WALKTHROUGH, "horizon": 1})
    assert myopic is not None and myopic.startswith("step 1:")
    reverse = {
        "horizon": "farsighted",
        "matchings": WALKTHROUGH["matchings"][::-1],
        "steps": WALKTHROUGH["steps"][::-1],
    }
    assert ref.certificate_violation(TRADING, reverse) is not None
    # the first move needs both gaining schools in the coalition
    missing = {**WALKTHROUGH, "steps": [
        {"coalition": {"students": ["i2", "i3"], "schools": ["s2"]}}
    ] + WALKTHROUGH["steps"][1:]}
    assert ref.certificate_violation(TRADING, missing) == "step 0: newcomers of s1 not enforced"


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
