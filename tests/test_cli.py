import argparse
import io
import json
import random
import re
import sys
from collections import Counter

import pytest

from schoolchoice.cli import main
from schoolchoice.textio import (
    InstanceParseError,
    dump_certificate,
    load_certificate,
    parse_instance,
    parse_matching,
    serialize_instance,
)
from schoolchoice import SELF, Matching, Problem, ValidationError, build_path_to_ttc, farsight

from conftest import random_problem

TRADING_INSTANCE = """\
# four students, three schools
students: i1 i2 i3 i4
schools: s1 s2 s3
quota s1 = 2
quota s2 = 1
quota s3 = 1
pref i1: s1 s2 s3
pref i2: s1 s2 s3
pref i3: s2 s1 s3
pref i4: s1 s3 s2
priority s1: i1 i3 i4 i2
priority s2: i1 i2 i4 i3
priority s3: i2 i3 i4 i1
"""


SMALL_INSTANCE = """\
students: i1 i2
schools: s1 s2
quota s1 = 1
quota s2 = 1
pref i1: s1 s2
pref i2: s2
priority s1: i1 i2
priority s2: i2 i1
"""


START = "i1->s1, i2->s2, i3->s3, i4->s1"


def with_first_coalition(cert, coalition):
    return {**cert, "steps": [{"coalition": coalition}] + cert["steps"][1:]}


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "trading.instance"
    path.write_text(TRADING_INSTANCE, encoding="utf-8")
    return str(path)


class TestInstanceFormat:
    def test_round_trip(self):
        problem = parse_instance(TRADING_INSTANCE)
        canonical = serialize_instance(problem)
        again = parse_instance(canonical)
        assert serialize_instance(again) == canonical
        assert again.quotas == {"s1": 2, "s2": 1, "s3": 1}

    def test_missing_priority_line(self):
        text = TRADING_INSTANCE.replace("priority s2: i1 i2 i4 i3\n", "")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert any("s2" in d for d in err.value.diagnostics)

    def test_duplicated_preference_school(self):
        text = TRADING_INSTANCE.replace("pref i1: s1 s2 s3", "pref i1: s1 s1 s3")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert any("twice" in d for d in err.value.diagnostics)

    def test_line_numbers_in_diagnostics(self):
        text = TRADING_INSTANCE + "nonsense here\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert any(d.startswith("line 14") and "nonsense" in d for d in err.value.diagnostics)

    def test_sections_out_of_order(self):
        text = "schools: s1\nstudents: i1\nquota s1 = 1\npref i1: s1\npriority s1: i1\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert any("out of order" in d for d in err.value.diagnostics)

    def test_names_a_literal_cannot_carry(self):
        # a school `Self` would read back from a literal as staying unmatched
        text = TRADING_INSTANCE.replace("s3", "Self").replace("s2", "s,2")
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.diagnostics == [
            "identifier 's,2' cannot be written in a matching literal",
            "school 'Self' is named self, which matching literals reserve",
        ]

    @pytest.mark.parametrize("students, schools, refused", [
        (("i1",), (":s",), ":s"),  # `pref i1: :s` read back as a line of 'i1:'
        ((":i", "i2"), ("s1",), ":i"),  # `priority s1: :i i2` as a row of 's1:'
        (("a:b", "i2"), ("s1",), None),
        (("i1",), ("s:",), None),
    ], ids=["school", "student", "inner-colon", "trailing-colon"])
    def test_leading_colon_in_a_name(self, students, schools, refused):
        args = (students, schools, dict.fromkeys(schools, 1),
                dict.fromkeys(students, schools), dict.fromkeys(schools, students))
        if refused is None:
            problem = Problem(*args)
            assert parse_instance(serialize_instance(problem)) == problem
            return
        with pytest.raises(ValidationError) as err:
            Problem(*args)
        assert err.value.diagnostics == [
            f"identifier {refused!r} cannot be written in an instance document"
        ]

    def test_semicolon_in_a_name_exits_2(self, tmp_path, capsys):
        # `check-set --set` and `find-sets` separate literals with `;`, so
        # `i;1->self` would read back as two malformed terms
        path = tmp_path / "semicolon.instance"
        path.write_text("students: i;1 i2\nschools: s1\nquota s1 = 1\npref i;1: s1\n"
                        "pref i2: s1\npriority s1: i2 i;1\n", encoding="utf-8")
        code = main(["solve", str(path), "--mechanism", "ttc"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: identifier 'i;1' cannot be written in a set of matchings\n"


    @pytest.mark.parametrize("text, diagnostics", [
        (SMALL_INSTANCE + "nonsense here\n", ["line 9: unrecognised line 'nonsense here'"]),
        ("schools: s1\nstudents: i1\nquota s1 = 1\npref i1: s1\npriority s1: i1\n",
         ["line 2: students section out of order (expected schools lines or later sections)"]),
        (SMALL_INSTANCE.replace("quota s2 = 1\n", "") + "quota s2 = 1\nstudents: i3\n",
         ["line 8: quota section out of order (expected priority lines or later sections)",
          "line 9: students section out of order (expected priority lines or later sections)",
          "line 9: duplicate students section"]),
        (SMALL_INSTANCE.replace("schools:", "students: i3\nschools:"),
         ["line 2: duplicate students section"]),
        (SMALL_INSTANCE.replace("quota s1", "schools: s3\nquota s1"),
         ["line 3: duplicate schools section"]),
        ("students:\nschools: s1\n",
         ["line 1: students section is empty", "missing students section"]),
        (SMALL_INSTANCE.replace("schools: s1 s2", "schools:"),
         ["line 2: schools section is empty", "missing schools section"]),
        # a non-empty header after an empty one is no duplicate
        ("students:\n" + SMALL_INSTANCE, ["line 1: students section is empty"]),
        (SMALL_INSTANCE.replace("schools: s1 s2", "schools:  # none yet\nschools: s1 s2"),
         ["line 2: schools section is empty"]),
        (SMALL_INSTANCE.replace("quota s1 = 1", "quota s1 = one")
         .replace("pref i2: s2", "pref i2 s2").replace("priority s1: i1 i2", "priority: i1 i2"),
         ["line 3: malformed quota line 'quota s1 = one'",
          "line 6: malformed pref line 'pref i2 s2'",
          "line 7: malformed priority line 'priority: i1 i2'"]),
        (SMALL_INSTANCE.replace("quota s2 = 1", "quota s2 = 1\nquota s1 = 2")
         .replace("pref i2: s2", "pref i2: s2\npref i2: s1")
         .replace("priority s2: i2 i1", "priority s2: i2 i1\npriority s2: i1 i2"),
         ["line 5: duplicate quota for 's1'",
          "line 8: duplicate pref line for 'i2'",
          "line 11: duplicate priority line for 's2'"]),
        ("quota s1 = 1\n", ["missing students section", "missing schools section"]),
        # a keyed section is told by its bare prefix, a header by its colon
        (SMALL_INSTANCE.replace("quota s1 = 1", "quotas s1 = 2")
         .replace("pref i1: s1 s2", "prefer i1: s1")
         .replace("priority s1: i1 i2", "priority s1: i1 i2\nstudents : i1"),
         ["line 3: malformed quota line 'quotas s1 = 2'",
          "line 5: malformed pref line 'prefer i1: s1'",
          "line 8: unrecognised line 'students : i1'"]),
    ], ids=[
        "unrecognised", "out-of-order", "out-of-order-twice", "duplicate-students",
        "duplicate-schools", "empty-students", "empty-schools", "students-after-empty",
        "schools-after-empty", "malformed-keyed", "duplicate-keyed", "missing-headers",
        "prefix-quirks",
    ])
    def test_every_parse_diagnostic(self, text, diagnostics):
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.diagnostics == diagnostics
        assert str(err.value) == "; ".join(diagnostics)


class TestMatchingLiterals:
    def test_round_trip(self):
        problem = parse_instance(TRADING_INSTANCE)
        mu = parse_matching(problem, "i1->s1, i2->s1, i3->s2, i4->self")
        assert mu.literal() == "i1->s1, i2->s1, i3->s2, i4->self"

    def test_unknown_student(self):
        problem = parse_instance(TRADING_INSTANCE)
        with pytest.raises(InstanceParseError):
            parse_matching(problem, "i9->s1, i2->s1, i3->s2, i4->self")

    def test_missing_student(self):
        problem = parse_instance(TRADING_INSTANCE)
        with pytest.raises(InstanceParseError) as err:
            parse_matching(problem, "i1->s1, i2->s1, i3->s2")
        assert any("missing" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("literal, diagnostics", [
        # the student pattern is greedy: the split is at the last arrow
        ("i1->s1->s2, i2->s1, i3->s2, i4->self",
         ["unknown student 'i1->s1'", "students missing from literal: i1"]),
        ("i1 - > s1, i2->s1, i3->s2, i4->self",
         ["malformed term 'i1 - > s1'", "students missing from literal: i1"]),
        ("i 1->s1, i2->s1, i3->s2, i4->self",
         ["malformed term 'i 1->s1'", "students missing from literal: i1"]),
        ("i1->s1, i1->s2, i2->s1, i3->s2, i4->self", ["student 'i1' assigned twice"]),
        ("i1->s9, i2->s1, i3->s2, i4->self",
         ["unknown school 's9'", "students missing from literal: i1"]),
        ("i1->s1, i2->s1", ["students missing from literal: i3, i4"]),
        (",,", ["students missing from literal: i1, i2, i3, i4"]),
        ("", ["students missing from literal: i1, i2, i3, i4"]),
        ("i9->s1, i1->s1 ->, i1->x, i1->s2, i2->s1",
         ["unknown student 'i9'", "malformed term 'i1->s1 ->'", "unknown school 'x'",
          "students missing from literal: i3, i4"]),
    ])
    def test_exact_diagnostics(self, literal, diagnostics):
        problem = parse_instance(TRADING_INSTANCE)
        with pytest.raises(InstanceParseError) as err:
            parse_matching(problem, literal)
        assert err.value.diagnostics == diagnostics

    def test_self_is_case_insensitive(self):
        problem = parse_instance(TRADING_INSTANCE)
        mu = parse_matching(problem, "i1->SELF, i2->Self, i3->s2, i4->self")
        assert mu.literal() == "i1->self, i2->self, i3->s2, i4->self"

    def test_trailing_and_empty_terms_are_skipped(self):
        problem = parse_instance(TRADING_INSTANCE)
        mu = parse_matching(problem, "i1->s1, , i2->s1,i3->s2 , i4->self, ")
        assert mu.literal() == "i1->s1, i2->s1, i3->s2, i4->self"

    def test_over_quota_literal(self):
        problem = parse_instance(TRADING_INSTANCE)
        with pytest.raises(ValidationError) as err:
            parse_matching(problem, "i1->s2, i2->s2, i3->s1, i4->s1")
        assert str(err.value) == "school 's2' holds 2 students, quota is 1"

    def test_agrees_with_the_regex_parser(self):
        rng = random.Random(1331)
        kinds = Counter()
        for _ in range(800):
            p = random_problem(rng, max_students=6, max_schools=4)
            literal = random_literal(rng, p)
            got = parse_outcome(parse_matching, p, literal)
            assert got == parse_outcome(regex_parse_matching, p, literal), literal
            kinds[got[0]] += 1
        assert set(kinds) == {Matching, InstanceParseError, ValidationError}
        assert min(kinds.values()) > 30


#: A matching-literal term, as the regex parser splits it.
_TERM = re.compile(r"(\S+)\s*->\s*(\S+)")


def regex_parse_matching(problem, literal):
    """The reference parser: every term matched against one pattern."""
    diags = []
    assignment = {}
    sidx, cidx = problem._sidx, problem._cidx
    for term in literal.split(","):
        term = term.strip()
        if not term:
            continue
        m = _TERM.fullmatch(term)
        if not m:
            diags.append(f"malformed term {term!r}")
            continue
        i, target = m.groups()
        if i not in sidx:
            diags.append(f"unknown student {i!r}")
            continue
        if i in assignment:
            diags.append(f"student {i!r} assigned twice")
            continue
        if target.lower() == "self":
            assignment[i] = SELF
        elif target in cidx:
            assignment[i] = target
        else:
            diags.append(f"unknown school {target!r}")
    missing = [i for i in problem.students if i not in assignment]
    if missing:
        diags.append(f"students missing from literal: {', '.join(missing)}")
    if diags:
        raise InstanceParseError(diags)
    return problem.matching(assignment)


def parse_outcome(parse, problem, literal):
    """The parsed matching's literal, or the exception's message and diagnostics."""
    try:
        mu = parse(problem, literal)
    except (InstanceParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.diagnostics
    return type(mu), mu.literal(), mu._assign


def random_literal(rng, problem):
    """A literal over the problem's names with spaced arrows, SELF in any
    case, repeated, empty and trailing terms, unknown names, extra arrows
    and missing students; its schools take no heed of quotas."""
    targets = list(problem.schools) * 2 + ["self", "SELF", "Self", "sElF"]
    terms = []
    for i in problem.students:
        if rng.random() < 0.03:
            continue
        s = rng.choice(targets)
        if rng.random() < 0.1:
            terms.append(rng.choice([
                f"{i}->s99", f"i99->{s}", f"{i}->{s}->{s}", f"{i}->->{s}", f"{i}-> ->{s}",
                f"->{s}", f"{i}->", f"{i}", f"{i} {s}", f"{i}-{s}", f"{i} - > {s}",
            ]))
        else:
            terms.append(rng.choice(
                [f"{i}->{s}"] * 4 + [f"{i} -> {s}", f"{i}->\t{s}", f" {i}  ->{s} "]))
        if rng.random() < 0.03:
            terms.append(f"{i}->{rng.choice(targets)}")
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        terms.insert(rng.randint(0, len(terms)), rng.choice(["", " ", "\t"]))
    if rng.random() < 0.2:
        terms.append("")
    return rng.choice([",", ", ", " , "]).join(terms)


class TestCommands:
    def test_solve_golden(self, instance_file, capsys):
        code = main(["solve", instance_file, "--mechanism", "ttc"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "i1->s1, i2->s1, i3->s2, i4->s3"

    def test_solve_trace_json(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--mechanism", "fct", "--trace", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matching"] == "i1->s1, i2->s1, i3->s2, i4->s3"
        assert payload["trace"]["steps"]

    def test_properties_stable(self, instance_file, capsys):
        code = main(
            [
                "properties", instance_file,
                "--matching", "i1->s1, i2->s2, i3->s1, i4->s3",
                "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["stable"] is True
        assert payload["pareto_efficient"] is False

    def test_properties_unstable_exit_code(self, instance_file, capsys):
        code = main(
            ["properties", instance_file, "--matching", "i1->s1, i2->s1, i3->s2, i4->s3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "justified envy: i4 envies i2 at s1" in out

    def test_phi_from_deferred_acceptance(self, instance_file, capsys):
        code = main(
            ["phi", instance_file, "--from", "i1->s1, i2->s2, i3->s1, i4->s3"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out == ["i1->s1, i2->s1, i3->s2, i4->s3"]

    def test_check_set_stable(self, instance_file, capsys):
        code = main(
            ["check-set", instance_file, "--set", "i1->s1, i2->s1, i3->s2, i4->s3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: stable" in out

    def test_check_set_unstable(self, instance_file, capsys):
        code = main(
            ["check-set", instance_file, "--set", "i1->s1, i2->s2, i3->s1, i4->s3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: unstable" in out

    def test_find_singletons(self, instance_file, capsys):
        code = main(["find-singletons", instance_file])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "i1->s1, i2->s1, i3->s2, i4->s3"

    def test_find_sets(self, instance_file, capsys):
        code = main(["find-sets", instance_file])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out == ["i1->s1, i2->s1, i3->s2, i4->s3"]

    def test_find_sets_without_a_size(self, instance_file, capsys):
        # {TTC} is the only farsighted stable set of the trading instance
        ttc = "i1->s1, i2->s1, i3->s2, i4->s3"
        assert main(["find-sets", instance_file]) == 0
        assert capsys.readouterr().out == ttc + "\n"
        assert main(["find-sets", instance_file, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"stable_sets": [[ttc]]}

    def test_second_call_builds_no_parser(self, instance_file, capsys, monkeypatch):
        main(["enumerate", instance_file])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["enumerate", instance_file]) == 0
        assert capsys.readouterr().out == "115\n115\n"
        assert not built

    def test_enumerate(self, instance_file, capsys):
        code = main(["enumerate", instance_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == "115"

    @pytest.mark.parametrize("target", ["ttc", "fct", "ct", "ettc"])
    def test_path_and_validate_round_trip(self, target, instance_file, tmp_path, capsys):
        code = main(
            [
                "path", instance_file,
                "--target", target,
                "--from", "i1->s1, i2->s2, i3->s3, i4->s1",
                "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "valid"
        cert_file = tmp_path / "path.json"
        cert_file.write_text(json.dumps(payload["certificate"]), encoding="utf-8")
        code = main(["validate-path", instance_file, "--file", str(cert_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "valid"

    def test_path_from_da_is_valid_three_ahead(self, instance_file, capsys):
        # the paper's third claim: TTC is reached from DA with three steps
        # of lookahead
        args = ["path", instance_file, "--target", "ttc",
                "--from", "i1->s1, i2->s2, i3->s1, i4->s3", "--check-horizon", "3"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: valid"
        assert main(args + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["horizon"] == 3

    @pytest.mark.parametrize("target, outcome", [
        ("ttc", "trading"), ("fct", "clinch and trade"), ("ct", "clinch and trade"),
        ("ettc", "pairwise trading"),
    ])
    def test_path_from_the_outcome_exits_2(self, target, outcome, instance_file, capsys):
        # all four mechanisms reach the TTC outcome on this instance
        code = main(["path", instance_file, "--target", target,
                     "--from", "i1->s1, i2->s1, i3->s2, i4->s3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: matching already equals the {outcome} outcome\n"

    def test_validate_path_rejects_tampered_certificate(
        self, instance_file, tmp_path, capsys
    ):
        problem = parse_instance(TRADING_INSTANCE)
        start = parse_matching(problem, "i1->s1, i2->s2, i3->s3, i4->s1")
        cert = build_path_to_ttc(problem, start)
        data = json.loads(dump_certificate(cert))
        data["matchings"] = list(reversed(data["matchings"]))
        cert_file = tmp_path / "bad.json"
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code = main(["validate-path", instance_file, "--file", str(cert_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("invalid")

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.instance"
        bad.write_text("students: i1\n", encoding="utf-8")
        code = main(["solve", str(bad), "--mechanism", "ttc"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_phi_with_horizon(self, tmp_path, capsys):
        small = tmp_path / "small.instance"
        small.write_text(
            "students: i1 i2\nschools: s1\nquota s1 = 1\n"
            "pref i1: s1\npref i2: s1\npriority s1: i2 i1\n",
            encoding="utf-8",
        )
        code = main(
            ["phi", str(small), "--from", "i1->s1, i2->self", "--horizon", "2",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["horizon"] == 2
        assert "i1->self, i2->s1" in payload["reachable"]

    def test_capacity_exit_code(self, tmp_path, capsys):
        students = " ".join(f"i{k}" for k in range(1, 13))
        lines = [f"students: {students}", "schools: s1 s2 s3 s4"]
        lines += [f"quota s{j} = 3" for j in range(1, 5)]
        lines += [f"pref i{k}: s1 s2 s3 s4" for k in range(1, 13)]
        lines += [f"priority s{j}: {students}" for j in range(1, 5)]
        big = tmp_path / "big.instance"
        big.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["phi", str(big), "--from", ", ".join(f"i{k}->self" for k in range(1, 13))])
        err = capsys.readouterr().err
        assert code == 3
        assert "error" in err

    def test_cut_stable_set_search_exits_3(self, instance_file, capsys, monkeypatch):
        # a cut search prints no list, not even a partial one
        monkeypatch.setattr(farsight, "DEFAULT_NODE_BUDGET", 1)
        code = main(["find-sets", instance_file])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "stable-set search" in captured.err

    @pytest.mark.parametrize("argv, edit", [
        (["phi", "--from", START, "--horizon", "0"], None),
        (["check-set", "--set", START, "--horizon", "0"], None),
        (["find-singletons", "--horizon", "0"], None),
        (["path", "--target", "ttc", "--from", START, "--check-horizon", "0"], None),
        (["phi", "--from", START, "--horizon", "2", "--depth-cap", "-3"], None),
        (["phi", "--from", START, "--depth-cap", "0"], None),
        (["find-sets", "--max-size", "0"], None),
        (["check-set", "--set", " ; "], None),
        (["validate-path"], lambda c: {k: v for k, v in c.items() if k != "matchings"}),
        (["validate-path"], lambda c: {**c, "steps": [{}] * len(c["steps"])}),
        (["validate-path"], lambda c: [c]),
        (["validate-path"], lambda c: {**c, "horizon": "x"}),
        (["validate-path"], lambda c: with_first_coalition(c, {"students": "i4"})),
        (["validate-path"], lambda c: with_first_coalition(c, {"students": ["a0"]})),
    ], ids=[
        "phi-horizon-0", "check-set-horizon-0", "find-singletons-horizon-0",
        "path-check-horizon-0", "depth-cap-negative", "depth-cap-without-horizon",
        "max-size-0", "set-without-literal",
        "certificate-without-matchings", "step-without-coalition", "certificate-list",
        "horizon-not-an-integer", "students-as-a-string", "unknown-coalition-student",
    ])
    def test_malformed_input_exits_2(self, argv, edit, instance_file, tmp_path, capsys):
        args = [argv[0], instance_file, *argv[1:]]
        if edit is not None:
            problem = parse_instance(TRADING_INSTANCE)
            cert = json.loads(dump_certificate(
                build_path_to_ttc(problem, parse_matching(problem, START))
            ))
            cert_file = tmp_path / "certificate.json"
            cert_file.write_text(json.dumps(edit(cert)), encoding="utf-8")
            args += ["--file", str(cert_file)]
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_deterministic_output(self, instance_file, capsys):
        main(["phi", instance_file, "--from", "i1->s1, i2->s1, i3->s2, i4->s3"])
        first = capsys.readouterr().out
        main(["phi", instance_file, "--from", "i1->s1, i2->s1, i3->s2, i4->s3"])
        second = capsys.readouterr().out
        assert first == second
        assert first.strip().splitlines() == sorted(first.strip().splitlines())


#: Every subcommand with the arguments it requires; CERT stands for the
#: path of a valid certificate.
SUBCOMMANDS = [
    ["solve", "--mechanism", "ttc"],
    ["properties", "--matching", START],
    ["phi", "--from", START],
    ["path", "--target", "ttc", "--from", START],
    ["validate-path", "--file", "CERT"],
    ["check-set", "--set", START],
    ["find-singletons"],
    ["find-sets"],
    ["enumerate"],
]


class TestInstanceLoad:
    @pytest.fixture()
    def run(self, tmp_path, capsys):
        """main on a subcommand with the given instance argument; its exit
        code, stdout and stderr."""
        problem = parse_instance(TRADING_INSTANCE)
        cert_file = tmp_path / "certificate.json"
        cert_file.write_text(
            dump_certificate(build_path_to_ttc(problem, parse_matching(problem, START))),
            encoding="utf-8",
        )

        def run(argv, instance):
            args = [argv[0], instance] + [str(cert_file) if a == "CERT" else a for a in argv[1:]]
            code = main(args)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        return run

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
    def test_missing_instance_exits_2(self, argv, run, tmp_path):
        code, out, err = run(argv, str(tmp_path / "absent.instance"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
    def test_malformed_instance_exits_2(self, argv, run, tmp_path):
        bad = tmp_path / "bad.instance"
        bad.write_text(TRADING_INSTANCE.replace("schools: s1 s2 s3", "schools:"), encoding="utf-8")
        code, out, err = run(argv, str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: line 3: schools section is empty\nerror: missing schools section\n"

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
    def test_dash_reads_stdin(self, argv, run, instance_file, monkeypatch):
        expected = run(argv, instance_file)
        stdin = io.TextIOWrapper(io.BytesIO(TRADING_INSTANCE.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(argv, "-") == expected
        assert expected[0] in (0, 1) and expected[1]


class TestEncoding:
    BOM = "\ufeff"

    @pytest.mark.parametrize("via_stdin", [False, True], ids=["file", "stdin"])
    def test_byte_order_mark_on_the_instance(self, via_stdin, instance_file, tmp_path,
                                             capsys, monkeypatch):
        assert main(["solve", instance_file, "--mechanism", "ttc"]) == 0
        expected = capsys.readouterr()
        data = (self.BOM + TRADING_INSTANCE).encode("utf-8")
        if via_stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            path = "-"
        else:
            path = tmp_path / "bom.instance"
            path.write_bytes(data)
        assert main(["solve", str(path), "--mechanism", "ttc"]) == 0
        assert capsys.readouterr() == expected

    def test_byte_order_mark_on_the_certificate(self, instance_file, tmp_path, capsys):
        problem = parse_instance(TRADING_INSTANCE)
        cert = dump_certificate(build_path_to_ttc(problem, parse_matching(problem, START)))
        cert_file = tmp_path / "certificate.json"
        cert_file.write_bytes((self.BOM + cert).encode("utf-8"))
        code = main(["validate-path", instance_file, "--file", str(cert_file)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, "valid\n", "")

    def test_undecodable_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.instance"
        bad.write_bytes(TRADING_INSTANCE.replace("i4", "\xe94").encode("latin-1"))
        code = main(["solve", str(bad), "--mechanism", "ttc"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
        assert captured.err.count("\n") == 1


class TestCertificateSerialization:
    def test_round_trip(self):
        problem = parse_instance(TRADING_INSTANCE)
        start = parse_matching(problem, "i1->s1, i2->s2, i3->s3, i4->s1")
        cert = build_path_to_ttc(problem, start)
        text = dump_certificate(cert)
        again = load_certificate(problem, text)
        assert again.matchings == cert.matchings
        assert again.horizon == cert.horizon
        assert [st.coalition for st in again.steps] == [
            st.coalition for st in cert.steps
        ]
