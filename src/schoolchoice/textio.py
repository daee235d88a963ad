"""Instance files, matching literals and report serialization.

The instance format is line oriented; `#` starts a comment and blank lines
are ignored.  Sections come in a fixed order:

    students: i1 i2 i3 i4
    schools: s1 s2 s3
    quota s1 = 2
    quota s2 = 1
    quota s3 = 1
    pref i1: s1 s2 s3
    pref i4: s1 s3 s2
    priority s1: i1 i3 i4 i2
    priority s3: i2 i3 i4 i1

A preference line lists acceptable schools, most preferred first; omitted
schools are unacceptable.  A priority line must list every student, highest
priority first.  Matchings are written as comma-separated `student->school`
terms with `self` for staying unmatched, e.g.

    i1->s1, i2->s1, i3->s2, i4->self
"""
from __future__ import annotations

import json
import re

from .model import SELF, Matching, Problem, SchoolChoiceError, ValidationError
from .farsight import (
    FARSIGHTED,
    Coalition,
    MoveStep,
    PathCertificate,
    StableSetReport,
    _lookahead,
)
from .mechanisms import MechanismTrace


class InstanceParseError(SchoolChoiceError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


_SECTIONS = ("students", "schools", "quota", "pref", "priority")


def parse_instance(text: str) -> Problem:
    """Parse an instance document; raises InstanceParseError on any defect."""
    diags: list[str] = []
    students: list[str] = []
    schools: list[str] = []
    quotas: dict = {}
    prefs: dict = {}
    prios: dict = {}
    stage = -1  # index into _SECTIONS of the last section seen

    def advance(kind: str, lineno: int) -> None:
        nonlocal stage
        want = _SECTIONS.index(kind)
        if want < stage:
            diags.append(
                f"line {lineno}: {kind} section out of order "
                f"(expected {_SECTIONS[stage]} lines or later sections)"
            )
        stage = max(stage, want)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("students:"):
            advance("students", lineno)
            if students:
                diags.append(f"line {lineno}: duplicate students section")
            students = line[len("students:"):].split()
            if not students:
                diags.append(f"line {lineno}: students section is empty")
        elif line.startswith("schools:"):
            advance("schools", lineno)
            if schools:
                diags.append(f"line {lineno}: duplicate schools section")
            schools = line[len("schools:"):].split()
            if not schools:
                diags.append(f"line {lineno}: schools section is empty")
        elif line.startswith("quota"):
            advance("quota", lineno)
            m = re.fullmatch(r"quota\s+(\S+)\s*=\s*(-?\d+)", line)
            if not m:
                diags.append(f"line {lineno}: malformed quota line {line!r}")
                continue
            s, q = m.group(1), int(m.group(2))
            if s in quotas:
                diags.append(f"line {lineno}: duplicate quota for {s!r}")
            quotas[s] = q
        elif line.startswith("pref"):
            advance("pref", lineno)
            m = re.fullmatch(r"pref\s+(\S+)\s*:(.*)", line)
            if not m:
                diags.append(f"line {lineno}: malformed pref line {line!r}")
                continue
            i = m.group(1)
            if i in prefs:
                diags.append(f"line {lineno}: duplicate pref line for {i!r}")
            prefs[i] = tuple(m.group(2).split())
        elif line.startswith("priority"):
            advance("priority", lineno)
            m = re.fullmatch(r"priority\s+(\S+)\s*:(.*)", line)
            if not m:
                diags.append(f"line {lineno}: malformed priority line {line!r}")
                continue
            s = m.group(1)
            if s in prios:
                diags.append(f"line {lineno}: duplicate priority line for {s!r}")
            prios[s] = tuple(m.group(2).split())
        else:
            diags.append(f"line {lineno}: unrecognised line {line!r}")
    if not students:
        diags.append("missing students section")
    if not schools:
        diags.append("missing schools section")
    if diags:
        raise InstanceParseError(diags)
    for i in students:
        prefs.setdefault(i, ())
    try:
        return Problem(tuple(students), tuple(schools), quotas, prefs, prios)
    except ValidationError as exc:
        raise InstanceParseError(exc.diagnostics) from None


def serialize_instance(problem: Problem) -> str:
    """Canonical instance document; parse(serialize(p)) reproduces p."""
    lines = [
        "students: " + " ".join(problem.students),
        "schools: " + " ".join(problem.schools),
    ]
    for s in problem.schools:
        lines.append(f"quota {s} = {problem.quota(s)}")
    for i in problem.students:
        lines.append(f"pref {i}: " + " ".join(problem.preferences[i]))
    for s in problem.schools:
        lines.append(f"priority {s}: " + " ".join(problem.priorities[s]))
    return "\n".join(lines) + "\n"


#: One `student->school` term of a matching literal; the student pattern is
#: greedy, so a term with several arrows splits at the last.
_TERM = re.compile(r"(\S+)\s*->\s*(\S+)")


def parse_matching(problem: Problem, literal: str) -> Matching:
    """Parse a `student->school` matching literal against a problem.

    A term of the plain form `student->school` (or `student->self`) is
    looked up directly; any other term goes through `_TERM`, which gives
    the diagnostics.  Both read a term alike, as the problem's names hold
    no whitespace or comma and its school names no `->` and no `self`.
    """
    diags = []
    sidx, cidx = problem._sidx, problem._cidx
    m = len(problem.schools)
    vec = [None] * len(problem.students)
    held = [0] * (m + 1)
    for term in literal.split(","):
        term = term.strip()
        i, _, target = term.partition("->")
        x, k = sidx.get(i), cidx.get(target)
        if k is None and target.lower() == "self":
            k = m
        if x is None or k is None:
            if not term:
                continue
            match = _TERM.fullmatch(term)
            if not match:
                diags.append(f"malformed term {term!r}")
                continue
            i, target = match.groups()
            x = sidx.get(i)
            if x is None:
                diags.append(f"unknown student {i!r}")
                continue
            k = m if target.lower() == "self" else cidx.get(target)
        if vec[x] is not None:
            diags.append(f"student {i!r} assigned twice")
            continue
        if k is None:
            diags.append(f"unknown school {target!r}")
            continue
        vec[x] = k
        held[k] += 1
    if None in vec:
        missing = [i for i, k in zip(problem.students, vec) if k is None]
        diags.append(f"students missing from literal: {', '.join(missing)}")
    if diags:
        raise InstanceParseError(diags)
    mu = Matching._from_vector(problem, tuple(vec))
    if any(h > q for h, q in zip(held, problem._quota_vec)):
        return problem.matching(mu.assignment)  # raises the constructor's quota error
    return mu


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

def certificate_to_dict(cert: PathCertificate) -> dict:
    return {
        "horizon": cert.horizon,
        "matchings": [mu.literal() for mu in cert.matchings],
        "steps": [
            {
                "coalition": {
                    "students": sorted(st.coalition.students),
                    "schools": sorted(st.coalition.schools),
                }
            }
            for st in cert.steps
        ],
    }


def _is_names(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


def certificate_from_dict(problem: Problem, data) -> PathCertificate:
    """The certificate a JSON object describes; raises InstanceParseError
    when any part is missing, of the wrong type or names an agent that the
    problem does not have."""
    if not isinstance(data, dict):
        raise InstanceParseError(["a certificate must be a JSON object"])
    horizon = data.get("horizon", FARSIGHTED)
    try:
        _lookahead(horizon)  # JSON true is a bool, which is no horizon
    except ValueError as exc:
        raise InstanceParseError([str(exc)]) from None
    if not _is_names(data.get("matchings")):
        raise InstanceParseError(["'matchings' must be a list of matching literals"])
    matchings = [parse_matching(problem, lit) for lit in data["matchings"]]
    raw_steps = data.get("steps", [])
    if not isinstance(raw_steps, (list, tuple)):
        raise InstanceParseError(["'steps' must be a list"])
    if len(raw_steps) != max(len(matchings) - 1, 0):
        raise InstanceParseError(
            [f"{len(raw_steps)} steps for {len(matchings)} matchings"]
        )
    steps = []
    for k, st in enumerate(raw_steps):
        co = st.get("coalition") if isinstance(st, dict) else None
        if not isinstance(co, dict):
            raise InstanceParseError([f"step {k}: no coalition object"])
        students, schools = co.get("students", []), co.get("schools", [])
        if not (_is_names(students) and _is_names(schools)):
            raise InstanceParseError(
                [f"step {k}: coalition students and schools must be lists of names"]
            )
        coalition = Coalition(frozenset(students), frozenset(schools))
        if not (
            problem._sidx.keys() >= coalition.students
            and problem._cidx.keys() >= coalition.schools
        ):
            unknown = sorted(coalition.students.difference(problem._sidx))
            unknown += sorted(coalition.schools.difference(problem._cidx))
            raise InstanceParseError(
                [f"step {k}: coalition names unknown agents {', '.join(unknown)}"]
            )
        steps.append(MoveStep(matchings[k], matchings[k + 1], coalition))
    return PathCertificate(tuple(matchings), tuple(steps), horizon)


def load_certificate(problem: Problem, text: str) -> PathCertificate:
    return certificate_from_dict(problem, json.loads(text))


def dump_certificate(cert: PathCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


# --------------------------------------------------------------------------
# Report rendering
# --------------------------------------------------------------------------

def trace_to_dict(trace: MechanismTrace) -> dict:
    out = {"mechanism": trace.mechanism, "steps": []}
    if trace.guarantees_initial:
        out["guarantees"] = {s: list(g) for s, g in trace.guarantees_initial.items()}
    for st in trace.steps:
        entry = {
            "step": st.step,
            "capacities": dict(st.capacities),
            "cycles": [str(c) for c in st.cycles],
            "matches": {
                i: ("self" if a is SELF else a) for i, a in sorted(st.matches.items())
            },
        }
        if st.clinch_rounds:
            entry["clinch_rounds"] = [
                {"round": r.round, "clinches": [list(c) for c in r.clinches]}
                for r in st.clinch_rounds
            ]
        if st.excluded:
            entry["held_back"] = list(st.excluded)
        if st.pairs:
            entry["seat_endowments"] = [list(p) for p in st.pairs]
            entry["seat_cycles"] = [
                ["(%s,%s)" % p for p in cyc] for cyc in st.pair_cycles
            ]
        out["steps"].append(entry)
    return out


def trace_to_text(trace: MechanismTrace) -> str:
    lines = []
    for st in trace.steps:
        caps = " ".join(f"{s}={q}" for s, q in sorted(st.capacities.items()))
        lines.append(f"step {st.step} (capacity {caps})")
        for r in st.clinch_rounds:
            if r.clinches:
                terms = ", ".join(f"{i}->{s}" for i, s in r.clinches)
                lines.append(f"  clinch round {r.round}: {terms}")
        if st.excluded:
            lines.append("  held back from clinching: " + " ".join(st.excluded))
        if st.pairs:
            lines.append(
                "  seat endowments: " + " ".join("(%s,%s)" % p for p in st.pairs)
            )
            for cyc in st.pair_cycles:
                lines.append(
                    "  seat cycle: " + " -> ".join("(%s,%s)" % p for p in cyc)
                )
        for c in st.cycles:
            lines.append(f"  cycle {c}")
        if st.matches:
            terms = ", ".join(
                f"{i}->{'self' if a is SELF else a}" for i, a in sorted(st.matches.items())
            )
            lines.append(f"  matched: {terms}")
    return "\n".join(lines)


def stable_set_report_to_dict(report: StableSetReport) -> dict:
    return {
        "candidate": [mu.literal() for mu in report.candidate],
        "verdict": report.verdict,
        "partial": report.partial,
        "internal_violations": [
            {"from": a.literal(), "to": b.literal()}
            for a, b in report.internal_violations
        ],
        "external_violations": [mu.literal() for mu in report.external_violations],
    }
