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


def _names(text: str) -> tuple:
    return tuple(text.split())


#: The sections in file order.  A line belongs to the section whose prefix
#: it starts with.  A header section (no pattern) lists names after its
#: colon; a keyed section's line fits its pattern, whose groups are the key
#: and a value the reader turns into the entry, and its repeated keys are
#: reported with its noun.
_SECTIONS = (
    ("students", "students:", None, None, None),
    ("schools", "schools:", None, None, None),
    ("quota", "quota", re.compile(r"quota\s+(\S+)\s*=\s*(-?\d+)"), int, "quota"),
    ("pref", "pref", re.compile(r"pref\s+(\S+)\s*:(.*)"), _names, "pref line"),
    ("priority", "priority", re.compile(r"priority\s+(\S+)\s*:(.*)"), _names, "priority line"),
)
#: Matches a line's section prefix; group k + 1 holds section k's.
_PREFIX = re.compile("|".join(f"({re.escape(prefix)})" for _, prefix, _, _, _ in _SECTIONS))


def parse_instance(text: str) -> Problem:
    """Parse an instance document; raises InstanceParseError on any defect."""
    diags: list[str] = []
    found: dict = {name: () if pattern is None else {}
                   for name, _, pattern, _, _ in _SECTIONS}
    stage = 0  # index into _SECTIONS of the last section seen
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = _PREFIX.match(line)
        if head is None:
            diags.append(f"line {lineno}: unrecognised line {line!r}")
            continue
        at = head.lastindex - 1
        name, prefix, pattern, reader, noun = _SECTIONS[at]
        if at < stage:
            diags.append(
                f"line {lineno}: {name} section out of order "
                f"(expected {_SECTIONS[stage][0]} lines or later sections)"
            )
        stage = max(stage, at)
        if pattern is None:
            if found[name]:
                diags.append(f"line {lineno}: duplicate {name} section")
            found[name] = _names(line[len(prefix):])
            if not found[name]:
                diags.append(f"line {lineno}: {name} section is empty")
            continue
        m = pattern.fullmatch(line)
        if not m:
            diags.append(f"line {lineno}: malformed {name} line {line!r}")
            continue
        key, value = m.groups()
        entries = found[name]
        if key in entries:
            diags.append(f"line {lineno}: duplicate {noun} for {key!r}")
        entries[key] = reader(value)
    diags += [f"missing {name} section" for name in ("students", "schools") if not found[name]]
    if diags:
        raise InstanceParseError(diags)
    students, schools, quotas, prefs, prios = found.values()
    for i in students:
        prefs.setdefault(i, ())
    try:
        return Problem(students, schools, quotas, prefs, prios)
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
    """The record of `trace_to_dict`, one line per fact."""
    lines = []
    for st in trace_to_dict(trace)["steps"]:
        caps = " ".join(f"{s}={q}" for s, q in sorted(st["capacities"].items()))
        lines.append(f"step {st['step']} (capacity {caps})")
        for r in st.get("clinch_rounds", ()):
            if r["clinches"]:
                terms = ", ".join(f"{i}->{s}" for i, s in r["clinches"])
                lines.append(f"  clinch round {r['round']}: {terms}")
        if "held_back" in st:
            lines.append("  held back from clinching: " + " ".join(st["held_back"]))
        if "seat_endowments" in st:
            pairs = " ".join(f"({i},{s})" for i, s in st["seat_endowments"])
            lines.append(f"  seat endowments: {pairs}")
            lines += ["  seat cycle: " + " -> ".join(cyc) for cyc in st["seat_cycles"]]
        lines += [f"  cycle {c}" for c in st["cycles"]]
        if st["matches"]:
            lines.append("  matched: " + ", ".join(f"{i}->{a}" for i, a in st["matches"].items()))
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
