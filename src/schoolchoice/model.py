"""Problem and matching data model, feasibility and welfare predicates.

A problem bundles students, schools, quotas, student preference lists and
school priority orders, each a strict order of all students.  A matching
assigns every student to one school or to herself (the SELF sentinel),
never exceeding any school quota.  Both are checked when built, so every
Problem in circulation is well formed and every Matching feasible.  All
types are immutable after construction; predicates are pure functions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Mapping


class SchoolChoiceError(Exception):
    pass


class ValidationError(SchoolChoiceError):
    """A matching or problem violates a structural invariant.

    `diagnostics` holds one line per violation, in the order found; the
    message joins them with "; ".
    """

    def __init__(self, *diagnostics: str):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(diagnostics))


class CapacityError(SchoolChoiceError):
    """An exhaustive computation would exceed its configured cap."""


class _SelfToken:
    """Sentinel for 'matched to herself' (unassigned)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SELF"


SELF = _SelfToken()

#: Default cap on exhaustive matching enumeration.
DEFAULT_ENUMERATION_CAP = 10**7


def _count(value, least: int, name: str, other: str = "") -> int:
    """value when an int >= least; anything else, a bool too, is a ValueError naming `other`."""
    if type(value) is not int or value < least:  # type, not isinstance: a bool is no count
        raise ValueError(f"{name} must be {other}an integer >= {least}, not {value!r}")
    return value


@dataclass(frozen=True)
class Problem:
    """A school choice problem, checked when built.

    students/schools are ordered; iteration order everywhere in the library
    follows the declared order, which makes every computation deterministic.
    Preference lists contain only acceptable schools, best first; schools
    missing from a list are unacceptable (ranked below staying unmatched).
    Priorities are strict orderings of all students, highest first.

    The constructor raises ValidationError, whose `diagnostics` list every
    violation, unless all identifiers are distinct and can be written in a
    matching literal (non-empty, with no whitespace or comma; a school's name
    has no `->` and is not `self` in any case), in an instance document (no
    `#`, which starts a comment there, and no leading `:`, which would end a
    keyed line's key) and in a set of matchings (no `;`), every school has an
    integer quota of at least 1 (a bool is none) and a priority order that is
    a permutation of the students, every student has a list of distinct known
    schools, and no quota, list or order is given for an unknown name.
    """

    students: tuple[str, ...]
    schools: tuple[str, ...]
    quotas: Mapping[str, int]
    preferences: Mapping[str, tuple[str, ...]]
    priorities: Mapping[str, tuple[str, ...]]

    # derived lookup tables, filled in __post_init__
    _sidx: dict = field(init=False, repr=False, compare=False)
    _cidx: dict = field(init=False, repr=False, compare=False)
    _pref_rank: tuple = field(init=False, repr=False, compare=False)
    _prio_rank: tuple = field(init=False, repr=False, compare=False)
    _quota_vec: tuple = field(init=False, repr=False, compare=False)
    _options: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        students, schools = tuple(self.students), tuple(self.schools)
        quotas = dict(self.quotas)
        preferences = {i: tuple(p) for i, p in self.preferences.items()}
        priorities = {s: tuple(f) for s, f in self.priorities.items()}
        n, m = len(students), len(schools)
        # each name's first position: zipped in reverse, a repeated name's
        # first position is the one written last
        sidx = dict(zip(reversed(students), reversed(range(n))))
        cidx = dict(zip(reversed(schools), reversed(range(m))))
        diags = [f"duplicate student identifier {i!r}" for k, i in enumerate(students)
                 if sidx[i] != k]
        diags += [f"duplicate school identifier {s!r}" for k, s in enumerate(schools)
                  if cidx[s] != k]
        diags += [f"identifier {name!r} used for both a student and a school"
                  for name in sorted(sidx.keys() & cidx.keys())]
        # a matching literal writes `student->school` terms separated by commas,
        # `self` (any case) for staying unmatched, and `;` separates a set's
        # literals; an instance document drops each line's text from a `#` on,
        # and a name that starts with `:` would end a keyed line's key; the
        # names joined by spaces split back into the names just when none is
        # empty or holds whitespace, sparing most problems the per-name checks
        names = list(dict.fromkeys(students + schools))
        text = " ".join(names)
        if (text.split() != names or any(c in text for c in ",#;") or " :" in f" {text}"
                or "->" in " ".join(schools) or any(s.lower() == "self" for s in schools)):
            for name in names:
                if name in cidx and name.lower() == "self":
                    diags.append(f"school {name!r} is named self, which matching literals reserve")
                elif name.split() != [name] or "," in name or name in cidx and "->" in name:
                    diags.append(f"identifier {name!r} cannot be written in a matching literal")
                elif "#" in name or name.startswith(":"):
                    diags.append(f"identifier {name!r} cannot be written in an instance document")
                elif ";" in name:
                    diags.append(f"identifier {name!r} cannot be written in a set of matchings")
        for s in schools:
            q = quotas.get(s)
            if q is None:
                diags.append(f"no quota given for school {s!r}")
            elif type(q) is not int:  # type, not isinstance: a bool is no quota
                diags.append(f"quota of school {s!r} must be an integer, not {q!r}")
            elif q < 1:
                diags.append(f"quota of school {s!r} must be >= 1, got {q}")
        diags += [f"quota given for unknown school {s!r}" for s in quotas if s not in cidx]
        # rank over schools + SELF: listed school -> its position, SELF -> number
        # listed, any unlisted school -> one past SELF (all unlisted tie).
        pref_rank = []
        for i in students:
            prefs = preferences.get(i)
            if prefs is None:
                diags.append(f"no preference list for student {i!r}")
                continue
            row = [len(prefs) + 1] * m + [len(prefs)]
            for pos, s in enumerate(prefs):
                k = cidx.get(s)
                if k is None:
                    diags.append(f"preference of {i!r} lists unknown school {s!r}")
                    listed_before = s in prefs[:pos]
                else:
                    listed_before = row[k] < pos  # row[k] is a position once listed
                    row[k] = pos
                if listed_before:
                    diags.append(f"preference of {i!r} lists school {s!r} twice")
            pref_rank.append(tuple(row))
        diags += [f"preference list for unknown student {i!r}"
                  for i in preferences if i not in sidx]
        # a permutation has n entries and ranks every student; once a name
        # repeats in the student list, the order must also hold each name as
        # often as the list does
        repeated = Counter(students) if len(sidx) < n else None
        prio_rank = []
        for s in schools:
            order = priorities.get(s)
            if order is None:
                diags.append(f"no priority order for school {s!r}")
                continue
            row = tuple(map(dict(zip(order, range(len(order)))).get, students))
            if len(order) != n or None in row or repeated and Counter(order) != repeated:
                diags.append(f"priority of {s!r} is not a permutation of the students")
            prio_rank.append(row)
        diags += [f"priority order for unknown school {s!r}"
                  for s in priorities if s not in cidx]
        if diags:
            raise ValidationError(*diags)
        for name, value in (
            ("students", students), ("schools", schools), ("quotas", quotas),
            ("preferences", preferences), ("priorities", priorities),
            ("_sidx", sidx), ("_cidx", cidx),
            ("_pref_rank", tuple(pref_rank)), ("_prio_rank", tuple(prio_rank)),
            ("_quota_vec", tuple(quotas[s] for s in schools)),
            # what an assignment-vector entry stands for: a school, or m for SELF
            ("_options", schools + (SELF,)),
        ):
            object.__setattr__(self, name, value)

    # --- lookups -----------------------------------------------------------

    def student_index(self, i: str) -> int:
        return self._sidx[i]

    def school_index(self, s: str) -> int:
        return self._cidx[s]

    def quota(self, s: str) -> int:
        return self.quotas[s]

    def pref_rank(self, i: str, assignment) -> int:
        """Rank of an assignment (school or SELF) for student i; lower is better."""
        col = len(self.schools) if assignment is SELF else self._cidx[assignment]
        return self._pref_rank[self._sidx[i]][col]

    def prefers(self, i: str, a, b) -> bool:
        """True iff student i strictly prefers assignment a to b."""
        return self.pref_rank(i, a) < self.pref_rank(i, b)

    def acceptable(self, i: str, s: str) -> bool:
        return s in self.preferences[i]

    def priority_rank(self, s: str, i: str) -> int:
        """1-based priority rank of student i at school s (1 = highest)."""
        return self._prio_rank[self._cidx[s]][self._sidx[i]] + 1

    def higher_priority(self, s: str, i: str, j: str) -> bool:
        """True iff i has higher priority than j at s."""
        return self.priority_rank(s, i) < self.priority_rank(s, j)

    def matching(self, assignment: Mapping[str, object]) -> "Matching":
        return Matching(self, assignment)

    def empty_matching(self) -> "Matching":
        return Matching(self, {i: SELF for i in self.students})


class Matching:
    """An assignment of every student to a school or to SELF.

    Feasibility (quota bounds, assignment/roster consistency) is checked on
    construction, so any Matching in circulation is feasible.  Instances are
    immutable and hashable.
    """

    __slots__ = ("problem", "_assign", "_hash")

    def __init__(self, problem: Problem, assignment: Mapping[str, object]):
        extra = assignment.keys() - problem._sidx.keys()
        if extra:
            raise ValidationError(f"assignment mentions unknown students {sorted(extra)}")
        cidx = problem._cidx
        m = len(problem.schools)
        vec = []
        counts = [0] * (m + 1)
        for i in problem.students:
            if i not in assignment:
                raise ValidationError(f"student {i!r} missing from assignment")
            a = assignment[i]
            k = m if a is SELF else cidx.get(a)
            if k is None:
                raise ValidationError(f"student {i!r} assigned to unknown school {a!r}")
            counts[k] += 1
            vec.append(k)
        for s, held, quota in zip(problem.schools, counts, problem._quota_vec):
            if held > quota:
                raise ValidationError(f"school {s!r} holds {held} students, quota is {quota}")
        self.problem = problem
        self._assign = tuple(vec)
        self._hash = hash(self._assign)

    @classmethod
    def _from_vector(cls, problem: Problem, vec: tuple[int, ...]) -> "Matching":
        obj = object.__new__(cls)
        obj.problem = problem
        obj._assign = vec
        obj._hash = hash(vec)
        return obj

    # --- views -------------------------------------------------------------

    def school_of(self, i: str):
        return self.problem._options[self._assign[self.problem._sidx[i]]]

    @property
    def assignment(self) -> dict:
        options = self.problem._options
        return {i: options[k] for i, k in zip(self.problem.students, self._assign)}

    @property
    def rosters(self) -> dict:
        """Every school's roster, in one pass; each added in student order."""
        members = [[] for _ in self.problem._options]
        for i, k in zip(self.problem.students, self._assign):
            members[k].append(i)
        return {s: frozenset(v) for s, v in zip(self.problem.schools, members)}

    def reassign(self, changes: Mapping[str, object]) -> "Matching":
        """New matching with the given students reassigned (validated).

        Built from this matching's vector: as this one is feasible, only a
        school that some student enters can go over its quota, so only those
        are counted.  Given an unknown student or school, or a school over
        its quota, it raises what `Matching(problem, {**self.assignment,
        **changes})` raises, by calling just that.
        """
        problem = self.problem
        sidx, cidx, m = problem._sidx, problem._cidx, len(problem.schools)
        vec = list(self._assign)
        entered = set()
        for i, a in changes.items():
            x = sidx.get(i)
            k = m if a is SELF else cidx.get(a)
            if x is None or k is None:
                break
            vec[x] = k
            entered.add(k)
        else:
            entered.discard(m)
            if all(vec.count(k) <= problem._quota_vec[k] for k in entered):
                return Matching._from_vector(problem, tuple(vec))
        return Matching(problem, {**self.assignment, **changes})

    def literal(self) -> str:
        names = self.problem.schools + ("self",)
        return ", ".join([f"{i}->{names[k]}" for i, k in zip(self.problem.students, self._assign)])

    # --- protocol ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matching) and self._assign == other._assign

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Matching {self.literal()}>"


def sort_matchings(matchings: Iterable[Matching]) -> list[Matching]:
    """Canonical report order: lexicographic by matching literal."""
    return sorted(matchings, key=lambda mu: mu.literal())


def enumerate_matchings(
    problem: Problem, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Matching]:
    """All feasible matchings, in a fixed deterministic order.

    Every student may be assigned to any school with a free seat or to SELF,
    regardless of her preferences; individual rationality is a separate
    predicate.  Counts them first and, building none, raises CapacityError
    when more than `cap` exist; ValueError unless cap is an int >= 1.
    """
    _count(cap, 1, "cap")
    n, m = len(problem.students), len(problem.schools)
    if (m + 1) ** n > cap:
        # ways[j]: the ways to seat j chosen students at the schools so far; the
        # matchings that use only those schools only grow in number, school by school
        ways, seats = [1] + [0] * n, 0
        for q in problem._quota_vec:
            seats = min(n, seats + q)
            ways[:seats + 1] = [sum(comb(j, t) * ways[j - t] for t in range(min(q, j) + 1))
                                for j in range(seats + 1)]
            if sum(comb(n, j) * w for j, w in enumerate(ways[:seats + 1])) > cap:
                raise CapacityError(
                    f"more than {cap} matchings; raise the cap to enumerate this instance"
                )
    # depth first, each student's seat in school order and SELF last
    left = [*problem._quota_vec, n]  # seats left per school and at SELF (m)
    vec, out, c = [], [], 0  # c: the next seat to try for the student after vec
    while True:
        if len(vec) == n or c > m:
            if len(vec) == n:
                out.append(Matching._from_vector(problem, tuple(vec)))
            if not vec:
                return out
            left[vec[-1]] += 1
            c = vec.pop() + 1
        elif left[c]:
            left[c] -= 1
            vec.append(c)
            c = 0
        else:
            c += 1


def is_individually_rational(problem: Problem, mu: Matching) -> bool:
    """True iff every matched student finds her school acceptable."""
    return all(a is SELF or problem.acceptable(i, a) for i, a in mu.assignment.items())


def is_non_wasteful(problem: Problem, mu: Matching) -> bool:
    """True iff no student prefers a school with a free seat to her assignment."""
    rosters = mu.rosters
    free = [s for s in problem.schools if len(rosters[s]) < problem.quota(s)]
    return not any(problem.prefers(i, s, mu.school_of(i)) for i in problem.students for s in free)


def justified_envy_witnesses(problem: Problem, mu: Matching) -> list[tuple[str, str, str]]:
    """All (envious student, occupant, school) triples witnessing justified envy."""
    out = []
    for i in problem.students:
        own = mu.school_of(i)
        for j in problem.students:
            s = mu.school_of(j)
            if s is SELF or j == i:
                continue
            if problem.prefers(i, s, own) and problem.higher_priority(s, i, j):
                out.append((i, j, s))
    return out


def has_no_justified_envy(problem: Problem, mu: Matching) -> bool:
    """True iff every student envied at a school has higher priority there.

    Student i justifiably envies j at school s when j holds a seat at s,
    i prefers s to her own assignment, and i has higher priority at s.
    """
    return not justified_envy_witnesses(problem, mu)


def is_stable(problem: Problem, mu: Matching) -> bool:
    return (
        is_individually_rational(problem, mu)
        and is_non_wasteful(problem, mu)
        and has_no_justified_envy(problem, mu)
    )


def pareto_dominates(problem: Problem, mu_new: Matching, mu_old: Matching) -> bool:
    """True iff every student weakly prefers mu_new and someone strictly does."""
    strict = False
    for i in problem.students:
        a, b = mu_new.school_of(i), mu_old.school_of(i)
        if problem.prefers(i, b, a):
            return False
        if problem.prefers(i, a, b):
            strict = True
    return strict


def is_pareto_efficient(problem: Problem, mu: Matching) -> bool:
    """True iff no feasible matching Pareto dominates mu; no search is needed.

    mu is efficient just when it is individually rational and non-wasteful and
    no schools form a trading cycle, a student at each strictly preferring the
    next (Abraham, Cechlárová, Manlove and Mehlhorn, 2004): peel off schools
    whose students prefer only schools peeled off, until none or a cycle is left.
    """
    if not (is_individually_rational(problem, mu) and is_non_wasteful(problem, mu)):
        return False
    wants = {s: set() for s in problem.schools}
    for i, s in mu.assignment.items():
        if s is not SELF:
            wants[s].update(problem.preferences[i][:problem.pref_rank(i, s)])
    while True:
        left = {s: better for s, better in wants.items() if not better.isdisjoint(wants)}
        if len(left) == len(wants):
            return not left
        wants = left
