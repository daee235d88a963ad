"""The six matching mechanisms, each with a per-step trace.

run_ttc / run_fct / run_ct / run_ettc return (matching, trace); run_da and
run_ia return just the matching.  Traces record, step by step, remaining
capacities, clinch rounds, cycles and the matches they formed, which is
enough to replay or audit a run.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import count

from .model import SELF, Matching, Problem


@dataclass(frozen=True)
class Cycle:
    """A trading cycle: alternating (school, student, school, student, ...).

    `members` starts with a school; student k points to the school at
    position (2k+2) mod len, the school at 2k points to the student at 2k+1.
    A self-cycle (student pointing to herself) is represented with a single
    student and no school.
    """

    members: tuple[str, ...]
    is_self_cycle: bool = False

    @property
    def students(self) -> tuple[str, ...]:
        if self.is_self_cycle:
            return self.members
        return self.members[1::2]

    @property
    def schools(self) -> tuple[str, ...]:
        if self.is_self_cycle:
            return ()
        return self.members[0::2]

    def assignments(self) -> dict:
        """Student -> assignment formed when the cycle executes."""
        if self.is_self_cycle:
            return {self.members[0]: SELF}
        out = {}
        k = len(self.members)
        for pos in range(1, k, 2):
            out[self.members[pos]] = self.members[(pos + 1) % k]
        return out

    def inbound(self) -> dict:
        """Student -> the school pointing at her within the cycle."""
        if self.is_self_cycle:
            return {}
        return {self.members[pos]: self.members[pos - 1] for pos in range(1, len(self.members), 2)}

    def __str__(self):
        return "(" + ",".join(self.members) + ")"


@dataclass
class ClinchRound:
    round: int
    guarantees: dict
    clinches: list  # [(student, school)]


@dataclass
class TraceStep:
    step: int
    capacities: dict
    clinch_rounds: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    matches: dict = field(default_factory=dict)  # student -> school or SELF
    excluded: tuple = ()  # students barred from clinching this step
    pairs: list = field(default_factory=list)  # ETTC seat endowments
    pair_cycles: list = field(default_factory=list)  # lists of (student, school)


@dataclass
class MechanismTrace:
    mechanism: str
    steps: list
    matching: Matching
    guarantees_initial: dict = field(default_factory=dict)


def _functional_cycles(succ: dict, starts) -> list[list]:
    """Cycles of a graph in which every node has at most one successor.

    succ maps a node to its successor; a node missing from it has none.  A
    walk from each start in turn follows successors until it meets a node
    already classified or one on its own path; the latter closes a cycle,
    listed from that node in walk order.  Cycles come in discovery order.
    """
    done: set = set()
    cycles = []
    for start in starts:
        path, seen_at, cur = [], {}, start
        while cur in succ and cur not in done and cur not in seen_at:
            seen_at[cur] = len(path)
            path.append(cur)
            cur = succ[cur]
        if cur in seen_at:
            cycles.append(path[seen_at[cur]:])
        done.update(path)
    return cycles


def _find_cycles(problem: Problem, student_ptr: dict, school_ptr: dict) -> list[Cycle]:
    """Cycles of the pointing graph, deterministically ordered.

    student_ptr maps student -> school or SELF; school_ptr maps school ->
    student.  A student pointing at SELF is a self-loop.  Non-self cycles
    are rotated to start at their earliest school (declaration order); the
    cycle list is sorted by that school, with self-cycles last in student
    order.
    """
    succ = {("i", i): ("i", i) if s is SELF else ("s", s) for i, s in student_ptr.items()}
    succ.update({("s", s): ("i", j) for s, j in school_ptr.items()})
    out = []
    for cyc in _functional_cycles(succ, succ):
        if len(cyc) == 1:
            out.append(Cycle((cyc[0][1],), is_self_cycle=True))
            continue
        school_positions = [k for k, node in enumerate(cyc) if node[0] == "s"]
        start = min(school_positions, key=lambda k: problem.school_index(cyc[k][1]))
        rotated = cyc[start:] + cyc[:start]
        out.append(Cycle(tuple(node[1] for node in rotated)))

    def key(c: Cycle):
        if c.is_self_cycle:
            return (1, problem.student_index(c.members[0]))
        return (0, problem.school_index(c.members[0]))

    return sorted(out, key=key)


def _best_school_with_capacity(problem: Problem, i: str, capacity: dict):
    for s in problem.preferences[i]:
        if capacity.get(s, 0) >= 1:
            return s
    return SELF


def _top_priority(problem: Problem, s: str, pool, k: int) -> tuple:
    """The k highest-priority students of pool at school s, in pool order.

    A student qualifies when fewer than k members of the pool have strictly
    higher priority, so students tied at the cut (possible only when a
    priority order is not a full permutation) all qualify.
    """
    if k <= 0 or not pool:
        return ()
    row, sidx = problem._prio_rank[problem._cidx[s]], problem._sidx
    ranks = [row[sidx[i]] for i in pool]
    cut = heapq.nsmallest(k, ranks)[-1]
    return tuple(i for i, r in zip(pool, ranks) if r <= cut)


def _execute(step: TraceStep, assignment: dict, capacity: dict, moves) -> None:
    """Match each (student, school or SELF) of moves, using up the seats."""
    for i, a in moves:
        assignment[i] = a
        step.matches[i] = a
        if a is not SELF:
            capacity[a] -= 1


def _trade(
    problem: Problem, step: TraceStep, assignment: dict, capacity: dict, students, pool
) -> dict:
    """One trading round; returns the student pointers.

    Each of `students` points at her best school with a free seat (or at
    herself), each school with a free seat at its highest-priority student
    in pool, and every cycle of that graph executes.
    """
    student_ptr = {i: _best_school_with_capacity(problem, i, capacity) for i in students}
    school_ptr = {
        s: _top_priority(problem, s, pool, 1)[0]
        for s in problem.schools
        if capacity[s] >= 1 and pool
    }
    step.cycles = _find_cycles(problem, student_ptr, school_ptr)
    moves = (m for c in step.cycles for m in c.assignments().items())
    _execute(step, assignment, capacity, moves)
    return student_ptr


# --------------------------------------------------------------------------
# Top Trading Cycles
# --------------------------------------------------------------------------

def run_ttc(problem: Problem) -> tuple[Matching, MechanismTrace]:
    remaining = list(problem.students)
    capacity = {s: problem.quota(s) for s in problem.schools}
    assignment: dict = {}
    steps = []
    step_no = 0
    while remaining:
        step_no += 1
        record = TraceStep(step=step_no, capacities=dict(capacity))
        _trade(problem, record, assignment, capacity, remaining, remaining)
        remaining = [i for i in remaining if i not in assignment]
        steps.append(record)
    mu = problem.matching(assignment)
    return mu, MechanismTrace("ttc", steps, mu)


# --------------------------------------------------------------------------
# Deferred Acceptance (student proposing)
# --------------------------------------------------------------------------

def run_da(problem: Problem) -> Matching:
    next_choice = {i: 0 for i in problem.students}
    # per school, a heap of (-priority rank, -arrival, student): its root is
    # the holder rejected first, the latest arrival among tied ranks
    held: dict = {s: [] for s in problem.schools}
    free = deque(problem.students)
    arrivals = count()
    while free:
        i = free.popleft()
        prefs = problem.preferences[i]
        while next_choice[i] < len(prefs):
            s = prefs[next_choice[i]]
            holders = held[s]
            entry = (-problem.priority_rank(s, i), -next(arrivals), i)
            if len(holders) < problem.quota(s):
                heapq.heappush(holders, entry)
                break
            rejected = heapq.heappushpop(holders, entry)[2]
            if rejected == i:
                next_choice[i] += 1
                continue
            next_choice[rejected] += 1
            free.append(rejected)
            break
        # student with exhausted list stays unmatched
    assignment = {i: SELF for i in problem.students}
    for s, holders in held.items():
        for _, _, i in holders:
            assignment[i] = s
    return problem.matching(assignment)


# --------------------------------------------------------------------------
# Immediate Acceptance (Boston)
# --------------------------------------------------------------------------

def run_ia(problem: Problem) -> Matching:
    capacity = {s: problem.quota(s) for s in problem.schools}
    assignment = {i: SELF for i in problem.students}
    unassigned = list(problem.students)
    round_no = 0
    while unassigned:
        applicants: dict = {s: [] for s in problem.schools}
        exhausted = []
        for i in unassigned:
            prefs = problem.preferences[i]
            if round_no >= len(prefs):
                exhausted.append(i)
            else:
                applicants[prefs[round_no]].append(i)
        for s in problem.schools:
            admitted = _top_priority(problem, s, applicants[s], capacity[s])
            capacity[s] -= len(admitted)
            for i in admitted:
                assignment[i] = s
        exhausted = set(exhausted)
        unassigned = [i for i in unassigned if assignment[i] is SELF and i not in exhausted]
        round_no += 1
    return problem.matching(assignment)


# --------------------------------------------------------------------------
# First Clinch and Trade
# --------------------------------------------------------------------------

def initial_guarantees(problem: Problem) -> dict:
    """School -> students holding one of its quota-many highest priorities."""
    return {
        s: _top_priority(problem, s, problem.students, problem.quota(s)) for s in problem.schools
    }


def run_fct(problem: Problem) -> tuple[Matching, MechanismTrace]:
    guarantees = initial_guarantees(problem)
    guaranteed = {s: set(g) for s, g in guarantees.items()}
    remaining = list(problem.students)
    capacity = {s: problem.quota(s) for s in problem.schools}
    assignment: dict = {}
    steps = []
    step_no = 0
    while remaining:
        step_no += 1
        record = TraceStep(step=step_no, capacities=dict(capacity))
        step_start_remaining = list(remaining)
        # clinch phase: a student pointing at a school where she is
        # guaranteed a seat is assigned there at once
        clinches = []
        for i in remaining:
            s = _best_school_with_capacity(problem, i, capacity)
            if s is not SELF and i in guaranteed[s]:
                clinches.append((i, s))
        _execute(record, assignment, capacity, clinches)
        record.clinch_rounds.append(ClinchRound(1, dict(guarantees), clinches))
        remaining = [i for i in remaining if i not in assignment]
        # trading phase: schools keep pointing at the step-start remaining
        # set, so a cycle through a just-clinched student does not form
        # (such a student points nowhere)
        _trade(problem, record, assignment, capacity, remaining, step_start_remaining)
        remaining = [i for i in remaining if i not in assignment]
        steps.append(record)
        if not clinches and not record.cycles:
            raise AssertionError("first clinch and trade made no progress")
    mu = problem.matching(assignment)
    return mu, MechanismTrace("fct", steps, mu, guarantees_initial=guarantees)


# --------------------------------------------------------------------------
# Clinch and Trade
# --------------------------------------------------------------------------

def run_ct(problem: Problem) -> tuple[Matching, MechanismTrace]:
    remaining = list(problem.students)
    capacity = {s: problem.quota(s) for s in problem.schools}
    assignment: dict = {}
    steps = []
    step_no = 0
    pointed_last_trading: dict = {}
    while remaining:
        step_no += 1
        record = TraceStep(step=step_no, capacities=dict(capacity))
        # students who pointed in the previous trading phase at a school that
        # still has a seat stay in the trading market and skip clinching
        excluded = tuple(
            i
            for i in remaining
            if pointed_last_trading.get(i) is not None
            and capacity.get(pointed_last_trading[i], 0) >= 1
        )
        record.excluded = excluded
        # iterated clinching; priorities are re-ranked among the students
        # still present, so guarantees improve as others clinch
        unclinched = list(remaining)
        round_no = 0
        while True:
            round_no += 1
            # rank competitors: everyone not yet removed; excluded students
            # compete but hold no guarantee
            guarantees = {
                s: tuple(
                    i
                    for i in _top_priority(problem, s, unclinched, capacity[s])
                    if i not in excluded
                )
                for s in problem.schools
            }
            clinches = []
            for i in unclinched:
                prefs = problem.preferences[i]
                if not prefs:
                    continue
                top = prefs[0]  # clinch pointing ignores current capacity
                if i in guarantees.get(top, ()):
                    clinches.append((i, top))
            if not clinches:
                break
            record.clinch_rounds.append(ClinchRound(round_no, guarantees, clinches))
            _execute(record, assignment, capacity, clinches)
            unclinched = [i for i in unclinched if i not in assignment]
        # one trading round among everyone left (excluded students included)
        student_ptr = _trade(problem, record, assignment, capacity, unclinched, unclinched)
        pointed_last_trading = {
            i: (None if p is SELF else p) for i, p in student_ptr.items()
        }
        remaining = [i for i in remaining if i not in assignment]
        steps.append(record)
        if not record.matches:
            raise AssertionError("clinch and trade made no progress")
    mu = problem.matching(assignment)
    return mu, MechanismTrace("ct", steps, mu)


# --------------------------------------------------------------------------
# Equitable Top Trading Cycles
# --------------------------------------------------------------------------

def run_ettc(problem: Problem) -> tuple[Matching, MechanismTrace]:
    remaining = list(problem.students)
    capacity = {s: problem.quota(s) for s in problem.schools}
    assignment: dict = {}
    steps = []
    step_no = 0
    while remaining:
        step_no += 1
        record = TraceStep(step=step_no, capacities=dict(capacity))
        # inheritance: each school's open seats go to its highest-priority
        # remaining students, one seat per student
        heirs = {
            s: set(_top_priority(problem, s, remaining, capacity[s])) for s in problem.schools
        }
        pairs = [(i, s) for i in remaining for s in problem.schools if i in heirs[s]]
        record.pairs = pairs
        if not pairs:
            # no seat left to inherit anywhere: everyone remaining ends alone
            _execute(record, assignment, capacity, ((i, SELF) for i in remaining))
            remaining = []
            steps.append(record)
            break
        paired_schools = {s for _, s in pairs}
        holders: dict = {}
        for i, s in pairs:
            holders.setdefault(s, []).append(i)

        # pointing: pair (i, s) points at the pair holding a seat at i's best
        # available school whose student ranks highest in s's priority order
        ptr: dict = {}
        self_removed = []
        for i, s in pairs:
            target_school = None
            for t in problem.preferences[i]:
                if t in paired_schools:
                    target_school = t
                    break
            if target_school is None:
                self_removed.append(i)
                continue
            holder = _top_priority(problem, s, holders[target_school], 1)[0]
            ptr[(i, s)] = (holder, target_school)

        # students with no acceptable inheritable seat leave unmatched
        _execute(record, assignment, capacity, ((i, SELF) for i in dict.fromkeys(self_removed)))
        remaining = [i for i in remaining if i not in assignment]
        pairs = [(i, s) for i, s in pairs if i not in assignment]

        # cycles of the pair graph
        pair_cycles = record.pair_cycles = _functional_cycles(ptr, pairs)

        # execution: a student in cycles takes her best pointed-to school;
        # seats of her other cycle pairs pass to the pairs pointing at them,
        # uninvolved seats return to the inheritance pool next step
        targets: dict = {}
        for cyc in pair_cycles:
            for pair in cyc:
                targets.setdefault(pair[0], []).append(ptr[pair][1])
        best = (
            (i, min(opts, key=lambda t: problem.pref_rank(i, t))) for i, opts in targets.items()
        )
        _execute(record, assignment, capacity, best)
        remaining = [i for i in remaining if i not in assignment]
        steps.append(record)
        if not record.matches:
            raise AssertionError("equitable top trading cycles made no progress")
    mu = problem.matching(assignment)
    return mu, MechanismTrace("ettc", steps, mu)


MECHANISMS = {
    "ttc": run_ttc,
    "da": run_da,
    "ia": run_ia,
    "fct": run_fct,
    "ct": run_ct,
    "ettc": run_ettc,
}


def run_mechanism(name: str, problem: Problem):
    """Run a mechanism by name; returns (matching, trace or None)."""
    fn = MECHANISMS[name]
    result = fn(problem)
    if isinstance(result, tuple):
        return result
    return result, None
