"""The six matching mechanisms, each with a per-step trace.

run_ttc / run_fct / run_ct / run_ettc return (matching, trace); run_da and
run_ia return just the matching.  Traces record, step by step, remaining
capacities, clinch rounds, cycles and the matches they formed, which is
enough to replay or audit a run.

TTC, FCT and CT trade on one pointer state (`_Pointers`) kept across
their steps, so a step costs about the schools plus the students it moves:
- cursors are monotone: a student's cursor over her list only skips
  schools without a free seat, and capacities only fall; a school's cursor
  over its priority order only skips students who left the pool, and the
  pool only shrinks;
- pointers are refreshed when a school fills: only the students pointing
  at it move on, and each school keeps the list of who points at it;
- walks start from schools: every cycle but a self-cycle holds a school,
  so the graph is walked on the schools with a free seat, and the students
  whose lists ran out form the self-cycles.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

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


def _find_cycles(problem: Problem, succ: dict, top: dict, selfs) -> list[Cycle]:
    """Cycles of the pointing graph, deterministically ordered.

    The graph is walked on its schools: succ maps a school to the school its
    top student (top[school]) points at, and selfs are the students pointing
    at themselves.  Non-self cycles are rotated to start at their earliest
    school (declaration order); the cycle list is sorted by that school, with
    self-cycles last in student order.
    """
    out = []
    for cyc in _functional_cycles(succ, succ):
        k = min(range(len(cyc)), key=lambda k: problem.school_index(cyc[k]))
        out.append(Cycle(tuple(x for s in cyc[k:] + cyc[:k] for x in (s, top[s]))))
    out.sort(key=lambda c: problem.school_index(c.members[0]))
    selfs = sorted(selfs, key=problem.student_index)
    return out + [Cycle((i,), is_self_cycle=True) for i in selfs]


def _top_priority(problem: Problem, s: str, pool, k: int) -> tuple:
    """The k highest-priority students of pool at school s, in pool order."""
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


class _Pointers:
    """The pointing graph of TTC, FCT and CT, kept across their steps.

    ptr[i] is the first school of student i's list with a free seat, or
    SELF; a school points at the first student of its priority order still
    in the pool.  See the module docstring for why both cursors only move
    forward.  `moved` collects the students whose pointer changed; FCT
    drains it.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.capacity = {s: problem.quota(s) for s in problem.schools}
        self.assignment: dict = {}
        self.ptr: dict = {}
        self.moved: set = set()
        self._pos = dict.fromkeys(problem.students, -1)
        self._pointing: dict = {s: [] for s in problem.schools}
        self._selfs: list = []
        # a school's first pool member in its priority order is exactly
        # _top_priority(problem, s, pool, 1)[0]
        self._order = problem.priorities
        self._top = dict.fromkeys(problem.schools, 0)
        for i in problem.students:
            self._advance(i)

    def _advance(self, i: str) -> None:
        prefs, k = self.problem.preferences[i], self._pos[i] + 1
        while k < len(prefs) and self.capacity[prefs[k]] < 1:
            k += 1
        self._pos[i] = k
        if k < len(prefs):
            self.ptr[i] = prefs[k]
            self._pointing[prefs[k]].append(i)
        else:
            self.ptr[i] = SELF
            self._selfs.append(i)
        self.moved.add(i)

    def execute(self, step: TraceStep, moves) -> None:
        """_execute, then re-point the students of every school that filled."""
        moves = list(moves)
        _execute(step, self.assignment, self.capacity, moves)
        for s in dict.fromkeys(a for _, a in moves):
            if self.capacity.get(s, 1) < 1:
                for i in self._pointing.pop(s, ()):
                    if i not in self.assignment:
                        self._advance(i)

    def trade(self, step: TraceStep, held=()) -> None:
        """One trading round: every cycle of the pointing graph executes.

        The unassigned students point; schools with a free seat point into
        the pool, which is the unassigned students plus those of held.
        """
        assignment, succ, top = self.assignment, {}, {}
        for s in self.problem.schools:
            if self.capacity[s] < 1:
                continue
            order, k = self._order[s], self._top[s]
            while k < len(order) and order[k] in assignment and order[k] not in held:
                k += 1
            self._top[s] = k
            if k == len(order):
                continue
            j = top[s] = order[k]
            if j not in assignment and self.ptr[j] is not SELF:
                succ[s] = self.ptr[j]
        selfs, self._selfs = [i for i in self._selfs if i not in assignment], []
        step.cycles = _find_cycles(self.problem, succ, top, selfs)
        self.execute(step, (m for c in step.cycles for m in c.assignments().items()))


# --------------------------------------------------------------------------
# Top Trading Cycles
# --------------------------------------------------------------------------

def run_ttc(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    steps = []
    while len(ptrs.assignment) < len(problem.students):
        record = TraceStep(step=len(steps) + 1, capacities=dict(ptrs.capacity))
        ptrs.trade(record)
        steps.append(record)
    mu = problem.matching(ptrs.assignment)
    return mu, MechanismTrace("ttc", steps, mu)


# --------------------------------------------------------------------------
# Deferred Acceptance (student proposing)
# --------------------------------------------------------------------------

def run_da(problem: Problem) -> Matching:
    next_choice = {i: 0 for i in problem.students}
    # per school, a heap of (-priority rank, student): its root is the
    # lowest-priority holder, the one rejected first
    held: dict = {s: [] for s in problem.schools}
    free = deque(problem.students)
    while free:
        i = free.popleft()
        prefs = problem.preferences[i]
        while next_choice[i] < len(prefs):
            s = prefs[next_choice[i]]
            holders = held[s]
            entry = (-problem.priority_rank(s, i), i)
            if len(holders) < problem.quota(s):
                heapq.heappush(holders, entry)
                break
            rejected = heapq.heappushpop(holders, entry)[1]
            if rejected == i:
                next_choice[i] += 1
                continue
            next_choice[rejected] += 1
            free.append(rejected)
            break
        # student with exhausted list stays unmatched
    assignment = {i: SELF for i in problem.students}
    for s, holders in held.items():
        for _, i in holders:
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
    ptrs = _Pointers(problem)
    steps = []
    while len(ptrs.assignment) < len(problem.students):
        record = TraceStep(step=len(steps) + 1, capacities=dict(ptrs.capacity))
        # clinch phase: a student pointing at a school where she is
        # guaranteed a seat is assigned there at once; no one else could
        # clinch last step, so only a student whose pointer moved can now
        moved, ptrs.moved = sorted(ptrs.moved, key=problem.student_index), set()
        clinches = [
            (i, ptrs.ptr[i])
            for i in moved
            if i not in ptrs.assignment and i in guaranteed.get(ptrs.ptr[i], ())
        ]
        ptrs.execute(record, clinches)
        record.clinch_rounds.append(ClinchRound(1, dict(guarantees), clinches))
        # trading phase: schools keep pointing at the step-start pool, so a
        # cycle through a just-clinched student does not form (such a
        # student points nowhere)
        ptrs.trade(record, held={i for i, _ in clinches})
        steps.append(record)
        if not clinches and not record.cycles:
            raise AssertionError("first clinch and trade made no progress")
    mu = problem.matching(ptrs.assignment)
    return mu, MechanismTrace("fct", steps, mu, guarantees_initial=guarantees)


# --------------------------------------------------------------------------
# Clinch and Trade
# --------------------------------------------------------------------------

def run_ct(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    capacity, assignment = ptrs.capacity, ptrs.assignment
    remaining = list(problem.students)
    steps = []
    pointed_last_trading: dict = {}
    while remaining:
        record = TraceStep(step=len(steps) + 1, capacities=dict(capacity))
        # students who pointed in the previous trading phase at a school that
        # still has a seat stay in the trading market and skip clinching
        excluded = tuple(
            i for i in remaining if capacity.get(pointed_last_trading.get(i), 0) >= 1
        )
        record.excluded = excluded
        barred = set(excluded)
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
                    if i not in barred
                )
                for s in problem.schools
            }
            clinches = []
            for i in unclinched:
                prefs = problem.preferences[i]
                if not prefs:
                    continue
                top = prefs[0]  # clinch pointing ignores current capacity
                if i in guarantees[top]:
                    clinches.append((i, top))
            if not clinches:
                break
            record.clinch_rounds.append(ClinchRound(round_no, guarantees, clinches))
            ptrs.execute(record, clinches)
            unclinched = [i for i in unclinched if i not in assignment]
        # one trading round among everyone left (excluded students included)
        pointed_last_trading = {i: ptrs.ptr[i] for i in unclinched}
        ptrs.trade(record)
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
        # available school whose student ranks highest in s's priority order;
        # that holder depends only on (s, best school), so it is found once
        ptr: dict = {}
        holder_at: dict = {}
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
            key = (s, target_school)
            holder = holder_at.get(key)
            if holder is None:
                holder = holder_at[key] = _top_priority(problem, s, holders[target_school], 1)[0]
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
