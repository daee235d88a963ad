"""The six matching mechanisms, each with a per-step trace.

run_ttc / run_fct / run_ct / run_ettc return (matching, trace); run_da and
run_ia return just the matching.  Traces record, step by step, remaining
capacities, clinch rounds, cycles and the matches they formed, which is
enough to replay or audit a run.

TTC, FCT, CT and ETTC are each a step function on one pointer state
(`_Pointers`) kept across their steps.  One loop, `_Pointers.run`, drives
all four: it numbers the steps, records the capacities each starts from,
and stops a run whose step matched no one.  A trading step costs about
the schools plus the students it moves:
- cursors are monotone: a student's cursor over her list only skips
  schools without a free seat, and capacities only fall; a school's cursor
  over its priority order only skips students who left the pool, and the
  pool only shrinks;
- pointers are refreshed when a school fills: only the students pointing
  at it move on, each school keeps the list of who points at it, and
  `execute` returns whom it re-pointed;
- walks start from schools: every cycle but a self-cycle holds a school,
  so the graph is walked on the schools with a free seat, and the students
  whose lists ran out form the self-cycles.

FCT's and CT's guarantees and ETTC's heirs come from the same state: a
school's heir window is the first capacity[s] pool members of its priority
order.  Priorities are strict, the pool only shrinks, and a school gives up
a seat only to a move that also takes a member of its window out of the
pool (a clinch takes a guaranteed student, a trading cycle the school's
top student, an ETTC cycle one of its heirs per student it seats there).
So a window never holds too many members: it drops those who left,
extends from a forward-only cursor, and rebuilds its student-ordered tuple
only when it changed.  ETTC's holder cache rereads only what that cursor
has read since, as a student it skipped had already left the pool.

On a seeded market of 5000 students and 20 schools with lists of four,
run_ttc takes about 0.1 s, run_ct 0.2 s and run_ettc 1.5 s (`BENCH_27.json`);
CT clinches in its first step only, as a pointer leaves a student's first
choice only once that school is full.  ETTC still rebuilds its pair graph
and walks every pair at every step, so it grows faster than the others.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse, repeat

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
    guarantees_initial: dict = field(default_factory=dict)


def _functional_cycles(succ: dict, starts) -> list[list]:
    """Cycles of a graph in which every node has at most one successor.

    succ maps a node to its successor; a node missing from it has none.  A
    walk from each start in turn follows successors until it meets a node
    already walked or one on its own path; the latter closes a cycle,
    listed from that node in walk order.  Cycles come in discovery order.
    """
    walk_of: dict = {}  # node -> the number of the walk that met it first
    cycles = []
    for walk, cur in enumerate(starts):
        path = []
        while cur in succ and cur not in walk_of:
            walk_of[cur] = walk
            path.append(cur)
            cur = succ[cur]
        if walk_of.get(cur) == walk:
            cycles.append(path[path.index(cur):])
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


class _Pointers:
    """The pointing graph and heir windows of TTC, FCT, CT and ETTC, kept
    across their steps.

    ptr[i] is the first school of student i's list with a free seat, or
    SELF; a school points at the first student of its priority order still
    in the pool, which is the highest-priority member of its heir window.
    See the module docstring for why every cursor only moves forward.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.capacity = {s: problem.quota(s) for s in problem.schools}
        self.assignment: dict = {}
        self.ptr: dict = {}
        self._pos = dict.fromkeys(problem.students, -1)
        self._pointing: dict = {s: [] for s in problem.schools}
        self._selfs: list = []
        self._order = problem.priorities
        self._top = dict.fromkeys(problem.schools, 0)
        # heir windows: each school's members in student order, and the
        # position its cursor has read its priority order to
        self._heirs: dict = dict.fromkeys(problem.schools, ())
        self._cut = dict.fromkeys(problem.schools, 0)
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

    def execute(self, step: TraceStep, moves) -> set:
        """Match each (student, school or SELF) of moves, using up the seats,
        then re-point the students of every school that filled; returns the
        students it re-pointed."""
        moves, repointed = list(moves), set()
        for i, a in moves:
            self.assignment[i] = a
            step.matches[i] = a
            if a is not SELF:
                self.capacity[a] -= 1
        for s in dict.fromkeys(a for _, a in moves):
            if self.capacity.get(s, 1) < 1:
                for i in self._pointing.pop(s, ()):
                    if i not in self.assignment:
                        self._advance(i)
                        repointed.add(i)
        return repointed

    def heirs(self, s: str) -> tuple:
        """The heir window of s, in student order: the first capacity[s]
        pool members of s's priority order.  The tuple is the same object
        for as long as the window does not change."""
        heirs, order, assignment = self._heirs[s], self._order[s], self.assignment
        kept = [*filterfalse(assignment.__contains__, heirs)]
        need, k, added = self.capacity[s] - len(kept), self._cut[s], []
        while need > 0 and k < len(order):
            if order[k] not in assignment:
                added.append(order[k])
                need -= 1
            k += 1
        self._cut[s] = k
        if added or len(kept) < len(heirs):
            # kept is one sorted run, which sorted() merges with the rest
            self._heirs[s] = tuple(sorted(kept + added, key=self.problem._sidx.__getitem__))
        return self._heirs[s]

    def trade(self, step: TraceStep, held=()) -> set:
        """One trading round: every cycle of the pointing graph executes.

        The unassigned students point; schools with a free seat point into
        the pool, which is the unassigned students plus those of held.
        Returns the students it re-pointed.
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
        return self.execute(step, (m for c in step.cycles for m in c.assignments().items()))

    def run(self, name: str, step) -> tuple[Matching, MechanismTrace]:
        """Call step on a fresh TraceStep until every student is matched;
        a step that matches no one raises AssertionError."""
        steps = []
        while len(self.assignment) < len(self.problem.students):
            record = TraceStep(step=len(steps) + 1, capacities=dict(self.capacity))
            step(record)
            steps.append(record)
            if not record.matches:
                raise AssertionError(f"{name} made no progress")
        return self.problem.matching(self.assignment), MechanismTrace(name, steps)


# --------------------------------------------------------------------------
# Top Trading Cycles
# --------------------------------------------------------------------------

def run_ttc(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    return ptrs.run("ttc", ptrs.trade)


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
    prefs, sidx = problem.preferences, problem._sidx
    # the students still applying: unmatched, with a choice left on their list
    unassigned = [i for i in problem.students if prefs[i]]
    round_no = 0
    while unassigned:
        applicants: dict = {s: [] for s in problem.schools}
        for i in unassigned:
            applicants[prefs[i][round_no]].append(i)
        # each school admits its highest-priority applicants, up to its seats
        for s, pool in applicants.items():
            if len(pool) > capacity[s]:
                row = problem._prio_rank[problem._cidx[s]]
                pool = heapq.nsmallest(capacity[s], pool, key=lambda j: row[sidx[j]])
            for i in pool:
                assignment[i] = s
            capacity[s] -= len(pool)
        round_no += 1
        unassigned = [i for i in unassigned if assignment[i] is SELF and round_no < len(prefs[i])]
    return problem.matching(assignment)


# --------------------------------------------------------------------------
# First Clinch and Trade
# --------------------------------------------------------------------------

def run_fct(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    # each school guarantees its seats to its heir window at the start
    guarantees = {s: ptrs.heirs(s) for s in problem.schools}
    guaranteed = {s: set(g) for s, g in guarantees.items()}
    # the students whose pointer moved since the last clinch phase: all, at first
    moved = problem.students

    def step(record: TraceStep) -> None:
        nonlocal moved
        # clinch phase: a student pointing at a school where she is
        # guaranteed a seat is assigned there at once; no one else could
        # clinch last step, so only a student whose pointer moved can now
        clinches = [
            (i, ptrs.ptr[i])
            for i in sorted(moved, key=problem.student_index)
            if i not in ptrs.assignment and i in guaranteed.get(ptrs.ptr[i], ())
        ]
        repointed = ptrs.execute(record, clinches)
        record.clinch_rounds.append(ClinchRound(1, dict(guarantees), clinches))
        # trading phase: schools keep pointing at the step-start pool, so a
        # cycle through a just-clinched student does not form (such a
        # student points nowhere)
        moved = repointed | ptrs.trade(record, held={i for i, _ in clinches})

    mu, trace = ptrs.run("fct", step)
    trace.guarantees_initial = guarantees
    return mu, trace


# --------------------------------------------------------------------------
# Clinch and Trade
# --------------------------------------------------------------------------

def run_ct(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    assignment = ptrs.assignment
    # per school, the students who list it first: the ones who can clinch it
    fans: dict = {s: set() for s in problem.schools}
    for i, prefs in problem.preferences.items():
        if prefs:
            fans[prefs[0]].add(i)
    remaining = list(problem.students)
    # the students whose pointer moved in the last trading phase: all, at first
    repointed = set(problem.students)

    def step(record: TraceStep) -> None:
        nonlocal remaining, repointed
        # students who pointed in the previous trading phase at a school that
        # still has a seat stay in the trading market and skip clinching;
        # a pointer moves only when its school fills, so these are the
        # students whose pointer did not move in that phase
        record.excluded = tuple(filterfalse(repointed.__contains__, remaining))
        # iterated clinching, in step 1 only: a school guarantees its seats to
        # its heir window, so guarantees improve as others clinch.  Later, only
        # a repointed student may clinch, and her pointer left her first choice
        # (where it started) only once that school filled, emptying its window
        for round_no in count(1) if record.step == 1 else ():
            guarantees = {s: ptrs.heirs(s) for s in problem.schools}
            # clinch pointing ignores current capacity: a student clinches
            # the school she lists first if it guarantees her a seat there
            clinched = sorted((i for s, g in guarantees.items() for i in fans[s].intersection(g)),
                              key=problem.student_index)
            if not clinched:
                break
            clinches = [(i, problem.preferences[i][0]) for i in clinched]
            record.clinch_rounds.append(ClinchRound(round_no, guarantees, clinches))
            ptrs.execute(record, clinches)
        # one trading round among everyone left (excluded students included)
        repointed = ptrs.trade(record)
        remaining = list(filterfalse(assignment.__contains__, remaining))

    return ptrs.run("ct", step)


# --------------------------------------------------------------------------
# Equitable Top Trading Cycles
# --------------------------------------------------------------------------

def run_ettc(problem: Problem) -> tuple[Matching, MechanismTrace]:
    ptrs = _Pointers(problem)
    assignment, sidx, order = ptrs.assignment, problem._sidx, problem.priorities
    rank = {s: dict(zip(prio, range(len(prio)))) for s, prio in order.items()}
    # (school s, school t) -> (heirs of t, the one of them s ranks highest,
    # how far t's window cursor had read t's priority order); kept across steps
    holder_at: dict = {}

    def holder(s: str, t: str, heirs: tuple) -> str:
        cached = holder_at.get((s, t))
        if cached is not None and cached[0] is heirs:
            return cached[1]
        cut = ptrs._cut[t]
        if cached is not None and cached[1] not in assignment:
            # she is still an heir of t, so only those the cursor has read
            # since can outrank her; whom it skipped had left the pool already
            joined = filterfalse(assignment.__contains__, order[t][cached[2]:cut])
            best = min((cached[1], *joined), key=rank[s].__getitem__)
        else:
            best = min(heirs, key=rank[s].__getitem__)
        holder_at[(s, t)] = (heirs, best, cut)
        return best

    def step(record: TraceStep) -> None:
        # inheritance: each school's open seats go to its heir window, one
        # seat per student; every school with a seat left has heirs
        heirs = {s: ptrs.heirs(s) for s in problem.schools}
        pairs = record.pairs = sorted(
            chain.from_iterable(zip(h, repeat(s)) for s, h in heirs.items()),
            key=lambda pair: sidx[pair[0]],
        )
        if not pairs:
            # no seat left to inherit anywhere: everyone remaining ends alone
            left = filterfalse(assignment.__contains__, problem.students)
            ptrs.execute(record, ((i, SELF) for i in left))
            return

        # pointing: pair (i, s) points at the pair holding a seat at i's best
        # school with a seat, ptrs.ptr[i], whose student ranks highest in
        # s's priority order; students with no such school leave unmatched
        succ: dict = {}
        alone = set()
        for s, inheriting in heirs.items():
            head: dict = {}
            for i in inheriting:
                t = ptrs.ptr[i]
                if t is SELF:
                    alone.add(i)
                    continue
                if t not in head:
                    head[t] = (holder(s, t, heirs[t]), t)
                succ[(i, s)] = head[t]
        ptrs.execute(record, ((i, SELF) for i in sorted(alone, key=sidx.__getitem__)))

        # cycles of the pair graph; a walk from an alone student's pair,
        # which has no successor, finds none
        pair_cycles = record.pair_cycles = _functional_cycles(succ, pairs)

        # execution: every pair of student i points at ptrs.ptr[i], which she
        # takes; seats of her other cycle pairs pass to the pairs pointing at
        # them, uninvolved seats return to the inheritance pool next step
        takers = dict.fromkeys(i for cyc in pair_cycles for i, _ in cyc)
        ptrs.execute(record, ((i, ptrs.ptr[i]) for i in takers))

    return ptrs.run("ettc", step)


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
