"""The six matching mechanisms, each with a per-step trace.

run_ttc / run_fct / run_ct / run_ettc return (matching, trace); run_da and
run_ia return just the matching.  Traces record, step by step, remaining
capacities, clinch rounds, cycles and the matches they formed, which is
enough to replay or audit a run.
"""
from __future__ import annotations

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


def _find_cycles(problem: Problem, student_ptr: dict, school_ptr: dict) -> list[Cycle]:
    """Cycles of the pointing graph, deterministically ordered.

    student_ptr maps student -> school or SELF; school_ptr maps school ->
    student.  Every node has at most one outgoing edge, so each node lies on
    at most one cycle.  Non-self cycles are rotated to start at their
    earliest school (declaration order); cycle list is sorted by that school,
    with self-cycles last in student order.
    """
    cycles = []
    state: dict = {}  # node -> "done" once classified

    def follow(node):
        path = []
        seen_at = {}
        cur = node
        while True:
            if cur in state:
                for p in path:
                    state[p] = "done"
                return
            if cur in seen_at:
                cyc = path[seen_at[cur]:]
                for p in path:
                    state[p] = "done"
                cycles.append(cyc)
                return
            seen_at[cur] = len(path)
            path.append(cur)
            if cur[0] == "i":
                if cur[1] not in student_ptr:
                    for p in path:
                        state[p] = "done"
                    return
                nxt = student_ptr[cur[1]]
                if nxt is SELF:
                    for p in path:
                        state[p] = "done"
                    cycles.append([cur])
                    return
                cur = ("s", nxt)
            else:
                j = school_ptr.get(cur[1])
                if j is None:
                    for p in path:
                        state[p] = "done"
                    return
                cur = ("i", j)

    for i in student_ptr:
        follow(("i", i))
    for s in school_ptr:
        follow(("s", s))

    out = []
    for cyc in cycles:
        if len(cyc) == 1 and cyc[0][0] == "i":
            out.append(Cycle((cyc[0][1],), is_self_cycle=True))
            continue
        school_positions = [k for k, node in enumerate(cyc) if node[0] == "s"]
        start = min(
            school_positions,
            key=lambda k: problem.school_index(cyc[k][1]),
        )
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


def _top_priority_remaining(problem: Problem, s: str, remaining) -> str | None:
    best = None
    for i in remaining:
        if best is None or problem.higher_priority(s, i, best):
            best = i
    return best


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
        student_ptr = {i: _best_school_with_capacity(problem, i, capacity) for i in remaining}
        school_ptr = {}
        for s in problem.schools:
            if capacity[s] >= 1:
                j = _top_priority_remaining(problem, s, remaining)
                if j is not None:
                    school_ptr[s] = j
        cycles = _find_cycles(problem, student_ptr, school_ptr)
        record = TraceStep(step=step_no, capacities=dict(capacity))
        matched = []
        for cyc in cycles:
            record.cycles.append(cyc)
            for i, a in cyc.assignments().items():
                assignment[i] = a
                record.matches[i] = a
                matched.append(i)
                if a is not SELF:
                    capacity[a] -= 1
        remaining = [i for i in remaining if i not in set(matched)]
        steps.append(record)
    mu = problem.matching(assignment)
    return mu, MechanismTrace("ttc", steps, mu)


# --------------------------------------------------------------------------
# Deferred Acceptance (student proposing)
# --------------------------------------------------------------------------

def run_da(problem: Problem) -> Matching:
    next_choice = {i: 0 for i in problem.students}
    held: dict = {s: [] for s in problem.schools}
    free = list(problem.students)
    while free:
        i = free.pop(0)
        prefs = problem.preferences[i]
        while next_choice[i] < len(prefs):
            s = prefs[next_choice[i]]
            holders = held[s]
            holders.append(i)
            holders.sort(key=lambda j: problem.priority_rank(s, j))
            if len(holders) <= problem.quota(s):
                break
            rejected = holders.pop()
            if rejected == i:
                next_choice[i] += 1
                continue
            next_choice[rejected] += 1
            free.append(rejected)
            break
        # student with exhausted list stays unmatched
    assignment = {i: SELF for i in problem.students}
    for s, holders in held.items():
        for i in holders:
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
            group = sorted(applicants[s], key=lambda j: problem.priority_rank(s, j))
            admitted = group[: capacity[s]]
            capacity[s] -= len(admitted)
            for i in admitted:
                assignment[i] = s
        unassigned = [
            i for i in unassigned if assignment[i] is SELF and i not in set(exhausted)
        ]
        round_no += 1
    return problem.matching(assignment)


# --------------------------------------------------------------------------
# First Clinch and Trade
# --------------------------------------------------------------------------

def initial_guarantees(problem: Problem) -> dict:
    """School -> students holding one of its quota-many highest priorities."""
    return {
        s: tuple(
            i for i in problem.students if problem.priority_rank(s, i) <= problem.quota(s)
        )
        for s in problem.schools
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
        for i, s in clinches:
            assignment[i] = s
            capacity[s] -= 1
            record.matches[i] = s
        record.clinch_rounds.append(ClinchRound(1, dict(guarantees), clinches))
        clinched = {i for i, _ in clinches}
        remaining = [i for i in remaining if i not in clinched]
        # trading phase: schools keep pointing at the step-start remaining
        # set, so a cycle through a just-clinched student does not form
        student_ptr = {i: _best_school_with_capacity(problem, i, capacity) for i in remaining}
        school_ptr = {}
        for s in problem.schools:
            if capacity[s] >= 1:
                j = _top_priority_remaining(problem, s, step_start_remaining)
                if j is not None:
                    school_ptr[s] = j
        cycles = [
            c
            for c in _find_cycles(problem, student_ptr, school_ptr)
            if set(c.students) <= set(remaining)
        ]
        matched = []
        for cyc in cycles:
            record.cycles.append(cyc)
            for i, a in cyc.assignments().items():
                assignment[i] = a
                record.matches[i] = a
                matched.append(i)
                if a is not SELF:
                    capacity[a] -= 1
        remaining = [i for i in remaining if i not in set(matched)]
        steps.append(record)
        if not clinches and not cycles:
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
            eligible = [i for i in unclinched if i not in excluded]
            pool = set(unclinched)  # rank competitors: everyone not yet removed
            guarantees = {}
            for s in problem.schools:
                g = []
                for i in eligible:
                    ahead = sum(
                        1
                        for j in pool
                        if j != i and problem.higher_priority(s, j, i)
                    )
                    if ahead < capacity[s]:
                        g.append(i)
                guarantees[s] = tuple(g)
            clinches = []
            for i in eligible:
                prefs = problem.preferences[i]
                if not prefs:
                    continue
                top = prefs[0]  # clinch pointing ignores current capacity
                if i in guarantees.get(top, ()):
                    clinches.append((i, top))
            if not clinches:
                break
            record.clinch_rounds.append(ClinchRound(round_no, guarantees, clinches))
            for i, s in clinches:
                assignment[i] = s
                capacity[s] -= 1
                record.matches[i] = s
            clinched = {i for i, _ in clinches}
            unclinched = [i for i in unclinched if i not in clinched]
        # one trading round among everyone left (excluded students included)
        student_ptr = {
            i: _best_school_with_capacity(problem, i, capacity) for i in unclinched
        }
        school_ptr = {}
        for s in problem.schools:
            if capacity[s] >= 1:
                j = _top_priority_remaining(problem, s, unclinched)
                if j is not None:
                    school_ptr[s] = j
        pointed_last_trading = {
            i: (None if p is SELF else p) for i, p in student_ptr.items()
        }
        cycles = _find_cycles(problem, student_ptr, school_ptr)
        matched = []
        for cyc in cycles:
            record.cycles.append(cyc)
            for i, a in cyc.assignments().items():
                assignment[i] = a
                record.matches[i] = a
                matched.append(i)
                if a is not SELF:
                    capacity[a] -= 1
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
        pairs = []
        for i in problem.students:
            if i not in remaining:
                continue
            for s in problem.schools:
                ahead = sum(
                    1
                    for j in remaining
                    if j != i and problem.higher_priority(s, j, i)
                )
                if ahead < capacity[s]:
                    pairs.append((i, s))
        record.pairs = list(pairs)
        if not pairs:
            # no seat left to inherit anywhere: everyone remaining ends alone
            for i in remaining:
                assignment[i] = SELF
                record.matches[i] = SELF
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
            holder = min(
                holders[target_school], key=lambda l: problem.priority_rank(s, l)
            )
            ptr[(i, s)] = (holder, target_school)

        # students with no acceptable inheritable seat leave unmatched
        for i in dict.fromkeys(self_removed):
            assignment[i] = SELF
            record.matches[i] = SELF
        remaining = [i for i in remaining if i not in assignment]
        pairs = [(i, s) for i, s in pairs if i in set(remaining)]

        # cycles of the pair graph
        state: dict = {}
        pair_cycles = []
        for start in pairs:
            if start in state or start not in ptr:
                continue
            path = []
            seen_at: dict = {}
            cur = start
            while True:
                if cur in state or cur not in ptr:
                    for p in path:
                        state[p] = "done"
                    break
                if cur in seen_at:
                    cyc = path[seen_at[cur]:]
                    for p in path:
                        state[p] = "done"
                    pair_cycles.append(cyc)
                    break
                seen_at[cur] = len(path)
                path.append(cur)
                cur = ptr[cur]
        record.pair_cycles = [list(c) for c in pair_cycles]

        # execution: a student in cycles takes her best pointed-to school;
        # seats of her other cycle pairs pass to the pairs pointing at them,
        # uninvolved seats return to the inheritance pool next step
        targets: dict = {}
        for cyc in pair_cycles:
            for (i, s) in cyc:
                t = ptr[(i, s)][1]
                targets.setdefault(i, []).append(t)
        matched = []
        for i, opts in targets.items():
            best = min(opts, key=lambda t: problem.pref_rank(i, t))
            assignment[i] = best
            record.matches[i] = best
            matched.append(i)
        for i in matched:
            capacity[assignment[i]] -= 1
        remaining = [i for i in remaining if i not in set(matched)]
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
