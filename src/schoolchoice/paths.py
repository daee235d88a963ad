"""Constructive farsighted improving paths toward mechanism outcomes.

Each builder replays its mechanism's trace through one loop that turns,
step by step, the clinch rounds, the students left unmatched outside any
cycle, all ETTC pair cycles (one block) and then each TTC/FCT/CT cycle
into short blocks of enforceable moves.  In a block each student holds
one or more seats (in a cycle, the one at the school pointing at her; in
ETTC, one per pair she has in the step's cycles) and is bound for one
school:

* insertion: each block student grabs her first held seat, evicting the
  lowest-priority occupant of a full school that holds none of them;
* vacate: the block students give those seats up together;
* seat hand-off: a school left with fewer free seats than the block
  students bound for it is entered together by every block student holding
  a seat there.  They are its heirs, so it sheds squatters they all
  outrank; those not bound for it leave again.  A cycle leaves no school
  short;
* rematch: they join the schools they are bound for, which now hold free
  seats.

A block whose every student holds just the seat she is bound for (a
one-student cycle) is a single join.  Already-realised matches are skipped
and no-op moves are elided.  A move that would revisit an earlier matching
truncates the loop instead, so the emitted sequence always consists of
distinct matchings; hence a hand-off is made only where the school sheds
someone, as entering and leaving a school with room would be undone.
Students whose blocks have already been replayed are settled; evictions
prefer unsettled squatters so realised matches stay put.  When a
move makes a school the movers join refuse its newcomers (for instance,
one losing two block students while admitting one cannot replace both),
the builder falls back to vacating the movers first, which restores
one-in-one-out moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .model import SELF, Matching, Problem, SchoolChoiceError
from .mechanisms import run_ct, run_ettc, run_fct, run_ttc
from .farsight import Coalition, MoveStep, PathCertificate, school_move_admissible


class IdentityError(SchoolChoiceError):
    """The start matching already equals the construction target."""


class ConstructionError(SchoolChoiceError):
    """The replay could not complete an enforceable move sequence."""


@dataclass
class ConstructionLog:
    """Chronological record of the moves a builder emitted."""

    entries: list = field(default_factory=list)  # (phase, detail, matching)

    def add(self, phase: str, detail: str, mu: Matching):
        self.entries.append((phase, detail, mu))


class _PathAccumulator:
    def __init__(self, problem: Problem, start: Matching, log: ConstructionLog):
        self.problem = problem
        self.matchings = [start]
        self.steps: list[MoveStep] = []
        self.positions = {start: 0}
        self.settled: set = set()
        self.log = log

    @property
    def current(self) -> Matching:
        return self.matchings[-1]

    def emit(self, target: Matching, students, schools, phase: str, detail: str = ""):
        cur = self.current
        if target == cur:
            return
        if target in self.positions:
            # the intervening moves form a loop; drop them
            pos = self.positions[target]
            for mu in self.matchings[pos + 1 :]:
                del self.positions[mu]
            del self.matchings[pos + 1 :]
            del self.steps[pos:]
            return
        self.steps.append(MoveStep(cur, target, Coalition(students, schools)))
        self.matchings.append(target)
        self.positions[target] = len(self.matchings) - 1
        self.log.add(phase, detail, target)

    def vacate(self, students, phase: str, detail: str):
        """The students give up their seats together."""
        self.emit(self.current.reassign({i: SELF for i in students}), students, (), phase, detail)

    def shed_candidates(self, roster, s: str, count: int) -> list:
        """Occupants to evict from s, unsettled squatters first, each group
        lowest priority first."""

        def key(j):
            return (j in self.settled, -self.problem.priority_rank(s, j))

        return sorted(roster, key=key)[:count]

    def joined(self, moves: dict) -> Matching:
        """The current matching with `moves` (student -> school) realised,
        shedding occupants of any school pushed past quota.

        Each entered school's occupants are read off the current matching's
        assignment vector."""
        cur = self.current
        changes = dict(moves)
        students, cidx = self.problem.students, self.problem._cidx
        for s in set(moves.values()):
            k = cidx[s]
            staying = [j for j, x in zip(students, cur._assign) if x == k and j not in moves]
            entering = sum(1 for t in moves.values() if t == s)
            need = entering + len(staying) - self.problem.quota(s)
            if need > 0:
                for j in self.shed_candidates(staying, s, need):
                    changes[j] = SELF
        return cur.reassign(changes)

    def join(self, moves: dict, phase: str, detail: str, clear: str | None = None):
        """Emit the move realising `moves`; the movers and the schools they
        join form the coalition.

        Given a `clear` detail, a move that some school joined cannot
        admit by the school rule (`school_move_admissible`; say, one losing
        several movers while admitting one) is preceded by the movers giving
        up their seats, which restores one-in-one-out moves.  Only a school
        that movers both leave and join can turn from refusing to admitting
        that way, so the schools are asked only when some mover sits at a
        school joined.
        """
        cur = self.current
        schools = set(moves.values())
        target = self.joined(moves)
        if (
            clear is not None
            and any(cur.school_of(i) in schools for i in moves)
            and not all(school_move_admissible(self.problem, s, cur, target) for s in schools)
        ):
            self.vacate(moves, phase, clear)
            target = self.joined(moves)
        self.emit(target, moves, schools, phase, detail)


def _vacate_self_bound(acc: _PathAccumulator, students, label: str):
    """Students destined to end unmatched give up their current seats."""
    for j in students:
        acc.vacate({j}, label, f"unmatched {j}")
        acc.settled.add(j)


def _cycle_block(acc: _PathAccumulator, seats: dict, targets: dict, label: str, name: str):
    """Emit the moves sending each student i to targets[i]; seats[i] lists
    the schools whose seats she holds, first the one she takes at
    insertion."""
    students = list(targets)
    if all(acc.current.school_of(i) == targets[i] for i in students):
        acc.settled.update(students)
        return
    if all(seats[i] == [targets[i]] for i in students):
        # the seats held are the seats wanted
        acc.join(targets, label, f"cycle {name}", clear=f"clear {name}")
        acc.settled.update(students)
        return
    # insertion: everyone takes her first seat; a full school holding no
    # block student sheds its lowest-priority occupant; when one school
    # would lose several block students at once, the movers give up their
    # seats first
    first = {i: seats[i][0] for i in students}
    acc.join(first, label, f"insert {name}", clear=f"clear {name}")
    # vacate: the block students free all their freshly taken seats at once
    acc.vacate(students, label, f"vacate {name}")
    # seat hand-off at each school short of free seats
    problem = acc.problem
    for s in sorted(set(targets.values()), key=problem.school_index):
        bound = sum(1 for t in targets.values() if t == s)
        free = problem.quota(s) - acc.current._assign.count(problem._cidx[s])
        if free < bound:
            heirs = [i for i in students if s in seats[i]]
            acc.join(dict.fromkeys(heirs, s), label, f"hand off {s} {name}")
            acc.vacate([i for i in heirs if targets[i] != s], label, f"leave {s} {name}")
    # rematch: everyone joins her target, which now holds a free seat
    acc.join(targets, label, f"rematch {name}")
    acc.settled.update(students)


def _alignment_block(acc: _PathAccumulator, clinches, label: str):
    """Moves aligning all unrealised clinched matches of a round."""
    todo = {i: s for i, s in clinches if acc.current.school_of(i) != s}
    if todo:
        # a clincher leaving one clinch school for another can block the
        # one-move alignment; vacating the movers first restores it
        acc.join(todo, label, f"clinch {sorted(todo.items())}", clear=f"clear {sorted(todo)}")
    acc.settled.update(i for i, _ in clinches)


def _replay(problem: Problem, mu: Matching, runner, outcome: str, log) -> PathCertificate:
    """Replay a trace step by step, in the order the module docstring gives."""
    target, trace = runner(problem)
    if mu == target:
        raise IdentityError(f"matching already equals the {outcome} outcome")
    acc = _PathAccumulator(problem, mu, log or ConstructionLog())
    for step in trace.steps:
        label = f"step {step.step}"
        for rnd in step.clinch_rounds:
            _alignment_block(acc, rnd.clinches, label)
        # students left unmatched outside any cycle (ETTC only) give up their seats
        in_cycles = {i for cyc in step.cycles for i in cyc.students}
        self_bound = [i for i, a in step.matches.items() if a is SELF and i not in in_cycles]
        _vacate_self_bound(acc, sorted(self_bound, key=problem.student_index), label)
        # the step's pair cycles form one block; a student in several
        # cycles holds several seats
        seats: dict = {}
        for i, s in chain.from_iterable(step.pair_cycles):
            seats.setdefault(i, []).append(s)
        if seats:
            seats = {i: sorted(held, key=problem.school_index) for i, held in seats.items()}
            name = " ".join(f"({i},{','.join(held)})" for i, held in seats.items())
            _cycle_block(acc, seats, {i: step.matches[i] for i in seats}, label, name)
        for cyc in step.cycles:
            if cyc.is_self_cycle:
                _vacate_self_bound(acc, cyc.students, label)
            else:
                seats = {i: [s] for i, s in zip(cyc.students, cyc.schools)}
                _cycle_block(acc, seats, cyc.assignments(), label, str(cyc))
    if acc.current != target:
        raise ConstructionError(
            f"replay ended at {acc.current.literal()!r} instead of the mechanism outcome"
        )
    return PathCertificate(tuple(acc.matchings), tuple(acc.steps))


def build_path_to_ttc(
    problem: Problem, mu: Matching, log: ConstructionLog | None = None
) -> PathCertificate:
    """Improving path from mu to the top trading cycles outcome."""
    return _replay(problem, mu, run_ttc, "trading", log)


def build_path_to_fct(
    problem: Problem, mu: Matching, log: ConstructionLog | None = None
) -> PathCertificate:
    """Improving path from mu to the first clinch and trade outcome."""
    return _replay(problem, mu, run_fct, "clinch and trade", log)


def build_path_to_ct(
    problem: Problem, mu: Matching, log: ConstructionLog | None = None
) -> PathCertificate:
    """Improving path from mu to the clinch and trade outcome."""
    return _replay(problem, mu, run_ct, "clinch and trade", log)


def build_path_to_ettc(
    problem: Problem, mu: Matching, log: ConstructionLog | None = None
) -> PathCertificate:
    """Improving path from mu to the equitable top trading cycles outcome."""
    return _replay(problem, mu, run_ettc, "pairwise trading", log)
