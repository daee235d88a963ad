"""Constructive farsighted improving paths toward mechanism outcomes.

Each builder replays the trace of its mechanism, converting every trading
cycle (and, where applicable, every clinch round) into a short block of
enforceable moves:

* cycle insertion: cycle students grab a seat at the school pointing at
  them inside the cycle, evicting the lowest-priority occupant of a full
  school that holds none of them;
* vacate: the cycle students give those seats up together;
* rematch: they join the schools they point at, which now hold free seats.

Already-realised matches are skipped and no-op moves are elided.  A move
that would revisit an earlier matching truncates the loop instead, so the
emitted sequence always consists of distinct matchings.  Students whose
blocks have already been replayed are settled; evictions prefer unsettled
squatters so realised matches stay put.  When a simultaneous block move is
not enforceable (for instance a school losing two cycle students while
admitting one cannot satisfy the replacement condition), the builder falls
back to vacating the movers first, which restores one-in-one-out moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import SELF, Matching, Problem, SchoolChoiceError
from .mechanisms import Cycle, run_ct, run_ettc, run_fct, run_ttc
from .farsight import Coalition, MoveStep, PathCertificate, _step_violation


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
    def __init__(self, problem: Problem, start: Matching, final: Matching, log: ConstructionLog):
        self.problem = problem
        self.final = final
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

        Given a `clear` detail, a move the validator would reject (say, one
        school losing several movers while admitting one) is preceded by
        the movers giving up their seats, which restores one-in-one-out
        moves.
        """
        schools = set(moves.values())
        target = self.joined(moves)
        if clear is not None and target != self.current and _step_violation(
            self.problem, self.current, target, Coalition(moves, schools), self.final
        ):
            self.vacate(moves, phase, clear)
            target = self.joined(moves)
        self.emit(target, moves, schools, phase, detail)


def _vacate_self_bound(acc: _PathAccumulator, students, label: str):
    """Students destined to end unmatched give up their current seats."""
    for j in students:
        acc.vacate({j}, label, f"unmatched {j}")
        acc.settled.add(j)


def _cycle_block(acc: _PathAccumulator, cyc: Cycle, label: str):
    """Emit the insertion / vacate / rematch moves realising one cycle."""
    students = list(cyc.students)
    if cyc.is_self_cycle:
        _vacate_self_bound(acc, students, label)
        return
    targets = cyc.assignments()
    if all(acc.current.school_of(i) == targets[i] for i in students):
        acc.settled.update(students)
        return
    if len(students) == 1:
        # the school pointing at the student is the one she points back to
        acc.join(targets, label, f"cycle {cyc}")
        acc.settled.update(students)
        return
    # insertion: everyone in the cycle takes the seat of the school pointing
    # at her; a full cycle school holding no cycle student sheds its
    # lowest-priority occupant; when one school would lose several cycle
    # students at once, the movers give up their seats first
    acc.join(cyc.inbound(), label, f"insert {cyc}", clear=f"clear {cyc}")
    # vacate: the cycle students free all their freshly taken seats at once
    acc.vacate(students, label, f"vacate {cyc}")
    # rematch: everyone joins the school she points at inside the cycle
    acc.join(targets, label, f"rematch {cyc}")
    acc.settled.update(students)


def _alignment_block(acc: _PathAccumulator, clinches, label: str):
    """Moves aligning all unrealised clinched matches of a round."""
    todo = {i: s for i, s in clinches if acc.current.school_of(i) != s}
    if todo:
        # a clincher leaving one clinch school for another can block the
        # one-move alignment; vacating the movers first restores it
        acc.join(todo, label, f"clinch {sorted(todo.items())}", clear=f"clear {sorted(todo)}")
    acc.settled.update(i for i, _ in clinches)


def _finish(acc: _PathAccumulator, target: Matching) -> PathCertificate:
    if acc.current != target:
        raise ConstructionError(
            f"replay ended at {acc.current.literal()!r} instead of the mechanism outcome"
        )
    return PathCertificate(tuple(acc.matchings), tuple(acc.steps))


def _replay(problem: Problem, mu: Matching, runner, outcome: str, log) -> PathCertificate:
    """Replay a trace: each step's clinch rounds, then its cycles."""
    target, trace = runner(problem)
    if mu == target:
        raise IdentityError(f"matching already equals the {outcome} outcome")
    acc = _PathAccumulator(problem, mu, target, log or ConstructionLog())
    for step in trace.steps:
        for rnd in step.clinch_rounds:
            _alignment_block(acc, rnd.clinches, f"step {step.step}")
        for cyc in step.cycles:
            _cycle_block(acc, cyc, f"step {step.step}")
    return _finish(acc, target)


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
    target, trace = run_ettc(problem)
    if mu == target:
        raise IdentityError("matching already equals the pairwise trading outcome")
    acc = _PathAccumulator(problem, mu, target, log or ConstructionLog())
    pending: dict = {}  # student -> final school, joined in one deferred move

    def fits_with_pending(i: str, s: str) -> bool:
        taken = len(acc.current.roster(s)) + sum(1 for t in pending.values() if t == s)
        return taken < problem.quota(s)

    def flush(label: str):
        todo = {i: s for i, s in pending.items() if acc.current.school_of(i) != s}
        acc.settled.update(pending)
        pending.clear()
        if todo:
            acc.join(todo, label, f"rematch {sorted(todo.items())}")

    for step in trace.steps:
        label = f"step {step.step}"
        # students the round leaves unmatched give up any seat they hold
        self_bound = sorted(
            (i for i, a in step.matches.items() if a is SELF),
            key=problem.student_index,
        )
        if self_bound:
            flush(label)
            _vacate_self_bound(acc, self_bound, label)
        for pcyc in step.pair_cycles:
            # a student appearing in several cycles of one step is matched
            # once; later cycles only dissolve her remaining seats
            cyc_students = [
                i
                for i in dict.fromkeys(i for i, _ in pcyc)
                if i not in acc.settled and i not in pending
            ]
            if not cyc_students:
                continue
            finals = {i: step.matches[i] for i in cyc_students}
            if all(acc.current.school_of(i) == finals[i] for i in cyc_students):
                acc.settled.update(cyc_students)
                continue
            held: dict = {}
            for i, s in pcyc:
                held.setdefault(i, [])
                if s not in held[i]:
                    held[i].append(s)
            for i in held:
                held[i].sort(key=problem.school_index)
            first_seat = {i: held[i][0] for i in cyc_students}
            if (
                len(pcyc) == 1
                and first_seat[cyc_students[0]] == finals[cyc_students[0]]
                and acc.current.school_of(cyc_students[0]) is SELF
                and fits_with_pending(cyc_students[0], finals[cyc_students[0]])
            ):
                # a lone self-resolving pair folds into the deferred rematch
                pending[cyc_students[0]] = finals[cyc_students[0]]
                continue
            flush(label)
            # seat-taking move: each cycle student occupies the first school
            # of her held seats, full schools shedding enough low-priority
            # outside occupants
            acc.join(first_seat, label, f"seat {sorted(first_seat.items())}", clear="clear")
            if all(acc.current.school_of(i) == finals[i] for i in cyc_students):
                acc.settled.update(cyc_students)
                continue
            # vacate together
            acc.vacate(cyc_students, label, "vacate")
            # students holding several seats free the remaining ones: a full
            # school is entered (displacing its weakest occupant) and left
            # again, except that a student reaching her own final school
            # simply stays
            seated = set()
            for i in cyc_students:
                for s in held[i][1:]:
                    if len(acc.current.roster(s)) < problem.quota(s):
                        continue
                    acc.join({i: s}, label, f"hop {i}->{s}")
                    if s == finals[i]:
                        seated.add(i)
                        acc.settled.add(i)
                        break
                    acc.vacate({i}, label, f"hop {i}<-{s}")
            for i in cyc_students:
                if i not in seated:
                    pending[i] = finals[i]
    flush("final")
    return _finish(acc, target)
