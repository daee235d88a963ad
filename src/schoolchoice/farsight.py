"""Coalition enforcement, farsighted improving paths and stable sets.

Two layers live here and they are deliberately not identical:

* The *certificate checkers* (`can_enforce`, `validate_path`,
  `validate_path_horizon`) verify a given sequence of matchings plus
  coalitions against the enforcement and improvement conditions exactly as
  stated: coalition students must weakly prefer the relevant lookahead
  matching with at least one strict improver, and a school in the coalition
  whose gains push it past capacity must replace each departing student
  with a higher-priority newcomer.  A coalition may carry members whose own
  assignment does not change; they are harmless as long as they satisfy the
  improvement condition.

* The *search* (`find_enforcing_coalition`, `phi`, `phi_horizon`,
  `reachability_matrix`) decides whether an improving path exists.  The
  search builds coalitions out of the agents actually touched by a move:
  students joining a school, students giving up a seat without being
  replaced, and the gaining schools.  Schools never destroy matches on
  their own: they only accept newcomers, or replace a leaver with a
  higher-priority newcomer.  Students move under two behavioural rules:

  - voluntary departure: a student gives up a seat (without being replaced)
    only when the lookahead matching strictly improves on her current seat;
  - anchored joining: a student claims a seat at a school mid-path only
    when the lookahead matching seats her there, or seats someone she
    outranks (so her claim is consistent with where the path is heading).

  Both rules are restrictions the checkers do not impose; they pin down
  which of the many formally enforceable moves self-interested students
  actually take, and they reproduce the worked reachability sets exactly.

Every search decides a move with one integer rule over the matchings'
assignment vectors, the problem's rank tables and a roster index built
once per universe: Python-int bitsets over universe indices of the
matchings that seat each student at each seat, and of those that give each
school each of its rosters.  What a school does with a move depends only on
its roster before and after; that verdict (blocked, leavers replaced, or
leavers unreplaced) is memoised per roster pair.  What depends on the
lookahead matching is read from per-student tables built once per lookahead
matching.  `_EdgeOracle.edge` applies the rule to one pair; without tables
it is the structural screen of the horizon search, whose successor lists
come from the same verdicts as bitsets.  The reverse search applies the
rule to whole sets: each predecessor set is an AND and OR of the index's
masks, per-school verdict masks and per-student masks of the lookahead,
with no per-pair call.  Everything is plain Python; no numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    CapacityError,
    Matching,
    Problem,
    enumerate_matchings,
    sort_matchings,
)

FARSIGHTED = "farsighted"

#: Default depth cap for the horizon-k path search.
DEFAULT_DEPTH_CAP = 12

#: Default cap on the matchings a search enumerates; enumeration on its own
#: allows `model.DEFAULT_ENUMERATION_CAP` (10**7).
DEFAULT_SEARCH_CAP = 10**5

#: Expansion budget for the horizon-k depth-first search; when exhausted the
#: result is flagged partial rather than wrong.
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Coalition:
    students: frozenset
    schools: frozenset

    def __post_init__(self):
        object.__setattr__(self, "students", frozenset(self.students))
        object.__setattr__(self, "schools", frozenset(self.schools))

    def is_empty(self) -> bool:
        return not self.students and not self.schools


@dataclass(frozen=True)
class MoveStep:
    source: Matching
    target: Matching
    coalition: Coalition


@dataclass(frozen=True)
class PathCertificate:
    """A farsighted improving path: matchings plus the coalition per move.

    horizon is FARSIGHTED for full lookahead or an integer k >= 1 when the
    moving students only compare against the matching k steps ahead.
    """

    matchings: tuple
    steps: tuple
    horizon: object = FARSIGHTED

    def __post_init__(self):
        object.__setattr__(self, "matchings", tuple(self.matchings))
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def start(self) -> Matching:
        return self.matchings[0]

    @property
    def end(self) -> Matching:
        return self.matchings[-1]

    def __len__(self):
        return len(self.steps)


@dataclass
class StableSetReport:
    candidate: list
    internal_violations: list  # (mu, mu_prime) with mu_prime in phi(mu)
    external_violations: list  # mu outside with phi(mu) disjoint from the set
    verdict: str  # "stable" | "unstable" | "inconclusive"
    partial: bool = False


# --------------------------------------------------------------------------
# Moves
# --------------------------------------------------------------------------

def _bitset(indices: Sequence[int]) -> int:
    """The bitset whose set bits are the given ascending indices."""
    if not indices:
        return 0
    buf = bytearray(indices[-1] // 8 + 1)
    for x in indices:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def _members(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


#: A school's verdict on one move, from its roster before and after.
BLOCKED, REPLACED, UNREPLACED = 0, 1, 2


def _school_verdict(
    quota: int, prio: Sequence[int], held: int, joiners: Sequence[int], leavers: Sequence[int]
) -> int:
    """How a school holding `held` students takes a move: joiners arrive,
    leavers go (student indices).

    UNREPLACED when the old roster plus the newcomers fit the quota: anyone
    who leaves gives up her seat unreplaced.  Otherwise REPLACED when each
    leaver is matched (greedily) to a distinct newcomer of higher priority,
    and BLOCKED when not.  prio is the school's priority-rank row, indexed
    by student; lower ranks come first.
    """
    if held + len(joiners) <= quota:
        return UNREPLACED
    if len(leavers) > len(joiners):
        return BLOCKED
    joined = sorted(prio[i] for i in joiners)
    if all(j < q for j, q in zip(joined, sorted(prio[i] for i in leavers))):
        return REPLACED
    return BLOCKED


def school_move_admissible(problem: Problem, s: str, a: Matching, b: Matching) -> bool:
    """Whether school s can accept its newcomers in the move a -> b.

    True outright when the old roster plus the newcomers fit the quota;
    otherwise every departing student must be replaced by a distinct
    newcomer with higher priority.
    """
    c = problem._cidx[s]
    joiners, leavers = [], []
    for i, (xa, xb) in enumerate(zip(a._assign, b._assign)):
        if xa != xb:
            if xb == c:
                joiners.append(i)
            elif xa == c:
                leavers.append(i)
    verdict = _school_verdict(
        problem._quota_vec[c], problem._prio_rank[c], a._assign.count(c), joiners, leavers
    )
    return verdict != BLOCKED


def can_enforce(
    problem: Problem, a: Matching, b: Matching, coalition: Coalition
) -> bool:
    """Whether the coalition can transform matching a into matching b.

    For every school gaining a newcomer, the school and all its newcomers
    must be in the coalition.  For every school whose roster only shrinks,
    the school itself or all of its departing students must be in it.
    Extra members are permitted.
    """
    if a == b or coalition.is_empty():
        return False
    for s in problem.schools:
        old, new = a.roster(s), b.roster(s)
        if old == new:
            continue
        joiners = new - old
        if joiners:
            if s not in coalition.schools or not joiners <= coalition.students:
                return False
        else:
            leavers = old - new
            if s not in coalition.schools and not leavers <= coalition.students:
                return False
    return True


class _EdgeOracle:
    """The search's edge rule over one universe of matchings, on integers.

    A matching is its assignment vector (a school index per student, m for
    SELF) plus, per school, the id of its roster.  For a fixed lookahead
    matching the validity of a move depends only on its endpoints, so
    reachability equals plain graph reachability and any walk can be
    shortened to a sequence of distinct matchings.

    A set of matchings is a Python-int bitset over universe indices.  The
    roster index, built once, holds the matchings that seat student i at
    seat c (`seat[i][c]`, c = m for SELF) and those that give school s its
    roster r (`roster_masks[s][r]`).
    """

    def __init__(self, problem: Problem, universe: Sequence[Matching]):
        self.index = {mu: k for k, mu in enumerate(universe)}
        self.m = m = len(problem.schools)
        self.vecs = [mu._assign for mu in universe]
        self.students = range(len(problem.students))
        self.rank = problem._pref_rank
        self.prio = problem._prio_rank
        self.quota = problem._quota_vec
        self.all = (1 << len(self.vecs)) - 1
        bit = [1 << i for i in self.students]
        held = []  # per matching, per seat, the students there as a bitset
        for vec in self.vecs:
            row = [0] * (m + 1)
            for i, c in enumerate(vec):
                row[c] |= bit[i]
            held.append(row)
        self.rosters = []  # per school and roster id, its students
        self.roster_masks = []  # per school and roster id, the matchings with it
        ids = []  # per school, per matching, its roster id
        self.seat = [[0] * (m + 1) for _ in self.students]
        for s, col in enumerate(list(zip(*held))[:m]):
            found = {r: k for k, r in enumerate(dict.fromkeys(col))}
            ids.append(list(map(found.__getitem__, col)))
            members = [[] for _ in found]
            for x, k in enumerate(ids[-1]):
                members[k].append(x)
            masks = [_bitset(xs) for xs in members]
            self.rosters.append([frozenset(_members(r)) for r in found])
            self.roster_masks.append(masks)
            for roster, mask in zip(self.rosters[s], masks):
                for i in roster:
                    self.seat[i][s] |= mask
        for row in self.seat:
            row[m] = self.all
            for s in range(m):
                row[m] &= ~row[s]
        self.rid = list(zip(*ids)) if m else [()] * len(self.vecs)
        self._verdicts: dict = {}
        self._groups: dict = {}
        self._looks: dict = {}
        self._succ: dict = {}

    def verdict(self, s: int, before: int, after: int) -> int:
        """`_school_verdict` of school s between two roster ids, memoised."""
        key = (s, before, after)
        got = self._verdicts.get(key)
        if got is None:
            held, ends = self.rosters[s][before], self.rosters[s][after]
            got = self._verdicts[key] = _school_verdict(
                self.quota[s], self.prio[s], len(held), ends - held, held - ends
            )
        return got

    def groups(self, s: int, r: int, into: bool) -> list[int]:
        """Per verdict, the matchings x whose move at school s gets it.

        With into, x holds the roster before a move into roster r; without,
        x holds the roster after a move out of roster r.  Memoised: two
        lists of three bitsets per roster, so bounded by the index.
        """
        key = (s, r, into)
        got = self._groups.get(key)
        if got is None:
            got = self._groups[key] = [0, 0, 0]
            for other, mask in enumerate(self.roster_masks[s]):
                got[self.verdict(s, other, r) if into else self.verdict(s, r, other)] |= mask
        return got

    def look(self, t: int):
        """Per-student tables for lookahead matching t, built once.

        better[i][c] is 1, 0 or -1 as student i ranks her seat in t above,
        level with or below seat c (a school index, or m for SELF).
        anchored[i][c] says whether she may claim a seat at school c
        mid-path: t seats her there, or seats someone there she outranks.
        """
        got = self._looks.get(t)
        if got is None:
            ref, m, prio = self.vecs[t], self.m, self.prio
            worst = [-1] * m  # per school, the largest priority rank in t
            for i, c in enumerate(ref):
                if c < m and prio[c][i] > worst[c]:
                    worst[c] = prio[c][i]
            better, anchored = [], []
            for i, c in enumerate(ref):
                row = self.rank[i]
                r = row[c]
                better.append(tuple((q > r) - (q < r) for q in row))
                anchored.append(
                    tuple(c == s or prio[s][i] < worst[s] for s in range(m))
                )
            got = self._looks[t] = (better, anchored)
        return got

    def student_masks(self, t: int):
        """`look(t)` as bitsets: per student, the matchings whose seat for
        her she ranks weakly, and strictly, below her seat in t; plus the
        anchored table.  Built per reverse search and not kept.
        """
        better, anchored = self.look(t)
        weak, strict = [], []
        for row, seats in zip(better, self.seat):
            weakly = strictly = 0
            for gain, mask in zip(row, seats):
                if gain >= 0:
                    weakly |= mask
                    if gain:
                        strictly |= mask
            weak.append(weakly)
            strict.append(strictly)
        return anchored, weak, strict

    def edge(self, xa: int, xb: int, look=None):
        """The coalition that moves xa -> xb given lookahead tables, or None.

        Every joiner must weakly prefer the lookahead to her current seat
        and claim an anchored seat; no school may block the move (see
        `_school_verdict`); every leaver her school does not replace must
        strictly prefer the lookahead; and someone must strictly prefer it.
        Without tables only the structural part is checked: someone moves
        and no school blocks.  The coalition is a list of student indices
        and a set of school indices.
        """
        m = self.m
        if look is not None:
            better, anchored = look
        joined = []  # (school, student)
        left = []
        strict = False
        for i, ca, cb in zip(self.students, self.vecs[xa], self.vecs[xb]):
            if ca == cb:
                continue
            if cb != m:
                if look is not None:
                    gain = better[i][ca]
                    if gain < 0 or not anchored[i][cb]:
                        return None
                    if gain:
                        strict = True
                joined.append((cb, i))
            if ca != m:
                left.append((ca, i))
        if not joined and not left:
            return None
        ra, rb = self.rid[xa], self.rid[xb]
        gaining = {s for s, _ in joined}
        for s in gaining:
            if self.verdict(s, ra[s], rb[s]) == BLOCKED:
                return None
        unreplaced = [
            (c, i) for c, i in left
            if c not in gaining or self.verdict(c, ra[c], rb[c]) == UNREPLACED
        ]
        if look is not None:
            for c, i in unreplaced:
                if better[i][c] <= 0:
                    return None
            if not (strict or unreplaced):
                return None
        return [i for _, i in joined] + [i for _, i in unreplaced], gaining

    def predecessors(self, y: int, masks, within: int) -> int:
        """The matchings in `within` with an edge into y, as one bitset.

        masks are `student_masks` of the lookahead.  The same rule as
        `edge`, applied to every source at once by AND and OR of masks.
        """
        anchored, weak, strict = masks
        m, ry = self.m, self.rid[y]
        got = within
        unreplaced = []
        for s in range(m):
            by = self.groups(s, ry[s], True)
            got &= ~by[BLOCKED]
            unreplaced.append(by[UNREPLACED])
        improver = 0  # someone strictly prefers the lookahead
        for i, d in enumerate(self.vecs[y]):
            if not got:
                return 0
            seats = self.seat[i]
            stay = seats[d]
            if d != m:  # joiners weakly improve and claim an anchored seat
                got &= stay | weak[i] if anchored[i][d] else stay
                improver |= strict[i] & ~stay
            gone = 0  # i leaves a seat unreplaced, so must strictly improve
            for c in range(m):
                if c != d:
                    gone |= seats[c] & unreplaced[c]
            if gone:
                got &= ~gone | strict[i]
                improver |= gone
        return got & improver

    def successors(self, x: int) -> list[int]:
        """Matchings that pass the structural screen from x, memoised."""
        got = self._succ.get(x)
        if got is None:
            ok = self.all & ~(1 << x)
            for s, r in enumerate(self.rid[x]):
                ok &= ~self.groups(s, r, False)[BLOCKED]
            got = self._succ[x] = _members(ok)
        return got

    def sources_reaching(self, target_idx: int) -> int:
        """The bitset of universe indices from which the target is reachable."""
        masks = self.student_masks(target_idx)
        rest = self.all & ~(1 << target_idx)
        frontier = 1 << target_idx
        reached = 0
        while frontier and rest:
            nxt = 0
            for y in _members(frontier):
                found = self.predecessors(y, masks, rest)
                nxt |= found
                rest &= ~found
                if not rest:
                    break
            reached |= nxt
            frontier = nxt
        return reached


def find_enforcing_coalition(
    problem: Problem, a: Matching, b: Matching, ref: Matching
) -> Coalition | None:
    """A coalition of moving agents willing to enforce b over a, given ref.

    Returns None when no admissible move exists.  Every joiner must weakly
    prefer ref to her current seat and her new school must be anchored in
    ref (she holds a seat there in ref, or outranks someone who does);
    every unreplaced leaver must strictly prefer ref to the seat she gives
    up; some moving student must strictly prefer ref; and every
    over-capacity gain must replace each departing student with a
    higher-priority newcomer.
    """
    oracle = _EdgeOracle(problem, (a, b, ref))
    found = oracle.edge(0, 1, oracle.look(2))
    if found is None:
        return None
    students, schools = found
    return Coalition(
        students={problem.students[i] for i in students},
        schools={problem.schools[s] for s in schools},
    )


# --------------------------------------------------------------------------
# Certificate validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PathViolation:
    step: int  # index of the offending move, -1 for structural problems
    condition: str

    def __str__(self):
        if self.step < 0:
            return self.condition
        return f"step {self.step}: {self.condition}"


def _step_violation(
    problem: Problem, a: Matching, b: Matching, coalition: Coalition, look: Matching
) -> str | None:
    """Why the coalition's move a -> b fails, given lookahead matching look.

    None when the move passes: the coalition has a student and can enforce
    the move, every student in it weakly prefers look to her seat in a and
    one strictly, and every school in it can admit its newcomers.
    """
    if not coalition.students:
        return "coalition has no student"
    if not can_enforce(problem, a, b, coalition):
        return "coalition cannot enforce the move"
    strict = False
    for i in sorted(coalition.students):
        ra = problem.pref_rank(i, look.school_of(i))
        rb = problem.pref_rank(i, a.school_of(i))
        if ra > rb:
            return f"student {i} does not weakly improve"
        if ra < rb:
            strict = True
    if not strict:
        return "no strict improver in the coalition"
    for s in sorted(coalition.schools):
        if not school_move_admissible(problem, s, a, b):
            return f"school {s} cannot admit its newcomers"
    return None


def _validate(problem: Problem, cert: PathCertificate, k: int | None) -> PathViolation | None:
    mus = cert.matchings
    if len(mus) < 2:
        return PathViolation(-1, "path must contain at least two matchings")
    if len(set(mus)) != len(mus):
        return PathViolation(-1, "matchings not distinct")
    if len(cert.steps) != len(mus) - 1:
        return PathViolation(-1, "step count does not match matching count")
    last = len(mus) - 1
    for l, step in enumerate(cert.steps):
        if step.source != mus[l] or step.target != mus[l + 1]:
            return PathViolation(l, "step endpoints disagree with the matching sequence")
        look = mus[last] if k is None else mus[min(l + k, last)]
        condition = _step_violation(problem, mus[l], mus[l + 1], step.coalition, look)
        if condition is not None:
            return PathViolation(l, condition)
    return None


def validate_path(problem: Problem, cert: PathCertificate) -> PathViolation | None:
    """Check a full-lookahead certificate; None means it is valid."""
    return _validate(problem, cert, None)


def validate_path_horizon(problem: Problem, cert: PathCertificate) -> PathViolation | None:
    """Check a horizon-k certificate (students compare k steps ahead)."""
    k = cert.horizon
    if k == FARSIGHTED:
        return _validate(problem, cert, None)
    if not isinstance(k, int) or k < 1:
        return PathViolation(-1, f"invalid horizon {k!r}")
    return _validate(problem, cert, k)


# --------------------------------------------------------------------------
# Reachability search (full farsightedness)
# --------------------------------------------------------------------------

def _universe(problem: Problem, universe, cap) -> list[Matching]:
    if universe is None:
        return enumerate_matchings(problem, cap=cap)
    return list(universe)


def phi(
    problem: Problem,
    mu: Matching,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> set[Matching]:
    """All matchings reachable from mu by a farsighted improving path."""
    uni = _universe(problem, universe, cap)
    oracle = _EdgeOracle(problem, uni)
    if mu not in oracle.index:
        raise ValueError("matching not in the enumerated universe")
    src = oracle.index[mu]
    return {
        target for t, target in enumerate(uni)
        if t != src and oracle.sources_reaching(t) >> src & 1
    }


def _columns(problem: Problem, uni: list[Matching]) -> list[int]:
    """Per target t, the bitset of the matchings whose phi contains t."""
    oracle = _EdgeOracle(problem, uni)
    return [oracle.sources_reaching(t) for t in range(len(uni))]


def reachability_matrix(
    problem: Problem,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> tuple[list[int], list[Matching]]:
    """Rows R as int bitsets, R[x] >> t & 1 iff target t is in phi(x); and U."""
    uni = _universe(problem, universe, cap)
    rows: list[list[int]] = [[] for _ in uni]
    for t, col in enumerate(_columns(problem, uni)):
        for x in _members(col):
            rows[x].append(t)
    return [_bitset(row) for row in rows], uni


# --------------------------------------------------------------------------
# Horizon-k reachability
# --------------------------------------------------------------------------

@dataclass
class HorizonResult:
    reachable: set
    partial: bool


def phi_horizon(
    problem: Problem,
    mu: Matching,
    k: int,
    depth_cap: int | None = None,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HorizonResult:
    """Matchings reachable by a horizon-k improving path of length <= depth_cap.

    Depth-first search over sequences of distinct matchings.  A move's
    student condition is settled only once the matching k steps later is
    appended (or the sequence ends), so conditions are re-checked lazily.
    The result is flagged partial when the depth cap or the node budget cut
    any branch.
    """
    uni = _universe(problem, universe, cap)
    oracle = _EdgeOracle(problem, uni)
    if mu not in oracle.index:
        raise ValueError("matching not in the enumerated universe")
    reachable, partial = _phi_horizon(oracle, oracle.index[mu], k, depth_cap, node_budget)
    return HorizonResult(reachable={uni[t] for t in reachable}, partial=partial)


def _phi_horizon(
    oracle: _EdgeOracle, src: int, k: int, depth_cap: int | None, node_budget: int
) -> tuple[set[int], bool]:
    """`phi_horizon` on universe indices, reusing the oracle's memos."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    if depth_cap is None:
        depth_cap = min(len(oracle.vecs), DEFAULT_DEPTH_CAP)
    edge, look = oracle.edge, oracle.look
    reachable: set[int] = set()
    partial = False
    budget = node_budget

    def dfs(path: list[int], onpath: set[int]):
        nonlocal partial, budget
        if budget <= 0:
            partial = True
            return
        budget -= 1
        # certify the current endpoint as a target if every move whose window
        # is still open holds against it; the others held on extension
        L = len(path) - 1
        if L >= 1:
            ref = look(path[L])
            if all(edge(path[l], path[l + 1], ref) for l in range(max(0, L - k + 1), L)):
                reachable.add(path[L])
        if L >= depth_cap:
            partial = True  # a longer path might certify more targets
            return
        # the newest move's window is open; it is only screened against
        # feasibility of the move structure itself
        for y in oracle.successors(path[L]):
            if y in onpath:
                continue
            path.append(y)
            onpath.add(y)
            # the move whose window closes with this extension must hold
            l = L + 1 - k
            if l < 0 or edge(path[l], path[l + 1], look(y)):
                dfs(path, onpath)
            path.pop()
            onpath.discard(y)

    dfs([src], {src})
    return reachable, partial


# --------------------------------------------------------------------------
# Stable sets
# --------------------------------------------------------------------------

def _horizon_runs(
    oracle: _EdgeOracle, k: int, depth_cap: int | None
) -> list[tuple[set[int], bool]]:
    """`_phi_horizon` from every matching of the universe on one oracle."""
    return [
        _phi_horizon(oracle, x, k, depth_cap, DEFAULT_NODE_BUDGET)
        for x in range(len(oracle.vecs))
    ]


def _horizon_check(runs, cand: list[int]) -> tuple[list, list, bool]:
    """Internal pairs, external violations and whether anything is unknown.

    A found path is definitive.  A matching whose search was cut short and
    reached no candidate is unknown, not an external violation; so is
    internal stability when a candidate's own search was cut short.
    """
    inside = set(cand)
    internal = [(a, b) for a in cand for b in cand if a != b and b in runs[a][0]]
    unknown = len(cand) > 1 and any(runs[a][1] for a in cand)
    external = []
    for x, (reach, partial) in enumerate(runs):
        if x in inside or not reach.isdisjoint(inside):
            continue
        if partial:
            unknown = True
        else:
            external.append(x)
    return internal, external, unknown


def check_stable_set(
    problem: Problem,
    candidate: Iterable[Matching],
    horizon=FARSIGHTED,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
    depth_cap: int | None = None,
) -> StableSetReport:
    """Internal/external stability report for a candidate set of matchings.

    Under a horizon, a verdict a cut-off search cannot settle is
    `inconclusive` unless an internal violation, a found path, exists.
    """
    cand = sort_matchings(set(candidate))
    if not cand:
        raise ValueError("candidate set must be nonempty")
    uni = _universe(problem, universe, cap)
    oracle = _EdgeOracle(problem, uni)
    idx = [oracle.index[mu] for mu in cand]
    if horizon == FARSIGHTED:
        reach_to = [oracle.sources_reaching(t) for t in idx]
        internal = [
            (a, b) for a in idx for j, b in enumerate(idx) if a != b and reach_to[j] >> a & 1
        ]
        covered = 0
        for t, r in zip(idx, reach_to):
            covered |= r | 1 << t
        external = _members(oracle.all & ~covered)
        unknown = False
    else:
        runs = _horizon_runs(oracle, int(horizon), depth_cap)
        internal, external, unknown = _horizon_check(runs, idx)
    return StableSetReport(
        candidate=cand,
        internal_violations=[(uni[a], uni[b]) for a, b in internal],
        external_violations=sort_matchings(uni[x] for x in external),
        verdict=_verdict(internal, external, unknown),
        partial=unknown,
    )


def _verdict(internal: list, external: list, unknown: bool) -> str:
    if internal or (external and not unknown):
        return "unstable"
    return "inconclusive" if unknown else "stable"


def find_singleton_stable_sets(
    problem: Problem,
    horizon=FARSIGHTED,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> list[Matching]:
    """All matchings mu with {mu} a (horizon-k) farsighted stable set."""
    uni = _universe(problem, universe, cap)
    oracle = _EdgeOracle(problem, uni)
    if horizon == FARSIGHTED:
        out = [
            mu for t, mu in enumerate(uni)
            if oracle.sources_reaching(t).bit_count() == len(uni) - 1
        ]
    else:
        runs = _horizon_runs(oracle, int(horizon), None)
        out = [
            mu for t, mu in enumerate(uni)
            if _verdict(*_horizon_check(runs, [t])) == "stable"
        ]
    return sort_matchings(out)


def find_stable_sets(
    problem: Problem,
    max_size: int = 3,
    universe: Sequence[Matching] | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
    subset_cap: int = 10**7,
) -> list[list[Matching]]:
    """All farsighted stable sets of size <= max_size (exhaustive search).

    Internal stability prunes the subset lattice: any pair connected by an
    improving path rules out every superset containing both.
    """
    from itertools import combinations
    from math import comb

    uni = _universe(problem, universe, cap)
    n = len(uni)
    total = sum(comb(n, r) for r in range(1, max_size + 1))
    if total > subset_cap:
        raise CapacityError(
            f"{total} candidate subsets exceed the cap of {subset_cap}"
        )
    cols = _columns(problem, uni)
    everyone = (1 << n) - 1
    order = sorted(range(n), key=lambda x: uni[x].literal())
    results = []
    for size in range(1, max_size + 1):
        for combo in combinations(order, size):
            if any(
                cols[b] >> a & 1 or cols[a] >> b & 1
                for a, b in combinations(combo, 2)
            ):
                continue
            covered = 0
            for c in combo:
                covered |= cols[c] | 1 << c
            if covered == everyone:
                results.append([uni[x] for x in combo])
    return results
