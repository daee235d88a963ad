"""Coalition enforcement, farsighted improving paths and stable sets.

Two layers live here and they are deliberately not identical:

* The *certificate checkers* (`can_enforce`, `school_move_admissible` and
  `validate_path`, also named `validate_path_horizon`) verify a given
  sequence of matchings plus coalitions against the enforcement and
  improvement conditions exactly as stated: coalition students must weakly
  prefer the lookahead matching of the certificate's horizon with at least
  one strict improver, and a school in the coalition whose gains push it
  past capacity must replace each departing student with a higher-priority
  newcomer.  A coalition may carry members whose own assignment does not
  change; they are harmless as long as they satisfy the improvement
  condition.

* The *search* (`phi`, `phi_horizon`, `reachability_matrix` and the
  stable-set checks) decides whether an improving path exists.  The
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
assignment vectors, the problem's rank tables and tables built once per
universe, all Python-int bitsets over universe indices: a roster index
(the matchings that seat each student at each seat, and those that give
each school each of its rosters), read off byte strings by `bytes.translate`
with no loop per matching, and lookahead tables (the matchings that seat
each student strictly, and weakly, above each seat, and those that anchor
her claim at each school).  A school's verdict on a move (blocked, leavers
replaced, or leavers unreplaced) depends only on its roster before and
after, read as bitsets over its priority ranks, and is memoised per roster
in per-school lists.

The structural screen of a move is that someone moves and no school blocks;
`succ_mask` screens every target of one source at once, and no search
screens a pair alone.  What a move owes the lookahead is read from the
lookahead tables along either axis.  `looks(a, b)` is the bitset of
lookaheads under which a -> b holds; `predecessors` is, for one lookahead,
the bitset of sources with a move into a matching.  Under one lookahead
each clause of the rule reads a single school's roster in the target, so
`predecessors` is per school two bitsets of sources (`clauses`: those that
pass the school's clauses, and those in which a student it touches strictly
improves), ANDed and ORed over the schools.  The reverse search behind full
lookahead memoises them per (school, roster) for its lookahead, so each
frontier matching costs one memo read per school.  The horizon-k
depth-first search keeps one `looks` mask per move on
its path: a node's extensions are its successors off the path under the
mask of the move whose window closes, an endpoint is certified by the AND
of the masks whose windows are still open, and the children at the depth
cap are certified together by one AND with the node's `direct` set (its
moves that hold under their own target, built for that node on first use).
Every stable-set query reads one helper, `_reach_columns`: per candidate,
the matchings with a path into it, and the matchings whose search was cut
short (unknown, never a violation).  Under a horizon k a path of at most k
moves is a full-lookahead path into its end, so each column starts from
min(k, depth cap) levels of its reverse search; a run from outside the
candidate set is skipped once it is in a column and otherwise stops once
it certifies a candidate (the batch at its depth cap may certify several),
and a lone candidate's own run is skipped.
`phi` searches only the targets under which some first move from its
source holds.  The stable sets are the kernels of the
digraph x -> y iff y is in phi(x), which `find_stable_sets` finds by a
backtracking search over its rows and columns.  Everything is plain
Python; no numpy.

Consecutive searches on one (problem, universe) share one oracle and its memos,
kept alive (the `direct` rows built so far too, at most |U|² bits in all)
until a search elsewhere replaces it.  Memos are stored only once complete.

The checkers work on assignment vectors too, with no per-school roster scan:
one diff of a move's two vectors gives each touched school its joiners and
leavers, and `can_enforce` and the schools' admission test share it.  A
school its newcomers overflow gets the search's verdict, on rank bitsets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from operator import lshift, ne, or_
from struct import Struct, calcsize
from typing import Iterable, Sequence

from .model import (
    CapacityError,
    Matching,
    Problem,
    _count,
    enumerate_matchings,
    sort_matchings,
)

FARSIGHTED = "farsighted"

#: Default depth cap for the horizon-k path search.
DEFAULT_DEPTH_CAP = 12

#: Cap on the matchings a search enumerates when given no universe;
#: enumeration on its own allows `model.DEFAULT_ENUMERATION_CAP` (10**7).
#: For another cap, pass `universe=enumerate_matchings(problem, cap=N)`.
DEFAULT_SEARCH_CAP = 10**5

#: Node budget of the horizon-k depth-first search and of the stable-set
#: search: a cut horizon search is flagged partial rather than wrong, and a
#: cut stable-set search raises CapacityError rather than list some sets.
DEFAULT_NODE_BUDGET = 2_000_000

#: The last search's (problem, universe, oracle); see `_oracle`.
_slot: tuple = (None, (), None)


@dataclass(frozen=True)
class Coalition:
    students: frozenset
    schools: frozenset

    def __post_init__(self):
        object.__setattr__(self, "students", frozenset(self.students))
        object.__setattr__(self, "schools", frozenset(self.schools))


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
    def end(self) -> Matching:
        return self.matchings[-1]


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

def _members(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [k for k, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


#: Translation windows: `window[255 - d:511 - d]` maps byte d to "1" (1), others to "0" (0).
_MARKS, _FLAGS = b"0" * 255 + b"1" + b"0" * 255, bytes(255) + b"\1" + bytes(255)


def _hits(planes: list[bytes], values: Sequence[int], window: bytes = _MARKS) -> list[int]:
    """Per value, the positions whose digit is that value: plane j holds byte j
    of each position's digit, the last position first.  With `_MARKS` a bitset
    (0 for empty planes); with `_FLAGS` an int whose big-endian bytes are 1 there."""
    got = [-1] * len(values)
    for j, plane in enumerate(planes):
        for k, v in enumerate(values):
            d = 255 - (v >> 8 * j & 255)
            hit = plane.translate(window[d:d + 256])
            got[k] &= int(hit or b"0", 2) if window is _MARKS else int.from_bytes(hit, "big")
    return got


def _prefix_or(keys: Sequence[int], masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per item, the OR of the masks of the items with a smaller key, and of
    those with a smaller or equal key (its own included): one pass in key
    order."""
    upto: dict = {}
    for key, mask in zip(keys, masks):
        upto[key] = upto.get(key, 0) | mask
    below, acc = {}, 0
    for key in sorted(upto):
        below[key] = acc
        acc = upto[key] = acc | upto[key]
    return [below[k] for k in keys], [upto[k] for k in keys]


#: A school's verdict on one move, from its roster before and after.
BLOCKED, REPLACED, UNREPLACED = 0, 1, 2


def _school_verdict(quota: int, held: int, joined: int, left: int) -> int:
    """How a school holding `held` students takes a move: the students of
    the rank bitset `joined` arrive and those of `left` go (bit p is the
    school's p-th priority student).

    UNREPLACED when the old roster plus the newcomers fit the quota: anyone
    who leaves gives up her seat unreplaced.  Otherwise REPLACED when each
    leaver is matched (greedily, best first) to a distinct newcomer of
    higher priority, and BLOCKED when not.
    """
    if held + joined.bit_count() <= quota:
        return UNREPLACED
    if left.bit_count() > joined.bit_count():
        return BLOCKED
    while left:
        best = joined & -joined  # the best newcomer not yet paired
        if best > left & -left:
            return BLOCKED
        joined ^= best
        left &= left - 1
    return REPLACED


def _move_diff(a: Matching, b: Matching) -> dict:
    """Per school index the move a -> b touches, its joiners and its leavers
    (student indices, ascending), from one diff of the assignment vectors.
    Empty exactly when a == b."""
    xa, xb = a._assign, b._assign
    m = len(a.problem.schools)
    moves: dict = {}
    for i in compress(range(len(xa)), map(ne, xa, xb)):
        if xb[i] != m:
            moves.setdefault(xb[i], ([], []))[0].append(i)
        if xa[i] != m:
            moves.setdefault(xa[i], ([], []))[1].append(i)
    return moves


def _admits(problem: Problem, s: str, a: Matching, moves: dict) -> bool:
    """`school_move_admissible` on the move's diff; rank bitsets only past the quota."""
    c = problem._cidx[s]
    joiners, leavers = moves.get(c, ((), ()))
    held, quota, prio = a._assign.count(c), problem._quota_vec[c], problem._prio_rank[c]
    if held + len(joiners) <= quota:
        return True
    joined, left = (sum(1 << prio[i] for i in xs) for xs in (joiners, leavers))
    return _school_verdict(quota, held, joined, left) != BLOCKED


def school_move_admissible(problem: Problem, s: str, a: Matching, b: Matching) -> bool:
    """Whether school s can accept its newcomers in the move a -> b.

    True outright when the old roster plus the newcomers fit the quota;
    otherwise every departing student must be replaced by a distinct
    newcomer with higher priority.
    """
    return _admits(problem, s, a, _move_diff(a, b))


def _enforces(problem: Problem, moves: dict, coalition: Coalition) -> bool:
    """`can_enforce` on the diff of a move with a != b.  An empty coalition
    enforces none: every school in the diff needs itself or a student in it."""
    name = problem.students.__getitem__
    for c, (joiners, leavers) in moves.items():
        inside = problem.schools[c] in coalition.schools
        if joiners:
            if not inside or not coalition.students.issuperset(map(name, joiners)):
                return False
        elif not inside and not coalition.students.issuperset(map(name, leavers)):
            return False
    return True


def can_enforce(
    problem: Problem, a: Matching, b: Matching, coalition: Coalition
) -> bool:
    """Whether the coalition can transform matching a into matching b.

    For every school gaining a newcomer, the school and all its newcomers
    must be in the coalition.  For every school whose roster only shrinks,
    the school itself or all of its departing students must be in it.
    Extra members are permitted.
    """
    moves = _move_diff(a, b)
    return bool(moves) and _enforces(problem, moves, coalition)


class _EdgeOracle:
    """The search's edge rule over one universe of matchings, on integers.

    A matching is its assignment vector (a school index per student, m for
    SELF) plus, per school, the id of its roster, whose students the school
    keeps as a bitset over its priority ranks (`codes[s][r]`).  For a fixed
    lookahead matching the validity of a move depends only on its
    endpoints, so reachability equals plain graph reachability and any walk
    can be shortened to a sequence of distinct matchings.

    A set of matchings is a Python-int bitset over universe indices.  The
    roster index holds the matchings that seat student i at seat c
    (`seat[i][c]`, c = m for SELF) and those that give school s its roster r
    (`roster_masks[s][r]`, ids in order of first appearance), both read by
    `_hits` off each student's seats packed as bytes.  The lookahead tables
    hold the matchings that seat i strictly above seat c (`above[i][c]`) and
    weakly above it (`atleast[i][c]`), and those that anchor i's claim at
    school s (`anchor[s][i]`: they seat her there, or seat someone there
    whom she outranks).  Every table is read along whichever axis a search
    needs: as sources of a move or as lookaheads.
    """

    def __init__(self, problem: Problem, universe: Sequence[Matching]):
        self.vecs = [mu._assign for mu in universe]
        size = len(self.vecs)
        self.index = dict(zip(self.vecs, range(size)))  # keyed by assignment vector
        if len(self.index) != size:
            raise ValueError("the universe repeats a matching")
        self.m = m = len(problem.schools)
        self.students = range(len(problem.students))
        self.prio = problem._prio_rank
        self.quota = problem._quota_vec
        self.all = (1 << size) - 1
        # per student, her seat in each matching (the last first) as byte planes
        code = next(c for c in "BHIQ" if m >> 8 * calcsize(c) == 0)  # wide enough for m
        n, w = len(self.students), calcsize(code)
        seats = Struct(f"<{size * n}{code}").pack(*chain(*reversed(self.vecs)))
        planes = [[seats[j::n * w] for j in range(i, i + w)] for i in range(0, n * w, w)]
        self.seat = [_hits(p, range(m + 1)) for p in planes]
        flags = [_hits(p, range(m), _FLAGS) for p in planes]  # a byte per matching
        self.codes, self.roster_masks, ids = [], [], []  # ids: per school, per matching
        for s, prio in enumerate(self.prio):
            # per matching, its roster code: base-256 digits of 8 priority ranks
            lanes = [sum(row[s] << r - 8 * g for row, r in zip(flags, prio) if r >> 3 == g)
                     for g in range(len(prio) // 8 + 1)]
            keys = lanes[0].to_bytes(size, "little")  # read per matching
            for g, lane in enumerate(lanes[1:], 1):  # past 8 students, OR in the higher digits
                digits = map(lshift, lane.to_bytes(size, "little"), repeat(8 * g))
                keys = list(map(or_, keys, digits))
            found = {key: k for k, key in enumerate(dict.fromkeys(keys))}
            ids.append(list(map(found.__getitem__, keys)))
            self.codes.append(list(found))
            self.roster_masks.append(_hits([x.to_bytes(size, "big") for x in lanes], list(found)))
        self.above, self.atleast = [], []
        for row, rank in zip(self.seat, problem._pref_rank):
            above, atleast = _prefix_or(rank, row)
            self.above.append(above)
            self.atleast.append(atleast)
        self.anchor = []
        for s, prio in enumerate(self.prio):
            col = [row[s] for row in self.seat]
            below, _ = _prefix_or([-r for r in prio], col)  # outranked students first
            self.anchor.append([c | b for c, b in zip(col, below)])
        self.rid = list(zip(*ids)) if m else [()] * len(self.vecs)
        self._into = [[None] * len(codes) for codes in self.codes]  # `groups` memos
        self._out = [[None] * len(codes) for codes in self.codes]
        self._succ: dict = {}
        self._direct: dict = {}

    def groups(self, s: int, r: int, into: bool) -> list[int]:
        """Per verdict, the matchings x whose move at school s gets it.

        With into, x holds the roster before a move into roster r; without,
        x holds the roster after a move out of roster r.  Memoised in a list
        per school and direction, indexed by roster id, so bounded by the index.
        """
        memo = (self._into if into else self._out)[s]
        got = memo[r]
        if got is None:
            got = [0, 0, 0]
            quota, code = self.quota[s], self.codes[s][r]
            for other, mask in zip(self.codes[s], self.roster_masks[s]):
                held, ends = (other, code) if into else (code, other)
                got[_school_verdict(quota, held.bit_count(), ends & ~held, held & ~ends)] |= mask
            memo[r] = got  # stored filled: a shared oracle's memos stay whole
        return got

    def student_masks(self, t: int):
        """The state of one reverse search under lookahead matching t: t,
        per student the matchings whose seat for her she ranks weakly, and
        strictly, below her seat in t, and per school a list, indexed by
        roster id, of the `clauses` filled so far.  Built per reverse search
        and not kept.
        """
        ref = self.vecs[t]
        weak = [self.all & ~row[d] for row, d in zip(self.above, ref)]
        strict = [self.all & ~row[d] for row, d in zip(self.atleast, ref)]
        return t, weak, strict, [[None] * len(codes) for codes in self.codes]

    def clauses(self, s: int, r: int, masks) -> tuple[int, int]:
        """What a move into a matching that gives school s its roster r asks
        of its sources under the lookahead of masks, as two bitsets: those
        whose move passes the school's clauses, and those in which a student
        it touches strictly prefers the lookahead.

        The school must not block; each student of r who joins it weakly
        improves and claims an anchored seat; and if its leavers go
        unreplaced, each of them strictly improves.  Memoised in masks.
        """
        t, weak, strict, memos = masks
        into = self.groups(s, r, True)
        code, anchor = self.codes[s][r], self.anchor[s]
        keep, improver, gone, reluctant = self.all & ~into[BLOCKED], 0, 0, 0
        for i, rank in enumerate(self.prio[s]):
            seat = self.seat[i][s]
            if code >> rank & 1:  # i is in r: if she joins, she must weakly improve
                keep &= seat | weak[i] if anchor[i] >> t & 1 else seat
                improver |= strict[i] & ~seat
            else:  # i leaves, if she held a seat
                gone |= seat
                reluctant |= seat & ~strict[i]
        unreplaced = into[UNREPLACED]
        got = memos[s][r] = keep & ~(unreplaced & reluctant), improver | unreplaced & gone
        return got

    def looks(self, a: int, b: int) -> int:
        """The lookahead matchings under which the move a -> b holds, as one
        bitset.

        Every joiner must weakly prefer the lookahead to her current seat
        and claim an anchored seat; every leaver her school does not replace
        must strictly prefer it; and someone must strictly prefer it.  The
        same rule as `predecessors`, read along the lookahead axis; 0 when
        the move fails the structural screen of `succ_mask`.
        """
        if not self.succ_mask(a) >> b & 1:
            return 0
        m, ra, out = self.m, self.rid[a], self._out  # filled by `succ_mask`
        got, strict, unreplaced = self.all, 0, False
        for i, ca, cb in zip(self.students, self.vecs[a], self.vecs[b]):
            if ca == cb:
                continue
            if cb != m:
                got &= self.atleast[i][ca] & self.anchor[cb][i]
                strict |= self.above[i][ca]
            if ca != m and out[ca][ra[ca]][UNREPLACED] >> b & 1:
                got &= self.above[i][ca]
                unreplaced = True
        return got if unreplaced else got & strict

    def predecessors(self, y: int, masks, within: int) -> int:
        """The matchings in `within` with an edge into y, as one bitset.

        masks are `student_masks` of the lookahead.  The same rule as
        `looks`, applied to every source at once: each school's `clauses`
        for its roster in y, ANDed over the schools, and someone strictly
        improves at one of them.
        """
        memos, got, improver = masks[3], within, 0
        for s, r in enumerate(self.rid[y]):
            keep, better = memos[s][r] or self.clauses(s, r, masks)
            got &= keep
            if not got:
                return 0
            improver |= better
        return got & improver

    def succ_mask(self, x: int) -> int:
        """The matchings that pass the structural screen from x, memoised."""
        got = self._succ.get(x)
        if got is None:
            got = self.all & ~(1 << x)
            for s, r in enumerate(self.rid[x]):
                got &= ~self.groups(s, r, False)[BLOCKED]
            self._succ[x] = got
        return got

    def direct(self, x: int) -> int:
        """The matchings y for which x -> y holds with lookahead y itself:
        the diagonal of `looks`, built forward for one x on first use and
        memoised.  y seats each joiner where she joins, so every claim is
        anchored and only her rank of y against her seat in x counts.
        """
        got = self._direct.get(x)
        if got is None:
            got, strict = self.succ_mask(x), 0
            m, rx, out = self.m, self.rid[x], self._out  # filled by `succ_mask`
            for seats, above, atleast, c in zip(self.seat, self.above, self.atleast, self.vecs[x]):
                joins = ~seats[c] & ~seats[m]  # joiners weakly improve
                got &= ~joins | atleast[c]
                strict |= joins & above[c]
                if c != m:  # unreplaced leavers strictly improve
                    gone = out[c][rx[c]][UNREPLACED] & ~seats[c]
                    got &= ~gone | above[c]
                    strict |= gone
            got &= strict
            self._direct[x] = got
        return got

    def sources_reaching(self, target_idx: int, levels: int = -1) -> int:
        """The bitset of universe indices from which the target is reachable;
        with levels >= 0, by a path of at most that many moves."""
        masks = self.student_masks(target_idx)
        rest = self.all & ~(1 << target_idx)
        frontier = 1 << target_idx
        reached = 0
        while frontier and rest and levels:
            levels -= 1
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
    moves = _move_diff(a, b)
    if not moves or not _enforces(problem, moves, coalition):
        return "coalition cannot enforce the move"
    strict = False
    for i in sorted(coalition.students):
        k = problem._sidx[i]
        row = problem._pref_rank[k]
        ra = row[look._assign[k]]
        rb = row[a._assign[k]]
        if ra > rb:
            return f"student {i} does not weakly improve"
        if ra < rb:
            strict = True
    if not strict:
        return "no strict improver in the coalition"
    for s in sorted(coalition.schools):
        if not _admits(problem, s, a, moves):
            return f"school {s} cannot admit its newcomers"
    return None


def validate_path(problem: Problem, cert: PathCertificate) -> PathViolation | None:
    """Check a certificate at its horizon; None means it is valid.

    Under FARSIGHTED every move looks to the path's end; under an integer
    k each move looks k matchings ahead, or to the end if that is nearer.
    """
    try:
        k = _lookahead(cert.horizon)
    except ValueError:
        return PathViolation(-1, f"invalid horizon {cert.horizon!r}")
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


#: The same checker under the name that callers of integer horizons import.
validate_path_horizon = validate_path


# --------------------------------------------------------------------------
# Reachability search (full farsightedness)
# --------------------------------------------------------------------------

def _lookahead(horizon) -> int | None:
    """The moves a horizon looks ahead: None for FARSIGHTED, else an int k >= 1."""
    return None if horizon == FARSIGHTED else _count(horizon, 1, "horizon", f"{FARSIGHTED!r} or ")


def _index(oracle: _EdgeOracle, mu: Matching) -> int:
    """mu's index in the oracle's universe; a ValueError when it has none."""
    if getattr(mu, "_assign", None) not in oracle.index:
        raise ValueError("matching not in the enumerated universe")
    return oracle.index[mu._assign]


def _space(problem: Problem, universe) -> tuple[list[Matching], _EdgeOracle]:
    """A search's universe, every matching up to `DEFAULT_SEARCH_CAP` unless
    one is given, and its oracle."""
    if universe is None:
        universe = enumerate_matchings(problem, cap=DEFAULT_SEARCH_CAP)
    uni = list(universe)
    return uni, _oracle(problem, uni)


def _oracle(problem: Problem, uni: Sequence[Matching]) -> _EdgeOracle:
    """The oracle for (problem, uni), shared by consecutive searches through
    `_slot`: keyed by problem identity (`Matching` equality ignores it) and
    universe content, and read once, so no caller gets another's oracle."""
    global _slot
    key, slot = tuple(uni), _slot
    if slot[0] is problem and slot[1] == key:
        return slot[2]
    slot = _slot = (None, (), None)  # free the old oracle before building one
    oracle = _EdgeOracle(problem, key)
    _slot = (problem, key, oracle)
    return oracle


def phi(
    problem: Problem,
    mu: Matching,
    universe: Sequence[Matching] | None = None,
) -> set[Matching]:
    """All matchings reachable from mu by a farsighted improving path.

    Every move of such a path looks to its end, the first one included, so
    only the targets under which some first move from mu holds are searched.
    """
    uni, oracle = _space(problem, universe)
    src = _index(oracle, mu)
    heads = reduce(or_, (oracle.looks(src, y) for y in _members(oracle.succ_mask(src))), 0)
    targets = _members(heads)
    cols = _reach_columns(oracle, targets, None, None)[0]
    return {uni[t] for t, col in zip(targets, cols) if col >> src & 1}


def reachability_matrix(
    problem: Problem,
    universe: Sequence[Matching] | None = None,
) -> tuple[list[int], list[Matching]]:
    """Rows R as int bitsets, R[x] >> t & 1 iff target t is in phi(x); and U."""
    uni, oracle = _space(problem, universe)
    return _transpose(_reach_columns(oracle, range(len(uni)), None, None)[0]), uni


def _transpose(cols: list[int]) -> list[int]:
    """The rows of the bitset matrix whose columns are cols."""
    digits = zip(*[f"{col:0{len(cols)}b}" for col in reversed(cols)])  # row x's, the last first
    return [int("".join(row), 2) for row in digits][::-1]


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
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> HorizonResult:
    """Matchings reachable by a horizon-k improving path of length <= depth_cap.

    Depth-first search over sequences of distinct matchings.  A move's
    student condition is settled only once the matching k steps later is
    appended (or the sequence ends), so conditions are re-checked lazily.
    The result is flagged partial when the depth cap or the node budget cut
    any branch.
    """
    if _lookahead(k) is None:
        raise ValueError("phi_horizon needs an integer horizon; phi is full lookahead")
    _count(0 if depth_cap is None else depth_cap, 0, "depth_cap", "None or ")
    _count(node_budget, 1, "node_budget")
    uni, oracle = _space(problem, universe)
    reachable, partial = _phi_horizon(oracle, _index(oracle, mu), k, depth_cap, node_budget)
    return HorizonResult(reachable={uni[t] for t in _members(reachable)}, partial=partial)


def _phi_horizon(
    oracle: _EdgeOracle,
    src: int,
    k: int,
    depth_cap: int | None,
    node_budget: int,
    goal: int = 0,
) -> tuple[int, bool]:
    """`phi_horizon` on universe indices, reusing the oracle's memos.

    Returns the reachable set as a bitset.  The path keeps, per move, the
    bitset of lookaheads under which the move holds (`looks`); a move's
    window closes when the matching k steps later is appended, so a node's
    extensions are its successors off the path under the mask of the move
    that closes, and an endpoint is certified by the AND of the masks whose
    windows are still open.  Children at the depth cap are certified all at
    once when the budget covers them, and charged one node each.  With a
    goal bitset the search stops at its first certified goal matching: that
    frame returns, and every frame above it expands no further child, so
    the result then only says that a goal was reached.
    """
    if depth_cap is None:
        depth_cap = min(len(oracle.vecs), DEFAULT_DEPTH_CAP)
    succ, direct, looks, everything = oracle.succ_mask, oracle.direct, oracle.looks, oracle.all
    path = [src]
    moves: list[int] = []  # per move on the path, the lookaheads under which it holds
    reachable = 0
    partial = False
    budget = node_budget

    def window(lo: int, hi: int) -> int:
        got = everything
        for mask in moves[max(0, lo):hi]:
            got &= mask
        return got

    def dfs(L: int, onpath: int):
        nonlocal partial, budget, reachable
        if budget <= 0:
            partial = True
            return
        budget -= 1
        x = path[L]
        # certify the endpoint if every move whose window is still open
        # holds against it; the others held on extension
        if L and window(L - k + 1, L) >> x & 1:
            reachable |= 1 << x
            if reachable & goal:
                return
        if L >= depth_cap:
            partial = True  # a longer path might certify more targets
            return
        # the move whose window closes with the extension must hold; at
        # k = 1 that is the new move itself, under its own target
        cand = succ(x) & ~onpath
        if k == 1:
            cand &= direct(x)
        elif L + 1 >= k:
            cand &= moves[L + 1 - k]
        if L + 1 == depth_cap and budget >= cand.bit_count():
            if cand:
                budget -= cand.bit_count()
                partial = True
                reachable |= cand & direct(x) & window(L + 2 - k, L)
            return
        while cand and not reachable & goal:
            low = cand & -cand
            cand ^= low
            y = low.bit_length() - 1
            path.append(y)
            moves.append(looks(x, y) if k > 1 else everything)
            dfs(L + 1, onpath | low)
            path.pop()
            moves.pop()

    dfs(0, 1 << src)
    del dfs  # break its self-reference, so the oracle is freed without a gc pass
    return reachable, partial


# --------------------------------------------------------------------------
# Stable sets
# --------------------------------------------------------------------------

def _reach_columns(
    oracle: _EdgeOracle, cand: Sequence[int], k: int | None, depth_cap: int | None
) -> tuple[list[int], int]:
    """Per candidate t, the bitset of the matchings with a path into t; and
    the bitset of the matchings whose search was cut short.

    Under full lookahead, one reverse search per candidate, never cut.
    Under horizon k, each column starts from the outside matchings within
    min(k, depth cap) levels of its reverse search: every move of a path
    that short looks to its end, so it is a full-lookahead path.  Then one
    `_phi_horizon` per matching of the universe not yet in a column.  A run
    from outside the candidate set stops once it certifies a candidate, but
    the batch at its depth cap may certify several, so it may set several
    columns' bits.  No verdict depends on how many: an outsider needs one
    column, and internal violations come only from the runs of a
    multi-matching set's own members, which stay exhaustive.  A lone
    candidate's own run decides nothing, so it is skipped.
    """
    if k is None:
        return [oracle.sources_reaching(t) for t in cand], 0
    column = {t: j for j, t in enumerate(cand)}
    goal = sum(1 << t for t in cand)
    cap = min(len(oracle.vecs), DEFAULT_DEPTH_CAP) if depth_cap is None else depth_cap
    cols = [oracle.sources_reaching(t, min(k, cap)) & ~goal for t in cand]
    covered, cut = reduce(or_, cols, 0), 0
    for x in range(len(oracle.vecs)):
        if x in column and len(cand) == 1 or covered >> x & 1:
            continue
        stop = 0 if x in column else goal
        reach, partial = _phi_horizon(oracle, x, k, depth_cap, DEFAULT_NODE_BUDGET, stop)
        for t in _members(reach & goal):
            cols[column[t]] |= 1 << x
        cut |= partial << x
    return cols, cut


def check_stable_set(
    problem: Problem,
    candidate: Iterable[Matching],
    horizon=FARSIGHTED,
    universe: Sequence[Matching] | None = None,
    depth_cap: int | None = None,
) -> StableSetReport:
    """Internal/external stability report for a candidate set of matchings.

    A found path is definitive.  A matching outside the set whose search
    was cut short and reached no candidate is unknown, not an external
    violation; so is internal stability when a member's own search was cut
    short.  Then the verdict is `inconclusive`, unless an internal
    violation exists.  A depth cap bounds the horizon search only, so it
    needs a horizon.
    """
    cand = sort_matchings(set(candidate))
    if not cand:
        raise ValueError("candidate set must be nonempty")
    k = _lookahead(horizon)
    _count(0 if depth_cap is None else depth_cap, 0, "depth_cap", "None or ")
    if k is None and depth_cap is not None:
        raise ValueError("a depth cap needs a horizon")
    uni, oracle = _space(problem, universe)
    idx = [_index(oracle, mu) for mu in cand]
    cols, cut = _reach_columns(oracle, idx, k, depth_cap)
    internal = [(a, b) for a in idx for b, col in zip(idx, cols) if a != b and col >> a & 1]
    inside = sum(1 << t for t in idx)
    uncovered = oracle.all & ~inside
    for col in cols:
        uncovered &= ~col
    unknown = bool(cut & (inside | uncovered))
    external = _members(uncovered & ~cut)
    if internal or (external and not unknown):
        verdict = "unstable"
    else:
        verdict = "inconclusive" if unknown else "stable"
    return StableSetReport(
        candidate=cand,
        internal_violations=[(uni[a], uni[b]) for a, b in internal],
        external_violations=sort_matchings(uni[x] for x in external),
        verdict=verdict,
        partial=unknown,
    )


def find_singleton_stable_sets(
    problem: Problem,
    horizon=FARSIGHTED,
    universe: Sequence[Matching] | None = None,
) -> list[Matching]:
    """All matchings mu with {mu} a (horizon-k) farsighted stable set: those
    that every other matching has a path into."""
    k = _lookahead(horizon)
    uni, oracle = _space(problem, universe)
    cols, _ = _reach_columns(oracle, range(len(uni)), k, None)
    return sort_matchings(mu for t, mu in enumerate(uni) if cols[t] == oracle.all & ~(1 << t))


def find_stable_sets(
    problem: Problem,
    universe: Sequence[Matching] | None = None,
) -> list[list[Matching]]:
    """All farsighted stable sets, of any size.

    A stable set is a kernel of the digraph x -> y iff y is in phi(x): no
    member reaches another, and every other matching reaches a member.  A
    backtracking search decides each matching in or out by three rules:
    a member puts out every matching it reaches and every one that reaches
    it; an outsider with one possible target left forces that target in;
    an undecided matching whose targets are all out must be in.  Only when
    none applies does it branch, on the first undecided matching.  Sets
    list their members in literal order, and come by size, then by those
    positions.  A search that needs more than `DEFAULT_NODE_BUDGET` nodes
    raises CapacityError.
    """
    uni, oracle = _space(problem, universe)
    cols, _ = _reach_columns(oracle, range(len(uni)), None, None)
    rows = _transpose(cols)
    everyone = (1 << len(uni)) - 1

    def join(inset: int, out: int, covered: int, x: int) -> tuple[int, int, int]:
        return inset | 1 << x, out | rows[x] | cols[x], covered | cols[x]

    budget = DEFAULT_NODE_BUDGET
    found = []
    stack = [(0, 0, 0)]  # members, outsiders, outsiders that reach a member
    while stack:
        budget -= 1
        if budget < 0:
            raise CapacityError(f"the stable-set search needs over {DEFAULT_NODE_BUDGET} nodes")
        state = stack.pop()
        while True:
            inset, out, covered = state
            free = everyone & ~inset & ~out
            left = [rows[x] & free for x in _members(out & ~covered)]  # possible targets
            if 0 in left:
                break  # an outsider that no member can reach any more
            forced = [t for t in left if not t & t - 1]  # one target left
            forced += [1 << x for x in _members(free) if not rows[x] & free]  # all out
            if not forced:
                if free:
                    x = (free & -free).bit_length() - 1
                    stack += [(inset, out | 1 << x, covered), join(*state, x)]
                elif inset:  # the empty universe's empty kernel is no stable set
                    found.append(_members(inset))
                break
            state = join(*state, forced[0].bit_length() - 1)
    order = sorted(range(len(uni)), key=lambda x: uni[x].literal())
    pos = {x: k for k, x in enumerate(order)}
    sets = sorted((sorted(map(pos.get, xs)) for xs in found), key=lambda ps: (len(ps), ps))
    return [[uni[order[k]] for k in ps] for ps in sets]
