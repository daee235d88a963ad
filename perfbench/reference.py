"""Reference computations, written from the definitions alone.

Nothing here imports the library.  Matchings are dicts student -> school,
with `None` for unmatched; the benchmark compares them with the program's
output through matching literals.  The rules restated here are those of
the package README ("Enforcement and search semantics"): preference lists
rank acceptable schools, staying unmatched comes next, and every unlisted
school ranks below that, all tied.
"""
from __future__ import annotations

import itertools

from gen import Spec, parse_literal


class Ranks:
    """Lookup tables: `pref[i][school]` (lower is better, `None` for
    unmatched) and `prio[s][i]` (0 is the highest priority)."""

    def __init__(self, spec: Spec):
        self.pref = {}
        for i, listed in spec.prefs.items():
            row = {s: len(listed) + 1 for s in spec.schools}
            row.update({s: k for k, s in enumerate(listed)})
            row[None] = len(listed)
            self.pref[i] = row
        self.prio = {s: {i: k for k, i in enumerate(order)} for s, order in spec.prios.items()}


def rosters(spec: Spec, assign: dict) -> dict:
    out = {s: [] for s in spec.schools}
    for i in spec.students:
        if assign[i] is not None:
            out[assign[i]].append(i)
    return out


# --------------------------------------------------------------------------
# Mechanisms
# --------------------------------------------------------------------------

def deferred_acceptance(spec: Spec) -> dict:
    """Student-proposing DA, run in simultaneous rounds.

    Each round every rejected student proposes to her next listed school;
    each school keeps its quota-many highest-priority proposers so far.
    """
    order = Ranks(spec).prio
    pos = {i: 0 for i in spec.students}
    held = {s: [] for s in spec.schools}
    proposing = list(spec.students)
    while proposing:
        offers = {s: [] for s in spec.schools}
        for i in proposing:
            if pos[i] < len(spec.prefs[i]):
                offers[spec.prefs[i][pos[i]]].append(i)
        proposing = []
        for s in spec.schools:
            if not offers[s]:
                continue
            pool = sorted(held[s] + offers[s], key=order[s].__getitem__)
            held[s] = pool[: spec.quotas[s]]
            for i in pool[spec.quotas[s]:]:
                pos[i] += 1
                proposing.append(i)
    out = {i: None for i in spec.students}
    for s, kept in held.items():
        for i in kept:
            out[i] = s
    return out


def top_trading_cycles(spec: Spec) -> dict:
    """TTC with quotas.

    Each step every remaining student points to her best listed school with
    a free seat (or to herself when none is left), and every school with a
    free seat points to its highest-priority remaining student.  Every cycle
    is carried out and its students leave with the seat they point to.
    """
    free = dict(spec.quotas)
    remaining = set(spec.students)
    cursor = {i: 0 for i in spec.students}  # into the preference list
    head = {s: 0 for s in spec.schools}  # into the priority order
    out = {}
    while remaining:
        points = {}
        for i in remaining:
            prefs = spec.prefs[i]
            while cursor[i] < len(prefs) and free[prefs[cursor[i]]] == 0:
                cursor[i] += 1
            points[("i", i)] = ("s", prefs[cursor[i]]) if cursor[i] < len(prefs) else None
        for s in spec.schools:
            if free[s] == 0:
                continue
            order = spec.prios[s]
            while order[head[s]] not in remaining:
                head[s] += 1
            points[("s", s)] = ("i", order[head[s]])
        leaving = {}
        for node, nxt in points.items():
            if node[0] == "i" and nxt is None:
                leaving[node[1]] = None
        # walk each node; a walk that returns to one of its own nodes found a cycle
        colour: dict = {}
        for start in points:
            if start in colour:
                continue
            walk = []
            node = start
            while node is not None and node not in colour:
                colour[node] = start
                walk.append(node)
                node = points.get(node)
            if node is not None and colour[node] == start:
                cycle = walk[walk.index(node):]
                for k, member in enumerate(cycle):
                    if member[0] == "i":
                        leaving[member[1]] = cycle[(k + 1) % len(cycle)][1]
        for i, s in leaving.items():
            out[i] = s
            remaining.discard(i)
            if s is not None:
                free[s] -= 1
    return out


# --------------------------------------------------------------------------
# Properties of a matching
# --------------------------------------------------------------------------

def individually_rational(spec: Spec, m: dict) -> bool:
    return all(m[i] is None or m[i] in spec.prefs[i] for i in spec.students)


def wasteful_students(spec: Spec, m: dict) -> list:
    """Students who prefer some school that still has a free seat."""
    pref = Ranks(spec).pref
    seats = {s: spec.quotas[s] for s in spec.schools}
    for i in spec.students:
        if m[i] is not None:
            seats[m[i]] -= 1
    return [
        i for i in spec.students
        if any(seats[s] > 0 and pref[i][s] < pref[i][m[i]] for s in spec.schools)
    ]


def justified_envy(spec: Spec, m: dict) -> list:
    """(student, school) pairs where the student prefers the school and beats
    its cutoff, the priority of its lowest-priority occupant."""
    ranks = Ranks(spec)
    pref, prio = ranks.pref, ranks.prio
    cutoff = {}
    for s, roster in rosters(spec, m).items():
        if roster:
            cutoff[s] = max(prio[s][j] for j in roster)
    return [
        (i, s)
        for i in spec.students
        for s in cutoff
        if pref[i][s] < pref[i][m[i]] and prio[s][i] < cutoff[s]
    ]


def pareto_efficient(spec: Spec, m: dict) -> bool:
    """No student prefers a school with a free seat, and the graph
    student -> preferred school -> its occupants has no cycle."""
    if not individually_rational(spec, m) or wasteful_students(spec, m):
        return False
    pref = Ranks(spec).pref
    succ = {("i", i): [("s", s) for s in spec.prefs[i] if pref[i][s] < pref[i][m[i]]]
            for i in spec.students}
    for s, roster in rosters(spec, m).items():
        succ[("s", s)] = [("i", j) for j in roster]
    # Kahn: the graph is acyclic iff repeatedly removing sources empties it
    indegree = {node: 0 for node in succ}
    for targets in succ.values():
        for node in targets:
            indegree[node] += 1
    sources = [node for node, d in indegree.items() if d == 0]
    removed = 0
    while sources:
        node = sources.pop()
        removed += 1
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                sources.append(nxt)
    return removed == len(succ)


# --------------------------------------------------------------------------
# Moves, reachability and certificates
# --------------------------------------------------------------------------

def upgrade_exists(prio: dict, leavers, joiners) -> bool:
    """Every leaver gets a distinct joiner of higher priority, `prio` being
    the school's priority ranks (bipartite matching by augmenting paths)."""
    partner: dict = {}

    def augment(j, seen) -> bool:
        for i in joiners:
            if i in seen or prio[i] >= prio[j]:
                continue
            seen.add(i)
            if i not in partner or augment(partner[i], seen):
                partner[i] = j
                return True
        return False

    return all(augment(j, set()) for j in leavers)


def all_matchings(spec: Spec) -> list:
    options = list(spec.schools) + [None]
    out = []
    for combo in itertools.product(options, repeat=len(spec.students)):
        load = {s: 0 for s in spec.schools}
        for s in combo:
            if s is not None:
                load[s] += 1
        if all(load[s] <= spec.quotas[s] for s in spec.schools):
            out.append(dict(zip(spec.students, combo)))
    return out


class Reach:
    """Improving-path search under the README's search rules.

    A move from x to y is taken by the agents it touches.  A school whose
    old roster plus its newcomers exceed its quota must trade every leaver
    for a distinct higher-priority newcomer; leavers elsewhere leave on
    their own.  With lookahead matching r: every student who takes a new
    seat weakly prefers r to her seat in x and takes it where r seats her,
    or where r seats someone she outranks; every student who leaves on her
    own strictly prefers r; someone strictly prefers r.
    """

    def __init__(self, spec: Spec, universe: list):
        self.spec = spec
        self.ranks = Ranks(spec)
        self.universe = universe
        self.roster = [rosters(spec, m) for m in universe]

    def edge(self, x: int, y: int, r: int) -> bool:
        spec = self.spec
        pref, prio = self.ranks.pref, self.ranks.prio
        a, b, ref = self.universe[x], self.universe[y], self.universe[r]
        moved = [i for i in spec.students if a[i] != b[i]]
        if not moved:
            return False
        traded = set()
        for s in {b[i] for i in moved if b[i] is not None}:
            joiners = [i for i in moved if b[i] == s]
            if len(self.roster[x][s]) + len(joiners) > spec.quotas[s]:
                leavers = [i for i in moved if a[i] == s]
                if not upgrade_exists(prio[s], leavers, joiners):
                    return False
                traded.update(leavers)
        strict = False
        for i in moved:
            now, later = pref[i][a[i]], pref[i][ref[i]]
            if b[i] is not None:
                if later > now:
                    return False
                strict |= later < now
                s = b[i]
                if ref[i] != s and not any(
                    prio[s][i] < prio[s][j] for j in self.roster[r][s]
                ):
                    return False
            if a[i] is not None and i not in traded:
                if later >= now:
                    return False
                strict = True
        return strict

    def sources(self, t: int) -> set:
        """Every matching with an improving path to matching t."""
        found = {t}
        frontier = [t]
        while frontier:
            nxt = []
            for y in frontier:
                for x in range(len(self.universe)):
                    if x not in found and self.edge(x, y, t):
                        found.add(x)
                        nxt.append(x)
            frontier = nxt
        found.discard(t)
        return found

    def within(self, src: int, depth: int) -> set:
        """Targets t reached from src by a path of at most `depth` (1..3)
        moves, every move judged against t itself (full lookahead)."""
        n = len(self.universe)
        out = set()
        for t in range(n):
            if t == src:
                continue
            first = [y for y in range(n) if self.edge(src, y, t)]
            if t in first:
                out.add(t)
            elif depth >= 2 and any(self.edge(y, t, t) for y in first):
                out.add(t)
            elif depth >= 3:
                last = [z for z in range(n) if self.edge(z, t, t)]
                if any(self.edge(y, z, t) for y in first for z in last if y != z):
                    out.add(t)
        return out


def certificate_violation(spec: Spec, cert: dict) -> str | None:
    """Why a serialized certificate is not an improving path, or None.

    Enforcement: every school gaining newcomers is in the coalition with all
    its newcomers; a school that only loses students is in it, or all its
    leavers are.  Improvement: every coalition student weakly prefers the
    lookahead matching to her current seat, and one strictly.  Admission:
    a coalition school pushed past its quota trades each leaver for a
    distinct higher-priority newcomer.
    """
    mus = [parse_literal(text) for text in cert["matchings"]]
    steps = cert["steps"]
    if len(mus) < 2 or len(steps) != len(mus) - 1:
        return "wrong number of matchings or steps"
    if len({tuple(m[i] for i in spec.students) for m in mus}) != len(mus):
        return "a matching repeats"
    for m in mus:
        if any(len(r) > spec.quotas[s] for s, r in rosters(spec, m).items()):
            return "a matching exceeds a quota"
    ranks = Ranks(spec)
    horizon = cert["horizon"]
    last = len(mus) - 1
    for l, step in enumerate(steps):
        a, b = mus[l], mus[l + 1]
        students = set(step["coalition"]["students"])
        schools = set(step["coalition"]["schools"])
        if not students:
            return f"step {l}: no student in the coalition"
        old, new = rosters(spec, a), rosters(spec, b)
        for s in spec.schools:
            joiners = set(new[s]) - set(old[s])
            leavers = set(old[s]) - set(new[s])
            if joiners and (s not in schools or not joiners <= students):
                return f"step {l}: newcomers of {s} not enforced"
            if not joiners and leavers and s not in schools and not leavers <= students:
                return f"step {l}: leavers of {s} not enforced"
            if s in schools and len(old[s]) + len(joiners) > spec.quotas[s]:
                if not upgrade_exists(ranks.prio[s], leavers, joiners):
                    return f"step {l}: {s} cannot admit its newcomers"
        look = mus[last] if horizon == "farsighted" else mus[min(l + int(horizon), last)]
        gains = [ranks.pref[i][a[i]] - ranks.pref[i][look[i]] for i in students]
        if min(gains) < 0:
            return f"step {l}: a coalition student is worse off"
        if max(gains) == 0:
            return f"step {l}: no strict improver"
    return None
