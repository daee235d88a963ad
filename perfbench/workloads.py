"""The four workloads: market, reach, horizon and certify.

Each workload draws round r's inputs from its own stream, seeded by the run
seed and r, so no round reuses an object of another.  `generate` is
benchmark work and is not timed; `setup` holds the program's set-up calls
(parsing, problem construction, enumeration) and is timed as set-up;
`slots` returns the round's operations, each with a check of its output.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter

import reference as ref
from schoolchoice import (
    PathCertificate, build_path_to_ct, build_path_to_ettc, build_path_to_fct, build_path_to_ttc,
    check_stable_set, cli, enumerate_matchings, phi_horizon, run_ct, run_da, run_ettc, run_fct,
    run_ia, run_ttc, validate_path, validate_path_horizon,
)
from schoolchoice.paths import ConstructionLog
from schoolchoice.textio import (
    certificate_to_dict, load_certificate, parse_instance, parse_matching,
)

from gen import (
    ETTC_FAULT, ETTC_FAULT_START, HORIZON_FAULTS, TRADING, literal, parse_literal, random_spec,
    random_start,
)
from harness import Slot

# The two faults of the program that operations are expected to hit.
FAULT_HORIZON = "check_stable_set(horizon=3) answers unstable from a search the depth cap cut short"
FAULT_ETTC = "build_path_to_ettc emits a certificate validate_path rejects"
# Outcomes that contradict the paper on a seed-dependent few inputs.  They
# are neither failures nor wrong answers (see CHANGES.md), but every run
# counts and prints them.
NOTE_TTC_UNSTABLE = "{TTC} answered unstable under full lookahead"
NOTE_TTC_H3 = "TTC certificate rejected at horizon 3"

MECHANISMS = {"ttc": run_ttc, "da": run_da, "ia": run_ia, "fct": run_fct, "ct": run_ct,
              "ettc": run_ettc}
BUILDERS = {"ttc": build_path_to_ttc, "fct": build_path_to_fct, "ct": build_path_to_ct,
            "ettc": build_path_to_ettc}


def _wrong(detail):
    return ("wrong", detail)


class Workload:
    name = ""

    def probe(self, tr):
        """Extra per-layer measurements taken after a traced run."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.noted: Counter = Counter()

    def rng(self, r: int, tag: str = "") -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{r}/{tag}")

    def parse(self, tr, text):
        return tr.call("textio.parse_instance", parse_instance, text)

    def enumerate(self, tr, problem):
        universe = tr.call("model.enumerate_matchings", enumerate_matchings, problem)
        tr.count("model.matchings", len(universe))
        return universe


# --------------------------------------------------------------------------
# market: one mechanism on one generated market
# --------------------------------------------------------------------------

# mechanism -> [(students, schools, seats per school, list length)]: few
# large schools with short lists, then many small schools with longer ones.
# Sizes are chosen so that every slot takes a similar time today.
MARKETS = {
    "ttc": [(200, 4, 50, 3), (160, 32, 5, 5)],
    "da": [(1000, 4, 250, 3), (2000, 40, 50, 6)],
    "ia": [(2000, 8, 250, 3), (2000, 100, 20, 8)],
    "fct": [(240, 4, 60, 3), (160, 32, 5, 5)],
    "ct": [(100, 4, 25, 3), (50, 16, 3, 5)],
    "ettc": [(70, 3, 23, 3), (40, 12, 3, 5)],
}


class Market(Workload):
    name = "market"

    def generate(self, r):
        rng = self.rng(r)
        out = []
        for mech, shapes in MARKETS.items():
            for n, m, q, length in shapes:
                spec = random_spec(rng, n, [q] * m, list_len=length)
                out.append((mech, f"{n}x{m}", spec, spec.text()))
        return out

    def setup(self, inputs, tr):
        return [(mech, shape, spec, self.parse(tr, text)) for mech, shape, spec, text in inputs]

    def slots(self, prepared, r):
        return [
            Slot(f"{mech}.{shape}", self._op(mech, problem), self._check(mech, spec))
            for mech, shape, spec, problem in prepared
        ]

    def _op(self, mech, problem):
        fn = MECHANISMS[mech]

        def run(tr):
            tr.count("mechanisms.students", len(problem.students))
            out = tr.call("mechanisms.run_" + mech, fn, problem)
            return out[0] if isinstance(out, tuple) else out

        return run

    def _check(self, mech, spec):
        def check(mu):
            got = parse_literal(mu.literal())
            if not ref.individually_rational(spec, got):
                return _wrong(f"{mech} outcome not individually rational")
            if mech == "da":
                if got != ref.deferred_acceptance(spec):
                    return _wrong("DA differs from the reference DA")
                if ref.justified_envy(spec, got) or ref.wasteful_students(spec, got):
                    return _wrong("DA outcome has justified envy or waste")
            elif not ref.pareto_efficient(spec, got):
                return _wrong(f"{mech} outcome not Pareto efficient")
            if mech == "ttc" and got != ref.top_trading_cycles(spec):
                return _wrong("TTC differs from the reference TTC")
            return None

        return check


# --------------------------------------------------------------------------
# reach: {TTC} and {DA} under full lookahead, one instance per operation
# --------------------------------------------------------------------------

# (students, quotas) per slot, 115 to 229 matchings; the first slot of the
# first round is the trading instance, which has the same shape.  The cost
# of one operation varies by about half its mean from instance to instance,
# so a steady rate needs hundreds of operations per run, hence no larger
# shapes (perfbench/figures.py times those).  The peak memory of a run is
# set by its largest anatomy cache; the 253-matching shape (4, (3, 3, 3))
# builds one that is rare and large, so whether a run meets it moved the
# peak by 15%.
REACH_SHAPES = [
    (4, (1, 1, 2)), (6, (1, 2)), (5, (1, 1, 1)), (5, (2, 2)), (4, (1, 2, 2)),
    (5, (2, 3)), (4, (2, 2, 2)), (4, (2, 2, 3)),
]
# The reference search checks every slot of round 0 and one seeded slot of
# every REACH_CHECK_EVERY-th round after it.
REACH_CHECK_EVERY = 4


class Reach(Workload):
    name = "reach"

    def generate(self, r):
        rng = self.rng(r)
        specs = [random_spec(rng, n, q) for n, q in REACH_SHAPES]
        if r == 0:
            specs[0] = TRADING
        checked = rng.randrange(len(specs)) if r % REACH_CHECK_EVERY == 0 else -1
        return [(spec, spec.text()) for spec in specs], checked

    def setup(self, inputs, tr):
        specs, checked = inputs
        out = []
        for spec, text in specs:
            problem = self.parse(tr, text)
            out.append((spec, problem, self.enumerate(tr, problem)))
        return out, checked

    def slots(self, prepared, r):
        items, checked = prepared
        return [
            Slot(f"u{len(universe)}", self._op(problem, universe),
                 self._check(spec, r == 0 and k == 0, k == checked or r == 0))
            for k, (spec, problem, universe) in enumerate(items)
        ]

    def probe(self, tr):
        """Largest peak Python allocation of one check_stable_set call, mostly
        the anatomy cache, over fresh instances of the largest shape (traced
        runs only, after the timed rounds: tracemalloc slows every call)."""
        import tracemalloc

        rng = self.rng(-1, "probe")
        peak = 0
        for _ in range(8):
            spec = random_spec(rng, *REACH_SHAPES[-1])
            problem = parse_instance(spec.text())
            universe = enumerate_matchings(problem)
            for mu in (run_ttc(problem)[0], run_da(problem)):
                tracemalloc.start()
                try:
                    check_stable_set(problem, [mu], universe=universe)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        tr.counts["farsight.check_stable_set.peak_alloc_mb"] = peak / 2**20

    def _op(self, problem, universe):
        def run(tr):
            ttc = tr.call("mechanisms.run_ttc", run_ttc, problem)[0]
            da = tr.call("mechanisms.run_da", run_da, problem)
            tr.count("mechanisms.students", 2 * len(problem.students))
            reports = []
            for mu in (ttc, da):
                reports.append(tr.call("farsight.check_stable_set", check_stable_set,
                                       problem, [mu], universe=universe))
            tr.count("farsight.pairs", 2 * len(universe) ** 2)
            tr.count("farsight.ttc_unstable", reports[0].verdict == "unstable")
            return ttc, da, reports

        return run

    def _check(self, spec, trading, deep):
        def check(out):
            ttc, da, reports = out
            self.noted[NOTE_TTC_UNSTABLE] += reports[0].verdict == "unstable"
            lits = [ttc.literal(), da.literal()]
            if lits != [literal(spec, ref.top_trading_cycles(spec)),
                        literal(spec, ref.deferred_acceptance(spec))]:
                return _wrong("TTC or DA differs from the reference")
            if trading and (reports[0].verdict != "stable" or reports[1].verdict != "unstable"
                            or lits[0] not in {m.literal() for m in reports[1].external_violations}):
                return _wrong("trading instance: {TTC} not stable or {DA} not violated by TTC")
            if not deep:
                return None
            universe = ref.all_matchings(spec)
            index = {literal(spec, m): k for k, m in enumerate(universe)}
            search = ref.Reach(spec, universe)
            for lit, report in zip(lits, reports):
                reaching = search.sources(index[lit]) | {index[lit]}
                expect = sorted(literal(spec, universe[x]) for x in range(len(universe))
                                if x not in reaching)
                got = sorted(m.literal() for m in report.external_violations)
                verdict = "unstable" if expect else "stable"
                if got != expect or report.verdict != verdict or report.internal_violations:
                    return _wrong(f"stable-set report for {lit} differs from the reference search")
            return None

        return check


# --------------------------------------------------------------------------
# horizon: three-step lookahead, by depth-first search
# --------------------------------------------------------------------------

# phi_horizon slots: (instance shape, or None for the trading instance;
# depth cap).  Depth 3 on the trading instance takes several times depth 2,
# so it stays on the 25- and 34-matching shapes.
HORIZON_PHI = [
    (None, 2), ((4, (1, 1, 2)), 2), ((4, (1, 2)), 2), ((4, (2, 2)), 2),
    ((3, (2, 2)), 3), ((3, (1, 1, 1)), 3),
]
# The reference checks every phi slot of round 0 and one seeded phi slot
# of every later round.


class Horizon(Workload):
    name = "horizon"

    def generate(self, r):
        rng = self.rng(r)
        phi = [TRADING if shape is None else random_spec(rng, *shape) for shape, _ in HORIZON_PHI]
        # each phi slot starts from a seeded matching of its universe; the
        # check_stable_set slots run on instances that do not depend on the
        # seed, where its verdict is wrong in every run
        picks = [rng.random() for _ in phi]
        checked = rng.randrange(len(phi))
        return [(spec, spec.text()) for spec in phi + list(HORIZON_FAULTS)], picks, checked

    def setup(self, inputs, tr):
        specs, picks, checked = inputs
        items = []
        for spec, text in specs:
            problem = self.parse(tr, text)
            items.append((spec, problem, self.enumerate(tr, problem)))
        return items, picks, checked

    def slots(self, prepared, r):
        items, picks, checked = prepared
        out = []
        for k, (spec, problem, universe) in enumerate(items):
            if k < len(HORIZON_PHI):
                depth = HORIZON_PHI[k][1]
                src = universe[int(picks[k] * len(universe))]
                out.append(Slot(f"phi.u{len(universe)}.d{depth}",
                                self._phi(problem, universe, src, depth),
                                self._check_phi(spec, src, depth)
                                if r == 0 or k == checked else None))
            else:
                out.append(Slot(f"set.u{len(universe)}", self._set(problem, universe),
                                self._check_set))
        return out

    def _phi(self, problem, universe, src, depth):
        def run(tr):
            res = tr.call("farsight.phi_horizon", phi_horizon, problem, src, 3,
                          depth_cap=depth, universe=universe)
            tr.count("farsight.phi_horizon.partial", res.partial)
            return res

        return run

    def _check_phi(self, spec, src, depth):
        def check(res):
            # k = 3 >= depth: every move looks at the path's end, so the answer
            # is plain reachability by at most `depth` moves
            universe = ref.all_matchings(spec)
            lits = [literal(spec, m) for m in universe]
            expect = ref.Reach(spec, universe).within(lits.index(src.literal()), depth)
            if sorted(m.literal() for m in res.reachable) != sorted(lits[t] for t in expect):
                return _wrong(f"phi_horizon from {src.literal()} differs from the reference")
            return None

        return check

    def _set(self, problem, universe):
        def run(tr):
            ttc = tr.call("mechanisms.run_ttc", run_ttc, problem)[0]
            return tr.call("farsight.check_stable_set_h3", check_stable_set, problem,
                           [ttc], horizon=3, universe=universe, depth_cap=2)

        return run

    @staticmethod
    def _check_set(report):
        if report.verdict == "stable" and report.partial:
            return _wrong("stable verdict from a cut-off search")
        if report.verdict == "unstable" and report.partial and not report.internal_violations:
            return ("failed", FAULT_HORIZON)
        return None


# --------------------------------------------------------------------------
# certify: constructive certificates, validators, serialization and the CLI
# --------------------------------------------------------------------------

# (students, schools) per seeded slot; quotas are drawn so seats roughly
# match students.  The first slot also runs `validate-path` through cli.main.
CERTIFY_SHAPES = [(10, 3), (20, 5), (30, 6), (40, 8)]
CERTIFY_TARGETS = ("ttc", "fct", "ct")
# build_path_to_ettc fails on a seed-dependent few starts, so it runs on
# starts that do not depend on the seed: the known failing start, and
# starts drawn once from this seed on 20 x 5 instances.
ETTC_FIXED_SEED = "certify-ettc"
ETTC_FIXED_COUNT = 3


def _certify_spec(rng, n, m):
    quotas = [max(1, round(rng.uniform(0.6, 1.6) * n / m)) for _ in range(m)]
    return random_spec(rng, n, quotas)


class Certify(Workload):
    name = "certify"

    def generate(self, r):
        rng = self.rng(r)
        items = []
        for n, m in CERTIFY_SHAPES:
            spec = _certify_spec(rng, n, m)
            items.append((spec, spec.text(), literal(spec, random_start(rng, spec)),
                          CERTIFY_TARGETS))
        fixed = random.Random(ETTC_FIXED_SEED)
        items.append((ETTC_FAULT, ETTC_FAULT.text(), ETTC_FAULT_START, ("ettc",)))
        for _ in range(ETTC_FIXED_COUNT):
            spec = _certify_spec(fixed, 20, 5)
            items.append((spec, spec.text(), literal(spec, random_start(fixed, spec)), ("ettc",)))
        return items

    def setup(self, inputs, tr):
        return [(spec, text, self.parse(tr, text), start, targets)
                for spec, text, start, targets in inputs]

    def slots(self, prepared, r):
        return [
            Slot(f"{'+'.join(targets)}.n{len(spec.students)}",
                 self._op(problem, start, targets, text if k == 0 else None),
                 self._check(spec))
            for k, (spec, text, problem, start, targets) in enumerate(prepared)
        ]

    def _op(self, problem, start_literal, targets, cli_text):
        def run(tr):
            start = tr.call("textio.parse_matching", parse_matching, problem, start_literal)
            out = {}
            for target in targets:
                log = ConstructionLog()
                cert = tr.call("paths.build_path_to_" + target, BUILDERS[target], problem,
                               start, log)
                outcome = tr.call("mechanisms.run_" + target, MECHANISMS[target], problem)[0]
                violation = tr.call("farsight.validate_path", validate_path, problem, cert)
                tr.count("farsight.steps_validated", len(cert.steps))
                tr.count("paths.steps", len(cert.steps))
                tr.count("paths.clear_moves",
                         sum(1 for _, detail, _ in log.entries if detail.startswith("clear")))
                record = {"cert": cert, "outcome": outcome, "violation": violation}
                if target == "ttc":
                    bounded = PathCertificate(cert.matchings, cert.steps, 3)
                    record["h3"] = tr.call("farsight.validate_path_horizon",
                                           validate_path_horizon, problem, bounded)
                    tr.count("paths.ttc_h3_rejected", record["h3"] is not None)
                    tr.count("farsight.steps_validated", len(cert.steps))
                record["dict"], record["back"] = tr.call(
                    "textio.certificate_roundtrip", self._roundtrip, problem, cert)
                if cli_text and target == "ttc":
                    record["cli"] = tr.call("cli.main", self._cli, cli_text, record["dict"])
                out[target] = record
            return out

        return run

    def _roundtrip(self, problem, cert):
        data = certificate_to_dict(cert)
        return data, load_certificate(problem, json.dumps(data))

    def _cli(self, text, data):
        """`schoolchoice validate-path` in-process on files in the work dir."""
        inst = os.path.join(self.workdir, "instance.txt")
        path = os.path.join(self.workdir, "certificate.json")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["validate-path", inst, "--file", path])
        return code, buf.getvalue().strip()

    def _check(self, spec):
        def check(out):
            failed = None
            for target, rec in out.items():
                cert, data = rec["cert"], rec["dict"]
                if cert.end != rec["outcome"]:
                    return _wrong(f"{target} certificate does not end at the outcome")
                if target == "ttc" and rec["outcome"].literal() != literal(
                        spec, ref.top_trading_cycles(spec)):
                    return _wrong("TTC differs from the reference TTC")
                back = rec["back"]
                if (back.matchings, back.horizon) != (cert.matchings, cert.horizon) or [
                        s.coalition for s in back.steps] != [s.coalition for s in cert.steps]:
                    return _wrong(f"{target} certificate changed in the JSON round trip")
                mine = ref.certificate_violation(spec, data)
                if (mine is None) != (rec["violation"] is None):
                    return _wrong(f"{target}: validate_path and the reference checker disagree")
                if rec["violation"] is not None:
                    if target != "ettc":
                        return _wrong(f"{target} certificate rejected: {rec['violation']}")
                    failed = ("failed", FAULT_ETTC)
                if target == "ttc":
                    # On a few percent of seeded starts the certificate fails at
                    # horizon 3; that varies with the seed, so it is counted,
                    # and only agreement with the reference checker is required.
                    mine = ref.certificate_violation(spec, {**data, "horizon": 3})
                    if (mine is None) != (rec["h3"] is None):
                        return _wrong("validate_path_horizon and the reference checker disagree")
                    self.noted[NOTE_TTC_H3] += rec["h3"] is not None
                if "cli" in rec:
                    v = rec["violation"]
                    if rec["cli"] != ((0, "valid") if v is None else (1, f"invalid: {v}")):
                        return _wrong(f"cli validate-path answered {rec['cli']}")
            return failed

        return check


WORKLOADS = {w.name: w for w in (Market, Reach, Horizon, Certify)}
