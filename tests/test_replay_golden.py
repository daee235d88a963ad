"""Byte-level guard on mechanism traces and builder certificates.

Each instance maps to one sha256 digest per part: `mechanisms` over every
mechanism's outcome and trace (including the clinch-round guarantees the
serializers leave out), and one per builder (`ttc`, `fct`, `ct`, `ettc`)
over, from up to 20 seeded starts, its certificate, construction log and
`validate_path` / horizon-3 verdicts.  The digests in `replay_golden.json`
were recorded before the mechanisms and builders were refactored; a
mismatch names the instance and the part whose behaviour changed, and a
re-recording shows in the diff which parts moved.

After an intended behaviour change, regenerate the file with
`PYTHONPATH=src python tests/test_replay_golden.py`.
"""
import hashlib
import json
import random
from pathlib import Path

from schoolchoice import (
    MECHANISMS,
    PathCertificate,
    SchoolChoiceError,
    build_path_to_ct,
    build_path_to_ettc,
    build_path_to_fct,
    build_path_to_ttc,
    enumerate_matchings,
    run_mechanism,
    validate_path,
    validate_path_horizon,
)
from schoolchoice.paths import ConstructionLog
from schoolchoice.textio import certificate_to_dict, trace_to_dict

from conftest import random_problem

GOLDEN = Path(__file__).with_name("replay_golden.json")
WORKED = (
    "trading_instance",
    "clinch_small_instance",
    "iterated_clinch_instance",
    "seat_endowment_instance",
)
BUILDERS = {
    "ttc": build_path_to_ttc,
    "fct": build_path_to_fct,
    "ct": build_path_to_ct,
    "ettc": build_path_to_ettc,
}
RANDOM_INSTANCES = 60
STARTS = 20


def instances(worked: dict) -> dict:
    out = dict(worked)
    rng = random.Random(528)  # its instances reach every clear-then-join fallback
    for k in range(RANDOM_INSTANCES):
        out[f"random_{k:02d}"] = random_problem(rng, max_students=5, max_schools=3)
    return out


def _mechanism_record(problem, names=tuple(sorted(MECHANISMS))) -> dict:
    out = {}
    for name in names:
        try:
            mu, trace = run_mechanism(name, problem)
        except SchoolChoiceError as exc:
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        rec = {"matching": mu.literal()}
        if trace is not None:
            rec["trace"] = trace_to_dict(trace)
            rec["order"] = [list(st.matches) for st in trace.steps]
            rec["guarantees"] = [
                [
                    [k, {s: list(g) for s, g in r.guarantees.items()}]
                    for k, r in enumerate(st.clinch_rounds, 1)
                ]
                for st in trace.steps
            ]
        out[name] = rec
    return out


def _builder_record(problem, builder, start) -> dict:
    log = ConstructionLog()
    try:
        cert = builder(problem, start, log)
    except SchoolChoiceError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    bounded = PathCertificate(cert.matchings, cert.steps, 3)
    return {
        "certificate": certificate_to_dict(cert),
        "log": [[phase, detail, mu.literal()] for phase, detail, mu in log.entries],
        "verdict": str(validate_path(problem, cert)),
        "verdict_h3": str(validate_path_horizon(problem, bounded)),
    }


def _sha(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def digest(problem, seed: int) -> dict:
    universe = enumerate_matchings(problem)
    starts = random.Random(seed).sample(universe, min(STARTS, len(universe)))
    out = {"mechanisms": _sha(_mechanism_record(problem))}
    for name, builder in BUILDERS.items():
        out[name] = _sha([_builder_record(problem, builder, mu) for mu in starts])
    return out


def all_digests(worked: dict) -> dict:
    return {
        name: digest(problem, seed)
        for seed, (name, problem) in enumerate(instances(worked).items())
    }


def test_traces_and_certificates_match_golden(request):
    worked = {name: request.getfixturevalue(name) for name in WORKED}
    golden = json.loads(GOLDEN.read_text())
    got = all_digests(worked)
    assert sorted(got) == sorted(golden)
    changed = [
        f"{name}:{part}"
        for name in golden
        for part in sorted(set(golden[name]) | set(got[name]))
        if got[name].get(part) != golden[name].get(part)
    ]
    assert not changed, f"behaviour changed on {changed}"


if __name__ == "__main__":
    import conftest

    worked = {name: getattr(conftest, name).__wrapped__() for name in WORKED}
    GOLDEN.write_text(json.dumps(all_digests(worked), indent=1, sort_keys=True) + "\n")
