"""Command line interface.

Every subcommand reads an instance file, which `main` loads and checks
before the subcommand runs, and writes a deterministic report to standard
output, as text or JSON.  Input files are read as UTF-8, a leading
byte-order mark dropped.  Exit codes: 0 success, 1 negative verdict on a
boolean query (unstable set, invalid path, unstable matching), 2 malformed
input, 3 an exhaustive computation exceeded its cap, 141 standard output
closed early (a shell's status for a writer stopped by SIGPIPE).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import paths as paths_mod
from .farsight import (
    FARSIGHTED,
    check_stable_set,
    find_singleton_stable_sets,
    find_stable_sets,
    phi,
    phi_horizon,
    validate_path,
    PathCertificate,
)
from .mechanisms import MECHANISMS, run_mechanism
from .model import (
    CapacityError,
    SchoolChoiceError,
    enumerate_matchings,
    is_individually_rational,
    is_non_wasteful,
    is_pareto_efficient,
    justified_envy_witnesses,
    sort_matchings,
)
from .textio import (
    InstanceParseError,
    certificate_to_dict,
    load_certificate,
    parse_instance,
    parse_matching,
    stable_set_report_to_dict,
    trace_to_dict,
    trace_to_text,
)

BUILDERS = {
    "ttc": paths_mod.build_path_to_ttc,
    "fct": paths_mod.build_path_to_fct,
    "ct": paths_mod.build_path_to_ct,
    "ettc": paths_mod.build_path_to_ettc,
}


def _read(path: str) -> str:
    """A file's text, read as UTF-8 with a leading byte-order mark dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_solve(problem, args) -> int:
    mu, trace = run_mechanism(args.mechanism, problem)
    lines = [mu.literal()]
    payload = {"mechanism": args.mechanism, "matching": mu.literal()}
    if args.trace and trace is not None:
        lines.append(trace_to_text(trace))
        payload["trace"] = trace_to_dict(trace)
    _emit(args, lines, payload)
    return 0


def cmd_properties(problem, args) -> int:
    mu = parse_matching(problem, args.matching)
    rational = is_individually_rational(problem, mu)
    nonwasteful = is_non_wasteful(problem, mu)
    witnesses = justified_envy_witnesses(problem, mu)
    envy_free = not witnesses
    stable = rational and nonwasteful and envy_free
    efficient = is_pareto_efficient(problem, mu)
    lines = [
        f"individually rational: {_yn(rational)}",
        f"non-wasteful: {_yn(nonwasteful)}",
        f"no justified envy: {_yn(envy_free)}",
    ]
    for i, j, s in witnesses:
        lines.append(f"  justified envy: {i} envies {j} at {s}")
    lines.append(f"stable: {_yn(stable)}")
    lines.append(f"pareto efficient: {_yn(efficient)}")
    payload = {
        "matching": mu.literal(),
        "individually_rational": rational,
        "non_wasteful": nonwasteful,
        "no_justified_envy": envy_free,
        "justified_envy_witnesses": [
            {"envious": i, "occupant": j, "school": s} for i, j, s in witnesses
        ],
        "stable": stable,
        "pareto_efficient": efficient,
    }
    _emit(args, lines, payload)
    return 0 if stable else 1


def cmd_phi(problem, args) -> int:
    mu = parse_matching(problem, getattr(args, "from"))
    if args.horizon is None:
        result = sort_matchings(phi(problem, mu))
        partial = False
    else:
        res = phi_horizon(problem, mu, args.horizon, depth_cap=args.depth_cap)
        result = sort_matchings(res.reachable)
        partial = res.partial
    lines = [m.literal() for m in result]
    if partial:
        lines.append("PARTIAL: search cut off before exhausting all paths")
    payload = {
        "from": mu.literal(),
        "reachable": [m.literal() for m in result],
        "partial": partial,
    }
    if args.horizon is not None:
        payload["horizon"] = args.horizon
    _emit(args, lines, payload)
    return 0


def cmd_path(problem, args) -> int:
    mu = parse_matching(problem, getattr(args, "from"))
    builder = BUILDERS[args.target]
    cert = builder(problem, mu)
    if args.check_horizon is not None:
        cert = PathCertificate(cert.matchings, cert.steps, args.check_horizon)
    violation = validate_path(problem, cert)
    verdict = "valid" if violation is None else f"invalid ({violation})"
    lines = []
    for k, mu_k in enumerate(cert.matchings):
        lines.append(f"mu_{k}: {mu_k.literal()}")
        if k < len(cert.steps):
            co = cert.steps[k].coalition
            lines.append(
                "  coalition: "
                + " ".join(sorted(co.students) + sorted(co.schools))
            )
    lines.append(f"verdict: {verdict}")
    payload = {
        "target": args.target,
        "certificate": certificate_to_dict(cert),
        "verdict": verdict,
    }
    _emit(args, lines, payload)
    return 0 if violation is None else 1


def cmd_validate_path(problem, args) -> int:
    cert = load_certificate(problem, _read(args.file))
    violation = validate_path(problem, cert)
    ok = violation is None
    lines = ["valid" if ok else f"invalid: {violation}"]
    payload = {"valid": ok, "violation": None if ok else str(violation)}
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_check_set(problem, args) -> int:
    candidate = [parse_matching(problem, lit) for lit in args.set]
    horizon = FARSIGHTED if args.horizon is None else args.horizon
    report = check_stable_set(problem, candidate, horizon)
    lines = [f"verdict: {report.verdict}"]
    for a, b in report.internal_violations:
        lines.append(f"internal violation: {b.literal()} reachable from {a.literal()}")
    for mu in report.external_violations:
        lines.append(f"external violation: no path into the set from {mu.literal()}")
    if report.partial:
        lines.append("PARTIAL: horizon search cut off; verdict not conclusive")
    _emit(args, lines, stable_set_report_to_dict(report))
    return 0 if report.verdict == "stable" else 1


def cmd_find_singletons(problem, args) -> int:
    horizon = FARSIGHTED if args.horizon is None else args.horizon
    found = find_singleton_stable_sets(problem, horizon)
    lines = [mu.literal() for mu in found]
    _emit(args, lines, {"singletons": [mu.literal() for mu in found]})
    return 0


def cmd_find_sets(problem, args) -> int:
    found = find_stable_sets(problem)
    lines = []
    for group in found:
        lines.append("; ".join(mu.literal() for mu in group))
    payload = {"stable_sets": [[mu.literal() for mu in group] for group in found]}
    _emit(args, lines, payload)
    return 0


def cmd_enumerate(problem, args) -> int:
    matchings = enumerate_matchings(problem)
    lines = [str(len(matchings))]
    payload = {"count": len(matchings)}
    if args.list:
        ordered = sort_matchings(matchings)
        lines.extend(mu.literal() for mu in ordered)
        payload["matchings"] = [mu.literal() for mu in ordered]
    _emit(args, lines, payload)
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _literals(text: str) -> list[str]:
    """argparse type: the non-empty parts of a semicolon-separated list."""
    literals = [part for part in text.split(";") if part.strip()]
    if not literals:
        raise argparse.ArgumentTypeError("no matching literal given")
    return literals


@functools.cache  # built on the first call; parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schoolchoice",
        description="Priority-based school choice mechanisms and farsighted stability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        """A subcommand that main runs as fn(problem, args) on its instance."""
        p = sub.add_parser(name, help=help)
        p.add_argument("instance", help="instance file path, or - for stdin")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(fn=fn)
        return p

    p = command("solve", cmd_solve, "run a mechanism")
    p.add_argument("--mechanism", choices=sorted(MECHANISMS), required=True)
    p.add_argument("--trace", action="store_true", help="include the per-step trace")

    p = command("properties", cmd_properties, "rationality/stability/efficiency of a matching")
    p.add_argument("--matching", required=True, help="matching literal")

    p = command("phi", cmd_phi, "matchings reachable by farsighted improving paths")
    p.add_argument("--from", required=True, help="source matching literal")
    p.add_argument("--horizon", type=_int_at_least(1), default=None, help="limited lookahead k")
    p.add_argument("--depth-cap", type=_int_at_least(0), default=None)

    p = command("path", cmd_path, "construct an improving path to a mechanism outcome")
    p.add_argument("--target", choices=sorted(BUILDERS), required=True)
    p.add_argument("--from", required=True, help="source matching literal")
    p.add_argument("--check-horizon", type=_int_at_least(1), default=None)

    p = command("validate-path", cmd_validate_path, "check a serialized path certificate")
    p.add_argument("--file", required=True)

    p = command("check-set", cmd_check_set, "internal/external stability of a set")
    p.add_argument(
        "--set", type=_literals, required=True, help="semicolon-separated matching literals"
    )
    p.add_argument("--horizon", type=_int_at_least(1), default=None)

    p = command("find-singletons", cmd_find_singletons, "all singleton farsighted stable sets")
    p.add_argument("--horizon", type=_int_at_least(1), default=None)

    command("find-sets", cmd_find_sets, "all farsighted stable sets")

    p = command("enumerate", cmd_enumerate, "count (and list) all feasible matchings")
    p.add_argument("--list", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "depth_cap", None) is not None and args.horizon is None:
        parser.error("--depth-cap needs --horizon")
    try:
        if args.instance == "-":
            text = sys.stdin.buffer.read().decode("utf-8-sig")
        else:
            text = _read(args.instance)
        code = args.fn(parse_instance(text), args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return code
    except BrokenPipeError:  # no error line; devnull takes the flush at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchoolChoiceError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        for line in exc.diagnostics if isinstance(exc, InstanceParseError) else [exc]:
            print(f"error: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
