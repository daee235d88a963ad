"""Benchmark entry point.

    python3 perfbench/run.py --workload market|reach|horizon|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ./src.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones.  Spans and results are written
under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def find_library() -> bool:
    """Put the checkout's own schoolchoice package on the path, if it is there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "schoolchoice", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


# Per-layer metrics.  Times are mean self seconds per call of the spans of
# that name; counts are per traced round.
LAYER_TIMES = [
    "textio.parse_instance", "model.enumerate_matchings",
    "mechanisms.run_ttc", "mechanisms.run_da", "mechanisms.run_ia",
    "mechanisms.run_fct", "mechanisms.run_ct", "mechanisms.run_ettc",
    "farsight.check_stable_set", "farsight.phi_horizon", "farsight.check_stable_set_h3",
    "farsight.validate_path", "farsight.validate_path_horizon",
    "paths.build_path_to_ttc", "paths.build_path_to_fct", "paths.build_path_to_ct",
    "paths.build_path_to_ettc", "textio.parse_matching", "textio.certificate_roundtrip",
    "cli.main",
]
LAYER_COUNTS = [
    "model.matchings", "mechanisms.students", "farsight.pairs", "farsight.ttc_unstable",
    "farsight.phi_horizon.partial", "farsight.steps_validated", "paths.steps",
    "paths.ttc_h3_rejected",
]


def layer_metrics(tracer, rounds: int, untraced_rate: float, traced_rate: float) -> dict:
    table = tracer.layer_table()
    out = {}
    for name in LAYER_TIMES:
        calls, _, self_s = table.get(name, (0, 0.0, 0.0))
        out[name + ".s"] = {"value": self_s / calls if calls else 0.0, "unit": "s"}
    for name in LAYER_COUNTS:
        out[name] = {"value": tracer.counts[name] / rounds, "unit": "count"}
    calls, _, check_s = table.get("farsight.check_stable_set", (0, 0.0, 0.0))
    out["farsight.pairs_per_s"] = {
        "value": tracer.counts["farsight.pairs"] / check_s if check_s else 0.0,
        "unit": "1/s"}
    steps = tracer.counts["paths.steps"]
    out["paths.clear_moves"] = {
        "value": tracer.counts["paths.clear_moves"] / steps if steps else 0.0, "unit": "ratio"}
    out["farsight.check_stable_set.peak_alloc_mb"] = {
        "value": tracer.counts["farsight.check_stable_set.peak_alloc_mb"], "unit": "MB"}
    out["trace.overhead"] = {"value": untraced_rate / traced_rate - 1.0, "unit": "ratio"}
    return out


def print_table(tracer):
    table = tracer.layer_table()
    print(f"{'span':34} {'calls':>7} {'total s':>10} {'self s':>10} {'self ms/call':>12}")
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:34} {calls:7d} {total:10.4f} {self_s:10.4f} {1e3 * self_s / calls:12.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not find_library():
        print(f"error: no schoolchoice package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    from harness import Tracer, ops_per_s, run_rounds, setup_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    tracer = Tracer()
    res = run_rounds(workload, args.seconds, tracer, bool(args.trace))

    failed = sum(res.failures.values())
    print(f"{args.workload}: {len(res.round_times)} rounds, "
          f"{res.attempted} ops attempted, {failed} failed")
    for reason, n in sorted(res.failures.items()):
        print(f"  failed {n}: {reason}")
    for reason, n in sorted(workload.noted.items()):
        print(f"  noted {n}: {reason}")
    for line in res.wrong:
        print(f"  WRONG: {line}")

    stamp = f"{args.workload}-{args.seed}"
    if args.trace:
        rounds = list(zip(res.round_times, res.round_slowdown, res.traced))
        traced = [(t, s) for t, s, on in rounds if on]
        plain = [(t, s) for t, s, on in rounds if not on] or traced
        rate_traced = ops_per_s(*zip(*traced))
        rate_plain = ops_per_s(*zip(*plain))
        print_table(tracer)
        print(f"tracing overhead: {100 * (rate_plain / rate_traced - 1):+.1f}% "
              f"({rate_plain:.3f} ops/s untraced, {rate_traced:.3f} ops/s traced)")
        metrics = layer_metrics(tracer, len(traced), rate_plain, rate_traced)
        with open(os.path.join(OUT, f"spans-{stamp}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s(res.round_times, res.round_slowdown), "unit": "1/s"},
            "setup_s": {"value": setup_s(res), "unit": "s"},
            "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not res.wrong, "attempted": res.attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{stamp}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "failures": dict(res.failures), "noted": dict(workload.noted),
                   "wrong": res.wrong,
                   "round_times": res.round_times, "setup_times": res.setup_times,
                   "round_slowdown": res.round_slowdown, "setup_slowdown": res.setup_slowdown,
                   "time": time.time()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
