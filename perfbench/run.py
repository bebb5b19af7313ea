"""renzeta benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload stuffle_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src/``. Each cold run of the workload happens in a fresh child process
(``child.py``), with the program's default settings, one child at a time,
until ``--seconds`` have passed. Timings are medians over the children, each
scaled by the child to a reference host speed (see ``child.calibrate``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced children and prints the per-layer metrics of the traced
ones, the tracing overhead, and writes the spans of the last traced child to
``perfbench/out/<workload>.spans.jsonl``. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--self-check`` checks that the engine-state counter reproduces the
baseline counts exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("stuffle_sweep", "deep_chain", "hurwitz_poly", "chen_cmd")
MIN_CHILDREN = 3  # per kind (untraced, traced), even past the deadline
CHILD_TIMEOUT_S = 90

END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "emsum.calls": "count",
    "emsum.s": "s",
    "emsum.states": "count",
    "emsum.recursions": "count",
    "emsum.memo_hit_ratio": "ratio",
    "emsum.germ_cache.size": "count",
    "emsum.boundary_cache.size": "count",
    "mzv.composition.calls": "count",
    "mzv.composition.terms": "count",
    "mzv.composition.s": "s",
    "mzv.values": "count",
    "mzv.self_s": "s",
    "mzv.poly.calls": "count",
    "mzv.poly.shifts": "count",
    "mzv.poly.s": "s",
    "exactnum.interpolate.calls": "count",
    "exactnum.interpolate.s": "s",
    "words.stuffle.calls": "count",
    "words.stuffle.terms": "count",
    "words.stuffle.s": "s",
    "chenint.character.calls": "count",
    "chenint.character.s": "s",
    "chenint.birkhoff.self_s": "s",
    "exactnum.laurent_expand.calls": "count",
    "exactnum.laurent_expand.s": "s",
    "verify.cases": "count",
    "verify.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.item_p50_ms": "ms",
    "cli.item_p90_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# engine-state counts measured at the baseline (ROADMAP), each in a fresh process
COUNT_CASES = {"zeta_1x8": 8718, "zeta_1x9": 24705, "stuffle_strict_w8": 51786}


def spawn(spec: dict):
    """Run one child; return its result, or None if it failed."""
    env = dict(os.environ)
    env.pop("MZV_CACHE_SIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"),
             json.dumps(dict(spec, spawned=time.perf_counter()))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S}s: {spec}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child failed ({proc.returncode}): {spec}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, values, unit):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    print(f"{name:28s} {med:12.6g} {unit:6s} median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})")
    return med


def self_check() -> int:
    ok = True
    for case, want in COUNT_CASES.items():
        result = spawn({"count": case})
        got = None if result is None else result["states"]
        ok &= got == want
        print(f"{case:20s} engine states {got} (baseline {want}) {'ok' if got == want else 'MISMATCH'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="renzeta benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "renzeta" / "__init__.py").is_file():
        print(f"error: no renzeta sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    spans = OUT / f"{args.workload}.spans.jsonl"
    if args.trace:
        OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + args.seconds
    done = {False: [], True: []}  # traced? -> successful results
    started = {False: 0, True: 0}
    attempted = failed = 0
    kinds = (False, True) if args.trace else (False,)
    while True:
        if time.perf_counter() >= deadline and all(started[k] >= MIN_CHILDREN for k in kinds):
            break
        traced = bool(args.trace) and started[True] < started[False]
        started[traced] += 1
        result = spawn({"workload": args.workload, "seed": args.seed,
                        "trace": traced, "spans": str(spans)})
        if result is None:
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        done[traced].append(result)
    if not done[False] or (args.trace and not done[True]):
        print("error: every child run failed", file=sys.stderr)
        return 1

    plain = done[False]
    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(plain[0]['inputs'])}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checked items failed)")
    report("uncalibrated cold time", [r["raw_cold_s"] for r in plain], "s")
    report("host speed (calibration)", [r["scale"] for r in plain], "x")
    cold = report("wall_s (untraced)", [r["wall_s"] for r in plain], "s")
    if not args.trace:
        values = {
            "setup_s": report("setup_s", [r["setup_s"] for r in plain], "s"),
            "wall_s": cold,
            "warm_s": report("warm_s", [r["warm_s"] for r in plain], "s"),
            "peak_rss_mb": report("peak_rss_mb", [r["rss_mb"] for r in plain], "MB"),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        traced = done[True]
        layers = {
            name: statistics.median(
                r["layers"][name] * (r["scale"] if PER_LAYER[name] == "s" else 1)
                for r in traced
            )
            for name in traced[0]["layers"]
        }
        items = [ms for r in plain for ms in r["item_ms"]]
        layers["cli.item_p50_ms"] = statistics.median(items) if items else 0.0
        layers["cli.item_p90_ms"] = (
            statistics.quantiles(items, n=10)[8] if len(items) >= 2 else sum(items)
        )
        traced_cold = report("wall_s (traced)", [r["wall_s"] for r in traced], "s")
        layers["trace.overhead_ratio"] = traced_cold / cold - 1
        for name, unit in PER_LAYER.items():
            print(f"{name:28s} {layers[name]:12.6g} {unit}")
        print(f"spans of the last traced child: {spans.relative_to(ROOT)}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
