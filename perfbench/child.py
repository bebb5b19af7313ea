"""One cold run of one benchmark workload, in a fresh process.

Usage: python3 child.py '<json spec>'

The spec names the workload, the seed, whether to trace, where to write the
spans, and when the parent spawned the child (``time.perf_counter``, a
system-wide monotonic clock). The child makes the workload's inputs from the
seed, runs them once cold and again warm (same inputs, same process), checks
every output, and prints one JSON line with its calibrated timings, memory
and check counts. With the
spec ``{"count": <case>}`` it instead prints the engine-state count of one
baseline computation (the counter self-check of run.py).
"""

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from renzeta import chenint, cli, emsum, mzv, verify

READY = time.perf_counter()  # setup ends: the package and its layers are loaded

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Shifts drawn by stuffle_sweep and hurwitz_poly. They share one denominator,
# so every draw costs about the same (mixed denominators spread the cost of a
# draw by ~10%).
V_POOL = ("1/7", "2/7", "3/7", "4/7", "5/7", "6/7")
STUFFLE_WEIGHT, STUFFLE_DEPTH = 4, 3
HURWITZ_DEPTH, HURWITZ_ENTRY, HURWITZ_SHIFTS, HDIM_CALLS = 4, 2, 3, 4
# (dimension, exponents) whose value has a closed dimension-reduction identity
HDIM_POOL = (
    (1, (0,)), (1, (3,)), (1, (1, 2)), (1, (0, 1, 1)),
    (2, (1,)), (2, (3,)), (2, (0, 1)), (2, (2, 1)), (2, (1, 2)),
    (3, (0,)), (3, (2,)), (3, (4,)),
)
DEPTH2_PAIRS = 4
# words per length drawn by chen_cmd: fixed counts keep the cost of a draw steady
CHEN_PROFILE = {1: 2, 2: 3, 3: 5, 4: 8, 5: 12}
CHEN_SPOT = {(3, 2): Fraction(1, 6), (1,): Fraction(0), (1, 1): Fraction(0)}
# The host's speed drifts by up to ~40% over seconds to minutes (other tenants
# share the cores, and the loss is in CPU time, not waiting). So every timing
# is scaled by a fixed stdlib Fraction loop (calibrate) timed right next to
# it, to the speed at which one round of that loop takes CAL_REF_ROUND_S, its
# typical time on the reference host (2 vCPUs, Intel Xeon, Python 3.11).
CAL_REF_ROUND_S = 0.01
CAL_ROUNDS = 10  # rounds around the cold pass
WARM_MIN_S = 0.4  # warm passes repeat until they have run this long
WARM_BATCH_S = 0.05  # shorter passes run in batches of this length


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds per round of a fixed Fraction loop that uses no renzeta code."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return (time.perf_counter() - t0) / rounds


def engine_states() -> int:
    """The engine-state counter: entries in the nested-sum memo."""
    return len(emsum._cache)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def chen_words(length: int):
    return list(product((1, 2, 3), repeat=length))


def word_arg(word) -> str:
    return ",".join(map(str, word))


def stuffle_values(v: Fraction, variant: str) -> str:
    """Every value the sweep needs, as one canonical text."""
    words = mzv.words_up_to(2 * STUFFLE_DEPTH, STUFFLE_WEIGHT)
    return ";".join(f"{word_arg(w)}={mzv.zeta_value(w, v, variant)}" for w in words)


def deep_argv(word) -> list:
    return ["--limit-depth", "10", "zeta", "-a", word_arg(word), "--format", "json"]


def chen_argv(word) -> list:
    return ["chen", "--word", word_arg(word), "--format", "json"]


def hdim_identity(n: int, a: tuple) -> Fraction:
    """The dimension-reduction identities at v = 0 (acceptance criterion 10)."""
    z = mzv.zeta_value
    if n == 1:
        return 2 ** len(a) * z(a)
    if n == 2 and len(a) == 1:
        return 8 * z((a[0] + 1,))
    if n == 2 and len(a) == 2:
        return 64 * z((a[0] + 1, a[1] + 1))
    if n == 3 and len(a) == 1:
        return 24 * z((a[0] + 2,)) + 2 * z((a[0],))
    raise ValueError(f"no reduction identity for dimension {n}, exponents {a}")


# ---- workloads: inputs(rng, expected), run(inputs, mark), check(...) ----
#
# run() makes the workload's calls into the package; mark(i) tags the spans
# of item i. It returns (outputs, item seconds, verification cases).
# check() returns (attempted, failed) over the items of the cold and warm
# outputs.


def stuffle_inputs(rng, expected):
    return {"v": rng.choice(V_POOL)}


def stuffle_run(inp, mark):
    v = Fraction(inp["v"])
    outputs, items = [], []
    for i, variant in enumerate(("strict", "weak")):
        mark(i)
        t0 = time.perf_counter()
        report = mzv.verify_stuffle(STUFFLE_WEIGHT, v, variant, max_depth=STUFFLE_DEPTH)
        items.append(time.perf_counter() - t0)
        outputs.append((variant, report.cases, report.failures))
    return outputs, items, sum(cases for _, cases, _ in outputs)


def stuffle_check(inp, cold, warm, expected):
    v = Fraction(inp["v"])
    attempted = failed = 0
    for (variant, cases, failures), again in zip(cold, warm):
        attempted += cases
        failed += len(failures) if again == (variant, cases, failures) else cases
        attempted += 1
        failed += digest(stuffle_values(v, variant)) != expected["stuffle"][inp["v"]][variant]
    return attempted, failed


def deep_inputs(rng, expected):
    word = rng.choice(sorted(expected["deep"]))
    pairs = [(rng.randrange(7), rng.randrange(7)) for _ in range(DEPTH2_PAIRS)]
    return {"word": word, "pairs": pairs}


def deep_run(inp, mark):
    mark(0)
    t0 = time.perf_counter()
    out = run_cli(deep_argv(inp["word"].split(",")))
    return [out], [time.perf_counter() - t0], 0


def deep_check(inp, cold, warm, expected):
    (code, text), = cold
    ok = code == 0 and warm == cold and digest(text) == expected["deep"][inp["word"]]
    failed = not ok
    for a, b in inp["pairs"]:
        value = mzv.zeta_value((a, b), 0)
        failed += not (value == mzv.DEPTH2_REFERENCE[(a, b)] == mzv.zeta2_closed(a, b))
    return 1 + len(inp["pairs"]), failed


def hurwitz_inputs(rng, expected):
    return {
        "vs": rng.sample(V_POOL, HURWITZ_SHIFTS),
        "hdim": [list(x) for x in rng.sample(HDIM_POOL, HDIM_CALLS)],
    }


def hurwitz_run(inp, mark):
    vs = tuple(Fraction(v) for v in inp["vs"])
    mark(0)
    t0 = time.perf_counter()
    report = verify.suite_hurwitz(max_depth=HURWITZ_DEPTH, max_entry=HURWITZ_ENTRY, vs=vs)
    items = [time.perf_counter() - t0]
    outputs = [(report.cases, report.failures)]
    for i, (n, a) in enumerate(inp["hdim"], start=1):
        mark(i)
        t0 = time.perf_counter()
        result = mzv.hdim_zeta(n, tuple(a), with_poly=True)
        items.append(time.perf_counter() - t0)
        outputs.append((result.value, [str(c) for c in result.as_poly_in_v.coeffs]))
    return outputs, items, report.cases


def hurwitz_check(inp, cold, warm, expected):
    (cases, failures), results = cold[0], cold[1:]
    attempted = cases
    failed = len(failures) if warm[0] == cold[0] else cases
    for (n, a), (value, coeffs), again in zip(inp["hdim"], results, warm[1:]):
        a = tuple(a)
        ok = (
            again == (value, coeffs)
            and coeffs == expected["hdim"][f"{n}:{word_arg(a)}"]
            and Fraction(coeffs[0] if coeffs else 0) == value
            and value == hdim_identity(n, a)
        )
        attempted += 1
        failed += not ok
    return attempted, failed


def chen_inputs(rng, expected):
    words = []
    for length, count in CHEN_PROFILE.items():
        words += rng.sample(chen_words(length), count)
    words += [w for w in CHEN_SPOT if w not in words]
    return {"words": [word_arg(w) for w in words]}


def chen_run(inp, mark):
    outputs, items = [], []
    for i, word in enumerate(inp["words"]):
        mark(i)
        t0 = time.perf_counter()
        outputs.append(run_cli(chen_argv(word.split(","))))
        items.append(time.perf_counter() - t0)
    return outputs, items, 0


def convergent(word) -> bool:
    return all(sum(word[:m]) > m for m in range(1, len(word) + 1))


def chen_check(inp, cold, warm, expected):
    failed = 0
    for word, (code, text), again in zip(inp["words"], cold, warm):
        ok = code == 0 and again == (code, text) and digest(text) == expected["chen"][word]
        if ok:
            w = tuple(int(x) for x in word.split(","))
            value = Fraction(json.loads(text)["renormalised"])
            if w in CHEN_SPOT:
                ok = value == CHEN_SPOT[w]
            if convergent(w):
                ok = ok and value == chenint.convergent_nested_integral(w)
        failed += not ok
    return len(inp["words"]), failed


WORKLOADS = {
    "stuffle_sweep": (stuffle_inputs, stuffle_run, stuffle_check),
    "deep_chain": (deep_inputs, deep_run, deep_check),
    "hurwitz_poly": (hurwitz_inputs, hurwitz_run, hurwitz_check),
    "chen_cmd": (chen_inputs, chen_run, chen_check),
}

# workloads whose items are CLI commands, for the per-command latency
CLI_WORKLOADS = ("deep_chain", "chen_cmd")


def count_states(case: str) -> int:
    """Engine states after one baseline computation: ``zeta_1x<d>`` or
    ``stuffle_strict_w8``."""
    if case == "stuffle_strict_w8":
        mzv.verify_stuffle(8, 0, "strict", max_depth=3)
    else:
        depth = int(case.rsplit("x", 1)[1])
        code, _ = run_cli(deep_argv((1,) * depth))
        if code != 0:
            raise RuntimeError(f"zeta 1x{depth} exited with {code}")
    return engine_states()


def no_mark(item):
    pass


def warm_passes(run, inp, cal: float):
    """Repeat the workload warm. Returns the median calibrated time of one
    pass and the outputs of the last. Each batch of passes is followed by a
    calibration about a quarter of its length and scaled by the mean of the
    calibrations on either side; ``cal`` is the one before the first."""
    times, spent = [], 0.0
    while not times or spent < WARM_MIN_S:
        n, t0 = 0, time.perf_counter()
        while not n or time.perf_counter() - t0 < WARM_BATCH_S:
            outputs, _, _ = run(inp, no_mark)
            n += 1
        batch = time.perf_counter() - t0
        spent += batch
        after = calibrate(min(CAL_ROUNDS, max(1, round(batch / (4 * CAL_REF_ROUND_S)))))
        times.append(batch / n * 2 * CAL_REF_ROUND_S / (cal + after))
        cal = after
    return statistics.median(times), outputs


def main(spec: dict) -> dict:
    if "count" in spec:
        return {"states": count_states(spec["count"])}
    make_inputs, run, check = WORKLOADS[spec["workload"]]
    expected = json.loads(EXPECTED.read_text())
    inp = make_inputs(random.Random(f"{spec['workload']}:{spec['seed']}"), expected)

    before = calibrate()
    setup_s = (READY - spec["spawned"]) * CAL_REF_ROUND_S / before
    tracer = None
    mark = no_mark
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        mark = lambda i: setattr(tracer, "item", i)  # noqa: E731
    t0 = time.perf_counter()
    cold, items, cases = run(inp, mark)
    cold_s = time.perf_counter() - t0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(engine_states())
        layers["verify.cases"] = cases
        tracer.write(spec["spans"])
    between = calibrate()
    scale = 2 * CAL_REF_ROUND_S / (before + between)
    warm_s, warm = warm_passes(run, inp, between)

    attempted, failed = check(inp, cold, warm, expected)
    return {
        "inputs": inp,
        "setup_s": setup_s,
        "wall_s": cold_s * scale,
        "warm_s": warm_s,
        "scale": scale,  # multiplies this child's raw cold-pass times
        "raw_cold_s": cold_s,
        "item_ms": [s * 1000 * scale for s in items] if spec["workload"] in CLI_WORKLOADS else [],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": int(failed),
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
