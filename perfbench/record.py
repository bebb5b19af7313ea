"""Record the outputs the benchmark checks against, from the current code.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json. Run it only on a commit whose outputs are
trusted: every later run compares its outputs with these. It also picks the
deep_chain word pool: depth-8 words over {0, 1, 2} of weight 8 whose cold
time lies within POOL_BAND of the candidates' median, so that every seed
draws a word of about the same cost. A word's time is calibrated as in
child.py and is the median over fresh processes: REPEATS for every candidate,
then REPEATS more for those within twice the band. Engine state counts do
not track the time closely enough to pick by alone, but a word whose count
is off the pool's median by more than POOL_BAND is dropped too. Takes about
eight minutes.
"""

import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import child
from renzeta import emsum, mzv

DEEP_DEPTH, DEEP_WEIGHT = 8, 8
CANDIDATES = 48
REPEATS = 4
POOL_BAND = 0.03
TIME_WORD = """
import sys, time
import child
before = child.calibrate()
t0 = time.perf_counter()
code, _ = child.run_cli(child.deep_argv(sys.argv[1].split(",")))
seconds = time.perf_counter() - t0
print(seconds * 2 / (before + child.calibrate()) if code == 0 else -1)
"""


def deep_candidates():
    rng = random.Random("deep_chain pool")
    seen = []
    while len(seen) < CANDIDATES:
        word = tuple(rng.choice((0, 1, 2)) for _ in range(DEEP_DEPTH))
        if sum(word) == DEEP_WEIGHT and word not in seen:
            seen.append(word)
    return seen


def cold_cost(word) -> float:
    """Cold time of one zeta command on ``word`` in a fresh process, in
    units of one calibration round (see child.calibrate)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MZV_CACHE_SIZE", None)
    out = subprocess.run(
        [sys.executable, "-c", TIME_WORD, child.word_arg(word)],
        cwd=child.HERE, env=env, capture_output=True, text=True, check=True,
    )
    seconds = float(out.stdout)
    if seconds < 0:
        raise RuntimeError(f"zeta {word} failed")
    return seconds


def deep_pool() -> dict:
    times = {word: [cold_cost(word) for _ in range(REPEATS)] for word in deep_candidates()}
    for band in (2 * POOL_BAND, POOL_BAND):
        mid = statistics.median(statistics.median(t) for t in times.values())
        times = {w: t for w, t in times.items() if abs(statistics.median(t) - mid) <= band * mid}
        if band > POOL_BAND:
            for word, t in times.items():
                t += [cold_cost(word) for _ in range(REPEATS)]
    outputs = {}
    for word in times:
        emsum.clear_cache()
        code, text = child.run_cli(child.deep_argv(word))
        if code != 0:
            raise RuntimeError(f"zeta {word} exited with {code}")
        outputs[word] = (child.engine_states(), child.digest(text))
    mid = statistics.median(states for states, _ in outputs.values())
    return {
        child.word_arg(word): sha
        for word, (states, sha) in outputs.items()
        if abs(states - mid) <= POOL_BAND * mid
    }


def main():
    expected = {
        "stuffle": {
            v: {
                variant: child.digest(child.stuffle_values(Fraction(v), variant))
                for variant in ("strict", "weak")
            }
            for v in child.V_POOL
        },
        "hdim": {
            f"{n}:{child.word_arg(a)}": [
                str(c) for c in mzv.hdim_zeta(n, a, with_poly=True).as_poly_in_v.coeffs
            ]
            for n, a in child.HDIM_POOL
        },
        "chen": {
            child.word_arg(w): child.digest(child.run_cli(child.chen_argv(w))[1])
            for length in child.CHEN_PROFILE
            for w in child.chen_words(length)
        },
        "deep": deep_pool(),
    }
    with open(child.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {child.EXPECTED} ({len(expected['deep'])} deep_chain words)")


if __name__ == "__main__":
    main()
