"""Verification suites: executable identities behind the renormalised
values. Each suite returns a :class:`renzeta.mzv.Report`; failures are data,
not exceptions, so the CLI can serialize them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from . import chenint, mzv
from .emsum import nested_fp_res
from .exactnum import Poly, as_rational
from .mzv import Report
from .words import shuffle

ENGINE_SEED = 20260810
ENGINE_LISTS = 200  # random exponent lists of the engine suite
STUFFLE_SHIFTS = (Fraction(0), Fraction(1, 2))
HURWITZ_SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(3, 4))


def suite_table() -> Report:
    """Depth-2 pipeline vs the reference table vs the closed formula."""
    t0 = time.monotonic()
    report = Report(suite="table")
    for (a, b), expected in sorted(mzv.DEPTH2_REFERENCE.items()):
        got = mzv.zeta_value((a, b), 0, "strict")
        report.record(got == expected, f"pipeline table entry (a={a}, b={b})", got, expected)
        closed = mzv.zeta2_closed(a, b)
        report.record(closed == expected, f"closed-formula entry (a={a}, b={b})", closed, expected)
    report.seconds = time.monotonic() - t0
    return report


def suite_stuffle(max_weight: int = 8, vs=STUFFLE_SHIFTS) -> Report:
    """Stuffle relations for both sign conventions at each Hurwitz shift.
    Each variant reads its values once, at the tuple of all the shifts, so
    one lane recursion serves every shift (the weak pass reads the values
    of the strict one); the reports are combined shift by shift, strict
    before weak."""
    vs = tuple(vs)
    strict, weak = (mzv.verify_stuffle(max_weight, vs, variant) for variant in ("strict", "weak"))
    return Report.combined("stuffle", [r for pair in zip(strict, weak) for r in pair])


def _words(max_len: int, alphabet) -> list:
    """Every word of length 1..max_len over the alphabet: shorter words
    first, each length in lexicographic order."""
    return [w for ln in range(1, max_len + 1) for w in iproduct(alphabet, repeat=ln)]


def verify_hurwitz_identities(words, vs=HURWITZ_SHIFTS, variant: str = "strict") -> Report:
    """Check the two Hurwitz-parameter identities on renormalised values, for
    every word a = (a_1, ..., a_k) of ``words`` at every shift v of ``vs``:

    (i)  zeta(-a_1..-a_k; v+1) = zeta(-a_1..-a_k; v)
                                  - (v+1)^{a_k} zeta(-a_1..-a_{k-1}; v+1)
    (ii) d/dv zeta(-a_1..-a_k; v) = sum_j a_j zeta(..., -a_j+1, ...; v)
         (all a_j >= 1; derivative taken on the polynomial computed over Q[v])

    The values are read once, in one batch (``mzv.value_table``): every
    distinct word (the words, their derivative neighbours a^(j) and their
    prefixes a') at the tuple of every shift v and v + 1 of the grid, so one
    engine recursion gives them at all the shifts. Each shift's table is a
    lane of the batch: one common denominator, D at v and D1 at v + 1, and
    integer numerators N and N1. With v = p/q and k = a_k, (i) is checked as
    N1(a) D q^k == N(a) D1 q^k - (p+q)^k N1(a') D.
    The polynomials of the words with every a_j >= 1 are one more batch, at
    ``Poly.x()``: n_i / E is the coefficient of v^i, over one denominator E
    (the lcm of the degrees' own). With d the highest degree, (ii) is checked
    as H D == E q^(d-1) sum_j a_j N(a^(j)), where the homogeneous Horner sum
    H = sum_i i n_i p^(i-1) q^(d-i) is the derivative at v times E q^(d-1).
    Cases come word by word, each at every shift, the shift case first.
    Failures are returned as data, with both sides as Fractions.

    >>> report = verify_hurwitz_identities([(1,), (0, 2)], [Fraction(0), Fraction(1, 2)])
    >>> report.cases, report.ok
    (6, True)
    """
    words = [mzv._validate_args(a) for a in words]
    if not words or not all(words):
        raise ValueError("the Hurwitz identities need a nonempty word")
    vs = [as_rational(v) for v in vs]
    t0 = time.monotonic()
    report = Report(suite="hurwitz")
    neighbours = {
        a: [a[:j] + (a[j] - 1,) + a[j + 1 :] for j in range(len(a))]
        for a in words
        if all(x >= 1 for x in a)
    }
    # the words read, in first-use order, and every v and v + 1
    read = dict.fromkeys(words)
    for ns in neighbours.values():
        read.update(dict.fromkeys(ns))
    read.update(dict.fromkeys(a[:-1] for a in words))
    index = {x: i for i, x in enumerate(read)}
    shifts = tuple(dict.fromkeys(s for v in vs for s in (v, v + 1)))
    lanes = dict(zip(shifts, mzv.value_table(list(read), shifts, variant)))
    degrees = mzv.value_table(list(neighbours), Poly.x(), variant)  # one (E_i, [n_i]) per degree i
    den_e = lcm(*[den for den, _ in degrees])
    # per word (1 n_1, 2 n_2, ..., d n_d) over E
    columns = [[i * (den_e // den) * n for n in nums] for i, (den, nums) in enumerate(degrees) if i]
    slopes = {a: [column[w] for column in columns] for w, a in enumerate(neighbours)}
    rows = []  # per shift: v, v + 1, p, q, D, N, D1, N1
    for v in vs:
        up = v + 1
        rows.append((v, up, v.numerator, v.denominator, *lanes[v], *lanes[up]))
    for a in words:
        k, at, prefix = a[-1], index[a], index[a[:-1]]
        for v, up, p, q, den, num, den1, num1 in rows:
            qk = q**k
            if num1[at] * den * qk == num[at] * den1 * qk - (p + q) ** k * num1[prefix] * den:
                report.cases += 1
            else:
                report.record(
                    False,
                    f"shift identity at a={a}, v={v} ({variant})",
                    Fraction(num1[at], den1),
                    Fraction(num[at], den) - up**k * Fraction(num1[prefix], den1),
                )
            if a not in slopes:
                continue
            horner, qpow = 0, 1  # H and q^d: (ii) times q, which needs no q^-1 at d = 0
            for m in reversed(slopes[a]):
                horner = horner * p + m * qpow
                qpow *= q
            total = sum(x * num[index[n]] for x, n in zip(a, neighbours[a]))
            if horner * den * q == total * den_e * qpow:
                report.cases += 1
            else:
                report.record(
                    False,
                    f"derivative identity at a={a}, v={v} ({variant})",
                    Fraction(horner * q, den_e * qpow),
                    Fraction(total, den),
                )
    report.seconds = time.monotonic() - t0
    return report


def suite_hurwitz(max_depth: int = 3, max_entry: int = 3, vs=HURWITZ_SHIFTS) -> Report:
    """Hurwitz shift and derivative identities on every word of 1..max_depth
    letters in 0..max_entry, at each shift of ``vs``: one batch read of
    every word at every shift and the checks in integers
    (:func:`verify_hurwitz_identities`)."""
    return verify_hurwitz_identities(_words(max_depth, range(max_entry + 1)), vs)


def brute_truncated_nested_sum(bs, v, n_top: int) -> Fraction:
    """sum over 0 < n_k < ... < n_1 <= N of prod (n_i + v)^(b_i), by direct
    dynamic programming; the independent oracle for cut-off sum facts."""
    v = as_rational(v)
    bs = tuple(bs)
    if any(type(b) is not int for b in bs):
        raise ValueError(f"exponents must be of type int, got {bs}")
    # inner[n] = nested sum over chains strictly below n for the tail slots
    inner = [Fraction(1)] * (n_top + 2)
    for b in reversed(bs[1:]):
        acc = Fraction(0)
        new = [Fraction(0)] * (n_top + 2)
        for n in range(1, n_top + 2):
            new[n] = acc
            acc += (n + v) ** b * inner[n]
        inner = new
    return sum((n + v) ** bs[0] * inner[n] for n in range(1, n_top + 1))


_C_PALETTE = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(1, 3),
)


_RANDOM_MAX_DEPTH = 4
_RANDOM_MAX_ABS_B = 4


def random_exponent_lists(count: int, seed: int):
    """Deterministic pseudo-random exponent lists satisfying the structural
    invariant, for robustness suites. Returns [(exponents, v), ...]."""
    rng = random.Random(seed)
    out = []
    v_choices = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
    for _ in range(count):
        depth = rng.randint(1, _RANDOM_MAX_DEPTH)
        exps = []
        for i in range(depth):
            lo = -_RANDOM_MAX_ABS_B if i == depth - 1 else 0
            exps.append((rng.randint(lo, _RANDOM_MAX_ABS_B), rng.choice(_C_PALETTE)))
        out.append((tuple(exps), rng.choice(v_choices)))
    return out


def suite_engine() -> Report:
    """Engine robustness: germ-truncation stability, holomorphy, and the
    finite-part vanishing oracle. The depth-2 closed formula is the table
    suite's: it checks the engine and the formula against one reference."""
    t0 = time.monotonic()
    report = Report(suite="engine")

    for exps, v in random_exponent_lists(ENGINE_LISTS, ENGINE_SEED):
        base = nested_fp_res(exps, v)
        for bump in (1, 2):
            again = nested_fp_res(exps, v, j_bump=bump)
            report.record(
                base == again,
                f"truncation stability {exps} v={v} bump={bump}",
            )

    # holomorphy: residue vanishes whenever every exponent is nonnegative
    cs = (Fraction(1), Fraction(2), Fraction(3))
    for b1 in range(5):
        for b2 in range(5):
            for c1 in cs:
                for c2 in cs:
                    for v in (Fraction(0), Fraction(1, 3)):
                        data = nested_fp_res(((b1, c1), (b2, c2)), v)
                        report.record(
                            data.res == 0 and isinstance(data.fp, Fraction),
                            f"holomorphy (({b1},{c1}),({b2},{c2})) v={v}",
                        )

    # finite-part vanishing: the N-polynomial of a pure power chain has
    # zero constant term
    for depth in (1, 2, 3):
        for bs in iproduct(range(4), repeat=depth):
            for v in (Fraction(0), Fraction(1, 4)):
                degree = sum(b + 1 for b in bs)
                pts = [
                    (Fraction(n), brute_truncated_nested_sum(bs, v, n))
                    for n in range(degree + 1)
                ]
                poly = Poly.interpolate(pts)
                extra = Fraction(degree + 1)
                ok = poly(extra) == brute_truncated_nested_sum(bs, v, degree + 1)
                ok = ok and poly.coefficient(0) == 0
                report.record(ok, f"cut-off vanishing b={bs} v={v}")

    report.seconds = time.monotonic() - t0
    return report


def suite_shuffle_cont() -> Report:
    """Continuous side: character multiplicativity under the shuffle,
    renormalised shuffle relations after factorisation, the splitting
    identity at finite bounds, and spot values."""
    t0 = time.monotonic()
    report = Report(suite="shuffle-cont")

    # one memo of exact characters, keyed by symbol words, serves the
    # multiplicativity check and Birkhoff's phi
    exact: dict[tuple, object] = {}

    def char(word):
        hit = exact.get(word)
        if hit is None:
            hit = exact[word] = chenint.chen_character_exact(word)
        return hit

    sym = {s: chenint.zeta_symbol(s) for s in (1, 2, 3)}
    pairs = [(u, w, tuple(sym[s] for s in u), tuple(sym[s] for s in w))
             for u in _words(3, (1, 2, 3)) for w in _words(3, (1, 2, 3))]
    for u, w, su, sw in pairs:
        if len(u) + len(w) > 4:
            continue
        lhs = sum(
            (char(word) * mult for word, mult in shuffle(su, sw)),
            start=chenint.RationalFunction.constant(0),
        )
        report.record(lhs == char(su) * char(sw), f"character shuffle {u} x {w}")

    # renormalised (post-factorisation) shuffle relations
    bf = chenint.BirkhoffFactorization(lambda word: char(word).laurent_expand(4))
    for u, w, su, sw in pairs:
        if len(u) + len(w) > 3:
            continue
        lhs = sum(mult * bf.plus_at_zero(word) for word, mult in shuffle(su, sw))
        rhs = bf.plus_at_zero(su) * bf.plus_at_zero(sw)
        report.record(lhs == rhs, f"renormalised shuffle {u} x {w}", lhs, rhs)

    spot = {
        (3, 2): Fraction(1, 6),
        (1,): Fraction(0),
        (1, 1): Fraction(0),
    }
    for word_s, expected in sorted(spot.items()):
        got = chenint.zeta_tilde_renorm(word_s)
        report.record(got == expected, f"renormalised value at {word_s}", got, expected)

    # convergent region: factorised value equals the direct nested integral
    for word_s in ((2,), (3,), (3, 2), (4, 1), (2, 2, 2)):
        direct = chenint.convergent_nested_integral(word_s)
        got = chenint.zeta_tilde_renorm(word_s)
        report.record(got == direct, f"convergent agreement at {word_s}", got, direct)

    # splitting of the integration domain at an intermediate radius
    lam, top = Fraction(3, 2), Fraction(7, 2)
    for e1 in (-2, -3, -4):
        for e2 in (-2, -3, -4):
            whole = chenint.pure_power_nested_integral((e1, e2), 1, top)
            inner = chenint.pure_power_nested_integral((e1, e2), 1, lam)
            outer = chenint.pure_power_nested_integral((e1, e2), lam, top)
            cross = chenint.pure_power_nested_integral(
                (e1,), lam, top
            ) * chenint.pure_power_nested_integral((e2,), 1, lam)
            lhs = inner + outer + cross
            report.record(lhs == whole, f"domain splitting ({e1},{e2})", lhs, whole)

    report.seconds = time.monotonic() - t0
    return report


def _with_shift(vs: tuple, v: Fraction) -> tuple:
    """A suite's shift grid with the requested shift v added, if new."""
    return vs if v in vs else vs + (v,)


def run_suite(name: str, max_weight: int = 8, v=Fraction(0)) -> Report:
    v = as_rational(v)
    if name == "table":
        return suite_table()
    if name == "stuffle":
        return suite_stuffle(max_weight, _with_shift(STUFFLE_SHIFTS, v))
    if name == "hurwitz":
        return suite_hurwitz(vs=_with_shift(HURWITZ_SHIFTS, v))
    if name == "engine":
        return suite_engine()
    if name == "shuffle-cont":
        return suite_shuffle_cont()
    if name == "all":
        parts = [
            run_suite(part, max_weight, v)
            for part in ("table", "engine", "stuffle", "hurwitz", "shuffle-cont")
        ]
        merged = Report.combined("all", parts)
        merged.parts = parts
        return merged
    raise ValueError(f"unknown suite {name!r}")
