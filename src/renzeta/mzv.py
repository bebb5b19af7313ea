"""Renormalised multiple (Hurwitz) zeta values at nonpositive integer
arguments, in three variants:

* ``strict``  -- strict-inequality nested sums, regularisation twisted so
  that the values satisfy the unsigned stuffle relations;
* ``weak``    -- weak-inequality version (signed stuffle relations): the sum
  of the strict values of the 2^(k-1) contractions of the word, taken by
  ``emsum.weak_fp_res`` inside the engine;
* ``alt``     -- the diagonal limit zeta(-a_1+z, ..., -a_k+z; v) at z -> 0,
  which satisfies the Hurwitz shift/derivative identities but not the
  stuffle relations. It coincides with ``strict`` in depths 1 and 2.

An argument list is given as the tuple of nonnegative exponents
(a_1, ..., a_k): the value computed is zeta(-a_1, ..., -a_k; v).

A strict value is the finite part of the twisted-regularisation expansion,
which ``emsum.strict_fp_res`` sums inside one recursion over word prefixes.
``_composition_terms`` still lists the expansion term by term, one exponent
list per term; the tests evaluate it term by term as an independent oracle.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, lcm, prod
from operator import mul
from typing import NamedTuple

from .combinat import bernoulli, bernoulli_poly, contractions, stirling1
from .emsum import _X, _head, nested_fp_res, strict_fp_res, weak_fp_res
from .exactnum import Poly, as_rational, rat_str
from .words import QuasiShuffleTable, word_str
# bound here because the benchmark's tracer (perfbench/tracing.py) wraps mzv.stuffle
from .words import stuffle  # noqa: F401

VARIANTS = ("strict", "weak", "alt")


class HolomorphyViolation(ArithmeticError):
    """A renormalised value had a nonzero residue. Must never fire: every
    composition term is individually pole-free. Checked on the folded
    totals of the strict and weak expansions and on the one nested sum of
    an alt value; the tests check it per composition term on the oracle
    path."""


class ZetaValue(NamedTuple):
    value: Fraction
    as_poly_in_v: Poly | None = None


class Report:
    """Machine-readable outcome of one verification suite. ``parts`` holds
    the reports a combined run was merged from, for per-suite diagnostics."""

    def __init__(self, suite: str, cases: int = 0, failures=None, seconds: float = 0.0, parts=None):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.seconds = seconds
        self.parts = [] if parts is None else parts

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, description: str, lhs=None, rhs=None):
        self.cases += 1
        if not ok:
            entry = {"case": description}
            if lhs is not None:
                entry["lhs"] = rat_str(lhs)
            if rhs is not None:
                entry["rhs"] = rat_str(rhs)
            self.failures.append(entry)

    @classmethod
    def combined(cls, suite: str, reports: list) -> "Report":
        """Cases and seconds of ``reports`` summed, failures concatenated."""
        return cls(
            suite=suite,
            cases=sum(r.cases for r in reports),
            failures=[f for r in reports for f in r.failures],
            seconds=sum(r.seconds for r in reports),
        )


def _validate_args(a) -> tuple[int, ...]:
    """The exponent word as a tuple, every letter an int >= 0; anything
    else (a float, a Fraction, a string, a bool) is refused, not truncated."""
    a = tuple(a)
    for x in a:  # a plain loop: this runs on every memo hit of zeta_value
        if type(x) is not int or x < 0:
            raise ValueError(
                f"arguments must be nonpositive integers: exponents a_i >= 0 of type int, got {a}"
            )
    return a


@lru_cache(maxsize=None)
def _composition_structures(k: int):
    """Slot structures and rational weights of the twisted-regularisation
    expansion at depth k.

    The expansion is Hoffman's log followed by his exp, each letter twisted
    by one perturbation unit in between. A structure cuts the k letters into
    consecutive slots; a slot of length L carries a perturbation
    multiplicity c in 1..L and the weight s(L, c)/L!, because
    log(1+x)^c/c! generates s(L, c)/L!. A structure's weight is the product
    over its slots. Structures depend only on k; a slot is stored as
    (start, end, c) over letter indices.
    """
    out = []
    for lengths in contractions((1,) * k):
        bounds = [0]
        for n in lengths:
            bounds.append(bounds[-1] + n)
        spans = tuple(zip(bounds, bounds[1:]))
        den = prod(factorial(n) for n in lengths)
        for cs in iproduct(*(range(1, n + 1) for n in lengths)):
            num = prod(stirling1(n, c) for n, c in zip(lengths, cs))
            slots = tuple((s, e, c) for (s, e), c in zip(spans, cs))
            out.append((slots, Fraction(num, den)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _composition_terms(a: tuple[int, ...]):
    """Exponent lists (with integer perturbation multiplicities) and their
    weights for the argument word ``a``, grouped by exponent list: the
    strict expansion term by term, which the tests evaluate as the oracle
    for the folded recursion."""
    psum = [0]
    for x in a:
        psum.append(psum[-1] + x)
    grouped: dict[tuple, Fraction] = {}
    for slots, coeff in _composition_structures(len(a)):
        exps = tuple((psum[e] - psum[s], c) for s, e, c in slots)
        acc = grouped.get(exps)
        grouped[exps] = coeff if acc is None else acc + coeff
    return tuple(sorted(grouped.items()))


def _pole_free_fp(data, what: str):
    """The finite part of ``data``, whose residue must be zero (at every
    shift, for a tuple of shifts)."""
    res = data.res
    if any(res) if type(res) is tuple else res != 0:
        raise HolomorphyViolation(f"{what} has residue {res}")
    return data.fp


# Every value handed out is read from one memo, keyed by (word, variant, key
# of v). The key of v is the engine's own: the head of its state keys,
# which ``emsum._head(v, 0, 0)`` builds while it validates v, for every word,
# the empty one too (the menu and j_bump entries are constant here). It
# holds ints only, so a memo hit hashes no Fraction. One rational v = p/q is
# read as lane 0 of the one-lane tuple (v,), which has the same key
# (0, 0, p, q); Q[v] has a key of its own.
_memo: dict = {}

#: The ``_head`` of v = ``emsum._X``, built once: Q[v] has the one shift.
_X_HEAD = _head(_X, 0, 0)


def _zeta(a: tuple[int, ...], variant: str, v, ring, head):
    """zeta_variant(-a; v) at a tuple of shifts (one value per lane) or at
    v = ``Poly.x()``, with ``ring, head = _head(v, 0, 0)``. A miss calls the
    variant's engine entry through its module global; the empty word has
    the ring's unit."""
    key = (a, variant, head)
    value = _memo.get(key)
    if value is not None:
        return value
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not a:
        value = (Fraction(1),) * ring.lanes if ring.lanes else Poly.one()
    elif variant == "strict":
        value = _pole_free_fp(strict_fp_res(a, v), f"strict expansion of {a} at v={v}")
    elif variant == "weak":
        value = _pole_free_fp(weak_fp_res(a, v), f"weak expansion of {a} at v={v}")
    else:
        exps = tuple((x, 1) for x in a)
        value = _pole_free_fp(nested_fp_res(exps, v), f"diagonal sum {a} at v={v}")
    _memo[key] = value
    return value


def zeta_value(a, v=0, variant: str = "strict"):
    """The renormalised value zeta_variant(-a_1, ..., -a_k; v) as a Fraction.
    For a tuple of shifts (v_1, ..., v_S) it is the tuple of the S values,
    computed by one engine recursion.

    >>> zeta_value((1, 1), Fraction(1, 2))
    Fraction(265, 1152)
    >>> zeta_value((1, 1), (0, Fraction(1, 2), Fraction(3, 2)))
    (Fraction(1, 288), Fraction(265, 1152), Fraction(3649, 1152))
    """
    a = _validate_args(a)
    if type(v) is not tuple:
        # a hit at one shift builds its key (0, 0, p, q) here, not by _head;
        # a miss, and every invalid v or variant, takes the path below
        value = _memo.get((a, variant, (0, 0, *as_rational(v).as_integer_ratio())))
        if value is not None:
            return value[0]
    lanes = v if type(v) is tuple else (v,)
    value = _zeta(a, variant, lanes, *_head(lanes, 0, 0))
    return value if lanes is v else value[0]


def zeta_poly_in_v(a, variant: str = "strict") -> Poly:
    """The value as an exact polynomial in the Hurwitz shift v, computed by
    the same engine over Q[v] with v the polynomial variable.

    >>> zeta_poly_in_v((1,)).to_str("v")
    '-1/2*v^2 - 1/2*v - 1/12'
    """
    return _zeta(_validate_args(a), variant, _X, *_X_HEAD)


def _zeta_result(a, v, variant, with_poly) -> ZetaValue:
    value = zeta_value(a, v, variant)
    poly = zeta_poly_in_v(a, variant) if with_poly else None
    return ZetaValue(value, poly)


def zeta_renorm(a, v=0, with_poly: bool = False) -> ZetaValue:
    """Strict-inequality renormalised multiple Hurwitz zeta value.

    >>> zeta_renorm((0, 0)).value
    Fraction(3, 8)
    >>> zeta_renorm((1, 1)).value
    Fraction(1, 288)
    """
    return _zeta_result(a, v, "strict", with_poly)


def zeta_weak_renorm(a, v=0, with_poly: bool = False) -> ZetaValue:
    """Weak-inequality version: the composition sum of strict values.

    >>> zeta_weak_renorm((0, 0)).value
    Fraction(-1, 8)
    """
    return _zeta_result(a, v, "weak", with_poly)


def zeta_alt(a, v=0, with_poly: bool = False) -> ZetaValue:
    """Diagonal-limit renormalisation: one shared perturbation per slot."""
    return _zeta_result(a, v, "alt", with_poly)


def zeta_depth1(a: int) -> Fraction:
    """zeta(-a) for a >= 0: equals -B_{a+1}/(a+1) for a >= 1 and -1/2 at
    a = 0 (the polynomial value B_{a+1}(1) handles both uniformly)."""
    if a < 0:
        raise ValueError("depth-1 closed form needs a >= 0")
    return -bernoulli_poly(a + 1, Fraction(1)) / (a + 1)


def zeta2_closed(a: int, b: int) -> Fraction:
    """Independent closed formula for zeta(-a, -b) at v = 0 (two Bernoulli
    convolutions plus a binomial tail); a second code path against the
    composition/engine pipeline.

    >>> zeta2_closed(0, 0)
    Fraction(3, 8)
    >>> zeta2_closed(2, 1)
    Fraction(-1, 240)
    """
    if a < 0 or b < 0:
        raise ValueError("closed depth-2 formula needs a, b >= 0")
    s1 = sum(
        comb(b + 1, s) * bernoulli(s) * zeta_depth1(a + b - s + 1)
        for s in range(b + 2)
    )
    tail = (
        Fraction((-1) ** (a + 1))
        * factorial(a)
        * factorial(b)
        * bernoulli(a + b + 2)
        / (2 * factorial(a + b + 2))
    )
    return Fraction(s1, b + 1) + zeta_depth1(a) * zeta_depth1(b) + tail


#: Known double-zeta values zeta(-a, -b) for 0 <= a, b <= 6, keyed (a, b);
#: the cross-check corpus reproduced by ``cmd_table`` and the table suite.
DEPTH2_REFERENCE = {}


def _fill_reference():
    rows = {
        0: ("3/8", "1/12", "7/720", "-1/120", "-11/2520", "1/252", "1/224"),
        1: ("1/24", "1/288", "-1/240", "-19/10080", "1/504", "41/20160", "-1/480"),
        2: ("-7/720", "-1/240", "0", "1/504", "113/151200", "-1/480", "-307/166320"),
        3: ("-1/240", "1/840", "1/504", "1/28800", "-1/480", "-281/332640", "1/264"),
        4: ("11/2520", "1/504", "-113/151200", "-1/480", "0", "1/264", "117977/75675600"),
        5: ("1/504", "-103/60480", "-1/480", "1/1232", "1/264", "1/127008", "-691/65520"),
        6: ("-1/224", "-1/480", "307/166320", "1/264", "-117977/75675600", "-691/65520", "0"),
    }
    for b, row in rows.items():
        for a, cell in enumerate(row):
            DEPTH2_REFERENCE[(a, b)] = Fraction(cell)


_fill_reference()


def words_up_to(max_depth: int, max_weight: int):
    """All words with 1..max_depth nonnegative letters and letter sum
    <= max_weight, in deterministic (depth, lexicographic) order."""
    out = []
    for depth in range(1, max_depth + 1):
        def rec(prefix, budget):
            if len(prefix) == depth:
                out.append(tuple(prefix))
                return
            for x in range(budget + 1):
                rec(prefix + [x], budget - x)

        rec([], max_weight)
    return out


def _over_one_denominator(values: dict) -> tuple[int, dict]:
    """D and the integer numerators N_x with values[x] = N_x / D, D the least
    common denominator of the rational values."""
    den = lcm(*(q.denominator for q in values.values()))
    return den, {x: q.numerator * (den // q.denominator) for x, q in values.items()}


class _StufflePlan(NamedTuple):
    """What a stuffle pass on one (max_weight, max_depth) grid needs besides
    the values. It lives as long as the process: ``_stuffle_plan`` caches
    it, and every pass on the grid, at any variant and shift, reads it.

    ``words`` are the value words: every word of depth <= 2 max_depth and
    weight <= max_weight, in ``words_up_to`` order, so the grid's own words
    come first. ``odd[i]`` is the parity of the length of ``words[i]``. A
    pair (i, j, ids, ms) is the ordered grid pair u = words[i], w = words[j]
    with the terms of u * w as positions ``ids`` into ``words`` and their
    multiplicities ``ms``, the pairs in (u, w) order."""

    words: list
    odd: list
    pairs: list


@lru_cache(maxsize=None)
def _stuffle_plan(max_weight: int, max_depth: int) -> _StufflePlan:
    """The plan of one grid, read off a quasi-shuffle table of its own, one
    ``product`` per pair (the table's cells shared by all of them). The table
    ids are renumbered as positions and the table is dropped, so a pass
    reads no table."""
    # The relations need exactly the words of depth <= 2 max_depth and weight
    # <= max_weight: a term of u * w has at most |u| + |w| letters and the
    # weight of u and w together, and each such word is a term (multiplicity
    # >= 1, so nonzero in both sign modes) of the product of its two halves.
    table = QuasiShuffleTable(merge=True)
    words = words_up_to(2 * max_depth, max_weight)
    ids = [table.intern(x) for x in words]
    position = {x: i for i, x in enumerate(ids)}
    grid = [(i, sum(x)) for i, x in enumerate(words) if len(x) <= max_depth]
    pairs, shared = [], {}  # one tuple per distinct multiplicity list: most pairs share a few
    for i, weight_u in grid:
        for j, weight_w in grid:
            if weight_u + weight_w <= max_weight:
                cell = table.product(ids[i], ids[j])
                ms = tuple(cell.values())
                pairs.append((i, j, tuple([position[z] for z in cell]), shared.setdefault(ms, ms)))
    return _StufflePlan(words, [len(x) % 2 for x in words], pairs)


def verify_stuffle(max_weight: int, v=0, variant: str = "strict", max_depth: int = 3) -> Report:
    """Check zeta(u * u'; v) = zeta(u; v) zeta(u'; v) for all ordered word
    pairs with per-word depth <= max_depth and combined weight <= max_weight.

    ``strict`` uses the unsigned stuffle, ``weak`` the signed one. The first
    pass on a grid (max_weight, max_depth) builds its plan (``_StufflePlan``)
    off a :class:`words.QuasiShuffleTable` of the plan's own. The plan is
    kept for the life of the process, and every later pass on the grid, at
    any variant and shift, reuses it. A pass reads each value word from
    ``zeta_value`` once and brings all of them over one common denominator
    D as numerators N. The plan gives every pair's quasi-shuffle
    multiplicities m_x. The weak coefficient of x is m_x (-1)^(|u|+|u'|-|x|),
    so with S_x = (-1)^|x| N_x (weak) or N_x (strict) both conventions check
    sum_x m_x S_x D == S_u S_u' in integers.
    Failures are returned as data, not raised. ``max_weight`` must be an int
    >= 0 and ``max_depth`` an int >= 1, or ValueError is raised.
    """
    if variant not in ("strict", "weak"):
        raise ValueError("stuffle suite runs on the strict or weak variant")
    for name, n, least in (("max_weight", max_weight, 0), ("max_depth", max_depth, 1)):
        if type(n) is not int or n < least:
            raise ValueError(f"{name} must be an int >= {least}, got {n!r}")
    v = as_rational(v)
    t0 = time.monotonic()
    report = Report(suite=f"stuffle-{variant}")
    weak = variant == "weak"
    plan = _stuffle_plan(max_weight, max_depth)
    values = [zeta_value(x, v, variant) for x in plan.words]
    den, nums = _over_one_denominator(dict(enumerate(values)))
    signed = [-n if weak and odd else n for n, odd in zip(nums.values(), plan.odd)]  # S_x
    at = signed.__getitem__
    for i, j, ids, ms in plan.pairs:
        total = sum(map(mul, ms, map(at, ids)))
        if total * den != signed[i] * signed[j]:
            u, w = plan.words[i], plan.words[j]
            if weak and (len(u) + len(w)) % 2:
                total = -total
            report.record(
                False,
                f"{variant}: ({word_str(u)}) * ({word_str(w)}) at v={v}",
                Fraction(total, den),
                values[i] * values[j],
            )
    report.cases = len(plan.pairs)  # every pair is one case, failed or not
    report.seconds = time.monotonic() - t0
    return report


def sup_sphere_count_coeffs(n: int) -> dict[int, int]:
    """Coefficients of the sup-norm sphere point count (2t+1)^n - (2t-1)^n
    as a polynomial in t: degree m -> integer coefficient."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension must be an int >= 1, got {n!r}")
    return {
        n - 2 * j - 1: 2 ** (n - 2 * j) * comb(n, 2 * j + 1)
        for j in range(0, (n - 1) // 2 + 1)
    }


def _sphere_coeffs_shifted(n: int, v) -> dict:
    """Same polynomial written in the variable (t+v): degree q -> coefficient
    (a polynomial expression in v, evaluated exactly at a rational v or kept
    as a polynomial at v = Poly.x())."""
    out: dict = {}
    for m, coeff in sup_sphere_count_coeffs(n).items():
        for q in range(m + 1):
            out[q] = out.get(q, Fraction(0)) + coeff * comb(m, q) * (-v) ** (m - q)
    return {q: c for q, c in out.items() if c != 0}


_hdim_memo: dict = {}


def _hdim_value(n: int, a: tuple[int, ...], v, ring, head):
    """zeta_n(-a; v) at one rational v or at v = ``Poly.x()``, with ``ring,
    head = _head(v, 0, 0)``, memoised by (n, word, head) as the value memo
    is."""
    key = (n, a, head)
    total = _hdim_memo.get(key)
    if total is None:
        shift = (v,) if ring.lanes else v
        total = Fraction(0)
        for combo in iproduct(sorted(_sphere_coeffs_shifted(n, v).items()), repeat=len(a)):
            coeff = prod(c for _, c in combo)
            value = _zeta(tuple(x + q for x, (q, _) in zip(a, combo)), "strict", shift, ring, head)
            total += coeff * (value[0] if ring.lanes else value)
        _hdim_memo[key] = total
    return total


def hdim_zeta(n: int, a, v=0, with_poly: bool = False) -> ZetaValue:
    """Higher-dimensional renormalised value: nested sums over integer points
    of R^n ordered by the supremum norm, reduced to a Q[v]-combination of
    one-dimensional values through the sphere point-count polynomial. With
    ``with_poly`` the same reduction also runs at v = Poly.x(), giving the
    value as a polynomial in v.

    >>> hdim_zeta(2, (0,)).value
    Fraction(-2, 3)
    >>> hdim_zeta(3, (0,)).value
    Fraction(-1, 1)
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension must be an int >= 1, got {n!r}")
    a = _validate_args(a)
    v = as_rational(v)
    poly = _hdim_value(n, a, _X, *_X_HEAD) if with_poly else None
    return ZetaValue(_hdim_value(n, a, v, *_head(v, 0, 0)), poly)
