"""Renormalised multiple (Hurwitz) zeta values at nonpositive integer
arguments, in three variants:

* ``strict``  -- strict-inequality nested sums, regularisation twisted so
  that the values satisfy the unsigned stuffle relations;
* ``weak``    -- weak-inequality version (signed stuffle relations): the sum
  of the strict values of the 2^(k-1) contractions of the word, read off
  the strict value table;
* ``alt``     -- the diagonal limit zeta(-a_1+z, ..., -a_k+z; v) at z -> 0,
  which satisfies the Hurwitz shift/derivative identities but not the
  stuffle relations. It coincides with ``strict`` in depths 1 and 2.

An argument list is given as the tuple of nonnegative exponents
(a_1, ..., a_k): the value computed is zeta(-a_1, ..., -a_k; v).

A strict value is the finite part of the twisted-regularisation expansion,
which the engine sums inside one recursion over word prefixes.
``_composition_terms`` still lists the expansion term by term, one exponent
list per term; the tests evaluate it term by term as an independent oracle.

Values are read from one memo (``_memo``). A strict miss enters the engine
once, at ``emsum._word_total``, with the ring and key head that
``zeta_value`` built for the memo (its menu entry set to the word menu); the
residue is checked on the engine's integer value and only the finite part
becomes Fractions. An alt miss goes through ``emsum.nested_fp_res``. A weak
miss never enters the engine itself: :func:`_weak_table`, the weak memo's
only writer, sums the strict values of the word's distinct contractions,
each residue-checked as a strict miss is, with their multiplicities in
integers, and stores the sum; a weak miss is read back from the memo.

A suite reads each pass's values in one batch, through :func:`value_table`,
as one common denominator and integer numerators per lane, which the
stuffle and Hurwitz checks compare in integers.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, lcm, prod
from operator import mul
from typing import NamedTuple

from . import emsum
from .combinat import bernoulli, bernoulli_poly, contraction_counts, contractions, stirling1
from .emsum import _WORD, _X, _head, _lanes, _value, nested_fp_res
from .exactnum import Poly, as_rational, rat_str
from .words import QuasiShuffleTable, word_str
# bound here because the benchmark's tracer (perfbench/tracing.py) wraps mzv.stuffle
from .words import stuffle  # noqa: F401

VARIANTS = ("strict", "weak", "alt")


class HolomorphyViolation(ArithmeticError):
    """A renormalised value had a nonzero residue. Must never fire: every
    composition term is individually pole-free. Checked on the folded total
    of every strict expansion, so on every strict value a weak value reads,
    and on the one nested sum of an alt value; the tests check it per
    composition term on the oracle path."""


class ZetaValue(NamedTuple):
    value: Fraction
    as_poly_in_v: Poly | None = None


class Report:
    """Machine-readable outcome of one verification suite. ``parts`` holds
    the reports a combined run was merged from, for per-suite diagnostics."""

    def __init__(self, suite: str, cases: int = 0, failures=None, seconds: float = 0.0):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.seconds = seconds
        self.parts = []

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


# Every value handed out is read from one memo, keyed by (word, variant, key
# of v). The key of v is the engine's own: the head of its state keys,
# which ``emsum._head(v, 0, 0)`` builds while it validates v, for every word,
# the empty one too (the menu and j_bump entries are constant here). It
# holds ints only, so a memo hit hashes no Fraction. One rational v = p/q is
# read as lane 0 of the one-lane tuple (v,), which has the same key
# (0, 0, p, q); Q[v] has a key of its own. A memo value at rational shifts
# is the tuple of its lanes.
_memo: dict = {}

#: The ``_head`` of v = ``emsum._X``, built once: Q[v] has the one shift.
_X_HEAD = _head(_X, 0, 0)


def _zeta(a: tuple[int, ...], variant: str, v, ring, head):
    """zeta_variant(-a; v) at a tuple of shifts (one value per lane) or at
    v = ``Poly.x()``, with ``ring, head = _head(v, 0, 0)``; the empty word
    has the ring's unit. A miss is computed as the module docstring says:
    ``emsum._word_total`` is read through the module, so the tests can
    patch it, and ``nested_fp_res`` through its module global, which the
    benchmark's tracer wraps."""
    key = (a, variant, head)
    value = _memo.get(key)
    if value is not None:
        return value
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "weak":
        _weak_table([a], ring, head, lambda y: _zeta(y, "strict", v, ring, head))
        return _memo[key]
    if not a:
        value = (Fraction(1),) * ring.lanes if ring.lanes else Poly.one()
    elif variant == "alt":
        res, value = nested_fp_res(tuple((x, 1) for x in a), v)
        if any(res) if ring.lanes else res:
            raise HolomorphyViolation(f"diagonal sum {a} at v={v} has residue {res}")
    else:
        res, fp = emsum._word_total(a, ring, (_WORD,) + head[1:])
        if res[1]:
            raise HolomorphyViolation(
                f"{variant} expansion of {a} at v={v} has residue {_value(res, v)}"
            )
        value = _value(fp, v)
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
    if type(v) is tuple:
        return _zeta(a, variant, v, *_head(v, 0, 0))
    # one shift is converted and keyed (0, 0, p, q) once, here, not by
    # _head; _lanes validates it on a miss
    pair = as_rational(v).as_integer_ratio()
    head = (0, 0, *pair)
    value = _memo.get((a, variant, head))
    if value is None:
        value = _zeta(a, variant, (v,), _lanes((pair,)), head)
    return value[0]


def value_table(words, v, variant: str = "strict") -> list:
    """The values of ``words`` at the shift v, or at each lane of a tuple of
    shifts, as one (D, [N_x for x in words]) per lane: D the least common
    denominator of the lane's values and zeta_variant(-x; v_s) = N_x / D.

    The words must be a list of validated tuples (see ``_validate_args``);
    v is validated and keyed once. Every word is read from the memo in one
    pass. A strict or alt miss goes through the module global
    ``zeta_value`` once, so a tuple of shifts costs one lane recursion. The
    distinct weak misses are computed together, as one batch
    (:func:`_weak_table`), whose strict misses go through ``zeta_value`` too
    and which stores each in the memo, so a warm pass only reads the memo. A
    suite reads each pass's values here, in one batch, and checks them in
    integers.

    >>> value_table([(1,), (1, 1)], (0, Fraction(1, 2)))
    [(288, [-24, 1]), (1152, [-528, 265])]
    >>> value_table([(1,), (1, 1)], (0, Fraction(1, 2)), "weak")
    [(288, [-24, 1]), (1152, [-528, -23])]
    """
    lanes = v if type(v) is tuple else (v,)
    ring, head = _head(lanes, 0, 0)
    get = _memo.get
    values = [get((x, variant, head)) for x in words]
    if variant == "weak":
        misses = dict.fromkeys([x for x, value in zip(words, values) if value is None])
        if misses:
            _weak_table(
                misses, ring, head, lambda y: get((y, "strict", head)) or zeta_value(y, lanes, "strict")
            )
            values = [get((x, variant, head)) for x in words]
    for i, value in enumerate(values):
        if value is None:
            values[i] = zeta_value(words[i], lanes, variant)
    return _lanes_of(values, ring.lanes)


def _lanes_of(values, lanes: int) -> list:
    """The values (each a tuple of ``lanes`` Fractions, or a Poly when
    ``lanes`` is 0) as one (D, [N_x]) per lane, D least; over Q[v] a lane
    is a degree of the coefficients."""
    rows = [[q.as_integer_ratio() for q in (x if lanes else x.coeffs)] for x in values]
    if not lanes:
        size = max(map(len, rows), default=0)
        rows = [r + [(0, 1)] * (size - len(r)) for r in rows]
    return [_over_one_denominator(lane) for lane in (zip(*rows) if rows else [()] * lanes)]


def _weak_table(words, ring, head, strict) -> None:
    """Store the weak values of the validated ``words`` in the ring of the
    shift as ``_memo[(x, "weak", head)]``, in the memo's shape: the weak
    memo's only writer. ``strict(y)`` is the strict value of y, read in the
    same shape.

    A weak value is the sum of the strict values of the word's 2^(k-1)
    contractions (the empty word's is its own, the unit), m_y N_y over the
    distinct ones y with multiplicities m_y (``contraction_counts``). Each
    word's counts extend those of its prefix when that is a word of the
    batch of the previous depth; only those counts are kept, and of each
    word only the positions of its contractions in the closure (every
    contraction of every word) and their multiplicities. The strict values
    of the closure are read once and put over one denominator D per lane,
    W_x = sum_y m_y N_y in integers."""
    closure, plan, shared = {}, [], {}  # closure word -> position; per word (positions, ms)
    prefixes = {x[:-1] for x in words if len(x) > 1}
    prev, cur, depth = {}, {}, 0
    for x in words:
        if len(x) != depth:
            prev, cur, depth = cur, {}, len(x)
        counts = contraction_counts(x, prev.get(x[:-1])) if x else {x: 1}
        if x in prefixes:
            cur[x] = counts
        ms = tuple(counts.values())
        plan.append(([closure.setdefault(y, len(closure)) for y in counts], shared.setdefault(ms, ms)))
    out = []
    for den, nums in _lanes_of([strict(y) for y in closure], ring.lanes):
        at = nums.__getitem__
        out.append((den, [sum(map(mul, ms, map(at, ids))) for ids, ms in plan]))
    for i, x in enumerate(words):
        value = tuple([Fraction(sums[i], den) for den, sums in out])
        _memo[(x, "weak", head)] = value if ring.lanes else Poly(value)


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


def _over_one_denominator(pairs) -> tuple[int, list]:
    """D and the integer numerators N_i with n_i / d_i = N_i / D for the
    integer pairs (n_i, d_i), d_i > 0, D the lcm of the d_i: a lane of
    values or a polynomial's coefficients, each read by
    ``as_integer_ratio()``."""
    den = lcm(*[d for _, d in pairs])
    return den, [n * (den // d) for n, d in pairs]


class _StufflePlan(NamedTuple):
    """What a stuffle pass on one (max_weight, max_depth) grid needs besides
    the values. It lives as long as the process: ``_stuffle_plan`` caches
    it, and every pass on the grid, at any variant and shift, reads it.

    ``words`` are the value words: every word of depth <= 2 max_depth and
    weight <= max_weight, in ``words_up_to`` order, so the grid's own words
    come first. ``odd[i]`` is the parity of the length of ``words[i]``.
    ``cases`` is the number of ordered grid pairs (u, w), each one relation
    zeta(u * w) = zeta(u) zeta(w). A check (i, j, ids, ms, pairs) holds the
    terms of u * w, u = words[i] and w = words[j], as positions ``ids`` into
    ``words`` with their multiplicities ``ms``, and ``pairs``, the ordered
    pairs it stands for as (index in ordered-pair order, i, j): (u, w) and,
    where the cell of (w, u) is the same, (w, u) too, so each relation is
    checked once. The checks come in the order of their first pair."""

    words: list
    odd: list
    checks: list
    cases: int


@lru_cache(maxsize=None)
def _stuffle_plan(max_weight: int, max_depth: int) -> _StufflePlan:
    """The plan of one grid, read off a quasi-shuffle table of its own, one
    ``product`` per ordered pair (the table's cells shared by all of them).
    The product is commutative, so (w, u) joins the check of (u, w) when
    its cell, as word id -> multiplicity, equals that of (u, w); a cell
    that differs keeps a check of its own, and its relation fails alone.
    The table ids are renumbered as positions and the table is dropped, so
    a pass reads no table.

    >>> plan = _stuffle_plan(2, 1)  # (0) * (0), (0) * (1), (0) * (2), (1) * (1) and twins
    >>> len(plan.checks), plan.cases
    (4, 6)
    """
    # The relations need exactly the words of depth <= 2 max_depth and weight
    # <= max_weight: a term of u * w has at most |u| + |w| letters and the
    # weight of u and w together, and each such word is a term (multiplicity
    # >= 1, so nonzero in both sign modes) of the product of its two halves.
    table = QuasiShuffleTable(merge=True)
    words = words_up_to(2 * max_depth, max_weight)
    ids = [table.intern(x) for x in words]
    position = {x: i for i, x in enumerate(ids)}
    grid = [(i, sum(x)) for i, x in enumerate(words) if len(x) <= max_depth]
    checks, seen, shared = [], {}, {}  # one tuple per distinct multiplicity list: most checks share a few
    cases = 0
    for i, weight_u in grid:
        for j, weight_w in grid:
            if weight_u + weight_w > max_weight:
                continue
            cell = table.product(ids[i], ids[j])
            twin = seen.get((j, i))  # the pair (w, u), met first when w comes before u
            if twin is not None and twin[0] == cell:
                twin[1].append((cases, i, j))
            else:
                ms, pairs = tuple(cell.values()), [(cases, i, j)]
                seen[(i, j)] = cell, pairs
                checks.append((i, j, tuple([position[z] for z in cell]), shared.setdefault(ms, ms), pairs))
            cases += 1
    return _StufflePlan(words, [len(x) % 2 for x in words], checks, cases)


def verify_stuffle(max_weight: int, v=0, variant: str = "strict", max_depth: int = 3):
    """Check zeta(u * u'; v) = zeta(u; v) zeta(u'; v) for all ordered word
    pairs with per-word depth <= max_depth and combined weight <= max_weight,
    as one Report. For a tuple of shifts it is the tuple of one Report per
    shift, from one lane recursion.

    ``strict`` uses the unsigned stuffle, ``weak`` the signed one. The first
    pass on a grid (max_weight, max_depth) builds its plan (``_StufflePlan``)
    off a :class:`words.QuasiShuffleTable` of the plan's own. The plan is
    kept for the life of the process, and every later pass on the grid, at
    any variant and shift, reuses it. A pass reads its values once, in one
    batch (:func:`value_table`, every shift of a tuple at once): per shift
    one common denominator D and the numerators N. The plan gives every
    check's quasi-shuffle multiplicities m_x. The weak coefficient of x is
    m_x (-1)^(|u|+|u'|-|x|), so with S_x = (-1)^|x| N_x (weak) or N_x
    (strict) both conventions check sum_x m_x S_x D == S_u S_u' in integers.
    Both sides are symmetric in u and u', so a check stands for (u, u') and
    (u', u) where their cells agree: each relation is checked once, and a
    report counts every ordered pair as a case. A failed check records one
    failure per ordered pair, in ordered-pair order, with the same lhs and
    rhs. Failures are returned as data, not raised. ``max_weight`` must be
    an int >= 0 and ``max_depth`` an int >= 1, or ValueError is raised.
    """
    if variant not in ("strict", "weak"):
        raise ValueError("stuffle suite runs on the strict or weak variant")
    for name, n, least in (("max_weight", max_weight, 0), ("max_depth", max_depth, 1)):
        if type(n) is not int or n < least:
            raise ValueError(f"{name} must be an int >= {least}, got {n!r}")
    lanes = tuple(map(as_rational, v)) if type(v) is tuple else (as_rational(v),)
    t0 = time.monotonic()
    weak = variant == "weak"
    plan = _stuffle_plan(max_weight, max_depth)
    reports = []
    for s, (den, nums) in zip(lanes, value_table(plan.words, lanes, variant)):
        report = Report(suite=f"stuffle-{variant}")
        signed = [-n if weak and odd else n for n, odd in zip(nums, plan.odd)]  # S_x
        at = signed.__getitem__
        failed = []
        for i, j, ids, ms, pairs in plan.checks:
            total = sum(map(mul, ms, map(at, ids)))
            if total * den != signed[i] * signed[j]:
                if weak and (len(plan.words[i]) + len(plan.words[j])) % 2:
                    total = -total
                lhs, rhs = Fraction(total, den), Fraction(nums[i], den) * Fraction(nums[j], den)
                failed += [(k, plan.words[x], plan.words[y], lhs, rhs) for k, x, y in pairs]
        failed.sort()  # into ordered-pair order; the indices k are distinct
        for _, u, w, lhs, rhs in failed:
            report.record(False, f"{variant}: ({word_str(u)}) * ({word_str(w)}) at v={s}", lhs, rhs)
        report.cases = plan.cases  # every ordered pair is one case, failed or not
        now = time.monotonic()
        report.seconds, t0 = now - t0, now  # the batch read counts to the first shift
        reports.append(report)
    return tuple(reports) if type(v) is tuple else reports[0]


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
