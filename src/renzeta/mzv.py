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
from typing import NamedTuple

from .combinat import bernoulli, bernoulli_poly, contractions, stirling1
from .emsum import nested_fp_res, strict_fp_res, weak_fp_res
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
    if any(type(x) is not int or x < 0 for x in a):
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


def _pole_free_fp(data, what: str) -> Fraction:
    if data.res != 0:
        raise HolomorphyViolation(f"{what} has residue {data.res}")
    return data.fp


@lru_cache(maxsize=None)
def _zeta_strict(a: tuple[int, ...], v: Fraction) -> Fraction:
    if not a:
        return Fraction(1)
    return _pole_free_fp(strict_fp_res(a, v), f"strict expansion of {a} at v={v}")


@lru_cache(maxsize=None)
def _zeta_weak(a: tuple[int, ...], v: Fraction) -> Fraction:
    if not a:
        return Fraction(1)
    return _pole_free_fp(weak_fp_res(a, v), f"weak expansion of {a} at v={v}")


@lru_cache(maxsize=None)
def _zeta_alt(a: tuple[int, ...], v: Fraction) -> Fraction:
    if not a:
        return Fraction(1)
    exps = tuple((x, 1) for x in a)
    return _pole_free_fp(nested_fp_res(exps, v), f"diagonal sum {a} at v={v}")


_DISPATCH = {"strict": _zeta_strict, "weak": _zeta_weak, "alt": _zeta_alt}


def _variant_fn(variant: str):
    if variant not in _DISPATCH:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return _DISPATCH[variant]


def _as_poly(x) -> Poly:
    """A value computed at v = Poly.x(); constants may come out as Fractions."""
    return x if isinstance(x, Poly) else Poly.constant(x)


def zeta_value(a, v=0, variant: str = "strict") -> Fraction:
    """The renormalised value zeta_variant(-a_1, ..., -a_k; v) as a Fraction."""
    return _variant_fn(variant)(_validate_args(a), as_rational(v))


def zeta_poly_in_v(a, variant: str = "strict") -> Poly:
    """The value as an exact polynomial in the Hurwitz shift v, computed by
    the same engine over Q[v] with v the polynomial variable.

    >>> zeta_poly_in_v((1,)).to_str("v")
    '-1/2*v^2 - 1/2*v - 1/12'
    """
    return _as_poly(_variant_fn(variant)(_validate_args(a), Poly.x()))


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


def verify_stuffle(max_weight: int, v=0, variant: str = "strict", max_depth: int = 3) -> Report:
    """Check zeta(u * u'; v) = zeta(u; v) zeta(u'; v) for all ordered word
    pairs with per-word depth <= max_depth and combined weight <= max_weight.

    ``strict`` uses the unsigned stuffle, ``weak`` the signed one. Each
    distinct word's value is taken from ``zeta_value`` once per pass, and
    all of them are brought over one common denominator D as numerators N.
    One :class:`words.QuasiShuffleTable` gives every pair's quasi-shuffle
    multiplicities m_x. The weak coefficient of x is m_x (-1)^(|u|+|u'|-|x|),
    so with S_x = (-1)^|x| N_x (weak) or N_x (strict) both conventions check
    sum_x m_x S_x D == S_u S_u' in integers. Failures are returned as data,
    not raised.
    """
    if variant not in ("strict", "weak"):
        raise ValueError("stuffle suite runs on the strict or weak variant")
    v = as_rational(v)
    t0 = time.monotonic()
    report = Report(suite=f"stuffle-{variant}")
    weak = variant == "weak"
    table = QuasiShuffleTable(merge=True)
    words = [(w, table.intern(w), sum(w)) for w in words_up_to(max_depth, max_weight)]
    # The relations need exactly the words of depth <= 2 max_depth and weight
    # <= max_weight: a term of u * w has at most |u| + |w| letters and the
    # weight of u and w together, and each such word is a term (multiplicity
    # >= 1, so nonzero in both sign modes) of the product of its two halves.
    values = {x: zeta_value(x, v, variant) for x in words_up_to(2 * max_depth, max_weight)}
    den = lcm(*(q.denominator for q in values.values()))
    signed = {}  # word index -> S_x
    for x, q in values.items():
        n = q.numerator * (den // q.denominator)
        signed[table.intern(x)] = -n if weak and len(x) % 2 else n
    for u, iu, weight_u in words:
        for w, iw, weight_w in words:
            if weight_u + weight_w > max_weight:
                continue
            total = 0
            for x, m in table.product(iu, iw).items():
                total += m * signed[x]
            if len(u) == len(w) == max_depth:
                table.drop(iu, iw)  # no later pair has (u, w) as a suffix pair
            if total * den == signed[iu] * signed[iw]:
                report.cases += 1
            else:
                if weak and (len(u) + len(w)) % 2:
                    total = -total
                report.record(
                    False,
                    f"{variant}: ({word_str(u)}) * ({word_str(w)}) at v={v}",
                    Fraction(total, den),
                    values[u] * values[w],
                )
    report.seconds = time.monotonic() - t0
    return report


def verify_hurwitz_identities(a, v=0, variant: str = "strict") -> Report:
    """Check the two Hurwitz-parameter identities on renormalised values:

    (i)  zeta(-a_1..-a_k; v+1) = zeta(-a_1..-a_k; v)
                                  - (v+1)^{a_k} zeta(-a_1..-a_{k-1}; v+1)
    (ii) d/dv zeta(-a_1..-a_k; v) = sum_j a_j zeta(..., -a_j+1, ...; v)
         (all a_j >= 1; derivative taken on the polynomial computed over Q[v])
    """
    a = _validate_args(a)
    if not a:
        raise ValueError("the Hurwitz identities need a nonempty word")
    v = as_rational(v)
    t0 = time.monotonic()
    report = Report(suite="hurwitz")
    lhs = zeta_value(a, v + 1, variant)
    rhs = zeta_value(a, v, variant) - (1 + v) ** a[-1] * zeta_value(a[:-1], v + 1, variant)
    report.record(lhs == rhs, f"shift identity at a={a}, v={v} ({variant})", lhs, rhs)
    if all(x >= 1 for x in a):
        poly = zeta_poly_in_v(a, variant)
        lhs = poly.derivative()(v)
        rhs = sum(
            a[j] * zeta_value(a[:j] + (a[j] - 1,) + a[j + 1 :], v, variant)
            for j in range(len(a))
        )
        report.record(
            lhs == rhs, f"derivative identity at a={a}, v={v} ({variant})", lhs, rhs
        )
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


@lru_cache(maxsize=None)
def _hdim_value(n: int, a: tuple[int, ...], v: Fraction) -> Fraction:
    shifted = sorted(_sphere_coeffs_shifted(n, v).items())
    total = Fraction(0)
    for combo in iproduct(shifted, repeat=len(a)):
        coeff = prod(c for _, c in combo)
        args = tuple(x + q for x, (q, _) in zip(a, combo))
        total += coeff * _zeta_strict(args, v)
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
    poly = _as_poly(_hdim_value(n, a, Poly.x())) if with_poly else None
    return ZetaValue(_hdim_value(n, a, v), poly)
