"""Differential tests: the nested-sum engine against a plain recursion.

The oracle below is the engine's recursion in its most literal form: slots
as Slot tuples, one germ_H call per germ index, every product formed, zero
coefficients included, and the boundary term summed straight from the germ
formula, in Fraction and Poly arithmetic. Its non-rational finite parts are
its own sentinel, whose products carry the cancellation rule. The engine
must agree with it exactly, at rational shifts and over Q[v], and its
finite part must be the NONRATIONAL marker exactly where the oracle's is
the sentinel.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta import emsum, verify
from renzeta.combinat import bernoulli, bernoulli_poly
from renzeta.emsum import (
    NONRATIONAL,
    LaurentData,
    RationalityLeak,
    nested_fp_res,
)
from renzeta.exactnum import Poly
from renzeta.verify import random_exponent_lists

_ORACLE_MEMO: dict = {}


class Slot(NamedTuple):
    """One nested-sum slot (n+v)^(b - c z); c is a positive rational."""

    b: int
    c: Fraction


class _Sentinel:
    """The oracle's non-rational finite part. A product with an exact zero
    (a rational or the zero polynomial) is exact zero; any other product
    raises RationalityLeak. The oracle only ever multiplies it."""

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            if not other:
                return Fraction(0)
            raise RationalityLeak(
                "non-rational finite part multiplied by nonzero coefficient"
            )
        if other is self:
            raise RationalityLeak("product of two non-rational finite parts")
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return "SENTINEL"


SENTINEL = _Sentinel()


def test_sentinel_rules():
    assert Fraction(0) * SENTINEL == 0
    assert SENTINEL * 0 == 0
    assert Poly.zero() * SENTINEL == 0
    for nonzero in (Fraction(1, 2), Poly.x(), Poly.constant(3), SENTINEL):
        with pytest.raises(RationalityLeak):
            nonzero * SENTINEL


class LocalGerm(NamedTuple):
    """z^{-1}, z^0, z^1 coefficients of a peeled-slot factor."""

    h_m1: Fraction
    h_0: Fraction
    h_1: Fraction


@lru_cache(maxsize=None)
def germ_H(j: int, b: int, c: Fraction) -> LocalGerm:
    """Local germ of the j-th interpolated-summation factor for the slot
    (b, c): (B_j/j!) [b - c z]_{j-1}, expanded to three coefficients at
    z = 0, one germ at a time with its own falling factorial."""
    if j == 0:
        # [beta]_{-1} = 1/(b+1-cz): simple pole iff b = -1
        if b == -1:
            return LocalGerm(-1 / c, Fraction(0), Fraction(0))
        d = Fraction(b + 1)
        return LocalGerm(Fraction(0), 1 / d, c / d**2)
    # first two coefficients of prod_i (b - i - c z), i = 0..j-2
    p0, p1 = Fraction(1), Fraction(0)
    for i in range(j - 1):
        p0, p1 = p0 * (b - i), p1 * (b - i) - c * p0
    scale = bernoulli(j) / factorial(j)
    return LocalGerm(Fraction(0), scale * p0, scale * p1)


def test_germ_oracle_examples():
    assert germ_H(0, -1, Fraction(2)) == LocalGerm(Fraction(-1, 2), 0, 0)
    assert germ_H(1, 5, Fraction(1)) == LocalGerm(0, Fraction(-1, 2), 0)
    assert germ_H(3, 0, Fraction(1)) == LocalGerm(0, 0, 0)
    assert germ_H(0, 2, Fraction(3)) == LocalGerm(0, Fraction(1, 3), Fraction(1, 3))
    # (B_2/2!)(b - cz): constant b/12, slope -c/12
    assert germ_H(2, 4, Fraction(2)) == LocalGerm(0, Fraction(1, 3), Fraction(-1, 6))


def test_germ_rows_against_oracle():
    # every row the engine builds in one pass equals the germs taken one
    # at a time as reduced integer pairs, with the same exactly-zero (None)
    # entries; the table keeps one row per slot, so the shorter truncations,
    # read second, are prefixes of the longest row. The engine's directions
    # are ints (rational ones are scaled by nested_fp_res)
    def pair(h):
        return h.as_integer_ratio() if h else None

    cs = tuple(map(Fraction, (1, 2, 3, 4, 6, 7)))
    emsum.clear_cache()
    try:
        for b in range(-45, 20):
            for c in cs:
                for two_j in (2, 4, 8, 14, 22, 30, 22, 14, 8, 4, 2):
                    want = tuple(
                        (b + 1 - j, *(pair(h) for h in germ_H(j, b, c)))
                        for j in range(two_j + 1)
                        if j <= 1 or j % 2 == 0
                    )
                    assert emsum._germ_row(b, int(c), two_j) == want
        assert len(emsum._germ_cache) == 65 * len(cs)
    finally:
        emsum.clear_cache()


@lru_cache(maxsize=None)
def boundary_k0(b, two_j, v):
    """z^0 coefficient of the peeled boundary factor for a last slot with
    b >= 0, straight from the germ formula: minus the sum over j <= two_j
    of (B_j/j!) [b]_{j-1} (1+v)^(b-j+1), where [b]_{-1} = 1/(b+1)."""
    total = -(1 + v) ** (b + 1) * Fraction(1, b + 1)
    for j in range(1, two_j + 1):
        falling = prod(b - i for i in range(j - 1))
        if falling and bernoulli(j):
            total = total - (1 + v) ** (b + 1 - j) * (bernoulli(j) * falling / factorial(j))
    return total


def oracle_nested(exps, v, bump):
    key = (exps, v, bump)
    hit = _ORACLE_MEMO.get(key)
    if hit is not None:
        return hit

    b_last, c_last = exps[-1]
    if len(exps) == 1:
        if b_last >= 0:
            fp = bernoulli_poly(b_last + 1, 1 + v) * Fraction(-1, b_last + 1)
            data = LaurentData(Fraction(0), fp)
        elif b_last == -1:
            data = LaurentData(1 / c_last, SENTINEL)
        else:
            data = LaurentData(Fraction(0), SENTINEL)
        _ORACLE_MEMO[key] = data
        return data

    b_prev, c_prev = exps[-2]
    prefix = exps[:-2]
    total = sum(max(b, 0) for b, _ in exps) + len(exps)
    two_j = 2 * (max(1, -((-total) // 2) + 1) + bump)
    fp_known = b_last >= 0

    res_total = Fraction(0)
    fp_total = Fraction(0)
    for j in range(two_j + 1):
        if j > 1 and j % 2 == 1:
            continue
        germ = germ_H(j, b_last, c_last)
        merged = Slot(b_prev + b_last + 1 - j, c_prev + c_last)
        sub = oracle_nested(prefix + (merged,), v, bump)
        res_total += germ.h_m1 * sub.fp + germ.h_0 * sub.res
        if fp_known:
            fp_total += germ.h_0 * sub.fp + germ.h_1 * sub.res

    sub_k = oracle_nested(exps[:-1], v, bump)
    if sub_k.res != 0:
        raise RationalityLeak("boundary subsum with nonnegative exponents has a pole")
    if b_last == -1:
        res_total += (1 / c_last) * sub_k.fp
    if fp_known:
        fp_total += boundary_k0(b_last, two_j, v) * sub_k.fp
    if b_last >= 0 and res_total != 0:
        raise RationalityLeak(f"nonnegative last exponent has residue {res_total}")
    data = LaurentData(res_total, fp_total if fp_known else SENTINEL)
    _ORACLE_MEMO[key] = data
    return data


def oracle_fp_res(exponents, v, bump=0):
    """The oracle at a rational shift v, or over Q[v] at v = Poly.x()."""
    exps = tuple(Slot(b, Fraction(c)) for b, c in exponents)
    return oracle_nested(exps, v if isinstance(v, Poly) else Fraction(v), bump)


def assert_agrees(exps, v, bump):
    got = nested_fp_res(exps, v, j_bump=bump)
    want = oracle_fp_res(exps, v, bump)
    assert got.res == want.res, (exps, v, bump)
    if want.fp is SENTINEL:
        assert got.fp is NONRATIONAL, (exps, v, bump)
    else:
        assert got.fp == want.fp, (exps, v, bump)


def test_robustness_lists_all_bumps():
    for exps, v in random_exponent_lists(200, seed=verify.ENGINE_SEED):
        for shift in (v, Poly.x()):
            for bump in (0, 1, 2):
                assert_agrees(exps, shift, bump)


def reach(exps) -> int:
    """B + sum of the earlier slots' b + their number: no exponent the
    recursion merges into the last slot (B, C) ever exceeds it."""
    return sum(b for b, _ in exps) + len(exps) - 1


def assert_reach_lemma(states) -> int:
    """Every oracle state (key, data) of reach below -1 has residue 0 and a
    non-rational finite part. Returns how many states of reach exactly -1
    have a nonzero residue."""
    at_bound = 0
    for (exps, _, _), data in states:
        r = reach(exps)
        if r < -1:
            assert data.res == 0 and data.fp is SENTINEL, exps
        elif r == -1 and data.res != 0:
            at_bound += 1
    return at_bound


def test_reach_lemma_on_robustness_lists():
    # the engine never peels into a state of reach below -1; the oracle
    # visits them all, and each is (0, SENTINEL). The bound is tight:
    # states of reach exactly -1 can have a pole, so a cutoff at reach < 0
    # is wrong
    for exps, v in random_exponent_lists(200, seed=verify.ENGINE_SEED):
        for shift in (v, Poly.x()):
            for bump in (0, 1, 2):
                oracle_fp_res(exps, shift, bump)
    assert assert_reach_lemma(_ORACLE_MEMO.items()) > 0


_C = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
_V = st.fractions(min_value=Fraction(-5, 6), max_value=2, max_denominator=6)


@st.composite
def exponent_lists(draw):
    depth = draw(st.integers(1, 4))
    exps = [(draw(st.integers(0, 3)), draw(_C)) for _ in range(depth - 1)]
    exps.append((draw(st.integers(-4, 3)), draw(_C)))
    return tuple(exps)


@settings(max_examples=60, deadline=None)
@given(exponent_lists(), _V)
def test_drawn_lists(exps, v):
    start = len(_ORACLE_MEMO)
    for shift in (v, Poly.x()):
        assert_agrees(exps, shift, 0)
    assert_reach_lemma(islice(_ORACLE_MEMO.items(), start, None))


def test_boundary_from_germ_row():
    # the peel's boundary factor is the last slot's depth-1 data: the germ
    # sum above equals the oracle's depth-1 finite part -B_{b+1}(1+v)/(b+1)
    # at every truncation that reaches j = b + 1 (h_0 vanishes past it),
    # and every truncation the engine peels a slot of exponent b at does.
    # A rational direction reaches the engine scaled to an int, so it is
    # checked through nested_fp_res
    cs = (Fraction(1), Fraction(3), Fraction(3, 2), Fraction(1, 3))
    shifts = (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Poly.x())
    for b in range(-3, 22):
        engine_j_max = max(b + 2, 0)  # the reach of the state (0, b), plus 1
        assert engine_j_max >= b + 1
        for c in cs:
            for v in shifts:
                if c.denominator == 1:
                    w, _ = emsum._head(v, 0, emsum._SLOTS)
                    got = emsum._to_laurent(emsum._depth1(b, int(c), w), v)
                else:
                    got = nested_fp_res([(b, c)], v)
                want = oracle_fp_res([(b, c)], v)
                assert got.res == want.res, (b, c, v)
                if b < 0:
                    assert got.fp is NONRATIONAL and want.fp is SENTINEL
                    continue
                assert got.fp == want.fp
                for two_j in (b + 1, b + 2, b + 5, b + 8, 2 * b + 3, engine_j_max):
                    assert got.fp == boundary_k0(b, two_j, v), (b, c, two_j, v)


def test_brute_oracle_refuses_non_int_exponents():
    assert verify.brute_truncated_nested_sum((1, 0), 0, 3) == 8
    for bs in ((1.5,), (1, 2.0), (Fraction(1),)):
        with pytest.raises(ValueError, match="of type int"):
            verify.brute_truncated_nested_sum(bs, 0, 3)
