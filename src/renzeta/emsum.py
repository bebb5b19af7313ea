"""Exact (residue, finite-part) data at z = 0 for cut-off nested sums

    sum_{1 <= n_l < ... < n_1} (n_1+v)^(b_1 - c_1 z) ... (n_l+v)^(b_l - c_l z)

computed by a depth recursion: the innermost sum is replaced by its
interpolated summation expansion, which peels the last slot into a family of
local germs (B_j/j!) [b - c z]_{j-1}, three Laurent coefficients each,
against depth-(l-1) sums. The engine reads germs only as a whole row, j = 0
.. 2J for one slot, and keeps one table of such rows, each built in one pass
over j.

Peeling merges the last slot into the one before it and never touches the
earlier slots. So the same peel step also evaluates a weighted sum of nested
sums at once when the weights factor slot by slot: a state is a prefix
together with its last slot, and the sum over the prefix's slot structures
is carried inside the recursion. Two slot menus use this:

* ``nested_fp_res`` -- one nested sum, each slot given with its own c and
  weight 1;
* ``strict_fp_res`` -- the twisted-regularisation expansion of a word (the
  strict renormalised value): a slot of L consecutive letters carries
  multiplicity c in 1..L with weight s(L, c)/L! (Hoffman's log followed by
  his exp), and the multiplicities of a slot are pre-summed in a state of
  their own.

The regularisation direction gamma(z) = z is hard-wired: the residue and
finite part used here depend only on gamma'(0) = 1.

Two structural facts are enforced at runtime rather than assumed:

* holomorphy -- whenever the last exponent is a nonnegative integer the
  residue must vanish and the finite part must be rational, and the
  boundary subsum (every exponent nonnegative) must be pole-free;
* the cancellation argument -- a non-rational finite part may only ever be
  multiplied by an exactly-zero coefficient. The NONRATIONAL sentinel raises
  :class:`RationalityLeak` if anything else touches it. The engine skips
  every product whose coefficient is exactly zero (a zero germ entry, or
  the residue of a pole-free subsum), which is exactly the Fraction(0) the
  sentinel would have returned; every nonzero coefficient still meets the
  sentinel. Slot weights only ever multiply residues, and finite parts
  whose last exponent is nonnegative.

The engine is generic over its coefficient ring: it depends on v only
through B_{b+1}(1+v) and powers of (1+v), so the same recursion runs with v
a rational (values in Q) or with v the polynomial variable ``Poly.x()``
(values in Q[v], the Hurwitz polynomial itself).
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

from .combinat import bernoulli, bernoulli_poly, stirling1
from .exactnum import Poly, as_rational


class StructuralViolation(ValueError):
    """An exponent list breaks the recursion's structural invariant
    (a slot other than the last has negative b, or c <= 0, or v <= -1)."""


class RationalityLeak(ArithmeticError):
    """A NONRATIONAL finite part was about to enter a result through a
    provably nonzero coefficient. Must never fire."""


class _NonRational:
    """Absorbing sentinel for finite parts that are not rational numbers.

    Addition absorbs; multiplication by exact zero (a rational or the zero
    polynomial) gives exact zero, anything else raises RationalityLeak.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)) or other is self:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("NONRATIONAL")

    def __repr__(self):
        return "NONRATIONAL"


#: Finite parts that exist but are not rational numbers (last exponent <= -1).
NONRATIONAL = _NonRational()


class AffineExponent(NamedTuple):
    """One nested-sum slot (n+v)^(b - c z); c must be a positive rational."""

    b: int
    c: Fraction


class LaurentData(NamedTuple):
    """The z^{-1} and z^0 coefficients of a nested sum at z = 0."""

    res: object  # Fraction, or Poly over Q[v]
    fp: object  # Fraction, Poly or NONRATIONAL


_ZERO = Fraction(0)


def _germ_pairs(bs) -> int:
    """Germ truncation J for a list of slot exponents b_i: germs run
    j = 0 .. 2J. Chosen so that every merged exponent the recursion can
    request is covered, with one unit of safety margin."""
    total = sum(max(b, 0) for b in bs) + len(bs)
    return max(1, -((-total) // 2) + 1)


def _flatten(exponents) -> tuple:
    """Validate an exponent list and return it in the engine's flat form
    (b_1, c_1 numerator, c_1 denominator, ..., b_l, c_l numerator, c_l
    denominator)."""
    flat = []
    for b, c in exponents:
        if b != int(b):
            raise StructuralViolation(f"exponent b must be an integer, got {b!r}")
        if type(c) is not int:  # an int c already has numerator and denominator
            c = as_rational(c)
        if c <= 0:
            raise StructuralViolation(f"perturbation coefficient must be > 0, got {c}")
        flat += (int(b), c.numerator, c.denominator)
    return tuple(flat)


_germ_cache: dict = {}


def _germ_row(b: int, c_num: int, c_den: int, two_j: int) -> tuple:
    """The local germs (B_j/j!) [b - c z]_{j-1} of the last slot (b, c) with
    c = c_num/c_den, for j = 0 .. two_j (odd j > 1 left out: their Bernoulli
    numbers vanish), each expanded to three coefficients at z = 0 and stored
    as (b + 1 - j, h_m1, h_0, h_1). A merged slot's b is the previous slot's
    b plus that shift. A coefficient that is exactly zero is stored as None.

    [b - c z]_{-1} = 1/(b + 1 - c z) has a simple pole iff b = -1. For j >= 1
    the row is built in one pass: the two leading coefficients p0 and
    p1/c_den of the falling factorial prod_{i < j-1} (b - i - c z) are
    carried from j to j + 1 as the integers p0, p1.
    """
    key = (b, c_num, c_den, two_j)
    row = _germ_cache.get(key)
    if row is not None:
        return row
    c = Fraction(c_num, c_den)
    if b == -1:
        out = [(0, -1 / c, None, None)]
    else:
        d = Fraction(b + 1)
        out = [(b + 1, None, 1 / d, c / d**2)]
    p0, p1, fact = 1, 0, 1
    for j in range(1, two_j + 1):
        fact *= j
        if j == 1 or j % 2 == 0:
            bn, bd = bernoulli(j).as_integer_ratio()
            h_0 = Fraction(bn * p0, bd * fact) if p0 else None
            h_1 = Fraction(bn * p1, bd * fact * c_den) if p1 else None
            out.append((b + 1 - j, None, h_0, h_1))
        p1 = p1 * (b + 1 - j) - c_num * p0
        p0 *= b + 1 - j
    row = _germ_cache[key] = tuple(out)
    return row


_boundary_cache: dict = {}


def _boundary_k0(b: int, two_j: int, row: tuple, v):
    """z^0 coefficient of the peeled boundary factor for a last slot with
    b >= 0: minus the sum of h_0 (1+v)^shift over the slot's germ row. A germ
    with h_0 != 0 has j - 1 <= b, so its shift b + 1 - j is never negative."""
    key = (b, two_j, v)
    hit = _boundary_cache.get(key)
    if hit is None:
        base = 1 + v
        hit = -sum(h_0 * base**shift for shift, _, h_0, _ in row if h_0 is not None)
        _boundary_cache[key] = hit
    return hit


_cache: dict = {}
_cache_limit = int(os.environ.get("MZV_CACHE_SIZE", "0") or "0")


def set_cache_limit(n: int) -> None:
    """Cap the engine memo at n entries (0 = unlimited)."""
    global _cache_limit
    _cache_limit = n


def clear_cache() -> None:
    """Empty every engine table: states, germ rows, boundary terms."""
    _cache.clear()
    _germ_cache.clear()
    _boundary_cache.clear()


def _memoize(key, value: LaurentData) -> LaurentData:
    if _cache_limit and len(_cache) >= _cache_limit:
        _cache.pop(next(iter(_cache)))
    _cache[key] = value
    return value


def _head(v, j_bump: int, menu: int):
    """Validate the shift v and return it with the part of the memo key
    shared by a whole recursion: (menu, j_bump, key of v)."""
    if isinstance(v, Poly):
        if v != Poly.x():
            raise StructuralViolation(f"a polynomial shift must be v itself, got {v}")
        return v, (menu, j_bump, 0, 0)  # no rational shift has denominator 0
    v = as_rational(v)
    if v <= -1:
        raise StructuralViolation(f"Hurwitz shift must satisfy v > -1, got {v}")
    return v, (menu, j_bump, v.numerator, v.denominator)


def _check_depth(depth: int) -> None:
    """The recursion descends one interpreter frame per slot, after it has
    computed the germs of its top state, which need Bernoulli numbers up to
    about the depth. Refuse at once a depth sure to overflow the
    interpreter's recursion limit instead of after that work."""
    limit = sys.getrecursionlimit()
    if depth >= limit:
        raise RecursionError(
            f"depth {depth} needs more nested calls than the recursion limit {limit}"
        )


#: Slot menus, the first entry of a memo key: every slot given with its own
#: c and weight 1, or the twisted-regularisation slot structures of a word.
_SLOTS, _WORD = 0, 1


def nested_fp_res(exponents, v, j_bump: int = 0) -> LaurentData:
    """Residue and finite part at z = 0 of the depth-l cut-off nested sum.

    All slots but the last must have b >= 0. v is a rational > -1, or the
    polynomial variable ``Poly.x()``: then the residue and the finite part
    come out as polynomials in v (a constant may stay a Fraction).
    ``j_bump`` widens every germ truncation by that amount (the result must
    not depend on it; the robustness suite checks this).

    >>> nested_fp_res([(1, 1)], 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(-1, 12))
    >>> nested_fp_res([(0, 1), (0, 1)], 0).fp
    Fraction(3, 8)
    >>> nested_fp_res([(1, 1)], Poly.x()).fp.to_str("v")
    '-1/2*v^2 - 1/2*v - 1/12'
    """
    exps = _flatten(exponents)
    if not exps:
        raise StructuralViolation("empty exponent list")
    v, head = _head(v, j_bump, _SLOTS)
    _check_depth(len(exps) // 3)
    for b in exps[:-3:3]:
        if b < 0:
            raise StructuralViolation(
                f"non-last slot with negative exponent {b}: the recursion only "
                "peels the deepest slot"
            )
    return _nested(exps, v, head)


def strict_fp_res(word, v) -> LaurentData:
    """Residue and finite part at z = 0 of the twisted-regularisation
    expansion of the word (a_1, ..., a_k): the sum over every way of cutting
    the word into consecutive slots, a slot of L letters with exponent their
    sum, multiplicity c in 1..L and weight s(L, c)/L!, of the nested sum of
    those slots. Its finite part is the strict renormalised value
    zeta(-a_1, ..., -a_k; v), its residue is zero.

    >>> strict_fp_res((0, 0), 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(3, 8))
    """
    word = tuple(word)
    if not word or any(type(a) is not int or a < 0 for a in word):
        raise StructuralViolation(f"a word needs one or more letters a_i >= 0, got {word}")
    v, head = _head(v, 0, _WORD)
    _check_depth(len(word))
    return _boundary(word, v, head)


@lru_cache(maxsize=None)
def _slot_weights(length: int) -> tuple:
    """(c, s(L, c)/L!) for c = 1..L: the multiplicities and weights of one
    slot of L letters in the twisted-regularisation expansion."""
    return tuple(
        (c, Fraction(stirling1(length, c), factorial(length))) for c in range(1, length + 1)
    )


def _last_slots(word: tuple, cn: int, cd: int):
    """(letters before the slot, slot exponent, rest of the state key) for
    every last slot word[k-L:] of a word of length k, each to be merged with
    a slot of multiplicity cn/cd. A one-letter slot has the single
    multiplicity 1, of weight 1, so its state is the plain slot state; a
    longer one is a presum state."""
    cut = len(word) - 1
    b = word[cut]
    yield word[:cut], b, (cn + cd, cd)
    for cut in range(cut - 1, -1, -1):
        b += word[cut]
        yield word[:cut], b, (cn, cd, cut - len(word))


def _boundary(prefix: tuple, v, head: tuple) -> LaurentData:
    """The boundary subsum of a state whose slots before the last are
    ``prefix``: that nested sum itself under the fixed menu, and under the
    word menu the weighted sum over the slot structures of the word."""
    if not head[0]:
        return _nested(prefix, v, head)
    res_total = fp_total = _ZERO
    for stem, b, tail in _last_slots(prefix, 0, 1):
        res, fp = _nested(stem + (b,) + tail, v, head)
        if res:
            res_total += res
        fp_total = fp if fp_total is _ZERO else fp_total + fp
    return LaurentData(res_total, fp_total)


def _nested(exps: tuple, v, head: tuple) -> LaurentData:
    """The engine state ``exps``; ``head`` = (menu, j_bump, key of v) is the
    part of the memo key shared by the whole recursion. Every entry is an
    integer, and a slot is (b, c numerator, c denominator).

    Under the fixed menu ``exps`` = (b_1, c_1 num, c_1 den, ..., b_l, c_l
    num, c_l den) is one nested sum. Under the word menu ``exps`` = (a_1, ...,
    a_m, b, c num, c den) is the weighted sum over the slot structures of the
    prefix word a_1..a_m of their nested sums followed by the slot (b, c),
    and (a_1, ..., a_m, b, c num, c den, -L) is the weighted sum over the
    multiplicities c' of an L-letter slot (b, c + c') after that prefix.
    """
    key = head + exps
    hit = _cache.get(key)
    if hit is not None:
        return hit

    if exps[-1] < 0:
        return _memoize(key, _presum(exps, v, head))
    b_last, cn_last, cd_last = exps[-3:]
    if len(exps) == 3:
        if b_last >= 0:
            fp = bernoulli_poly(b_last + 1, 1 + v) * Fraction(-1, b_last + 1)
            data = LaurentData(_ZERO, fp)
        elif b_last == -1:
            data = LaurentData(Fraction(cd_last, cn_last), NONRATIONAL)
        else:
            data = LaurentData(_ZERO, NONRATIONAL)
        return _memoize(key, data)

    prefix = exps[:-3]
    if head[0]:
        # every last slot of the prefix word; the letters are the slot
        # exponents of the structure with one slot per letter, the most
        # slots any structure has, so they set the truncation
        bs = prefix + (b_last,)
        slots = _last_slots(prefix, cn_last, cd_last)
    else:
        bs = exps[::3]
        b_prev, cn_prev, cd_prev = prefix[-3:]
        num = cn_prev * cd_last + cn_last * cd_prev
        den = cd_prev * cd_last
        g = gcd(num, den)
        slots = ((prefix[:-3], b_prev, (num // g, den // g)),)
    two_j = 2 * (_germ_pairs(bs) + head[1])
    fp_known = b_last >= 0

    res_total = _ZERO
    fp_total = _ZERO
    row = _germ_row(b_last, cn_last, cd_last, two_j)
    # a None coefficient is exactly zero and a zero residue is skipped: the
    # products they would give are exactly zero, NONRATIONAL ones included
    for stem, b_slot, tail in slots:
        for shift, h_m1, h_0, h_1 in row:
            res, fp = _nested(stem + (b_slot + shift,) + tail, v, head)
            if h_m1 is not None:
                res_total += h_m1 * fp
            if res:
                if h_0 is not None:
                    res_total += h_0 * res
                if fp_known and h_1 is not None:
                    fp_total += h_1 * res
            if fp_known and h_0 is not None:
                fp_total += h_0 * fp

    sub_res, sub_fp = _boundary(prefix, v, head)
    # every slot of the boundary subsum has b >= 0, so it is pole-free; its
    # residue is the only partner the dropped z^1 boundary pieces ever meet
    if sub_res != 0:
        raise RationalityLeak("boundary subsum with nonnegative exponents has a pole")
    if b_last == -1:
        res_total += Fraction(cd_last, cn_last) * sub_fp
    if fp_known:
        fp_total += _boundary_k0(b_last, two_j, row, v) * sub_fp

    if b_last >= 0 and res_total != 0:
        raise RationalityLeak(
            f"nested sum with nonnegative last exponent has residue {res_total}"
        )
    data = LaurentData(res_total, fp_total if fp_known else NONRATIONAL)
    return _memoize(key, data)


def _presum(exps: tuple, v, head: tuple) -> LaurentData:
    """The presum state (stem, b, c num, c den, -L): the weighted sum over
    c' = 1..L of the states (stem, b, c + c'). With b < 0 every finite part
    is NONRATIONAL, so the weights act on the residues only."""
    stem = exps[:-4]
    b, cn, cd, neg_length = exps[-4:]
    res_total = fp_total = _ZERO
    for c, weight in _slot_weights(-neg_length):
        # c + cn/cd stays in lowest terms
        res, fp = _nested(stem + (b, cn + c * cd, cd), v, head)
        if res:
            res_total += weight * res
        if b >= 0:
            fp_total += weight * fp
    return LaurentData(res_total, fp_total if b >= 0 else NONRATIONAL)


_C_PALETTE = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(1, 3),
)


def random_exponent_lists(count: int, seed: int, max_depth: int = 4, max_abs_b: int = 4):
    """Deterministic pseudo-random exponent lists satisfying the structural
    invariant, for robustness suites. Returns [(exponents, v), ...]."""
    rng = random.Random(seed)
    out = []
    v_choices = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
    for _ in range(count):
        depth = rng.randint(1, max_depth)
        exps = []
        for i in range(depth):
            lo = -max_abs_b if i == depth - 1 else 0
            exps.append((rng.randint(lo, max_abs_b), rng.choice(_C_PALETTE)))
        out.append((tuple(exps), rng.choice(v_choices)))
    return out
