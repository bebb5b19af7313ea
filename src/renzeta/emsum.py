"""Exact (residue, finite-part) data at z = 0 for cut-off nested sums

    sum_{1 <= n_l < ... < n_1} (n_1+v)^(b_1 - c_1 z) ... (n_l+v)^(b_l - c_l z)

computed by a depth recursion: the innermost sum is replaced by its
interpolated summation expansion, which peels the last slot into a family of
local germs (B_j/j!) [b - c z]_{j-1}, three Laurent coefficients each,
against depth-(l-1) sums. The engine reads germs only as a whole row, j = 0
.. R + 1 for the last slot of a state of reach R (below). It keeps one row
per slot, the longest one requested, built in one pass over j.

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
  his exp). A word-menu state has one of three key shapes: a slot state
  (the prefix word, then the last slot), a presum state (the multiplicities
  of a slot pre-summed) and a prefix-sum state (the word alone, every slot
  structure summed). The prefix-sum state of a word is its value and the
  boundary subsum (below) of every state after it, computed once.

``weak_fp_res`` sums the prefix-sum states of a word's 2^(k-1)
contractions, each distinct one once with its multiplicity: the weak value,
from exactly the states their strict values create. Both word entries, and
``mzv`` on a value-memo miss, go through :func:`_word_total`.

Every state is computed by one call of :func:`_nested`, through the module
global, and kept in the memo ``_cache`` under the recursion's head and the
state. Every caller (the entries ``nested_fp_res`` and :func:`_word_total`,
the peel loop, the boundary read and :func:`_weighted_sum`) reads a state
from the memo first and calls :func:`_nested` only on a miss, so a
recursion makes one call per state it creates and none for a state it
reads.

The regularisation direction gamma(z) = z is hard-wired: the residue and
finite part used here depend only on gamma'(0) = 1. Scaling every c_i by
one L > 0 is z -> Lz, which keeps the finite part and divides the residue
by L. So every direction in the engine is a positive int: ``nested_fp_res``
multiplies its c_i once by the lcm L of their denominators, and its residue
by L. A slot is the pair (b, c).

Two structural facts are enforced at runtime rather than assumed:

* holomorphy -- whenever the last exponent is a nonnegative integer the
  residue must vanish and the finite part must be rational, and the
  boundary subsum (every exponent nonnegative) must be pole-free;
* the cancellation argument -- a non-rational finite part may only ever be
  multiplied by an exactly-zero coefficient. The NONRATIONAL marker stands
  for such a finite part in the memo; it has no arithmetic. The engine
  drops every product whose coefficient is exactly zero (a zero germ entry,
  or the residue of a pole-free subsum), and every other coefficient
  reaches the kernel, which raises :class:`RationalityLeak` if it meets the
  marker. Slot weights only ever multiply residues, and finite parts whose
  last exponent is nonnegative.

A third structural fact bounds the work. The reach of a state with last
slot (B, C) after the exponents b_1, ..., b_m (the prefix letters under the
word menu, the prefix slots under the fixed menu) is R = B + b_1 + ... +
b_m + m. Each merge adds some b_i + 1 - j with j >= 0 to the last exponent,
so no exponent the recursion can merge into the last slot exceeds R. If
R < -1, no germ has a z^{-1} term and no depth-1 state has b = -1, so the
residue is exactly 0; and B <= R < 0 makes the finite part NONRATIONAL.
Such a state contributes nothing, and the peel never creates it: peeling
a slot of L letters at germ j gives a child of reach R - j + 1 - L, which
falls along the row, so each row is read only up to its first child of
reach below -1. A one-letter slot meets that child at j = R + 2, so the
row runs to j = R + 1: its length is set by the reach. The j = 0 germ, the
only one with a z^{-1} term, is never cut when it has one, and with B >= 0
no germ with a nonzero z^0 term is cut, so every state that is computed
still meets every check above. Of the states that unbounded rows would
create, the engine computes exactly those of reach >= -1 (and the top
state, whatever its reach). ``j_bump`` lengthens every row by 2 j_bump
germ indices and lowers that floor by as much, so the peel also computes
the children of reach down to -1 - 2 j_bump: each is (0, NONRATIONAL) and
meets only exactly-zero coefficients, so the values must not change.

A fourth structural fact gives the boundary term of a peel. Besides the
germ products, peeling the last slot (b, c) leaves the boundary subsum (the
earlier slots alone) times a factor with residue 1/c at b = -1 and 0
otherwise, and, for b >= 0, finite part minus the sum of h_0 (1+v)^(b+1-j)
over the germ row. Since h_0 = C(b+1, j) B_j/(b+1) for j <= b + 1 and 0
beyond, and every row the engine peels at reaches j = b + 1 (it runs to
j = R + 1 and R > b), that finite part is -B_{b+1}(1+v)/(b+1). So the
factor is the depth-1 value of the last slot, and one function
(:func:`_depth1`) gives both the depth-1 states and every boundary factor.
The boundary subsum is a state: the prefix itself under the fixed menu,
and under the word menu the prefix-sum state of the prefix word.

The engine computes in one of three rings, with one arithmetic:

* Q -- v one rational;
* lanes -- v a tuple of S rationals (v_1, ..., v_S), each a lane: one
  recursion computes the value at every shift at once, since the states,
  germ rows, reaches and floors do not depend on v;
* Q[v] -- v the polynomial variable ``Poly.x()``, values the Hurwitz
  polynomials themselves.

Q is the one-lane case of lanes. The engine depends on v only through
B_{b+1}(1+v), which every ring expands the same way in powers of v
(:func:`_depth1`). Every value it stores is integer numerators over one
shared denominator, (D, (n_1, ..., n_S)): lane s holds n_s/D; over Q[v]
the same shape (D, (n_0, ..., n_d)) is sum_k n_k v^k / D. Trailing zero
numerators are dropped, so () is zero in every ring. Only two things tell
the rings apart: the product :func:`_times` (lane by lane, or a
convolution over Q[v]) and the units (1 in each of S lanes, or the
constant 1). A state's residue and finite part each come from one call of
the kernel :func:`_combine`, a linear combination of such values with
integer-pair coefficients p/q: one lcm, integer multiply-adds and one gcd.
The kernel is linear, so it serves every ring unchanged. It drops each
term whose value is exactly zero before the lcm (never the NONRATIONAL
marker, which still raises), and when every value left has one entry, as
at every single rational shift, it sums into one integer. Germ entries and
slot weights are stored as those integer pairs. Values become ``Fraction``
(one per lane for a tuple of shifts) or ``Poly`` only where
``nested_fp_res``, ``strict_fp_res`` and ``weak_fp_res`` return them, and
where ``mzv`` reads the finite part of a :func:`_word_total`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

from .combinat import bernoulli, check_recursion_depth, stirling1
from .exactnum import Poly, as_rational


class StructuralViolation(ValueError):
    """An exponent list breaks the recursion's structural invariant
    (a b not of type int, a slot other than the last has negative b, a c
    that is a bool or <= 0, a shift v <= -1, or an empty tuple of shifts)."""


class RationalityLeak(ArithmeticError):
    """A NONRATIONAL finite part was about to enter a result through a
    provably nonzero coefficient. Must never fire."""


class _NonRational:
    """Marker for finite parts that are not rational numbers. It has no
    arithmetic: the kernel :func:`_combine` raises RationalityLeak when it
    meets one, and any other arithmetic on it raises TypeError."""

    __slots__ = ()

    def __repr__(self):
        return "NONRATIONAL"


#: Finite parts that exist but are not rational numbers (last exponent <= -1).
NONRATIONAL = _NonRational()


class LaurentData(NamedTuple):
    """The z^{-1} and z^0 coefficients of a nested sum at z = 0."""

    res: object  # Fraction, a tuple of them (one per shift), or Poly over Q[v]
    fp: object  # the same, or NONRATIONAL


#: The engine value zero, and the kernel coefficient 1/1.
_ZERO = (1, ())
_UNIT = (1, 1)


def _combine(terms) -> tuple:
    """The kernel: sum_i (p_i/q_i) x_i over the terms ((p_i, q_i), x_i), each
    x_i an engine value (D, (n_0, ..., n_d)), returned reduced: one lcm of
    the denominators q_i D_i, integer multiply-adds and one gcd. It is
    linear, so it reads (D, (n_0, ..., n_d)) as sum_k n_k v^k / D or as the
    lanes n_0/D, ..., n_d/D alike. Values of different length mix freely.
    Every coefficient is nonzero (the engine drops exact zeros first), so
    an x_i that is NONRATIONAL raises RationalityLeak, whatever the other
    terms are. A term whose value is exactly zero adds nothing and is
    dropped before the lcm; when every value left has one entry (every
    single rational shift) the sum is one integer accumulator.

    (1 + 2v)/6 - v^2/3 + 1/6 + 5 * 0, reduced to (1 + v - v^2)/3; then
    2 * 1/3 - 2/3, which cancels, and 1/2 + 1/6 + 3 * 0 = 2/3:

    >>> _combine([((1, 2), (3, (1, 2))), ((-1, 3), (1, (0, 0, 1))),
    ...           ((1, 6), (1, (1,))), ((5, 1), _ZERO)])
    (3, (1, 1, -1))
    >>> _combine([((2, 1), (3, (1,))), ((-1, 3), (1, (2,)))])
    (1, ())
    >>> _combine([((1, 2), (1, (1,))), ((1, 6), (1, (1,))), ((3, 1), _ZERO)])
    (3, (2,))
    >>> _combine([((1, 2), NONRATIONAL)])
    Traceback (most recent call last):
    ...
    renzeta.emsum.RationalityLeak: non-rational finite part multiplied by nonzero coefficient
    """
    live = []
    size = 0
    for term in terms:
        x = term[1]
        if x is NONRATIONAL:
            raise RationalityLeak("non-rational finite part multiplied by nonzero coefficient")
        if x[1]:
            live.append(term)
            if len(x[1]) > size:
                size = len(x[1])
    if not live:
        return _ZERO
    den = lcm(*[q * x[0] for (_, q), x in live])
    if size == 1:
        acc = 0
        for (p, q), (d, (n,)) in live:
            acc += p * (den // (q * d)) * n
        if not acc:
            return _ZERO
        g = gcd(den, acc)
        return den // g, (acc // g,)
    acc = [0] * size
    for (p, q), (d, nums) in live:
        f = p * (den // (q * d))
        for k, n in enumerate(nums):
            acc[k] += f * n
    while acc and not acc[-1]:
        acc.pop()
    if not acc:
        return _ZERO
    g = gcd(den, *acc)
    return den // g, tuple(n // g for n in acc)


def _times(x: tuple, y: tuple, lanes: int) -> tuple:
    """The product of two engine values, not reduced (the kernel reduces):
    lane by lane when ``lanes`` >= 1, ``zip`` dropping the lanes past the
    shorter value's end (they are zero), or a convolution over Q[v]
    (``lanes`` = 0)."""
    (dx, xs), (dy, ys) = x, y
    if not xs or not ys:
        return _ZERO
    if lanes:
        return dx * dy, tuple([a * b for a, b in zip(xs, ys)])
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:  # a power v^i of _powers is one nonzero numerator
            for k, b in enumerate(ys):
                out[i + k] += a * b
    return dx * dy, tuple(out)


class _Ring(NamedTuple):
    """The ring of one recursion: ``lanes`` rational shifts (S >= 1), or
    Q[v] (``lanes`` = 0); its unit ``one``; and the shift ``v`` as an
    engine value."""

    lanes: int
    one: tuple
    v: tuple


_QV = _Ring(0, (1, (1,)), (1, (0, 1)))


def _powers(ring: _Ring, n: int) -> list:
    """[v^0, ..., v^n] for the shift v of the ring."""
    out = [ring.one]
    for _ in range(n):
        out.append(_times(out[-1], ring.v, ring.lanes))
    return out


def _pair(num: int, den: int) -> tuple:
    """num/den as a reduced integer pair with a positive denominator, or
    None when it is zero."""
    if not num:
        return None
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _value(x: tuple, v):
    """The engine value x in the shape of the shift v: a Poly when v =
    ``Poly.x()``, one Fraction per lane when v is a tuple of shifts, and
    one Fraction when v is one shift."""
    den, nums = x
    if isinstance(v, Poly):
        return Poly(tuple(Fraction(n, den) for n in nums))
    if type(v) is tuple:
        return tuple([Fraction(n, den) for n in nums] + [Fraction(0)] * (len(v) - len(nums)))
    return Fraction(nums[0], den) if nums else Fraction(0)


def _to_laurent(data: tuple, v) -> LaurentData:
    """A memo entry as LaurentData in the shape of the shift v."""
    res, fp = data
    return LaurentData(_value(res, v), fp if fp is NONRATIONAL else _value(fp, v))


def _flatten(exponents) -> tuple:
    """Validate an exponent list and return it in the engine's flat form
    (b_1, L c_1, ..., b_l, L c_l), together with the lcm L of the c_i's
    denominators: every direction becomes a positive int."""
    slots = []
    for b, c in exponents:
        if type(b) is not int:
            raise StructuralViolation(f"exponent b must be of type int, got {b!r}")
        if type(c) is bool:
            raise StructuralViolation(f"perturbation coefficient must be a rational, got {c!r}")
        if type(c) is not int:  # an int c already has numerator and denominator
            c = as_rational(c)
        if c <= 0:
            raise StructuralViolation(f"perturbation coefficient must be > 0, got {c}")
        slots.append((b, c))
    scale = lcm(*(c.denominator for _, c in slots))
    return tuple(x for b, c in slots for x in (b, c.numerator * (scale // c.denominator))), scale


_germ_cache: dict = {}


def _germ_row(b: int, c: int, j_max: int) -> tuple:
    """The local germs (B_j/j!) [b - c z]_{j-1} of the last slot (b, c), for
    j = 0 .. j_max (odd j > 1 left out: their Bernoulli numbers vanish), each
    expanded to three coefficients at z = 0 and stored as (b + 1 - j, h_m1,
    h_0, h_1). A merged slot's b is the previous slot's b plus that shift. A
    coefficient is a reduced integer pair (p, q) with q > 0, or None when it
    is exactly zero.

    The table keeps one row per slot, the longest one requested, and this
    returns its prefix up to j = j_max.

    [b - c z]_{-1} = 1/(b + 1 - c z) has a simple pole iff b = -1. For j >= 1
    the row is built in one pass: the two leading coefficients p0 and p1
    of the falling factorial prod_{i < j-1} (b - i - c z) are carried from
    j to j + 1 as integers.
    """
    size = j_max // 2 + 2  # j = 0, 1, 2, 4, ..., j_max
    row = _germ_cache.get((b, c))
    if row is not None and len(row) >= size:
        return row[:size]
    if b == -1:
        out = [(0, (-1, c), None, None)]
    else:
        out = [(b + 1, None, _pair(1, b + 1), _pair(c, (b + 1) ** 2))]
    p0, p1, fact = 1, 0, 1
    for j in range(1, j_max + 1):
        fact *= j
        if j == 1 or j % 2 == 0:
            bn, bd = bernoulli(j).as_integer_ratio()
            out.append((b + 1 - j, None, _pair(bn * p0, bd * fact), _pair(bn * p1, bd * fact)))
        p1 = p1 * (b + 1 - j) - c * p0
        p0 *= b + 1 - j
    row = _germ_cache[(b, c)] = tuple(out)
    return row


_boundary_cache: dict = {}


def _depth1(b: int, c: int, ring: _Ring) -> tuple:
    """The depth-1 data (residue, finite part) of the slot (b, c) in the
    ring of the recursion: residue 1/c at b = -1 and 0 otherwise; finite
    part -B_{b+1}(1+v)/(b+1) when b >= 0 and NONRATIONAL otherwise. The
    finite part does not depend on c and is kept under (b, ring).

    Every ring expands B_k(1+v) in powers of v, so a Q[v] value costs
    O(k^2) integer operations (powers of 1 + v cost O(k^3)), and at v = 0
    only one term is left. The terms go to the kernel highest power first:
    over Q[v] a power v^i is i zeros and a 1, and each zero then meets a
    numerator the kernel has not filled yet."""
    if b < 0:
        return (c, ring.one[1]) if b == -1 else _ZERO, NONRATIONAL
    fp = _boundary_cache.get((b, ring))
    if fp is None:
        # B_k(1 + v) = sum_m C(k, m) B_m(1) v^(k-m) with k = b + 1, where
        # B_m(1) = B_m except B_1(1) = +1/2
        k = b + 1
        bernoulli(k)  # B_0 .. B_k in one batch, not in doublings
        powers = _powers(ring, k)
        terms = []
        for m in range(k + 1):
            bn, bd = bernoulli(m).as_integer_ratio()
            if bn and powers[k - m][1]:
                if m == 1:
                    bn = -bn
                terms.append(((-comb(k, m) * bn, bd * k), powers[k - m]))
        fp = _boundary_cache[(b, ring)] = _combine(terms)
    return _ZERO, fp


_cache: dict = {}


def clear_cache() -> None:
    """Empty every engine table: states, germ rows, depth-1 finite parts."""
    _cache.clear()
    _germ_cache.clear()
    _boundary_cache.clear()


def _memoize(key, value: tuple) -> tuple:
    _cache[key] = value
    return value


@lru_cache(maxsize=None)
def _lanes(pairs: tuple) -> _Ring:
    """The ring of the shifts p_1/q_1, ..., p_S/q_S, given as the integer
    pairs (p_s, q_s), each validated."""
    if not pairs:
        raise StructuralViolation("a tuple of shifts needs one shift or more")
    for p, q in pairs:
        if p <= -q:
            raise StructuralViolation(f"Hurwitz shift must satisfy v > -1, got {Fraction(p, q)}")
    den = lcm(*[q for _, q in pairs])
    shift = [p * (den // q) for p, q in pairs]
    while shift and not shift[-1]:
        shift.pop()
    return _Ring(len(pairs), (1, (1,) * len(pairs)), (den, tuple(shift)))


#: The polynomial variable v, built once: Q[v] has the one shift.
_X = Poly.x()


def _head(v, j_bump: int, menu: int):
    """Validate the shift v: a rational > -1, a nonempty tuple of them (one
    lane each), or the polynomial variable ``Poly.x()``. Returns the ring,
    which every state function takes, with the part of the memo key shared
    by a whole recursion: (menu, j_bump, key of v). One shift p/q is keyed
    p, q; several are keyed by the tuple of their p and that of their q."""
    if isinstance(v, Poly):
        if v is not _X and v != _X:  # the shared _X skips Poly.__eq__
            raise StructuralViolation(f"a polynomial shift must be v itself, got {v}")
        return _QV, (menu, j_bump, 0, 0)  # no rational shift has denominator 0
    pairs = tuple([as_rational(x).as_integer_ratio() for x in (v if type(v) is tuple else (v,))])
    ring = _lanes(pairs)
    return ring, (menu, j_bump) + (pairs[0] if len(pairs) == 1 else tuple(zip(*pairs)))


#: Slot menus, the first entry of a memo key: every slot given with its own
#: c and weight 1, or the twisted-regularisation slot structures of a word.
_SLOTS, _WORD = 0, 1


def nested_fp_res(exponents, v, j_bump: int = 0) -> LaurentData:
    """Residue and finite part at z = 0 of the depth-l cut-off nested sum.

    All slots but the last must have b >= 0. v is a rational > -1; or a
    nonempty tuple of them, and then the residue and the finite part come
    out as tuples, one entry per shift, from one recursion; or the
    polynomial variable ``Poly.x()``, and then they come out as polynomials
    in v.
    ``j_bump`` lengthens every germ row by 2 j_bump germ indices and peels
    each row that far, into states of reach down to -1 - 2 j_bump (the
    result must not depend on it; the robustness suite checks this).

    >>> nested_fp_res([(1, 1)], 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(-1, 12))
    >>> nested_fp_res([(0, 1), (0, 1)], 0).fp
    Fraction(3, 8)
    >>> nested_fp_res([(1, 1)], (0, 1, Fraction(-1, 2))).fp
    (Fraction(-1, 12), Fraction(-13, 12), Fraction(1, 24))
    >>> nested_fp_res([(1, 1)], Poly.x()).fp.to_str("v")
    '-1/2*v^2 - 1/2*v - 1/12'
    >>> nested_fp_res([(-1, Fraction(1, 2))], 0).res  # c = 1/2 is z -> z/2
    Fraction(2, 1)
    """
    exps, scale = _flatten(exponents)
    if not exps:
        raise StructuralViolation("empty exponent list")
    ring, head = _head(v, j_bump, _SLOTS)
    check_recursion_depth(len(exps) // 2)
    for b in exps[:-2:2]:
        if b < 0:
            raise StructuralViolation(
                f"non-last slot with negative exponent {b}: the recursion only "
                "peels the deepest slot"
            )
    hit = _cache.get(head + exps)
    res, fp = _nested(exps, ring, head) if hit is None else hit
    return _to_laurent((_combine([((scale, 1), res)]), fp), v)


def _word_head(word, v):
    """(word as a tuple, ring, head) for the word menu, both validated."""
    word = tuple(word)
    if not word or any(type(a) is not int or a < 0 for a in word):
        raise StructuralViolation(f"a word needs one or more letters a_i >= 0, got {word}")
    ring, head = _head(v, 0, _WORD)
    return word, ring, head


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
    word, ring, head = _word_head(word, v)
    return _to_laurent(_word_total(word, False, ring, head), v)


def weak_fp_res(word, v) -> LaurentData:
    """The sum of :func:`strict_fp_res` over the 2^(k-1) contractions of the
    word: its finite part is the weak value.

    >>> weak_fp_res((0, 0), 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(-1, 8))
    """
    word, ring, head = _word_head(word, v)
    return _to_laurent(_word_total(word, True, ring, head), v)


def _word_total(word: tuple, weak: bool, ring: _Ring, head: tuple) -> tuple:
    """The memo entry (residue, finite part) of the strict expansion of a
    validated word, its prefix-sum state; with ``weak`` the sum of those of
    its 2^(k-1) contractions. ``head`` is a word-menu head. The depth is
    checked against the recursion limit here, before any work.

    The distinct contractions are built letter by letter (the next letter
    appended or added to the last) with their integer multiplicities, and
    each is read as one prefix-sum state, so a word of k zeros reads k
    states, not 2^(k-1)."""
    check_recursion_depth(len(word))
    if not weak:
        exps = word + (0,)
        hit = _cache.get(head + exps)
        return _nested(exps, ring, head) if hit is None else hit
    counts = {word[:1]: 1}
    for b in word[1:]:
        grown: dict = {}
        for x, m in counts.items():
            for y in (x + (b,), x[:-1] + (x[-1] + b,)):
                grown[y] = grown.get(y, 0) + m
        counts = grown
    return _weighted_sum(((x + (0,), (m, 1)) for x, m in counts.items()), True, ring, head)


@lru_cache(maxsize=None)
def _slot_weights(length: int) -> tuple:
    """(c, s(L, c)/L!) for c = 1..L, the weight as an integer pair: the
    multiplicities and weights of one slot of L letters in the
    twisted-regularisation expansion (s(L, c) is never zero here)."""
    return tuple(
        (c, _pair(stirling1(length, c), factorial(length))) for c in range(1, length + 1)
    )


def _last_slots(word: tuple, c: int):
    """(letters before the slot, slot exponent, rest of the state key) for
    every last slot word[k-L:] of a word of length k, each to be merged with
    a slot of multiplicity c. A one-letter slot has the single multiplicity
    1, of weight 1, so its state is the plain slot state; a longer one is a
    presum state."""
    cut = len(word) - 1
    b = word[cut]
    yield word[:cut], b, (c + 1,)
    for cut in range(cut - 1, -1, -1):
        b += word[cut]
        yield word[:cut], b, (c, cut - len(word))


def _weighted_sum(states, fp_known: bool, ring: _Ring, head: tuple) -> tuple:
    """(residue, finite part) of the weighted sum over the pairs (state,
    weight) ``states``: a presum or prefix-sum state, or a weak total.
    Without ``fp_known`` the finite part is NONRATIONAL, so the weights act
    on the residues only."""
    res_terms, fp_terms = [], []
    for exps, weight in states:
        hit = _cache.get(head + exps)
        res, fp = _nested(exps, ring, head) if hit is None else hit
        if res[1]:
            res_terms.append((weight, res))
        if fp_known:
            fp_terms.append((weight, fp))
    return _combine(res_terms), _combine(fp_terms) if fp_known else NONRATIONAL


def _nested(exps: tuple, ring: _Ring, head: tuple) -> tuple:
    """The engine state ``exps``, as the memo entry (residue, finite part):
    two engine values, or a value and NONRATIONAL. ``ring`` is the ring of
    the shift and ``head`` = (menu, j_bump, key of v) the part of the memo
    key shared by the whole recursion. Every entry of ``exps`` is an integer,
    and a slot is (b, c).

    Under the fixed menu ``exps`` = (b_1, c_1, ..., b_l, c_l) is one nested
    sum. Under the word menu a key has one of three shapes, told apart by
    its last entry (c >= 1, -L < 0, or 0):

    * (a_1, ..., a_m, b, c), the slot state: the weighted sum over the slot
      structures of the prefix word a_1..a_m of their nested sums followed
      by the slot (b, c);
    * (a_1, ..., a_m, b, c, -L), the presum state: the weighted sum over
      the multiplicities c' of an L-letter slot of the slot states
      (a_1, ..., a_m, b, c + c');
    * (a_1, ..., a_m, 0), the prefix-sum state: the sum over the last slots
      of the word a_1..a_m, that is the weighted sum over all its slot
      structures. It is the strict expansion of the word and the boundary
      subsum of every slot state after it.

    It is called only on a miss: every caller reads the state from
    ``_cache`` first (see the module docstring), so it creates the state.
    """
    key = head + exps

    if exps[-1] < 0:
        stem = exps[:-3]
        b, c, neg_length = exps[-3:]
        states = ((stem + (b, c_slot + c), weight) for c_slot, weight in _slot_weights(-neg_length))
        return _memoize(key, _weighted_sum(states, b >= 0, ring, head))
    if not exps[-1]:
        # every slot of the word has b >= 0, so its finite part is rational
        states = ((stem + (b,) + tail, _UNIT) for stem, b, tail in _last_slots(exps[:-1], 0))
        return _memoize(key, _weighted_sum(states, True, ring, head))
    b_last, c_last = exps[-2:]
    if len(exps) == 2:
        return _memoize(key, _depth1(b_last, c_last, ring))

    prefix = exps[:-2]
    if head[0]:
        slots = _last_slots(prefix, c_last)
        step = 1
    else:
        step = 2
        b_prev, c_prev = prefix[-2:]
        slots = ((prefix[:-2], b_prev, (c_prev + c_last,)),)
    # a slot's exponent and its stem's add up to the prefix total; the row
    # runs to j = R + 1 for the reach R, the last germ the cutoff can read
    total = sum(prefix[::step])
    reach = b_last + total + len(prefix) // step
    fp_known = b_last >= 0

    res_terms = []
    fp_terms = []
    row = _germ_row(b_last, c_last, max(reach + 1, 0) + 2 * head[1])
    # a None coefficient is exactly zero and a zero residue is skipped: the
    # products they would give are exactly zero, NONRATIONAL ones included.
    # Shifts fall along the row, so the first child of reach below
    # -1 - 2 j_bump ends it: every child of reach below -1 is
    # (0, NONRATIONAL) and its finite part only meets None coefficients
    # (see the module docstring)
    for stem, b_slot, tail in slots:
        floor = -1 - total - len(stem) // step - 2 * head[1]
        stem_key = head + stem
        for shift, h_m1, h_0, h_1 in row:
            if shift < floor:
                break
            last = (b_slot + shift,) + tail
            hit = _cache.get(stem_key + last)
            res, fp = _nested(stem + last, ring, head) if hit is None else hit
            if h_m1 is not None:
                res_terms.append((h_m1, fp))
            if res[1]:
                if h_0 is not None:
                    res_terms.append((h_0, res))
                if fp_known and h_1 is not None:
                    fp_terms.append((h_1, res))
            if fp_known and h_0 is not None:
                fp_terms.append((h_0, fp))

    # the boundary term: the depth-1 data of the last slot times the
    # boundary subsum. Every slot of that subsum has b >= 0, so it is
    # pole-free; its residue is the only partner the dropped z^1 boundary
    # pieces ever meet
    sub = prefix + (0,) if head[0] else prefix
    hit = _cache.get(head + sub)
    sub_res, sub_fp = _nested(sub, ring, head) if hit is None else hit
    if sub_res[1]:
        raise RationalityLeak("boundary subsum with nonnegative exponents has a pole")
    one_res, one_fp = _depth1(b_last, c_last, ring)
    if one_res[1]:
        res_terms.append((_UNIT, _times(one_res, sub_fp, ring.lanes)))
    res_total = _combine(res_terms)
    if not fp_known:
        return _memoize(key, (res_total, NONRATIONAL))
    fp_terms.append((_UNIT, _times(one_fp, sub_fp, ring.lanes)))
    fp_total = _combine(fp_terms)
    if res_total[1]:
        raise RationalityLeak(
            f"nested sum with nonnegative last exponent has residue {res_total}"
        )
    return _memoize(key, (res_total, fp_total))


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
