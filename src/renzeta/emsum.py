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

* the fixed menu -- one nested sum, each slot given with its own c and
  weight 1; a prefix is a list of slots (b, c);
* the word menu -- the twisted-regularisation expansion of a word (the
  strict renormalised value): a slot of L consecutive letters carries
  multiplicity c in 1..L with weight s(L, c)/L! (Hoffman's log followed by
  his exp); a prefix is a word.

Every prefix is interned once in one trie (``_trie``), with one root per
recursion head (menu, j_bump, key of v), so a node id also names the head.
A node holds its parent, its letter (an int a under the word menu, a slot
(b, c) under the fixed menu), its length and its letter sum (of the a, or
of the b), and, built with it, its last slots and its boundary key (both
below). A state is keyed by the id of its prefix:

* (id, B, C), the slot state: the prefix followed by the slot (B, C); under
  the word menu, the weighted sum over the slot structures of the prefix
  word of their nested sums followed by it;
* (id, B, C, -L), the presum state (word menu): the weighted sum over the
  multiplicities c' of an L-letter slot of the slot states (id, B, C + c');
* (id, 0), the prefix-sum state (word menu): the sum over the last slots of
  the prefix word, that is the weighted sum over all its slot structures.
  It is the strict expansion of the word and the boundary subsum (below)
  of every state after it, computed once.

A last slot of a node is (stem id, slot exponent, added c, tail), with the
floor of its reach cutoff (see :func:`_prefix`): peeled at a slot (B, C),
it gives the children (stem, exponent + shift, C + added c) + tail. Under
the fixed menu a node has one, its own slot (b, c) with tail (); under the
word menu each last run of L letters is one, L = 1 as the slot (a, 1) with
tail () and L >= 2 as a presum state with added c 0 and tail (-L,). So both
menus peel in one loop.

``mzv`` enters the engine at :func:`_word_total` on every strict and alt
value-memo miss: a strict value under the word menu, an alt value under the
fixed menu, keyed as ``nested_fp_res`` keys the word with every c = 1. The
engine computes no weak value: ``mzv`` sums the strict values of a word's
contractions.

Every state is computed by one call of :func:`_nested`, through the module
global, and kept in the memo ``_cache`` under its key, one entry per state.
Every caller (the entries ``nested_fp_res`` and :func:`_word_total`, the
peel loop, the boundary read and :func:`_weighted_sum`) reads a state from
the memo first and calls :func:`_nested` only on a miss, so a recursion
makes one call per state it creates and none for a state it reads.

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
b_m + m: B plus the letter sum and the length of its node. Each merge adds
some b_i + 1 - j with j >= 0 to the last exponent, so no exponent the
recursion can merge into the last slot exceeds R. If R < -1, no germ has a
z^{-1} term and no depth-1 state has b = -1, so the residue is exactly 0;
and B <= R < 0 makes the finite part NONRATIONAL.
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
The boundary subsum is a state, whose key the prefix's node keeps: the
prefix itself under the fixed menu, and under the word menu the prefix-sum
state of the prefix word.

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
``nested_fp_res`` returns them, and where ``mzv`` reads the finite part of
a :func:`_word_total`.
"""

from __future__ import annotations

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
    # from lists of known length: a tuple built from a generator is resized,
    # and small resized tuples pile up on the interpreter's tuple free lists
    scale = lcm(*[c.denominator for _, c in slots])
    return tuple([x for b, c in slots for x in (b, c.numerator * (scale // c.denominator))]), scale


_germ_cache: dict = {}


def _germ_row(b: int, c: int, j_max: int) -> tuple:
    """The local germs (B_j/j!) [b - c z]_{j-1} of the last slot (b, c), for
    j = 0 .. j_max (odd j > 1 left out: their Bernoulli numbers vanish), each
    expanded to three coefficients at z = 0 and stored as (b + 1 - j, h_m1,
    h_0, h_1). A merged slot's b is the previous slot's b plus that shift. A
    coefficient is a reduced integer pair (p, q) with q > 0, or None when it
    is exactly zero.

    The table keeps one row per slot, the longest one requested, and this
    returns its prefix up to j = j_max. A longer request extends the kept
    row from its last j: only the new entries are built.

    [b - c z]_{-1} = 1/(b + 1 - c z) has a simple pole iff b = -1. For j >= 1
    the row is built in one pass: the two leading coefficients p0 and p1
    of the falling factorial prod_{i < j-1} (b - i - c z) are carried from
    j to j + 1 as integers. An extension first carries them, and j!, up to
    the kept row's last j, without the Bernoulli numbers and reductions.
    """
    size = j_max // 2 + 2 if j_max else 1  # j = 0, 1, 2, 4, ..., j_max
    row = _germ_cache.get((b, c))
    if row is not None and len(row) >= size:
        return row[:size]
    if row is None:
        row = ((0, (-1, c), None, None) if b == -1
               else (b + 1, None, _pair(1, b + 1), _pair(c, (b + 1) ** 2)),)
    last = 2 * len(row) - 4 if len(row) > 2 else len(row) - 1  # the kept row's last j
    out = list(row)
    p0, p1, fact = 1, 0, 1
    for j in range(1, j_max + 1):
        fact *= j
        if j > last and (j == 1 or j % 2 == 0):
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

#: The prefix trie, indexed by node id: (parent id, letter, length, letter
#: sum, last slots, boundary key, children {letter: id}); a root has parent
#: None.
_trie: list = []
#: head -> the id of its root
_roots: dict = {}


def clear_cache() -> None:
    """Empty every engine table: states, the prefix trie and its roots, germ
    rows, depth-1 finite parts."""
    _cache.clear()
    _trie.clear()
    _roots.clear()
    _germ_cache.clear()
    _boundary_cache.clear()


def _memoize(key, value: tuple) -> tuple:
    _cache[key] = value
    return value


def _prefix(head: tuple, letters) -> int:
    """The trie id of the prefix ``letters`` under the recursion head
    ``head``: a word-menu letter is an int a, a fixed-menu letter a slot (b,
    c). A node is interned on first use, with its last slots and its
    boundary key (see the module docstring). A last slot is (stem, slot
    exponent, added c, tail, floor): a child of the stem at germ shift s
    has reach >= -1 iff s >= floor, which is -1 minus the node's letter sum
    and the stem's length."""
    node = _roots.get(head)
    if node is None:
        node = _roots[head] = len(_trie)
        _trie.append((None, None, 0, 0, (), None, {}))
    for letter in letters:
        parent, (_, _, length, total, _, _, children) = node, _trie[node]
        node = children.get(letter)
        if node is None:
            node = children[letter] = len(_trie)
            word = type(letter) is int
            b, c = (letter, 1) if word else letter
            length, total, stem = length + 1, total + b, parent
            slots = [(parent, b, c, (), -total - length)]
            for size in range(2, length + 1) if word else ():
                stem, a = _trie[stem][:2]
                b += a
                slots.append((stem, b, 0, (-size,), size - 1 - total - length))
            sub = (node, 0) if word else (parent,) + letter
            _trie.append((parent, letter, length, total, tuple(slots), sub, {}))
    return node


@lru_cache(maxsize=None)
def _lanes(pairs: tuple | None, j_bump: int, menu: int) -> tuple:
    """The ring and head of ``_head`` for the shifts p_1/q_1, ..., p_S/q_S,
    given as the integer pairs (p_s, q_s), each validated, or for Q[v]
    (``pairs`` None). Cached, so every key at one shift, menu and j_bump
    holds the same head object."""
    if pairs is None:
        return _QV, (menu, j_bump, 0, 0)  # no rational shift has denominator 0
    if not pairs:
        raise StructuralViolation("a tuple of shifts needs one shift or more")
    for p, q in pairs:
        if p <= -q:
            raise StructuralViolation(f"Hurwitz shift must satisfy v > -1, got {Fraction(p, q)}")
    den = lcm(*[q for _, q in pairs])
    shift = [p * (den // q) for p, q in pairs]
    while shift and not shift[-1]:
        shift.pop()
    ring = _Ring(len(pairs), (1, (1,) * len(pairs)), (den, tuple(shift)))
    return ring, (menu, j_bump) + (pairs[0] if len(pairs) == 1 else tuple(zip(*pairs)))


#: The polynomial variable v, built once: Q[v] has the one shift.
_X = Poly.x()


def _head(v, j_bump: int, menu: int):
    """Validate the shift v: a rational > -1, a nonempty tuple of them (one
    lane each), or the polynomial variable ``Poly.x()``. Returns the ring,
    which every state function takes, with the part of the memo key shared
    by a whole recursion: (menu, j_bump, key of v). One shift p/q is keyed
    p, q; several are keyed by the tuple of their p and that of their q.
    Both are built once per shift (``_lanes``) and shared by every call."""
    if isinstance(v, Poly):
        if v is not _X and v != _X:  # the shared _X skips Poly.__eq__
            raise StructuralViolation(f"a polynomial shift must be v itself, got {v}")
        return _lanes(None, j_bump, menu)
    pairs = tuple([as_rational(x).as_integer_ratio() for x in (v if type(v) is tuple else (v,))])
    return _lanes(pairs, j_bump, menu)


#: Slot menus, the first entry of a head: every slot given with its own c
#: and weight 1, or the twisted-regularisation slot structures of a word.
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
    key = (_prefix(head, zip(exps[:-2:2], exps[1:-2:2])),) + exps[-2:]
    hit = _cache.get(key)
    res, fp = _nested(key, ring, head) if hit is None else hit
    return _to_laurent((_combine([((scale, 1), res)]), fp), v)


def _word_total(word: tuple, ring: _Ring, head: tuple) -> tuple:
    """The memo entry (residue, finite part) of a validated nonempty word
    under the menu of ``head``: its prefix-sum state (the strict expansion)
    under the word menu, and under the fixed menu the slot state of its one
    nested sum with every c = 1 (the diagonal value), keyed as
    ``nested_fp_res`` keys it. The depth is checked here, before any work."""
    check_recursion_depth(len(word))
    if head[0] == _WORD:
        key = (_prefix(head, word), 0)
    else:
        key = (_prefix(head, [(x, 1) for x in word[:-1]]), word[-1], 1)
    hit = _cache.get(key)
    return _nested(key, ring, head) if hit is None else hit


@lru_cache(maxsize=None)
def _slot_weights(length: int) -> tuple:
    """(c, s(L, c)/L!) for c = 1..L, the weight as an integer pair: the
    multiplicities and weights of one slot of L letters in the
    twisted-regularisation expansion (s(L, c) is never zero here)."""
    return tuple(
        (c, _pair(stirling1(length, c), factorial(length))) for c in range(1, length + 1)
    )


def _weighted_sum(states, fp_known: bool, ring: _Ring, head: tuple) -> tuple:
    """(residue, finite part) of the weighted sum over the pairs (state key,
    weight) ``states``: a presum or a prefix-sum state.
    Without ``fp_known`` the finite part is NONRATIONAL, so the weights act
    on the residues only."""
    res_terms, fp_terms = [], []
    for key, weight in states:
        hit = _cache.get(key)
        res, fp = _nested(key, ring, head) if hit is None else hit
        if res[1]:
            res_terms.append((weight, res))
        if fp_known:
            fp_terms.append((weight, fp))
    return _combine(res_terms), _combine(fp_terms) if fp_known else NONRATIONAL


def _nested(key: tuple, ring: _Ring, head: tuple) -> tuple:
    """The engine state ``key``, as the memo entry (residue, finite part):
    two engine values, or a value and NONRATIONAL. ``ring`` is the ring of
    the shift and ``head`` = (menu, j_bump, key of v) the head of the trie
    root of the key's node. The key has one of three shapes, told apart by
    its length (see the module docstring): the slot state (id, B, C), the
    presum state (id, B, C, -L) and the prefix-sum state (id, 0). A slot
    state peels its last slot (B, C) against the last slots of its node.

    It is called only on a miss: every caller reads the state from
    ``_cache`` first (see the module docstring), so it creates the state.
    """
    if len(key) == 4:
        stem, b, c, neg_length = key
        states = (((stem, b, c + c_slot), weight) for c_slot, weight in _slot_weights(-neg_length))
        return _memoize(key, _weighted_sum(states, b >= 0, ring, head))
    _, _, length, total, slots, sub, _ = _trie[key[0]]
    if len(key) == 2:
        # every slot of the word has b >= 0, so its finite part is rational
        states = (((stem, b, c) + tail, _UNIT) for stem, b, c, tail, _ in slots)
        return _memoize(key, _weighted_sum(states, True, ring, head))
    _, b_last, c_last = key
    if not length:
        return _memoize(key, _depth1(b_last, c_last, ring))

    bump = 2 * head[1]
    fp_known = b_last >= 0
    get = _cache.get
    res_terms = []
    fp_terms = []
    # the row runs to j = R + 1 for the reach R, the last germ the cutoff
    # can read
    row = _germ_row(b_last, c_last, max(b_last + total + length + 1, 0) + bump)
    # a None coefficient is exactly zero and a zero residue is skipped: the
    # products they would give are exactly zero, NONRATIONAL ones included.
    # Shifts fall along the row, so the first child of reach below
    # -1 - 2 j_bump ends it: every child of reach below -1 is
    # (0, NONRATIONAL) and its finite part only meets None coefficients
    # (see the module docstring)
    for stem, b_slot, c_slot, tail, floor in slots:
        floor -= bump
        c_slot += c_last
        for shift, h_m1, h_0, h_1 in row:
            if shift < floor:
                break
            child = (stem, b_slot + shift, c_slot) + tail
            hit = get(child)
            res, fp = _nested(child, ring, head) if hit is None else hit
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
    hit = get(sub)
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
