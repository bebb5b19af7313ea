"""Bernoulli numbers and polynomials, Stirling numbers of the first kind,
interpolated Faulhaber summation, compositions, shuffles and quasi-shuffles.

Enumeration orders are deterministic and documented so that CLI output and
memo keys are reproducible: compositions come out in lexicographic order by
parts, (quasi-)shuffles in the move order take-left, take-right, merge.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .exactnum import Poly, as_rational

_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the convention where the first one is -1/2.

    Computed from sum_{i<k} C(k,i) B_i = 0 for k >= 2 and memoized.

    >>> bernoulli(2)
    Fraction(1, 6)
    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if k < 0:
        raise ValueError("Bernoulli numbers have nonnegative index")
    while len(_BERNOULLI) <= k:
        n = len(_BERNOULLI)  # determine B_n from sum_{i<=n} C(n+1,i) B_i = 0
        s = sum(comb(n + 1, i) * _BERNOULLI[i] for i in range(n))
        _BERNOULLI.append(Fraction(-s, n + 1))
    return _BERNOULLI[k]


def bernoulli_poly(k: int, x):
    """Bernoulli polynomial value B_k(x); x may be a Fraction or a Poly.

    Satisfies B_k(x+1) - B_k(x) = k x^(k-1) and B_k(0) = B_k.
    """
    if k < 0:
        raise ValueError("Bernoulli polynomials have nonnegative index")
    if not isinstance(x, Poly):
        x = as_rational(x)
    acc = Poly.zero() if isinstance(x, Poly) else Fraction(0)
    xp = Poly.one() if isinstance(x, Poly) else Fraction(1)
    for i in range(k + 1):
        acc = acc + comb(k, i) * bernoulli(k - i) * xp
        xp = xp * x
    return acc


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k): the coefficient of
    x^k in x (x-1) ... (x-n+1), from s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k).

    >>> [stirling1(4, k) for k in range(5)]
    [0, -6, 11, -6, 1]
    """
    if n < 0 or k < 0:
        raise ValueError("Stirling numbers have nonnegative indices")
    if n == 0 or k == 0:
        return int(n == k)
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


def faulhaber_interp(b: int, v, eta) -> Fraction:
    """Interpolated power sum: equals sum_{n=1}^{eta} (n+v)^b for integer
    eta >= 0, and interpolates it for rational eta.

    >>> faulhaber_interp(1, Fraction(0), Fraction(10))
    Fraction(55, 1)
    """
    if b < 0:
        raise ValueError("exponent must be a nonnegative integer")
    v, eta = as_rational(v), as_rational(eta)
    return (bernoulli_poly(b + 1, eta + v + 1) - bernoulli_poly(b + 1, 1 + v)) / (b + 1)


def compositions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) compositions of n, lexicographic by parts.

    >>> compositions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 1:
        raise ValueError("compositions are defined for n >= 1")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, acc + (part,))

    rec(n, ())
    return out


def packet_sums(values, parts) -> tuple:
    """Contract consecutive packets of ``values`` (packet sizes ``parts``)
    to their sums."""
    if sum(parts) != len(values):
        raise ValueError("composition does not match the sequence length")
    out = []
    i = 0
    for p in parts:
        out.append(sum(values[i : i + p]))
        i += p
    return tuple(out)


class QuasiShuffle(NamedTuple):
    """A (k,l)-quasi-shuffle: a surjection onto {0..k+l-r-1}, strictly
    increasing on the first k positions and on the last l positions, every
    fibre of size 1 or 2. ``assignment[i]`` is the (0-based) target of
    position i; ``target_size`` is k+l-r."""

    target_size: int
    assignment: tuple[int, ...]

    @property
    def merges(self) -> int:
        """The type r: number of two-element fibres."""
        return len(self.assignment) - self.target_size


def quasi_shuffles(k: int, l: int) -> list[QuasiShuffle]:
    """All (k,l)-quasi-shuffles, every type r in 0..min(k,l).

    Deterministic order: built by repeatedly choosing take-left, take-right
    or merge. The type-0 elements are the C(k+l, k) ordinary shuffles.

    >>> len(quasi_shuffles(1, 1)), len(quasi_shuffles(2, 1))
    (3, 5)
    """
    if k < 1 or l < 1:
        raise ValueError("quasi-shuffles need k, l >= 1")
    out: list[QuasiShuffle] = []
    left = list(range(k))
    right = list(range(k, k + l))

    def rec(i: int, j: int, slots: list[tuple[int, ...]]):
        if i == k and j == l:
            assignment = [0] * (k + l)
            for target, members in enumerate(slots):
                for pos in members:
                    assignment[pos] = target
            out.append(QuasiShuffle(len(slots), tuple(assignment)))
            return
        if i < k:
            rec(i + 1, j, slots + [(left[i],)])
        if j < l:
            rec(i, j + 1, slots + [(right[j],)])
        if i < k and j < l:
            rec(i + 1, j + 1, slots + [(left[i], right[j])])

    rec(0, 0, [])
    return out


def shuffles(k: int, l: int) -> list[tuple[int, ...]]:
    """The ordinary (k,l)-shuffles as source-index sequences of length k+l.

    Entry s means "take the next letter of the left word" when s = 0 and of
    the right word when s = 1. Same deterministic order as quasi_shuffles.
    """
    out: list[tuple[int, ...]] = []

    def rec(i: int, j: int, acc: tuple[int, ...]):
        if i == k and j == l:
            out.append(acc)
            return
        if i < k:
            rec(i + 1, j, acc + (0,))
        if j < l:
            rec(i, j + 1, acc + (1,))

    rec(0, 0, ())
    return out
