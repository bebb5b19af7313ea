"""Bernoulli numbers and polynomials, Stirling numbers of the first kind,
compositions, packet sums and contractions.

Compositions come out in lexicographic order by parts, so that CLI output
and memo keys are reproducible. Shuffles and quasi-shuffles are not
enumerated here: ``words`` expands them by a first-letter recursion.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

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


def contractions(word) -> list[tuple]:
    """The 2^(k-1) words obtained from a word of k letters by summing
    consecutive packets: the same words as ``packet_sums(word, parts)`` over
    ``compositions(k)``, built letter by letter (each next letter is
    appended or added to the last letter).

    A word as long as the interpreter's recursion limit is refused at once,
    as ``compositions`` refuses it: the strict values of its contractions
    recurse one frame per letter and could not be computed anyway, and
    enumerating the 2^(k-1) words first would not end.

    >>> contractions((1, 2, 3))
    [(1, 2, 3), (1, 5), (3, 3), (6,)]
    """
    word = tuple(word)
    if not word:
        raise ValueError("contractions are defined for words of length >= 1")
    limit = sys.getrecursionlimit()
    if len(word) >= limit:
        raise RecursionError(
            f"depth {len(word)} needs more nested calls than the recursion limit {limit}"
        )
    out = [word[:1]]
    for b in word[1:]:
        out = [y for x in out for y in (x + (b,), x[:-1] + (x[-1] + b,))]
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
