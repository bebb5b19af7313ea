"""Bernoulli numbers and polynomials, Stirling numbers of the first kind,
and contractions (packet sums).

The contractions of (1, ..., 1) are the compositions of k, lexicographic
by parts, and those of any word of k letters come in the same order.
``contraction_counts`` lists a word's distinct contractions once each, with
their multiplicities: the weak values of ``mzv`` are read off it. ``words``
expands shuffles and quasi-shuffles by a first-letter recursion.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactnum import Poly, as_rational

_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], the tangent numbers (tan x = sum_k T_k
    x^(2k-1)/(2k-1)!), by the integer recurrence of Brent and Harvey, "Fast
    computation of Bernoulli, Tangent and Secant numbers" (arXiv:1108.0286):
    O(n^2) additions and small multiplications, all in integers.

    >>> _tangent_numbers(5)
    [0, 1, 2, 16, 272, 7936]
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[: n + 1]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the convention where the first one is -1/2.

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent numbers T_m,
    and B_k = 0 at odd k >= 3. The table is computed in one batch and
    doubled, at the least, whenever an index past its end is asked for.

    >>> bernoulli(2)
    Fraction(1, 6)
    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if k < 0:
        raise ValueError("Bernoulli numbers have nonnegative index")
    start = len(_BERNOULLI)
    if k >= start:
        size = max(k + 1, 2 * start)
        t = _tangent_numbers((size - 1) // 2)
        for i in range(start, size):
            m, odd = divmod(i, 2)
            if odd:
                _BERNOULLI.append(Fraction(0))
            else:
                four = 4**m
                _BERNOULLI.append(Fraction((-1) ** (m - 1) * 2 * m * t[m], four * (four - 1)))
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


def check_recursion_depth(depth: int) -> None:
    """Refuse at once a depth sure to overflow the recursion limit (the
    engine descends at least one frame per letter or slot), before any work."""
    limit = sys.getrecursionlimit()
    if depth >= limit:
        raise RecursionError(
            f"depth {depth} needs more nested calls than the recursion limit {limit}"
        )


def contractions(word) -> list[tuple]:
    """The 2^(k-1) words obtained from a word of k letters by summing
    consecutive packets, built letter by letter (each next letter is
    appended or added to the last letter). The i-th word sums the packets
    whose sizes are the letters of the i-th contraction of (1,) * k.

    A word as long as the interpreter's recursion limit is refused at once,
    as the engine refuses it: the callers (``mzv._composition_structures``,
    ``words._hoffman_word``) would otherwise start listing 2^(k-1) words,
    which would not end.

    >>> contractions((1, 2, 3))
    [(1, 2, 3), (1, 5), (3, 3), (6,)]
    >>> contractions((1, 1, 1))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    word = tuple(word)
    if not word:
        raise ValueError("contractions are defined for words of length >= 1")
    check_recursion_depth(len(word))
    out = [word[:1]]
    for b in word[1:]:
        out = [y for x in out for y in (x + (b,), x[:-1] + (x[-1] + b,))]
    return out


def contraction_counts(word, prefix: dict | None = None) -> dict:
    """The distinct contractions of a word of k letters, each mapped to its
    multiplicity: how many of the 2^(k-1) contractions are equal to it. They
    are built letter by letter, as ``contractions`` builds them, with equal
    words merged at every letter, so a word of k zeros never holds more than
    k of them, not 2^(k-1). ``prefix``, when given, is this dict for the
    word without its last letter, and only the last letter is added to it.

    A word as long as the recursion limit is refused at once, as
    ``contractions`` refuses it.

    >>> contraction_counts((0, 0, 0))
    {(0, 0, 0): 1, (0, 0): 2, (0,): 1}
    >>> contraction_counts((1, 2, 3), contraction_counts((1, 2)))
    {(1, 2, 3): 1, (1, 5): 1, (3, 3): 1, (6,): 1}
    """
    word = tuple(word)
    if not word:
        raise ValueError("contractions are defined for words of length >= 1")
    check_recursion_depth(len(word))
    counts, rest = ({word[:1]: 1}, word[1:]) if prefix is None else (prefix, word[-1:])
    for b in rest:
        grown: dict = {}
        for x, m in counts.items():
            for y in (x + (b,), x[:-1] + (x[-1] + b,)):
                grown[y] = grown.get(y, 0) + m
        counts = grown
    return counts
