import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta import combinat, words
from renzeta.combinat import (
    bernoulli,
    bernoulli_poly,
    contraction_counts,
    contractions,
    stirling1,
)
from renzeta.exactnum import Poly, RationalFunction, as_rational
from renzeta.mzv import zeta_value
from renzeta.words import TensorPoly


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


def oracle_shuffle(u, w) -> TensorPoly:
    """The shuffle product by enumerating the (|u|,|w|)-shuffles."""
    u, w = tuple(u), tuple(w)
    if not u or not w:
        return TensorPoly.from_word(u + w)
    out: dict = {}
    for pattern in shuffles(len(u), len(w)):
        it_u, it_w = iter(u), iter(w)
        word = tuple(next(it_u) if side == 0 else next(it_w) for side in pattern)
        out[word] = out.get(word, Fraction(0)) + 1
    return TensorPoly(out)


def oracle_stuffle(u, w, sign_mode="strict") -> TensorPoly:
    """The stuffle product by enumerating the quasi-shuffles; in weak mode a
    type-r quasi-shuffle contributes (-1)**r."""
    u, w = tuple(u), tuple(w)
    if not u or not w:
        return TensorPoly.from_word(u + w)
    letters = u + w
    out: dict = {}
    for qs in quasi_shuffles(len(u), len(w)):
        merged = [0] * qs.target_size
        for pos, target in enumerate(qs.assignment):
            merged[target] += letters[pos]
        word = tuple(merged)
        coeff = Fraction(-1) ** qs.merges if sign_mode == "weak" else Fraction(1)
        out[word] = out.get(word, Fraction(0)) + coeff
    return TensorPoly(out)


def falling_factorial(a, m: int):
    """[a]_m = a (a-1) ... (a-m+1), extended by [a]_0 = 1, [a]_{-1} = 1/(a+1).

    ``a`` may be a Fraction (result: Fraction) or a Poly in z (result: Poly,
    or RationalFunction for m = -1).
    """
    if m < -1:
        raise ValueError("falling factorial defined for m >= -1")
    if isinstance(a, Poly):
        if m == -1:
            return RationalFunction(Poly.one(), a + 1)
        out = Poly.one()
        for i in range(m):
            out = out * (a - i)
        return out
    a = as_rational(a)
    if m == -1:
        if a == -1:
            raise ZeroDivisionError("[a]_{-1} has a pole at a = -1")
        return 1 / (a + 1)
    out = Fraction(1)
    for i in range(m):
        out *= a - i
    return out


def quasi_shuffle_type_count(k: int, l: int, r: int) -> int:
    """Closed count of (k,l)-quasi-shuffles of type r."""
    return comb(k + l - r, r) * comb(k + l - 2 * r, k - r)


def oracle_bernoulli(n: int) -> list:
    """B_0..B_n from sum_{i<=k} C(k+1, i) B_i = 0, one index at a time in
    Fractions: the recurrence the library used before the tangent numbers."""
    out = [Fraction(1), Fraction(-1, 2)]
    while len(out) <= n:
        k = len(out)
        out.append(Fraction(-sum(comb(k + 1, i) * out[i] for i in range(k)), k + 1))
    return out[: n + 1]


def von_staudt_denominator(k: int) -> int:
    """Denominator of B_k for even k >= 2 (von Staudt-Clausen): the product of
    the primes p with p - 1 dividing k."""
    return prod(p for p in range(2, k + 2) if k % (p - 1) == 0 and all(p % d for d in range(2, p)))


class TestBernoulli:
    def test_against_the_rational_recurrence(self):
        assert [bernoulli(k) for k in range(301)] == oracle_bernoulli(300)

    def test_table_doubles_on_demand(self, monkeypatch):
        table = [Fraction(1), Fraction(-1, 2)]
        monkeypatch.setattr(combinat, "_BERNOULLI", table)
        sizes = []
        for k in (1, 5, 6, 11, 12, 40):
            bernoulli(k)
            sizes.append(len(table))
        assert sizes == [2, 6, 12, 12, 24, 48]
        assert table == oracle_bernoulli(47)

    def test_high_index(self):
        # B_2064 is the largest Bernoulli number zeta(-2063) needs
        b = bernoulli(2064)
        assert b < 0 and b.denominator == von_staudt_denominator(2064)
        assert bernoulli(2063) == 0

    def test_values(self):
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_recurrence_and_odd_vanishing(self):
        for k in range(2, 31):
            assert sum(comb(k, i) * bernoulli(i) for i in range(k)) == 0
        for k in range(3, 31, 2):
            assert bernoulli(k) == 0

    def test_poly_values(self):
        assert bernoulli_poly(1, Fraction(1)) == Fraction(1, 2)
        assert bernoulli_poly(2, Fraction(0)) == Fraction(1, 6)
        assert bernoulli_poly(4, Fraction(1)) == Fraction(-1, 30)

    def test_poly_shift_identity(self):
        rng = random.Random(7)
        for k in range(1, 13):
            for _ in range(20):
                x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                assert bernoulli_poly(k, x + 1) - bernoulli_poly(k, x) == k * x ** (k - 1)

    def test_poly_argument(self):
        v = Poly.x()
        p = bernoulli_poly(2, v + 1)
        assert p == Poly((Fraction(1, 6), 1, 1))  # v^2 + v + 1/6


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(Fraction(5), 3) == 60
        assert falling_factorial(Fraction(3), 5) == 0
        assert falling_factorial(Fraction(4), -1) == Fraction(1, 5)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            falling_factorial(Fraction(-1), -1)

    def test_poly_variant(self):
        beta = Poly((2, -1))  # 2 - z
        assert falling_factorial(beta, 2) == beta * (beta - 1)
        inv = falling_factorial(beta, -1)
        assert isinstance(inv, RationalFunction)
        assert inv(Fraction(0)) == Fraction(1, 3)


class TestStirling:
    def test_against_log_definition(self):
        # log(1+x)^k/k! = sum_n s(n, k) x^n/n!: the x^n coefficient is the sum
        # over compositions of n into k parts of prod (-1)^(p-1)/p, over k!
        for n in range(1, 11):
            by_parts = {}
            for parts in compositions(n):
                term = prod(Fraction((-1) ** (p - 1), p) for p in parts)
                by_parts[len(parts)] = by_parts.get(len(parts), 0) + term
            for k in range(1, n + 1):
                assert by_parts[k] / factorial(k) == Fraction(stirling1(n, k), factorial(n))

    def test_falling_factorial_coefficients(self):
        for n in range(9):
            coeffs = falling_factorial(Poly.x(), n).coeffs
            assert list(coeffs) == [stirling1(n, k) for k in range(n + 1)]
        assert stirling1(3, 5) == 0
        with pytest.raises(ValueError):
            stirling1(-1, 0)


class TestFaulhaber:
    def test_examples(self):
        assert faulhaber_interp(1, 0, 10) == 55
        assert faulhaber_interp(0, 0, 7) == 7
        assert faulhaber_interp(2, Fraction(1, 2), 3) == Fraction(83, 4)

    def test_matches_direct_sums(self):
        for b in range(9):
            for v in (Fraction(0), Fraction(1, 2), Fraction(2, 3)):
                acc = Fraction(0)
                assert faulhaber_interp(b, v, 0) == 0
                for n in range(1, 51):
                    acc += (n + v) ** b
                    assert faulhaber_interp(b, v, n) == acc


def compositions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) compositions of n, lexicographic by parts, by recursion
    on the first part: the oracle that ``combinat.contractions`` of
    (1,) * n is checked against.

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
    to their sums: one contraction at a time, the definition that
    ``combinat.contractions`` is checked against."""
    if sum(parts) != len(values):
        raise ValueError("composition does not match the sequence length")
    out = []
    i = 0
    for p in parts:
        out.append(sum(values[i : i + p]))
        i += p
    return tuple(out)


class TestCompositions:
    def test_examples(self):
        assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert compositions(1) == [(1,)]
        assert len(compositions(4)) == 8

    def test_lexicographic(self):
        for n in range(1, 7):
            cs = compositions(n)
            assert cs == sorted(cs)
            assert all(sum(c) == n for c in cs)

    def test_packet_sums(self):
        assert packet_sums((1, 2, 3, 4), (2, 2)) == (3, 7)
        with pytest.raises(ValueError):
            packet_sums((1, 2), (3,))

    def test_are_the_contractions_of_ones(self):
        # words and mzv read the packet cuts from contractions((1,) * n)
        for n in range(1, 11):
            assert contractions((1,) * n) == compositions(n)


class TestContractions:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=10).map(tuple))
    def test_same_words_as_packet_sums(self, word):
        want = [packet_sums(word, parts) for parts in compositions(len(word))]
        assert contractions(word) == want

    def test_order_of_compositions(self):
        # the i-th contraction sums the packets of the i-th composition
        # (words._hoffman_word pairs contractions(w) with those of (1,) * n):
        # with letters 2^i every contraction is a different word, so the
        # order is pinned
        for n in range(1, 12):
            word = tuple(2**i for i in range(n))
            want = [packet_sums(word, parts) for parts in compositions(n)]
            assert len(set(want)) == len(want)
            assert contractions(word) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=10).map(tuple))
    def test_counts_are_the_contractions_counted(self, word):
        # merged letter by letter, from the empty prefix or from the counts
        # of the word without its last letter (how mzv._weak_table builds
        # a batch): the same multiset as the 2^(k-1) contractions
        want = Counter(contractions(word))
        assert contraction_counts(word) == want
        if len(word) > 1:
            assert contraction_counts(word, contraction_counts(word[:-1])) == want

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            contractions(())
        with pytest.raises(ValueError):
            contraction_counts(())

    def test_refuses_depth_at_recursion_limit_at_once(self):
        # the 2^1199 contractions must never be enumerated
        t0 = time.monotonic()
        with pytest.raises(RecursionError):
            zeta_value((0,) * 1200, 0, "weak")
        assert time.monotonic() - t0 < 1.0


def brute_force_quasi_shuffles(k, l):
    """Independent oracle: enumerate all maps and filter by the definition."""
    found = set()
    for r in range(min(k, l) + 1):
        size = k + l - r
        def rec(i, assignment):
            if i == k + l:
                if len(set(assignment)) == size and all(
                    assignment.count(t) in (1, 2) for t in range(size)
                ):
                    left = [assignment[p] for p in range(k)]
                    right = [assignment[p] for p in range(k, k + l)]
                    if left == sorted(left) and len(set(left)) == k and right == sorted(
                        right
                    ) and len(set(right)) == l:
                        found.add((size, tuple(assignment)))
                return
            for t in range(size):
                rec(i + 1, assignment + [t])
        rec(0, [])
    return found


class TestQuasiShuffles:
    def test_counts(self):
        assert len(quasi_shuffles(1, 1)) == 3
        assert len(quasi_shuffles(2, 1)) == 5
        assert sum(1 for q in quasi_shuffles(1, 1) if q.merges == 0) == 2

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
    def test_against_brute_force(self, k, l):
        ours = {(q.target_size, q.assignment) for q in quasi_shuffles(k, l)}
        assert ours == brute_force_quasi_shuffles(k, l)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("l", range(1, 5))
    def test_type_counts(self, k, l):
        qs = quasi_shuffles(k, l)
        for r in range(min(k, l) + 1):
            assert sum(1 for q in qs if q.merges == r) == quasi_shuffle_type_count(k, l, r)

    def test_shuffle_patterns(self):
        assert len(shuffles(2, 2)) == 6
        assert all(p.count(0) == 2 and p.count(1) == 2 for p in shuffles(2, 2))


_LETTER_WORDS = st.lists(st.integers(0, 4), max_size=4).map(tuple)


class TestFirstLetterRecursion:
    """words.shuffle and words.stuffle (one first-letter recursion) against
    the enumeration of (quasi-)shuffles: same terms, coefficients and term
    order."""

    @staticmethod
    def same(got: TensorPoly, want: TensorPoly):
        assert list(got.terms.items()) == list(want.terms.items())

    @settings(max_examples=150, deadline=None)
    @given(_LETTER_WORDS, _LETTER_WORDS)
    def test_drawn_words(self, u, w):
        for mode in ("strict", "weak"):
            self.same(words.stuffle(u, w, mode), oracle_stuffle(u, w, mode))
        self.same(words.shuffle(u, w), oracle_shuffle(u, w))

    def test_all_pairs_of_small_weight(self):
        # every pair of words with letters 0..3, depth <= 3 and weight <= 4,
        # including repeated and zero letters (where terms coincide)
        pool = [()] + [
            w
            for n in range(1, 4)
            for w in iproduct(range(4), repeat=n)
            if sum(w) <= 4
        ]
        for u in pool:
            for w in pool:
                if sum(u) + sum(w) > 4:
                    continue
                for mode in ("strict", "weak"):
                    self.same(words.stuffle(u, w, mode), oracle_stuffle(u, w, mode))
                self.same(words.shuffle(u, w), oracle_shuffle(u, w))


class TestDiscreteRotaBaxter:
    def test_weight_one_identity(self):
        # P(f)(N) = sum_{m<=N} f(m) satisfies P(f)P(g) = P(P(f)g) + P(fP(g)) - P(fg)
        rng = random.Random(11)
        for _ in range(5):
            f = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(31)]
            g = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(31)]

            def P(seq):
                out, acc = [], Fraction(0)
                for x in seq:
                    acc += x
                    out.append(acc)
                return out

            Pf, Pg = P(f), P(g)
            lhs = [Pf[n] * Pg[n] for n in range(31)]
            rhs = [
                x + y - z
                for x, y, z in zip(
                    P([Pf[n] * g[n] for n in range(31)]),
                    P([f[n] * Pg[n] for n in range(31)]),
                    P([f[n] * g[n] for n in range(31)]),
                )
            ]
            assert lhs == rhs
