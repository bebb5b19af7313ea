import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from renzeta.combinat import (
    bernoulli,
    bernoulli_poly,
    compositions,
    faulhaber_interp,
    packet_sums,
    quasi_shuffles,
    shuffles,
    stirling1,
)
from renzeta.exactnum import Poly, RationalFunction, as_rational


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


class TestBernoulli:
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
