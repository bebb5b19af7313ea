"""Exact continuous side: the power-log symbol algebra on [1, oo), cut-off
integrals, the integration operator from the lower bound 1, the Laurent-valued
multiplicative character on tensor words of symbols, its minimal-subtraction
(Birkhoff) factorisation, and the renormalised iterated-integral zeta analog.

A symbol is a finite sum of terms q(z) * t^(b - c z) * (log t)^m, q in Q(z).
The lower integration bound is fixed at 1 so every boundary value stays in
Q(z). Zeta words get their characters from a product formula, one linear
factor at a time, not symbols. Their renormalised values come from one
integer pass of minimal subtraction along the word's prefixes, the only
words the factorisation visits there, which extends only the subword
windows it reads; the general factorisation over Fraction Laurent series
serves symbol words.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .exactnum import (
    LaurentSeries,
    LaurentWindowError,
    Poly,
    RationalFunction,
    as_rational,
)


class InsufficientOrder(LaurentWindowError):
    """A Birkhoff product needed Laurent coefficients beyond the window the
    character was expanded to."""


class PowerLogTerm(NamedTuple):
    b: int
    c: Fraction
    m: int
    coeff: RationalFunction


def _rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Poly):
        return RationalFunction(x)
    return RationalFunction.constant(as_rational(x))


class PowerLogExpr:
    """Normalized finite sum of power-log terms; immutable and hashable.

    Closed under products and under integration from 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[int, Fraction, int], RationalFunction] = {}
        for t in terms:
            b, c, m, coeff = t[0], as_rational(t[1]), t[2], _rf(t[3])
            if type(b) is not int or type(m) is not int:  # refused, not truncated
                raise ValueError(f"exponent and log power must be of type int, got {b!r}, {m!r}")
            if m < 0:
                raise ValueError("log power must be nonnegative")
            if coeff.is_zero:
                continue
            key = (b, c, m)
            acc = merged.get(key)
            merged[key] = coeff if acc is None else acc + coeff
        self.terms = tuple(
            PowerLogTerm(b, c, m, coeff)
            for (b, c, m), coeff in sorted(merged.items())
            if not coeff.is_zero
        )

    @classmethod
    def zero(cls) -> "PowerLogExpr":
        return cls(())

    @classmethod
    def constant(cls, q) -> "PowerLogExpr":
        return cls(((0, Fraction(0), 0, _rf(q)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, PowerLogExpr):
            return NotImplemented
        return PowerLogExpr(self.terms + other.terms)

    def __neg__(self):
        return PowerLogExpr(tuple((b, c, m, -q) for b, c, m, q in self.terms))

    def __sub__(self, other):
        if not isinstance(other, PowerLogExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, RationalFunction)):
            q = _rf(other)
            return PowerLogExpr(tuple((b, c, m, cf * q) for b, c, m, cf in self.terms))
        if not isinstance(other, PowerLogExpr):
            return NotImplemented
        out = []
        for b1, c1, m1, q1 in self.terms:
            for b2, c2, m2, q2 in other.terms:
                out.append((b1 + b2, c1 + c2, m1 + m2, q1 * q2))
        return PowerLogExpr(tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PowerLogExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "PowerLogExpr(0)"
        bits = []
        for b, c, m, q in self.terms:
            exp = f"{b}" if c == 0 else f"{b}-{c}z"
            s = f"({q.to_str()})*t^({exp})"
            if m:
                s += f"*log^{m}(t)"
            bits.append(s)
        return "PowerLogExpr(" + " + ".join(bits) + ")"


def power_symbol(b: int, c=0, m: int = 0, coeff=1) -> PowerLogExpr:
    """The single-term symbol coeff * t^(b - c z) * (log t)^m."""
    return PowerLogExpr(((b, as_rational(c), m, _rf(coeff)),))


def zeta_symbol(s: int) -> PowerLogExpr:
    """The slot symbol t^(-s - z) of the continuous zeta analog."""
    if type(s) is not int:
        raise ValueError(f"a zeta argument must be of type int, got {s!r}")
    return power_symbol(-s, 1)


def _alpha_plus_one(b: int, c: Fraction) -> Poly:
    """alpha(z) + 1 = (b+1) - c z for the term t^(b - c z)."""
    return Poly((Fraction(b + 1), -c))


def cutoff_integral(e: PowerLogExpr) -> RationalFunction:
    """Finite part of the integral over [1, oo) as an exact rational function
    of z.

    A term with exponent alpha(z) = b - cz not identically -1 contributes
    coeff * (-1)^(m+1) m! / (alpha+1)^(m+1); pure log growth (alpha = -1
    identically) has zero finite part.

    >>> cutoff_integral(power_symbol(-3))
    RationalFunction(1/2)
    """
    total = RationalFunction.constant(0)
    for b, c, m, q in e.terms:
        if b == -1 and c == 0:
            continue
        denom = _alpha_plus_one(b, c) ** (m + 1)
        total = total + q * RationalFunction(
            Poly.constant(Fraction((-1) ** (m + 1)) * factorial(m)), denom
        )
    return total


def ptilde(e: PowerLogExpr) -> PowerLogExpr:
    """Integration from 1: the exact antiderivative vanishing at t = 1.

    Raises the log filtration by at most one and stays inside the algebra.

    >>> ptilde(PowerLogExpr.constant(1)).terms == (power_symbol(1) - PowerLogExpr.constant(1)).terms
    True
    """
    out: list[tuple] = []
    for b, c, m, q in e.terms:
        if b == -1 and c == 0:
            # pure t^{-1} log^m: antiderivative log^{m+1} t / (m+1), zero at 1
            out.append((0, Fraction(0), m + 1, q * Fraction(1, m + 1)))
            continue
        inv = RationalFunction(Poly.one(), _alpha_plus_one(b, c))
        # t^{alpha+1} sum_i (-1)^i [m]_i / (alpha+1)^(i+1) log^(m-i) t
        fall = 1
        for i in range(m + 1):
            if i > 0:
                fall *= m - i + 1
            out.append((b + 1, c, m - i, q * Fraction((-1) ** i * fall) * inv ** (i + 1)))
        # boundary value at t = 1: only the log-free part survives
        out.append((0, Fraction(0), 0, q * Fraction((-1) ** (m + 1) * factorial(m)) * inv ** (m + 1)))
    return PowerLogExpr(tuple(out))


def chen_character_exact(word) -> RationalFunction:
    """The nested cut-off integral of a tensor word of symbols as an exact
    rational function of z: integrate from the innermost slot outwards, then
    take the cut-off integral of the outermost.

    >>> chen_character_exact((zeta_symbol(1),))
    RationalFunction((1) / (z))
    """
    word = tuple(word)
    if not word:
        return RationalFunction.constant(1)
    acc = None
    for symbol in reversed(word):
        acc = symbol if acc is None else symbol * ptilde(acc)
    return cutoff_integral(acc)


def _zeta_word_character(s) -> RationalFunction:
    """The character of the zeta word t^(-s_1 - z) x ... x t^(-s_k - z):
    integrating the outermost variable first (continued analytically in z)
    leaves one power per step, so it is the product over r of 1/(r z + e_r),
    e_r = S_r - r, S_r the r-th partial sum of s. The denominator is
    multiplied out in integers; its leading coefficient is k!, and the
    numerator is a constant, so no gcd is taken.

    >>> _zeta_word_character((3, 2))
    RationalFunction((1/2) / (z^2 + 7/2*z + 3))
    >>> _zeta_word_character((1, 1))
    RationalFunction((1/2) / (z^2))
    """
    den, e = [1], 0  # coefficients of the product of (r z + e_r), lowest first
    for r, x in enumerate(s, start=1):
        e += x - 1
        den = [e * a + r * b for a, b in zip(den + [0], [0] + den)]
    lead = factorial(len(s))
    return RationalFunction._reduced(
        Poly.constant(Fraction(1, lead)), Poly(Fraction(c, lead) for c in den)
    )


def _extend_window(window: list, r: int, x: int) -> None:
    """Multiply the open window ``[lo, den, e, xs]``, the character
    z**lo * (xs[0] + xs[1] z + ...) / den of a subword whose last factor
    had e_{r-1} = e, by its r-th factor 1/(r z + e_r), e_r = e + x - 1,
    in place. A factor with e_r = 0 is 1/(r z), a shift; any other is the
    division y_n = (x_n - r y_{n-1}) / e_r, made exact by scaling by e_r
    to the number of terms kept, then reduced by one gcd.
    """
    e = window[2] = window[2] + x - 1
    if e == 0:
        window[0] -= 1
        window[1] *= r
        return
    xs = window[3]
    scale, prev = e ** (len(xs) - 1), 0
    for n, c in enumerate(xs):
        prev = scale * c - r * prev // e  # e * scale * y_n
        xs[n] = prev
    den = window[1] * scale * e
    g = gcd(den, *xs)
    if g > 1:
        den //= g
        xs[:] = [c // g for c in xs]
    window[1] = den


def _zeta_prefix_pass(s, order: int) -> tuple[Fraction, tuple[int, list[int], int]]:
    """The renormalised value of the zeta word with letters s and the
    integer Laurent window ``(lo, nums, den)`` = z**lo * (nums[0] +
    nums[1] z + ...) / den of its character through z**order.

    The minimal-subtraction recursion of :class:`BirkhoffFactorization`,
    run at a zeta word, only visits the prefixes of s. With the unit as
    minus_0 = 1 it reads bar_i = sum over j < i of minus_j * phi(s[j:i]),
    taken over one common denominator (one lcm per prefix) and cut at z**-1
    for i < k, at z**0 for i = k; minus_i = -(pole part of bar_i), reduced
    by one gcd. Prefixes with no pole part drop out. plus = bar + minus and
    minus has no z**0 term, so the value is bar_k's constant term.

    phi(s[j:i]) is the product over r <= i - j of 1/(r z + e_r), e_r =
    S_r - r >= 0, S_r the r-th partial sum of s[j:]. Only the windows read
    are built: one per start j = 0 or with a pole part minus_j, extended
    by one letter per prefix (:func:`_extend_window`). The e_r are
    nondecreasing, so the zero ones are those of the leading ones of
    s[j:]; each window keeps that many terms past z**order, so that every
    subword still reaches z**order after its poles. The window from 0 at
    i = k is the word's own. Raises :class:`InsufficientOrder` when a
    product needs a coefficient past z**order.

    >>> _zeta_prefix_pass((3, 2), 1)  # 1/6 - 7/36 z
    (Fraction(1, 6), (0, [6, -7], 36))
    >>> _zeta_prefix_pass((1, 2), 2)  # z^-1 - 2 + 4z - 8z^2
    (Fraction(-1, 1), (-1, [1, -2, 4, -8], 1))
    >>> _zeta_prefix_pass((1, 1), 2)[0]
    Fraction(0, 1)
    """
    k = len(s)

    def opened(j: int) -> list:
        ones = next((n for n, x in enumerate(s[j:]) if x != 1), k - j)
        return [0, 1, 0, [1] + [0] * (order + ones)]

    # (j, M, ((d, m), ...), window): minus_j = sum of m z**-d over M, d
    # increasing, and the open window of phi(s[j:i])
    minus = [(0, 1, ((0, 1),), opened(0))]
    for i, x in enumerate(s, start=1):
        top = 0 if i == k else -1
        terms = []
        for j, m_den, pole, window in minus:
            if top + pole[-1][0] > order:
                raise InsufficientOrder(f"z^{top + pole[-1][0]} needed; windows end at z^{order}")
            _extend_window(window, i - j, x)
            lo, den, _, nums = window
            terms.append((lo, nums, m_den * den, pole))
        common = lcm(*[den for _, _, den, _ in terms])
        bar = []
        for t in range(-i if i < k else 0, top + 1):
            acc = 0
            for lo, nums, den, pole in terms:
                acc += common // den * sum(m * nums[t + d - lo] for d, m in pole if t + d >= lo)
            bar.append(acc)
        if i == k:
            lo, den, _, nums = minus[0][3]
            return Fraction(bar[0], common), (lo, nums[: max(0, order - lo + 1)], den)
        g = gcd(common, *bar)
        pole = tuple((d, -c // g) for d, c in enumerate(reversed(bar), start=1) if c)
        if pole:
            minus.append((i, common // g, pole, opened(i)))
    return Fraction(1), (0, [1], 1)


class BirkhoffFactorization:
    """Minimal-subtraction factorisation of a Laurent-valued character with
    respect to the deconcatenation coproduct.

    ``phi`` maps nonempty words (tuples of hashable letters) to
    LaurentSeries. ``minus`` is the pole-part character, an exact Laurent
    polynomial in 1/z; ``plus`` is holomorphic at 0 and its value there is
    the renormalised evaluation.
    """

    def __init__(self, phi):
        self._phi = phi
        self._minus: dict[tuple, LaurentSeries] = {}
        self._bar: dict[tuple, LaurentSeries] = {}

    def _phi_of(self, w) -> LaurentSeries:
        out = self._phi(w)
        if not isinstance(out, LaurentSeries):
            raise TypeError("the character must produce LaurentSeries values")
        return out

    def bar(self, w) -> LaurentSeries:
        """phi(w) + sum over proper splits of minus(prefix) * phi(suffix).
        A minus part is exact (``order=None``), so one with no coefficients,
        as on every prefix of a convergent word, adds exactly nothing."""
        w = tuple(w)
        hit = self._bar.get(w)
        if hit is not None:
            return hit
        try:
            total = self._phi_of(w)
            for i in range(1, len(w)):
                pole = self.minus(w[:i])
                phi = self._phi_of(w[i:])
                if not pole.is_zero:
                    total = total + pole * phi
        except LaurentWindowError as exc:
            raise InsufficientOrder(str(exc)) from exc
        self._bar[w] = total
        return total

    def minus(self, w) -> LaurentSeries:
        w = tuple(w)
        if not w:
            raise ValueError("the unit word is not in the augmentation ideal")
        hit = self._minus.get(w)
        if hit is not None:
            return hit
        bar = self.bar(w)
        if bar.order is not None and bar.order < -1:
            raise InsufficientOrder("window too small to read the pole part")
        out = -bar.pole_part()
        self._minus[w] = out
        return out

    def plus(self, w) -> LaurentSeries:
        w = tuple(w)
        if not w:
            return LaurentSeries.constant(1, None)
        return self.bar(w) + self.minus(w)

    def plus_at_zero(self, w) -> Fraction:
        try:
            return self.plus(w).constant_term()
        except LaurentWindowError as exc:
            raise InsufficientOrder(str(exc)) from exc


def _positive_letters(s) -> tuple[int, ...]:
    """The arguments as a tuple of ints >= 1; anything else is refused, not truncated."""
    s = tuple(s)
    if any(type(x) is not int or x < 1 for x in s):
        raise ValueError(f"continuous zeta arguments must be integers >= 1 of type int, got {s}")
    return s


def _zeta_character_and_value(s) -> tuple[RationalFunction, LaurentSeries, Fraction]:
    """The exact character of the word t^(-s_1 - z) x ... x t^(-s_k - z),
    its Laurent window through z**max(1, k), and its renormalised value:
    minimal subtraction in integers along the word's prefixes."""
    s = _positive_letters(s)
    order = max(1, len(s))
    value, (lo, nums, den) = _zeta_prefix_pass(s, order)
    window = LaurentSeries(lo, [Fraction(c, den) for c in nums], order)
    return _zeta_word_character(s), window, value


def zeta_tilde_renorm(s) -> Fraction:
    """Renormalised continuous zeta analog at positive integer arguments:
    the holomorphic Birkhoff factor at z = 0 of the word t^(-s_1 - z) x ...
    x t^(-s_k - z), its characters from the product formula. Coincides with
    the convergent nested integral when s_1 + ... + s_m > m for every m.

    >>> zeta_tilde_renorm((3, 2))
    Fraction(1, 6)
    >>> zeta_tilde_renorm((1, 1))
    Fraction(0, 1)
    """
    return _zeta_prefix_pass(_positive_letters(s), max(1, len(s)))[0]


def pure_power_nested_integral(exponents, lo, hi) -> Fraction:
    """Nested integral of t^(e_1) x ... x t^(e_k) over
    lo <= t_k <= ... <= t_1 <= hi, by exact antiderivatives in the algebra of
    terms t^p log^m t. The value is rational for rational bounds as long as
    no log power survives at a bound other than 1 (log 1 = 0). ``hi=None``
    means the improper integral to infinity, which requires every surviving
    power negative."""

    def antiderivative(poly: dict) -> dict:
        out: dict[tuple[int, int], Fraction] = {}

        def bump(key, val):
            out[key] = out.get(key, Fraction(0)) + val

        for (p, m), cf in poly.items():
            if p == -1:
                bump((0, m + 1), cf / (m + 1))
                continue
            fall = Fraction(1)
            for i in range(m + 1):
                if i > 0:
                    fall *= m - i + 1
                bump((p + 1, m - i), cf * (-1) ** i * fall / Fraction(p + 1) ** (i + 1))
        return {k: v for k, v in out.items() if v != 0}

    def value_at(poly: dict, t: Fraction) -> Fraction:
        total = Fraction(0)
        for (p, m), cf in poly.items():
            if m > 0:
                if t == 1:
                    continue  # log 1 = 0
                raise ValueError(f"log power survives at t={t}; value not rational")
            total += cf * t**p
        return total

    exps = tuple(exponents)
    if any(type(e) is not int for e in exps):
        raise ValueError(f"exponents must be of type int, got {exps}")
    lo = as_rational(lo)
    if lo <= 0:
        raise ValueError("lower bound must be positive")
    poly: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for j, e in enumerate(reversed(exps)):
        outermost = j == len(exps) - 1
        lifted = antiderivative({(p + e, m): cf for (p, m), cf in poly.items()})
        if not outermost:
            boundary = value_at(lifted, lo)
            lifted[(0, 0)] = lifted.get((0, 0), Fraction(0)) - boundary
            poly = {k: v for k, v in lifted.items() if v != 0}
        else:
            poly = lifted
    if hi is None:
        if any(p > 0 or (p == 0 and m > 0) for (p, m) in poly):
            raise ValueError("divergent nested integral")
        upper = poly.get((0, 0), Fraction(0))
    else:
        upper = value_at(poly, as_rational(hi))
    return upper - value_at(poly, lo)


def convergent_nested_integral(s) -> Fraction:
    """Direct evaluation of the convergent continuous zeta analog (no
    regularisation, no Laurent series): the oracle for the convergent case."""
    s = _positive_letters(s)
    partial = 0
    for i, x in enumerate(s, start=1):
        partial += x
        if partial <= i:
            raise ValueError("not in the convergence region")
    return pure_power_nested_integral(tuple(-x for x in s), 1, None)
