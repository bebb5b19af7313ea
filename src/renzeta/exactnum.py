"""Exact scalar arithmetic: rationals, dense polynomials over Q, rational
functions of one variable, and truncated Laurent series at z = 0.

All coefficients are ``fractions.Fraction``; nothing in this package ever
rounds. Laurent series carry an explicit validity window and refuse to hand
out coefficients beyond it -- an operation that would need an unavailable
coefficient fails loudly instead of returning a silent zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

#: The scalar field of the whole package.
Rational = Fraction

_INT = r"[+-]?[0-9]+"  # ASCII digits: int() would also take "1_0" and other scripts' digits
_INT_RE = re.compile(_INT, re.ASCII)
_RATIONAL_RE = re.compile(_INT + r"(/[1-9][0-9]*)?", re.ASCII)


class LaurentWindowError(ArithmeticError):
    """A coefficient beyond a series' validity window was requested."""


def as_rational(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact, and
    a bool, which Python counts as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rat_str(q) -> str:
    """Serialize as ``p/q`` (or ``p`` when q = 1), sign on the numerator."""
    return str(as_rational(q))


def parse_int(s: str) -> int:
    """Parse a decimal integer: an optional sign, then ASCII digits."""
    s = s.strip()
    if not _INT_RE.fullmatch(s):
        raise ValueError(f"not an integer: {s!r}")
    return int(s)


def parse_rational(s: str) -> Fraction:
    """Parse the ``p/q`` wire format: an integer, then optionally ``/`` and
    a positive denominator. Rejects decimals and floats."""
    s = s.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a p/q rational: {s!r}")
    return Fraction(s)


def _terms_str(terms, var: str) -> str:
    """Print (exponent, numerator, denominator) integer triples, each
    denominator positive, in the order given, as a signed sum such as
    ``-1/2*z^-1 + 3 - z^2``; each term is reduced by one gcd, zero terms
    are skipped and an empty sum prints as ``0``."""
    parts = []
    for k, num, den in terms:
        if not num:
            continue
        # the sign taken once, the magnitude printed as str(abs(num/den)) would
        neg = num < 0
        if neg:
            num = -num
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        mag = str(num) if den == 1 else f"{num}/{den}"
        if k == 0:
            body = mag
        else:
            head = "" if mag == "1" else f"{mag}*"
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts) or "0"


def _series_str(terms, order: int | None, var: str) -> str:
    """A Laurent window's text: its (exponent, numerator, denominator)
    terms, then ``+ O(var^(order + 1))`` unless it is exact (order None)."""
    body = _terms_str(terms, var)
    return body if order is None else f"{body} + O({var}^{order + 1})"


def _quotient_str(num: str, den: str) -> str:
    """A quotient's text from its printed numerator and denominator."""
    return num if den == "1" else f"({num}) / ({den})"


class Poly:
    """Dense univariate polynomial over Q.

    Coefficient i is the coefficient of the i-th power of the variable.
    The zero polynomial has degree -1 (the distinguished sentinel).

    >>> p = Poly([Fraction(1, 6), -1, 1])   # x^2 - x + 1/6
    >>> p(Fraction(2))
    Fraction(13, 6)
    >>> p.degree
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((as_rational(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            return Poly(tuple(c * q for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Evaluate by Horner's rule. Works for Fraction and Poly arguments."""
        acc = Poly.zero() if isinstance(x, Poly) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Poly.zero(), self
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (dn - dd + 1)
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(tuple(quot)), Poly(tuple(rem[:dd]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid)."""
        if len(a.coeffs) == 1 or len(b.coeffs) == 1:
            return Poly.one()  # a nonzero constant divides everything
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a * (1 / a.coeffs[-1])

    @classmethod
    def interpolate(cls, points) -> "Poly":
        """Lagrange interpolation through ``[(x_i, y_i), ...]`` (distinct x_i)."""
        points = [(as_rational(x), as_rational(y)) for x, y in points]
        xs = [x for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        total = cls.zero()
        for i, (xi, yi) in enumerate(points):
            if yi == 0:
                continue
            num = cls.one()
            den = Fraction(1)
            for j, (xj, _) in enumerate(points):
                if j == i:
                    continue
                num = num * cls((-xj, 1))
                den *= xi - xj
            total = total + num * (yi / den)
        return total

    def to_str(self, var: str = "z") -> str:
        terms = [(k, *c.as_integer_ratio()) for k, c in enumerate(self.coeffs)]
        return _terms_str(reversed(terms), var)

    def __repr__(self):
        return f"Poly({self.to_str()})"


class RationalFunction:
    """Quotient of two polynomials, reduced, with a monic denominator.

    The constructor reduces any input. Arithmetic between reduced operands
    keeps its result reduced without a full gcd of the result: products
    cancel across (gcd(n1, d2), gcd(n2, d1)), sums take out only what
    gcd(d1, d2) can share with the new numerator (Henrici; Knuth, TAOCP
    vol. 2, 4.5.1), and powers of coprime polynomials stay coprime.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = den if isinstance(den, Poly) else Poly.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead = den.coeffs[-1]
        if lead != 1:
            inv = 1 / lead
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RationalFunction":
        """Wrap a pair already known coprime with den monic (or num zero and
        den one): the canonical form, with no gcd taken."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Poly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other)
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            return self
        if self.is_zero:
            return o
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        g = Poly.gcd(d1, d2)
        if g.degree > 0:
            d1, d2 = d1 // g, d2 // g
        t = n1 * d2 + n2 * d1
        if t.is_zero:
            return RationalFunction._reduced(t, Poly.one())
        den = d1 * d2
        if g.degree > 0:
            # gcd(t, d1 d2 g) = gcd(t, g) for the cofactors d1, d2 of g
            h = Poly.gcd(t, g)
            if h.degree > 0:
                t, g = t // h, g // h
            den = den * g
        return RationalFunction._reduced(t, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RationalFunction._reduced(Poly.zero(), Poly.one())
            return RationalFunction._reduced(self.num * other, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return RationalFunction._reduced(Poly.zero(), Poly.one())
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        g = Poly.gcd(n1, d2)
        if g.degree > 0:
            n1, d2 = n1 // g, d2 // g
        g = Poly.gcd(n2, d1)
        if g.degree > 0:
            n2, d1 = n2 // g, d1 // g
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def _inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        inv = 1 / self.num.coeffs[-1]
        return RationalFunction._reduced(self.den * inv, self.num * inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            return self._inverse() ** (-n)
        return RationalFunction._reduced(self.num**n, self.den**n)

    def __call__(self, x) -> Fraction:
        x = as_rational(x)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of the rational function at {x}")
        return self.num(x) / d

    def laurent_expand(self, order: int) -> "LaurentSeries":
        """Laurent series at z = 0, valid through z**order.

        With num = z^kn * N(z) and den = z^kd * D(z), N(0) and D(0) nonzero,
        the series is z^(kn - kd) * sum c_n z^n, and long division of N by D
        gives c_n = (N_n - sum_{j >= 1} D_j c_{n-j}) / D_0. The pole order at
        0 is the multiplicity of z in the (reduced) denominator.

        >>> RationalFunction(1, Poly((1, -1))).laurent_expand(2)   # 1/(1-z)
        LaurentSeries(1 + z + z^2 + O(z^3))
        """
        if self.is_zero:
            return LaurentSeries.zero(order)
        kn = next(k for k, c in enumerate(self.num.coeffs) if c)
        kd = next(k for k, c in enumerate(self.den.coeffs) if c)
        num, den = self.num.coeffs[kn:], self.den.coeffs[kd:]
        shift = kn - kd  # valuation at 0
        out = []
        for n in range(order - shift + 1):
            c = num[n] if n < len(num) else 0
            for j in range(1, min(n, len(den) - 1) + 1):
                c -= den[j] * out[n - j]
            out.append(c / den[0])
        return LaurentSeries(shift, out, order)

    def to_str(self, var: str = "z") -> str:
        return _quotient_str(self.num.to_str(var), self.den.to_str(var))

    def __repr__(self):
        return f"RationalFunction({self.to_str()})"


class LaurentSeries:
    """Finite window of a Laurent expansion at z = 0.

    ``coeffs[i]`` is the coefficient of z**(min_exponent + i) and the
    expansion is trusted through z**order inclusive. ``order=None`` marks an
    exact Laurent polynomial (every higher coefficient is genuinely zero).
    Requesting a coefficient past ``order`` raises :class:`LaurentWindowError`.
    """

    __slots__ = ("min_exponent", "coeffs", "order")

    def __init__(self, min_exponent: int, coeffs, order: int | None):
        cs = [as_rational(c) for c in coeffs]
        if order is not None and cs and min_exponent + len(cs) - 1 > order:
            raise ValueError("coefficients extend beyond the validity order")
        while cs and cs[0] == 0:
            cs.pop(0)
            min_exponent += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            min_exponent = 0 if order is None else order + 1
        self.min_exponent = min_exponent
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int | None = None) -> "LaurentSeries":
        return cls(0, (), order)

    @classmethod
    def constant(cls, c, order: int | None = None) -> "LaurentSeries":
        return cls(0, (as_rational(c),), order)

    @property
    def is_zero(self) -> bool:
        """True when every stored coefficient vanishes (on the window)."""
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if self.order is not None and k > self.order:
            raise LaurentWindowError(
                f"coefficient of z^{k} requested; expansion only valid through z^{self.order}"
            )
        i = k - self.min_exponent
        if i < 0 or i >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[i]

    def residue(self) -> Fraction:
        return self.coefficient(-1)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def __add__(self, other):
        """Coefficient-wise sum, valid as far as both windows reach.

        >>> LaurentSeries(0, (1, 1, 1), 5) + LaurentSeries.zero(1)
        LaurentSeries(1 + z + O(z^2))
        """
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min((s.order for s in (self, other) if s.order is not None), default=None)
        lo = min(self.min_exponent, other.min_exponent)
        hi = max(s.min_exponent + len(s.coeffs) for s in (self, other))
        if order is not None:
            hi = min(hi, order + 1)
        out = [Fraction(0)] * max(0, hi - lo)
        for s in (self, other):
            for k, c in zip(range(s.min_exponent - lo, len(out)), s.coeffs):
                out[k] += c
        return LaurentSeries(lo, out, order)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.min_exponent, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            return LaurentSeries(
                self.min_exponent, tuple(c * q for c in self.coeffs), self.order
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # Cauchy product, valid only as far as both operands determine it. A
        # zero-on-window series has min_exponent = order + 1 by normalization,
        # which makes the plain window rule below correct for it too.
        if (self.is_zero and self.order is None) or (other.is_zero and other.order is None):
            return LaurentSeries.zero(None)  # an exactly-zero factor
        pairs = ((self, other), (other, self))
        order = min((a.order + b.min_exponent for a, b in pairs if a.order is not None), default=None)
        lo = self.min_exponent + other.min_exponent
        size = len(self.coeffs) + len(other.coeffs) - 1
        if order is not None:
            size = min(size, order - lo + 1)
        out = [Fraction(0)] * max(0, size)
        for i, a in enumerate(self.coeffs):
            for k, b in zip(range(i, len(out)), other.coeffs):
                out[k] += a * b
        return LaurentSeries(lo, out, order)

    __rmul__ = __mul__

    def pole_part(self) -> "LaurentSeries":
        """The z^{<0} part. Exact: finitely many terms, valid everywhere.

        >>> LaurentSeries(-2, (1, 0, 3, 4), 3).pole_part()
        LaurentSeries(z^-2)
        """
        return LaurentSeries(self.min_exponent, self.coeffs[: max(0, -self.min_exponent)], None)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other, self.order)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.min_exponent == other.min_exponent
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.min_exponent, self.coeffs, self.order))

    def to_str(self, var: str = "z") -> str:
        terms = [(k, *c.as_integer_ratio()) for k, c in enumerate(self.coeffs, self.min_exponent)]
        return _series_str(terms, self.order, var)

    def __repr__(self):
        return f"LaurentSeries({self.to_str()})"
