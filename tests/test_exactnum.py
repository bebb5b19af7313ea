import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta.exactnum import (
    LaurentSeries,
    LaurentWindowError,
    Poly,
    RationalFunction,
    _terms_str,
    as_rational,
    parse_int,
    parse_rational,
    rat_str,
)


def pole_order_at_zero(f: RationalFunction) -> int:
    """Order of the pole of f at z = 0 (0 where f is holomorphic or zero)."""
    if f.is_zero:
        return 0

    def valuation(p: Poly) -> int:
        return next(i for i, c in enumerate(p.coeffs) if c != 0)

    return max(0, valuation(f.den) - valuation(f.num))


def agrees_with(a: LaurentSeries, b: LaurentSeries) -> bool:
    """Coefficient-wise equality on the overlap of the two windows."""
    orders = [o for o in (a.order, b.order) if o is not None]
    lo = min(a.min_exponent, b.min_exponent)
    if orders:
        hi = min(orders)
    else:
        hi = max(a.min_exponent + len(a.coeffs), b.min_exponent + len(b.coeffs))
    return all(a.coefficient(k) == b.coefficient(k) for k in range(lo, hi + 1))


def holomorphic_part(s: LaurentSeries) -> LaurentSeries:
    """Everything from z^0 on, keeping the validity window."""
    if not s.coeffs:
        return LaurentSeries.zero(s.order)
    lo = max(0, s.min_exponent)
    hi = s.min_exponent + len(s.coeffs)
    return LaurentSeries(lo, [s.coefficient(k) for k in range(lo, hi)], s.order)


def rat_arith(a, b, op: str) -> Fraction:
    """Exact rational arithmetic; op is one of ``+ - * /``."""
    a, b = as_rational(a), as_rational(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ZeroDivisionError("exact division by zero")
        return a / b
    raise ValueError(f"unknown operation {op!r}")


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


class TestRationals:
    def test_examples(self):
        assert rat_arith(Fraction(1, 6), Fraction(-1, 30), "+") == Fraction(2, 15)
        assert rat_arith(Fraction(3, 8), 0, "*") == 0
        assert rat_arith(Fraction(1, 288), Fraction(1, 12), "/") == Fraction(1, 24)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat_arith(1, 0, "/")

    @given(rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    def test_serialization_round_trip(self):
        for s in ("3/8", "-1/240", "0", "117977/75675600", "-7"):
            assert rat_str(parse_rational(s)) == s

    def test_parse_rejects_floats(self):
        for bad in ("0.5", "1e-3", "1/0", "nan", "3 / 8"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_as_rational_refuses_inexact_and_bool(self):
        # a bool is an int to Python, but True is no shift: refused as a float is
        assert as_rational(3) == 3 and as_rational(Fraction(1, 7)) == Fraction(1, 7)
        for bad in (0.5, True, False, "1/2"):
            with pytest.raises(TypeError):
                as_rational(bad)

    def test_integer_grammar(self):
        # one grammar for every integer on the command line: ASCII digits
        # after an optional sign, surrounding whitespace allowed
        assert [parse_int(s) for s in ("12", " -3 ", "+0", "007")] == [12, -3, 0, 7]
        for bad in ("1_0", "\u0663", "", "-", "1.0", "0x1", "1 2", "1e3"):
            with pytest.raises(ValueError):
                parse_int(bad)
        assert parse_rational(" -12/5 ") == Fraction(-12, 5)
        for bad in ("1_0", "\u0663", "\u0661/\u0663", "1/1\u0663", "1/1_0"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestPoly:
    def test_degree_sentinel(self):
        assert Poly.zero().degree == -1
        assert Poly((1, 2, 0, 0)).degree == 1

    def test_truth_value(self):
        # false exactly for the zero polynomial, like a zero Fraction
        assert not Poly.zero()
        assert not Poly((0, 0))
        assert not Poly.x() - Poly.x()
        assert Poly.one() and Poly.x() and Poly((0, 0, Fraction(1, 3)))
        assert all(bool(p) == (not p.is_zero) for p in (Poly.zero(), Poly.x(), -Poly.one()))

    def test_divmod_exact(self):
        p = Poly((2, 3, 1))  # (x+1)(x+2)
        q, r = divmod(p, Poly((1, 1)))
        assert q == Poly((2, 1)) and r.is_zero

    def test_gcd_monic(self):
        a = Poly((0, 2, 2))  # 2x(x+1)
        b = Poly((2, 4, 2))  # 2(x+1)^2
        assert Poly.gcd(a, b) == Poly((1, 1))

    @given(
        st.lists(rationals, max_size=5),
        st.lists(rationals, max_size=5),
        rationals,
    )
    @settings(max_examples=50)
    def test_evaluation_is_homomorphism(self, cs, ds, x):
        p, q = Poly(cs), Poly(ds)
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)

    def test_interpolation(self):
        pts = [(Fraction(i), Fraction(i) ** 3 - 2) for i in range(5)]
        poly = Poly.interpolate(pts)
        assert poly == Poly((-2, 0, 0, 1))
        with pytest.raises(ValueError):
            Poly.interpolate([(1, 1), (1, 2)])

    def test_compose(self):
        p = Poly((0, 0, 1))  # x^2
        shifted = p(Poly((1, 1)))  # (x+1)^2
        assert shifted == Poly((1, 2, 1))


class TestRationalFunction:
    def test_normalization(self):
        f = RationalFunction(Poly((0, 2)), Poly((0, 0, 4)))  # 2z / 4z^2
        assert f == RationalFunction(Poly((1,)), Poly((0, 2)))
        assert f.den.coeffs[-1] == 1

    def test_pole_order(self):
        f = RationalFunction(Poly.one(), Poly((0, 0, 1)))
        assert pole_order_at_zero(f) == 2
        assert pole_order_at_zero(f * RationalFunction(Poly((0, 0, 0, 1)))) == 0

    def test_evaluate(self):
        f = RationalFunction(Poly((1, 1)), Poly((2, 1)))
        assert f(Fraction(1)) == Fraction(2, 3)
        with pytest.raises(ZeroDivisionError):
            f(Fraction(-2))


# Products of linear factors over a few shared roots, so operands often share
# factors and every cancellation branch of the arithmetic is reached.
_roots = st.sampled_from((0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 2)))
_scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def factored_polys(draw, nonzero=True):
    lead = draw(_scalars.filter(lambda q: q != 0) if nonzero else _scalars)
    p = Poly((lead,))
    for r in draw(st.lists(_roots, max_size=4)):
        p = p * Poly((-r, 1))
    return p


def unreduced_pairs():
    return st.tuples(factored_polys(nonzero=False), factored_polys())


def assert_canonical(f: RationalFunction):
    assert f.den.coeffs[-1] == 1
    if f.num.is_zero:
        assert f.den == Poly.one()
    else:
        assert Poly.gcd(f.num, f.den) == Poly.one()


class TestRationalFunctionArithmetic:
    """Every operation gives exactly what the normalising constructor gives
    on the unreduced numerator and denominator, and a canonical result."""

    @given(unreduced_pairs(), unreduced_pairs(), _scalars)
    @settings(max_examples=200, deadline=None)
    def test_against_normalising_constructor(self, pa, pb, q):
        (n1, d1), (n2, d2) = pa, pb
        a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
        cases = [
            (a + b, n1 * d2 + n2 * d1, d1 * d2),
            (a - b, n1 * d2 - n2 * d1, d1 * d2),
            (a * b, n1 * n2, d1 * d2),
            (-a, -n1, d1),
            (a * q, n1 * q, d1),
            (q * a, n1 * q, d1),
            (a + q, n1 + d1 * q, d1),
            (q - a, d1 * q - n1, d1),
        ]
        if not b.is_zero:
            cases.append((a / b, n1 * d2, d1 * n2))
        for n in range(5):
            cases.append((a**n, n1**n, d1**n))
        if not a.is_zero:
            for n in range(1, 4):
                cases.append((a**-n, d1**n, n1**n))
        for got, num, den in cases:
            want = RationalFunction(num, den)
            assert_canonical(got)
            assert (got.num, got.den) == (want.num, want.den)
            assert hash(got) == hash(want) and got.to_str() == want.to_str()

    def test_against_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")

        def to_sympy(p: Poly):
            return sum(sympy.Rational(c) * z**i for i, c in enumerate(p.coeffs))

        x = Poly.x()
        raw = [
            ((x - 1) * (x + 2), (x - 1) ** 2 * x * 3),
            (x * (x + 2), (x - 1) * (2 * x + 1)),
            (Poly((Fraction(1, 2),)), x**2 + 1),
        ]
        a, b, c = (RationalFunction(n, d) for n, d in raw)
        sa, sb, sc = (to_sympy(n) / to_sympy(d) for n, d in raw)
        cases = [
            (a + b, sa + sb),
            (a - b, sa - sb),
            (a * b, sa * sb),
            (a / b, sa / sb),
            (b**-2, sb**-2),
            (a + c, sa + sc),
            ((a + b) * c - b, (sa + sb) * sc - sb),
        ]
        for got, theirs in cases:
            num, den = sympy.fraction(sympy.cancel(theirs))
            lead = sympy.Poly(den, z).LC()
            assert sympy.expand(num / lead - to_sympy(got.num)) == 0
            assert sympy.expand(den / lead - to_sympy(got.den)) == 0

    def test_zero_and_errors(self):
        x = Poly.x()
        f = RationalFunction(x + 1, x)
        zero = f - f
        assert zero.is_zero and zero.den == Poly.one()
        assert (f * 0).is_zero and (f * 0).den == Poly.one()
        assert f + 0 == f and 0 + f == f
        assert zero**0 == 1
        with pytest.raises(ZeroDivisionError):
            f / zero
        with pytest.raises(ZeroDivisionError):
            zero**-1

    def test_foreign_operand_raises_type_error(self):
        # an operand it cannot coerce is NotImplemented on both sides, so
        # Python raises TypeError rather than recursing
        f = RationalFunction(1, Poly((0, 1)))
        assert 2 / f == RationalFunction(Poly((0, 2)))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(1.5, f)
            with pytest.raises(TypeError):
                op(f, 1.5)

    def test_gcd_with_constant_is_one(self):
        assert Poly.gcd(Poly((Fraction(3, 2),)), Poly((1, 2, 1))) == Poly.one()
        assert Poly.gcd(Poly((0, 1)), Poly((-4,))) == Poly.one()
        assert Poly.gcd(Poly.zero(), Poly((7,))) == Poly.one()
        assert Poly.gcd(Poly.zero(), Poly((0, 2))) == Poly((0, 1))


class TestLaurent:
    def test_expand_examples(self):
        s = RationalFunction(1, Poly((0, -2))).laurent_expand(1)  # 1/(-2z)
        assert s.min_exponent == -1 and s.coefficient(-1) == Fraction(-1, 2)
        assert s.coefficient(0) == 0 and s.coefficient(1) == 0

        geo = RationalFunction(1, Poly((1, -1))).laurent_expand(2)  # 1/(1-z)
        assert [geo.coefficient(k) for k in (0, 1, 2)] == [1, 1, 1]

        # 1/(b+1-cz) with b=0, c=1
        h = RationalFunction(1, Poly((1, -1))).laurent_expand(1)
        assert h.coefficient(0) == 1 and h.coefficient(1) == 1

    def test_window_fails_loudly(self):
        s = RationalFunction(1, Poly((1, -1))).laurent_expand(2)
        with pytest.raises(LaurentWindowError):
            s.coefficient(3)

    def test_mul_examples(self):
        zinv = LaurentSeries(-1, (1,), order=2)
        z = LaurentSeries(1, (1,), order=2)
        assert (zinv * z).constant_term() == 1

        s = LaurentSeries(-1, (1, 1), order=2)  # 1/z + 1
        sq = s * s
        assert sq.coefficient(-2) == 1 and sq.coefficient(-1) == 2 and sq.coefficient(0) == 1

        inv_2z2 = RationalFunction(1, Poly((0, 0, 2))).laurent_expand(2)
        z2 = RationalFunction(Poly((0, 0, 1))).laurent_expand(2)
        half = inv_2z2 * z2
        assert half.constant_term() == Fraction(1, 2)

    def test_mul_window_tracking(self):
        a = LaurentSeries(-1, (1,), order=1)  # 1/z known through z
        b = LaurentSeries(-2, (1,), order=0)  # 1/z^2 known through 1
        prod = a * b
        assert prod.order == -1  # min(1 + -2, 0 + -1)
        with pytest.raises(LaurentWindowError):
            prod.constant_term()

    def test_mul_zero_on_window(self):
        zero_win = LaurentSeries(0, (), order=3)
        b = LaurentSeries(-1, (1, 2), order=5)
        prod = zero_win * b
        assert prod.is_zero and prod.order == 2  # 3 + (-1)
        exact_zero = LaurentSeries.zero(None)
        assert (exact_zero * b).order is None
        exact = LaurentSeries(-2, (1,), order=None)
        assert (exact * b).order == 3  # 5 + (-2)

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40)
    def test_expand_is_multiplicative(self, ns, ds, ka, kb):
        # denominators z^k * (unit): force nonzero constant terms
        if ds[0] == 0:
            ds[0] = Fraction(1)
        if ns[0] == 0:
            ns[0] = Fraction(1)
        fa = RationalFunction(Poly(ns), Poly([0] * ka + [Fraction(1)]) * Poly(ds))
        fb = RationalFunction(Poly(ds), Poly([0] * kb + [Fraction(1)]))
        order = 3
        lhs = (fa * fb).laurent_expand(order)
        rhs = fa.laurent_expand(order + kb) * fb.laurent_expand(order + ka)
        assert agrees_with(lhs, rhs) or agrees_with(rhs, lhs)

    def test_sum_cuts_at_the_shorter_window(self):
        # a summand that is zero on its window still cuts the sum there
        a, zero = LaurentSeries(0, (1, 1, 1), 5), LaurentSeries.zero(1)
        one_plus_z = LaurentSeries(0, (1, 1), 1)
        assert a + zero == one_plus_z and zero + a == one_plus_z
        assert a - zero == one_plus_z and zero - a == -one_plus_z
        assert (a + LaurentSeries.zero(-2)) == LaurentSeries.zero(-2)
        assert a + LaurentSeries.zero(None) == a

    @given(
        st.lists(_scalars, min_size=1, max_size=3),
        st.lists(_scalars, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-3, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_expand_against_sympy_series(self, ns, ds, pole, order):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        if ds[0] == 0:
            ds[0] = Fraction(1)  # a unit denominator part: the pole is exactly z^pole
        f = RationalFunction(Poly(ns), Poly([0] * pole + ds))
        got = f.laurent_expand(order)
        assert got.order == order
        expr = sum(sympy.Rational(c) * z**i for i, c in enumerate(ns)) / sum(
            sympy.Rational(c) * z ** (pole + i) for i, c in enumerate(ds)
        )
        theirs = sympy.expand(sympy.series(expr, z, 0, 7).removeO())
        for k in range(-3, order + 1):
            assert got.coefficient(k) == Fraction(str(theirs.coeff(z, k)))

    @given(
        st.lists(_scalars, min_size=1, max_size=3),
        st.lists(_scalars, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-3, max_value=6),
        st.integers(min_value=-3, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_expand_is_additive(self, ns, ms, shift, ka, kb):
        # g = z^shift * (...) is zero on every window below its valuation
        f = RationalFunction(Poly(ns), Poly((0, 1)))
        g = RationalFunction(Poly([0] * shift + ms), Poly((1, 2)))
        lhs = (f + g).laurent_expand(min(ka, kb))
        assert lhs == f.laurent_expand(ka) + g.laurent_expand(kb)
        assert lhs == g.laurent_expand(kb) + f.laurent_expand(ka)

    def test_pole_and_holomorphic_parts(self):
        s = LaurentSeries(-2, (1, 2, 3, 4), order=3)
        pp = s.pole_part()
        assert pp.order is None and pp.coefficient(-2) == 1 and pp.coefficient(-1) == 2
        hp = holomorphic_part(s)
        assert hp.min_exponent == 0 and hp.coefficient(0) == 3


def fraction_terms_str(terms, var: str) -> str:
    """The term printer as it was over (exponent, Fraction) pairs, before it
    took integer triples: the reference for :func:`_terms_str`."""
    parts = []
    for k, c in terms:
        num = c.numerator
        if not num:
            continue
        neg = num < 0
        if neg:
            num = -num
        den = c.denominator
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


class TestTermsStr:
    @given(
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
                st.one_of(st.integers(1, 12), st.integers(1, 10**30)),
            ),
            max_size=6,
        ),
        st.sampled_from(("z", "v")),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_triples_print_as_fractions(self, terms, var):
        """Each triple prints as its reduced Fraction did, common factors
        of numerator and denominator included."""
        want = fraction_terms_str([(k, Fraction(n, d)) for k, n, d in terms], var)
        assert _terms_str(terms, var) == want

    def test_spot(self):
        assert _terms_str([(-1, -2, 4), (0, 6, 2), (2, -5, 5), (1, 0, 7)], "z") == "-1/2*z^-1 + 3 - z^2"
        assert _terms_str([], "z") == _terms_str([(3, 0, 2)], "z") == "0"
