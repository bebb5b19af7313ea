import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renzeta import chenint, cli
from renzeta.chenint import (
    BirkhoffFactorization,
    InsufficientOrder,
    PowerLogExpr,
    chen_character_exact,
    convergent_nested_integral,
    cutoff_integral,
    power_symbol,
    ptilde,
    pure_power_nested_integral,
    zeta_symbol,
    zeta_tilde_renorm,
    _zeta_character_and_value,
    _zeta_prefix_pass,
)
from renzeta.exactnum import LaurentSeries, Poly, RationalFunction
from renzeta.words import shuffle
from test_exactnum import agrees_with, pole_order_at_zero


def chen_character(word, order: int) -> LaurentSeries:
    """Laurent expansion of :func:`chen_character_exact` valid through
    z**order. The pole order is at most the word's depth."""
    return chen_character_exact(word).laurent_expand(order)


def bir_factorize(phi, w) -> tuple:
    """Factorise the character at the word w: returns (phi_minus, phi_plus)
    as callables on subwords of w (and anything else phi can evaluate)."""
    bf = BirkhoffFactorization(phi)
    bf.plus(w)  # force the recursion so errors surface here
    return bf.minus, bf.plus


def zeta_word_closed_form(s) -> RationalFunction:
    """Character of t^(-s_1-z) x ... x t^(-s_k-z) in closed form: the product
    over m of 1/((S_m - m) + m z), S_m = s_1 + ... + s_m. Integrating the
    outermost variable first, from the next one up to infinity (continued
    analytically in z), leaves a single power at every step: one linear
    factor per prefix."""
    out, partial = RationalFunction.constant(1), 0
    for m, x in enumerate(s, start=1):
        partial += x
        out = out * RationalFunction(Poly.one(), Poly((partial - m, m)))
    return out


def zeta_subword_series(s, order: int) -> dict[tuple[int, ...], tuple[int, list[int], int]]:
    """The oracle of :func:`_zeta_prefix_pass`'s windows: the Laurent window
    through z**order of the character of every nonempty contiguous subword
    of the zeta word with letters s, keyed by its letters, in integers:
    ``(lo, nums, den)`` is z**lo * (nums[0] + nums[1] z + ...) / den.

    Each start i carries one window over the whole rest of s, sized order
    plus the run of leading ones of s[i:], and extends it one letter at a
    time with the step the pass uses; repeated subwords keep their first
    window.
    """
    out: dict[tuple[int, ...], tuple[int, list[int], int]] = {}
    for i in range(len(s)):
        ones = next((n for n, x in enumerate(s[i:]) if x != 1), len(s) - i)
        # z**lo * (xs[0] + xs[1] z + ...) / den, valid through z**(lo + len(xs) - 1)
        xs = [1] + [0] * (order + ones)
        lo, den, e = 0, 1, 0
        for r, x in enumerate(s[i:], start=1):
            e += x - 1
            if e == 0:
                lo -= 1
                den *= r
            else:
                scale, prev = e ** (len(xs) - 1), 0
                for n, c in enumerate(xs):
                    prev = scale * c - r * prev // e  # e * scale * y_n
                    xs[n] = prev
                den *= scale * e
                g = gcd(den, *xs)
                if g > 1:
                    den //= g
                    xs = [c // g for c in xs]
            sub = s[i : i + r]
            if sub not in out:
                out[sub] = (lo, xs[: max(0, order - lo + 1)], den)
    return out


def zeta_minimal_subtraction(s, windows, order: int) -> Fraction:
    """The oracle of :func:`_zeta_prefix_pass`'s value: minimal subtraction
    along the prefixes of s over the windows of every subword
    (:func:`zeta_subword_series`), each prefix's bar taken over one common
    denominator and cut at z**-1, the last one at z**0. Raises
    :class:`InsufficientOrder` when a product needs a coefficient past the
    windows' order."""
    k = len(s)
    # (j, M, ((d, m), ...)): minus_j = sum of m z**-d over M, d increasing
    minus = [(0, 1, ((0, 1),))]
    for i in range(1, k + 1):
        top = 0 if i == k else -1
        terms = []
        for j, m_den, pole in minus:
            if top + pole[-1][0] > order:
                raise InsufficientOrder(f"z^{top + pole[-1][0]} needed; windows end at z^{order}")
            lo, nums, den = windows[s[j:i]]
            terms.append((lo, nums, m_den * den, pole))
        common = lcm(*[den for _, _, den, _ in terms])
        bar = []
        for t in range(-i if i < k else 0, top + 1):
            acc = 0
            for lo, nums, den, pole in terms:
                acc += common // den * sum(m * nums[t + d - lo] for d, m in pole if t + d >= lo)
            bar.append(acc)
        if i == k:
            return Fraction(bar[0], common)
        g = gcd(common, *bar)
        pole = tuple((d, -c // g) for d, c in enumerate(reversed(bar), start=1) if c)
        if pole:
            minus.append((i, common // g, pole))
    return Fraction(1)


def window_series(window, order: int) -> LaurentSeries:
    """An integer window ``(lo, nums, den)`` of :func:`zeta_subword_series`
    as the LaurentSeries it stands for, valid through z**order."""
    lo, nums, den = window
    assert all(type(c) is int for c in (lo, den, *nums)) and den > 0
    return LaurentSeries(lo, [Fraction(c, den) for c in nums], order)


def contiguous_subwords(word):
    return {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}


class TestCutoffIntegral:
    def test_examples(self):
        assert cutoff_integral(power_symbol(-3)) == Fraction(1, 2)
        # t^(-1+2z): boundary term -1/(alpha+1) with alpha+1 = 2z
        f = cutoff_integral(power_symbol(-1, -2))
        assert f == RationalFunction(Poly((Fraction(-1, 2),)), Poly((0, 1)))
        assert cutoff_integral(power_symbol(-2, 0, 1)) == 1

    def test_pure_log_growth_vanishes(self):
        assert cutoff_integral(power_symbol(-1, 0, 2)) == 0

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t", positive=True)
        cases = [
            (power_symbol(-3), t**-3),
            (power_symbol(-2, 0, 1), sympy.log(t) / t**2),
            (power_symbol(-4, 0, 2), sympy.log(t) ** 2 / t**4),
        ]
        for expr, integrand in cases:
            ours = cutoff_integral(expr)
            theirs = sympy.integrate(integrand, (t, 1, sympy.oo))
            assert sympy.nsimplify(ours(Fraction(0))) == theirs
        # z-dependent symbol at a rational sample point in the convergent range
        expr = zeta_symbol(2)  # t^(-2-z)
        z0 = Fraction(1, 3)
        theirs = sympy.integrate(t ** sympy.Rational(-7, 3), (t, 1, sympy.oo))
        assert sympy.nsimplify(cutoff_integral(expr)(z0)) == theirs


class TestPtilde:
    def test_examples(self):
        got = ptilde(zeta_symbol(1))  # t^(-1-z) -> (1 - t^(-z))/z
        z = RationalFunction(Poly.one(), Poly((0, 1)))
        expected = PowerLogExpr(((0, Fraction(0), 0, z), (0, Fraction(1), 0, -z)))
        assert got == expected
        assert ptilde(PowerLogExpr.constant(1)) == power_symbol(1) - PowerLogExpr.constant(1)
        assert ptilde(power_symbol(-1)) == power_symbol(0, 0, 1)

    def test_vanishes_at_one(self):
        # every antiderivative must vanish at t = 1: check by direct
        # evaluation of the z-free image terms
        expr = power_symbol(-2) + power_symbol(0, 0, 1) * Fraction(3)
        image = ptilde(expr)
        total = Fraction(0)
        for b, c, m, q in image.terms:
            assert c == 0
            if m == 0:  # log terms vanish at 1 on their own
                total += q(Fraction(0)) * Fraction(1) ** b
        assert total == 0

    def test_rota_baxter_weight_zero(self):
        samples = [
            power_symbol(-2, 1),
            power_symbol(-1, 2, 1),
            zeta_symbol(3) + power_symbol(0, 0, 1),
            power_symbol(-3) * Fraction(2, 5),
        ]
        for f in samples:
            for g in samples:
                lhs = ptilde(f) * ptilde(g)
                rhs = ptilde(f * ptilde(g)) + ptilde(ptilde(f) * g)
                assert lhs == rhs


class TestCharacter:
    def test_depth1(self):
        f = chen_character_exact((zeta_symbol(1),))
        assert f == RationalFunction(Poly.one(), Poly((0, 1)))  # 1/z

    def test_depth2_double_pole(self):
        f = chen_character_exact((zeta_symbol(1), zeta_symbol(1)))
        assert f == RationalFunction(Poly.one(), Poly((0, 0, 2)))  # 1/(2z^2)

    def test_convergent_value(self):
        f = chen_character_exact((zeta_symbol(3), zeta_symbol(2)))
        assert f(Fraction(0)) == Fraction(1, 6)

    def test_pole_order_bound(self):
        for word_s in ((1,), (1, 1), (1, 1, 1), (2, 1, 1, 1)):
            word = tuple(zeta_symbol(s) for s in word_s)
            f = chen_character_exact(word)
            assert pole_order_at_zero(f) <= len(word)

    def test_multiplicativity_sample(self):
        u, w = (1, 2), (1,)
        lhs = RationalFunction.constant(0)
        for word, mult in shuffle(u, w):
            lhs = lhs + mult * chen_character_exact(tuple(zeta_symbol(s) for s in word))
        rhs = chen_character_exact(tuple(zeta_symbol(s) for s in u)) * chen_character_exact(
            (zeta_symbol(1),)
        )
        assert lhs == rhs

    def test_laurent_form(self):
        series = chen_character((zeta_symbol(1), zeta_symbol(1)), 2)
        assert isinstance(series, LaurentSeries)
        assert series.coefficient(-2) == Fraction(1, 2)
        assert series.residue() == 0

    def test_independent_slot_perturbations(self):
        # distinct multiplicities per slot stand in for independent
        # regularisation parameters: t^(-1-2z) (x) t^(-2-3z)
        word = (power_symbol(-1, 2), power_symbol(-2, 3))
        got = chen_character_exact(word)
        z = Poly((0, 1))
        expected = RationalFunction(Poly.one(), Poly((0, 2)) * (1 + 3 * z)) - RationalFunction(
            Poly.one(), (1 + 3 * z) * (1 + 5 * z)
        )
        assert got == expected
        # simple pole only, despite depth 2: the inner slot converges alone
        assert pole_order_at_zero(got) == 1


class TestZetaWordClosedForm:
    """The general engine (ptilde chain, cut-off integral) against the
    independent product formula for zeta words."""

    def test_grid(self):
        for k in range(1, 5):
            for s in product((1, 2, 3, 4), repeat=k):
                got = chen_character_exact(tuple(zeta_symbol(x) for x in s))
                assert got == zeta_word_closed_form(s), s

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_drawn_words(self, s):
        word = tuple(zeta_symbol(x) for x in s)
        assert chen_character_exact(word) == zeta_word_closed_form(s)
        assert _zeta_character_and_value(s)[0] == zeta_word_closed_form(s)


class TestSharedSubwordPass:
    """The character and value `renzeta chen` prints, against the symbol
    algebra, and without running it."""

    def test_character_and_value(self):
        for s in ((1,), (3, 2), (1, 1, 2), (2, 1, 2, 1), (1, 2, 3, 1, 2)):
            exact, window, value = _zeta_character_and_value(s)
            word = tuple(zeta_symbol(x) for x in s)
            assert exact == chen_character_exact(word)
            order = len(s)
            assert window == chen_character(word, order)
            bf = BirkhoffFactorization(lambda w: chen_character(w, order))
            assert value == bf.plus_at_zero(word) == zeta_tilde_renorm(s)

    @pytest.mark.parametrize("word_arg", ["1,2,3,1,2", "3,3,3,3,3", "2,1,3,2,3"])
    def test_cli_runs_no_symbol_algebra(self, word_arg, monkeypatch, capsys):
        s = tuple(int(x) for x in word_arg.split(","))
        want = chen_character_exact(tuple(zeta_symbol(x) for x in s)).to_str()
        # the symbol algebra, the general factorisation and Fraction series products
        owners = {
            "ptilde": chenint,
            "cutoff_integral": chenint,
            "chen_character_exact": chenint,
            "plus_at_zero": BirkhoffFactorization,
            "__mul__": LaurentSeries,
        }
        counts = dict.fromkeys(owners, 0)

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)

            return wrapped

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        assert cli.main(["chen", "--word", word_arg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert counts == dict.fromkeys(owners, 0)
        assert payload["character"] == want


class TestZetaSubwordCharacters:
    """The oracle's integer-built Laurent window of every contiguous subword
    against the symbol algebra (ptilde chain, cut-off integral) expanded by
    long division, and the value `chen` prints against a Birkhoff
    factorisation over the symbol algebra's series."""

    @staticmethod
    def check_subwords(s, order, engine):
        got = zeta_subword_series(s, order)
        assert set(got) == contiguous_subwords(s)
        for sub, window in got.items():
            assert window_series(window, order) == engine(sub).laurent_expand(order), (sub, order)

    @staticmethod
    def symbol_value(s, series):
        order = max(1, len(s))
        bf = BirkhoffFactorization(lambda w: series(w, order))
        return bf.plus_at_zero(tuple(zeta_symbol(x) for x in s))

    def test_grid(self):
        # chen_character is chen_character_exact expanded: memoise the latter
        memo = {}

        def exact(word):
            if word not in memo:
                memo[word] = chen_character_exact(word)
            return memo[word]

        def engine(sub):
            return exact(tuple(zeta_symbol(x) for x in sub))

        def series(w, order):
            return exact(w).laurent_expand(order)

        for k in range(1, 5):
            for s in product((1, 2, 3, 4), repeat=k):
                self.check_subwords(s, k, engine)
                assert _zeta_character_and_value(s) == (
                    engine(s), engine(s).laurent_expand(k), self.symbol_value(s, series)
                )

    @given(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=7),
            st.integers(0, 7).map(lambda k: [1] * k),  # pole order = depth
        ),
        st.integers(0, 4),
    )
    @example([1] * 7, 4)
    @settings(max_examples=40, deadline=None)
    def test_drawn_words(self, s, extra):
        s = tuple(s)
        self.check_subwords(
            s, len(s) + extra, lambda sub: chen_character_exact(tuple(zeta_symbol(x) for x in sub))
        )
        assert _zeta_character_and_value(s)[2] == self.symbol_value(s, chen_character)

    def test_empty_word(self):
        assert zeta_subword_series((), 1) == {}
        one = RationalFunction.constant(1)
        assert _zeta_character_and_value(()) == (one, one.laurent_expand(1), 1)


class TestZetaMinimalSubtraction:
    """The integer pass along the prefixes against the general
    factorisation over the symbol algebra's series."""

    @given(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=7),
            st.integers(0, 7).map(lambda k: [1] * k),  # pole order = depth
        ),
        st.integers(-2, 2),
    )
    @example([1] * 7, 0)
    @example([1] * 7, -1)
    @settings(max_examples=60, deadline=None)
    def test_against_birkhoff(self, s, extra):
        """Equal values where the windows reach far enough, and the same
        InsufficientOrder refusal where they do not."""
        s = tuple(s)
        order = len(s) + extra
        word = tuple(zeta_symbol(x) for x in s)
        try:
            want = BirkhoffFactorization(lambda w: chen_character(w, order)).plus_at_zero(word)
        except InsufficientOrder:
            with pytest.raises(InsufficientOrder):
                _zeta_prefix_pass(s, order)
            return
        assert _zeta_prefix_pass(s, order)[0] == want

    def test_short_window_refused(self):
        # minus(1, 1) = z^-2 / 2 times phi(1) needs its z^2 coefficient
        with pytest.raises(InsufficientOrder):
            _zeta_prefix_pass((1, 1, 1), 0)
        assert _zeta_prefix_pass((1, 1, 1), 2)[0] == 0


class TestZetaPrefixPass:
    """The single pass against the all-subword oracle, and the windows it
    builds."""

    @given(
        st.one_of(
            st.lists(st.integers(1, 6), min_size=1, max_size=7),
            st.integers(1, 7).map(lambda k: [1] * k),  # pole order = depth
            st.tuples(st.integers(0, 7), st.lists(st.integers(1, 4), max_size=4)).map(
                lambda t: [1] * t[0] + t[1]  # a run of ones, then anything
            ).filter(bool),
        ),
        st.integers(-2, 2),
    )
    @example([1] * 7, 0)
    @example([1] * 7, -2)
    @example([2, 1, 1, 1, 1, 1, 1, 1], 1)
    @settings(max_examples=80, deadline=None)
    def test_against_subword_oracle(self, s, extra):
        """The same value and window as the oracle, or the same refusal."""
        s = tuple(s)
        order = len(s) + extra
        windows = zeta_subword_series(s, order)
        try:
            want = zeta_minimal_subtraction(s, windows, order)
        except InsufficientOrder:
            with pytest.raises(InsufficientOrder):
                _zeta_prefix_pass(s, order)
            return
        assert _zeta_prefix_pass(s, order) == (want, windows[s])

    @staticmethod
    def count_steps(s, monkeypatch) -> int:
        steps = 0
        real = chenint._extend_window

        def counted(window, r, x):
            nonlocal steps
            steps += 1
            return real(window, r, x)

        monkeypatch.setattr(chenint, "_extend_window", counted)
        _zeta_character_and_value(s)
        monkeypatch.undo()
        return steps

    def test_extends_only_read_windows(self, monkeypatch):
        # a convergent word has no pole part on any prefix: one window
        assert self.count_steps((3, 2, 2, 2, 3), monkeypatch) == 5
        # every prefix of 1^k has a pole part: a window from every start
        for k in range(1, 8):
            assert self.count_steps((1,) * k, monkeypatch) == k * (k + 1) // 2
        # of the prefixes of (1, 2, 3, 1, 2) only (1,) has a pole part: the
        # windows from 0 and from 1, not all 15 subword steps
        assert self.count_steps((1, 2, 3, 1, 2), monkeypatch) == 5 + 4


class TestBirkhoff:
    def test_depth1_minimal_subtraction(self):
        # phi(w) = 1/z + a: minus = -1/z, plus(0) = a
        a = Fraction(5, 7)
        word = ("x",)

        def phi(w):
            assert w == word
            return LaurentSeries(-1, (1, a), order=1)

        minus, plus = bir_factorize(phi, word)
        assert minus(word).coefficient(-1) == -1
        assert plus(word).constant_term() == a

    def test_double_pole_cancellation(self):
        word = (zeta_symbol(1), zeta_symbol(1))

        def phi(w):
            return chen_character(w, 2)

        bf = BirkhoffFactorization(phi)
        assert bf.plus_at_zero(word) == 0
        # minus(word) must cancel the full double pole
        assert bf.minus(word).coefficient(-2) == Fraction(1, 2)

    def test_holomorphic_word_untouched(self):
        word = (zeta_symbol(3), zeta_symbol(2))

        def phi(w):
            return chen_character(w, 2)

        bf = BirkhoffFactorization(phi)
        assert bf.minus(word).is_zero
        assert agrees_with(bf.plus(word), phi(word))

    def test_insufficient_order(self):
        word = (zeta_symbol(1), zeta_symbol(1))

        def phi(w):
            return chen_character(w, -2)  # window ends below the pole part

        bf = BirkhoffFactorization(phi)
        with pytest.raises(InsufficientOrder):
            bf.plus_at_zero(word)


class TestRenormalisedValues:
    def test_spot_values(self):
        assert zeta_tilde_renorm((3, 2)) == Fraction(1, 6)
        assert zeta_tilde_renorm((1,)) == 0
        assert zeta_tilde_renorm((1, 1)) == 0

    def test_pure_pole_family(self):
        # the k-fold word of t^(-1-z): character 1/(k! z^k), renormalised 0
        from math import factorial

        for k in range(1, 5):
            word = (zeta_symbol(1),) * k
            f = chen_character_exact(word)
            assert f == RationalFunction(
                Poly.one(), Poly([0] * k + [Fraction(factorial(k))])
            )
            assert zeta_tilde_renorm((1,) * k) == 0

    def test_convergent_agreement(self):
        for s in ((2,), (3,), (3, 2), (4, 1), (2, 2, 2), (4, 2, 1)):
            assert zeta_tilde_renorm(s) == convergent_nested_integral(s)

    def test_reads_the_integer_pass_alone(self, monkeypatch):
        # the value comes off the integer prefix pass: no character is built
        words_ = ((3, 2), (1,), (1, 1), (2, 2, 2), (1, 3, 1, 2), ())
        want = [_zeta_character_and_value(s)[2] for s in words_]
        calls = []
        real = chenint._zeta_word_character

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(chenint, "_zeta_word_character", counting)
        assert [zeta_tilde_renorm(s) for s in words_] == want
        assert calls == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zeta_tilde_renorm((0, 2))

    @pytest.mark.parametrize(
        "s", [(3.7, 2.2), (Fraction(7, 2), 2), ("3", "2"), (3.9, 2), (True, 2), (3, 2.0)]
    )
    def test_rejects_non_int_letters(self, s):
        # refused, not truncated: each of these would give the value of (3, 2)
        for fn in (zeta_tilde_renorm, _zeta_character_and_value, convergent_nested_integral):
            with pytest.raises(ValueError, match="of type int"):
                fn(s)

    def test_renormalised_shuffle_sample(self):
        order = 4
        memo = {}

        def phi(w):
            w = tuple(w)
            if w not in memo:
                memo[w] = chen_character(w, order)
            return memo[w]

        bf = BirkhoffFactorization(phi)

        def val(word_s):
            return bf.plus_at_zero(tuple(zeta_symbol(s) for s in word_s))

        for u, w in (((1,), (1,)), ((1,), (2, 1)), ((1, 1), (1,))):
            lhs = sum(mult * val(word) for word, mult in shuffle(u, w))
            assert lhs == val(u) * val(w)


class TestNestedIntegralEvaluator:
    def test_chen_domain_splitting(self):
        lam, top = Fraction(3, 2), Fraction(7, 2)
        for e1 in (-2, -3):
            for e2 in (-3, -4):
                whole = pure_power_nested_integral((e1, e2), 1, top)
                split = (
                    pure_power_nested_integral((e1, e2), 1, lam)
                    + pure_power_nested_integral((e1, e2), lam, top)
                    + pure_power_nested_integral((e1,), lam, top)
                    * pure_power_nested_integral((e2,), 1, lam)
                )
                assert whole == split

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        t1, t2 = sympy.symbols("t1 t2", positive=True)
        ours = pure_power_nested_integral((-3, -2), 1, Fraction(5, 2))
        theirs = sympy.integrate(
            sympy.integrate(t2**-2, (t2, 1, t1)) * t1**-3,
            (t1, 1, sympy.Rational(5, 2)),
        )
        assert sympy.nsimplify(ours) == theirs

    def test_improper(self):
        assert pure_power_nested_integral((-2,), 1, None) == 1
        assert convergent_nested_integral((3, 2)) == Fraction(1, 6)
        with pytest.raises(ValueError):
            convergent_nested_integral((1, 1))


class TestNonIntRefused:
    """An exponent or log power that is not an int is refused, not truncated."""

    def test_zeta_symbol(self):
        for s in (2.5, 2.0, Fraction(5, 2), True):
            with pytest.raises(ValueError, match="of type int"):
                zeta_symbol(s)

    def test_power_symbol(self):
        with pytest.raises(ValueError, match="of type int, got 2.5, 0"):
            power_symbol(2.5)
        with pytest.raises(ValueError, match="of type int, got -2, 1.5"):
            power_symbol(-2, 0, 1.5)
        with pytest.raises(ValueError, match="of type int"):
            PowerLogExpr(((Fraction(2), Fraction(1), 0, 1),))

    def test_pure_power_nested_integral(self):
        for exps in ((-2.7,), (-2.0,), (-3, Fraction(-2))):
            with pytest.raises(ValueError, match="of type int"):
                pure_power_nested_integral(exps, 1, None)
