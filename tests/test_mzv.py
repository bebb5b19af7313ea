from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renzeta import emsum, mzv, words
from renzeta.emsum import LaurentData, nested_fp_res
from renzeta.exactnum import Poly, rat_str
from renzeta.mzv import (
    DEPTH2_REFERENCE,
    HolomorphyViolation,
    hdim_zeta,
    sup_sphere_count_coeffs,
    verify_hurwitz_identities,
    verify_stuffle,
    words_up_to,
    zeta2_closed,
    zeta_alt,
    zeta_depth1,
    zeta_poly_in_v,
    zeta_renorm,
    zeta_value,
    zeta_weak_renorm,
)
from test_combinat import compositions, packet_sums
from test_words import valuation


def strict_from_weak(a, v=0) -> Fraction:
    """Inverse conversion: recovers the strict value from weak values."""
    a, k = tuple(a), len(a)
    return sum(
        Fraction(-1) ** (k - len(parts)) * zeta_value(packet_sums(a, parts), v, "weak")
        for parts in compositions(k)
    )


#: Words with a letter that is not an int, each refused rather than truncated.
_NOT_INT_WORDS = ((1.5,), (Fraction(3, 2),), ("3",), (0, 2.0), (Fraction(1),), (True,))


class TestStrict:
    def test_examples(self):
        assert zeta_renorm((0, 0)).value == Fraction(3, 8)
        assert zeta_renorm((1, 1)).value == Fraction(1, 288)
        assert zeta_renorm((6, 6)).value == 0
        assert zeta_renorm((5,)).value == Fraction(-1, 252)

    def test_depth1_closed_form(self):
        assert zeta_depth1(0) == Fraction(-1, 2)
        assert zeta_depth1(1) == Fraction(-1, 12)
        assert zeta_depth1(3) == Fraction(1, 120)
        for a in range(9):
            assert zeta_value((a,)) == zeta_depth1(a)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            zeta_value((-1, 2))

    @pytest.mark.parametrize("a", _NOT_INT_WORDS)
    def test_rejects_non_int_letters(self, a):
        # refused, not truncated: int(1.5) would give zeta(-1)
        with pytest.raises(ValueError, match="of type int"):
            zeta_value(a)

    def test_empty_word_is_unit(self):
        assert zeta_value(()) == 1


_SHIFTS = st.fractions(min_value=Fraction(-11, 12), max_value=3, max_denominator=12)


def _words(max_depth, max_letter=3):
    return st.lists(st.integers(0, max_letter), min_size=1, max_size=max_depth).map(tuple)


class TestWeak:
    @settings(max_examples=40, deadline=None)
    @given(_words(4), _SHIFTS)
    def test_drawn_round_trip(self, a, v):
        assert strict_from_weak(a, v) == zeta_value(a, v, "strict")

    def test_example(self):
        assert zeta_weak_renorm((0, 0)).value == Fraction(-1, 8)

    def test_depth1_equality(self):
        for a in range(6):
            assert zeta_value((a,), 0, "weak") == zeta_value((a,))

    def test_round_trip(self):
        for a in ((1, 2, 0), (0, 0, 1), (2, 2), (3, 1, 2)):
            assert strict_from_weak(a) == zeta_value(a)
        for v in (Fraction(0), Fraction(1, 2)):
            assert strict_from_weak((1, 2, 0), v) == zeta_value((1, 2, 0), v)

    def test_depth2_conversion(self):
        for a in range(6):
            for b in range(6):
                lhs = zeta_value((a, b), 0, "weak") - zeta_value((a, b))
                assert lhs == zeta_depth1(a + b)


class TestAlt:
    @settings(max_examples=40, deadline=None)
    @given(_words(2, max_letter=8), _SHIFTS)
    def test_drawn_low_depth_agreement(self, a, v):
        assert zeta_value(a, v, "alt") == zeta_value(a, v, "strict")

    def test_low_depth_agreement(self):
        for v in (Fraction(0), Fraction(1, 3), Fraction(2)):
            for a in range(7):
                assert zeta_value((a,), v, "alt") == zeta_value((a,), v)
                for b in range(7):
                    assert zeta_value((a, b), v, "alt") == zeta_value((a, b), v)

    def test_depth3_discrepancy(self):
        for v in (Fraction(0), Fraction(1, 3), Fraction(2)):
            delta = zeta_value((0, 1, 1), v) - zeta_value((0, 1, 1), v, "alt")
            assert delta == Fraction(1, 2880)

    def test_example(self):
        assert zeta_alt((3,)).value == Fraction(1, 120)


class TestClosedFormula:
    def test_examples(self):
        assert zeta2_closed(0, 0) == Fraction(3, 8)
        assert zeta2_closed(2, 1) == Fraction(-1, 240)

    def test_agrees_with_pipeline(self):
        for a in range(7):
            for b in range(7):
                assert zeta2_closed(a, b) == zeta_value((a, b))

    def test_reference_table(self):
        for (a, b), expected in DEPTH2_REFERENCE.items():
            assert zeta2_closed(a, b) == expected

    def test_odd_weight_law(self):
        for a in range(7):
            for b in range(1, 7):
                if (a + b) % 2 == 1:
                    assert zeta2_closed(a, b) == -zeta_depth1(a + b) / 2

    def test_second_argument_zero_law(self):
        for a in (1, 3, 5):
            assert zeta_value((a, 0)) == -zeta_depth1(a)


class TestPolyInV:
    def test_value_matches_poly(self):
        for a in ((1,), (0, 0), (1, 1), (2, 1)):
            poly = zeta_poly_in_v(a)
            for v in (Fraction(0), Fraction(1, 5), Fraction(3)):
                assert poly(v) == zeta_value(a, v)

    def test_depth1_is_bernoulli_polynomial(self):
        # zeta(-1; v) = -(v^2 + v + 1/6)/2
        poly = zeta_poly_in_v((1,))
        assert poly == Poly((Fraction(-1, 12), Fraction(-1, 2), Fraction(-1, 2)))

    @pytest.mark.parametrize("a", _NOT_INT_WORDS)
    def test_rejects_non_int_letters(self, a):
        with pytest.raises(ValueError, match="of type int"):
            zeta_poly_in_v(a)


class TestDeepAnchors:
    def test_all_zero_arguments_closed_form(self):
        # the stuffle algebra forces zeta(0,...,0) = (-1/4)^k C(2k,k):
        # (0) * (0^{k-1}) = k (0^k) + (k-1) (0^{k-1}) and zeta(0) = -1/2
        from math import comb

        for k in range(1, 7):
            expected = Fraction(-1, 4) ** k * comb(2 * k, k)
            assert zeta_value((0,) * k) == expected, k

    def test_depth3_from_depth2_and_stuffle(self):
        # (1)*(1,1) = 3(1,1,1) + (2,1) + (1,2), solved for the depth-3 value
        expected = (
            zeta_depth1(1) * zeta_value((1, 1))
            - zeta_value((2, 1))
            - zeta_value((1, 2))
        ) / 3
        assert expected == Fraction(139, 51840)
        assert zeta_value((1, 1, 1)) == expected


def newton(power_sum, k: int, signed: bool):
    """e_k (``signed``) or h_k of the power sums p_n = power_sum(n), by
    Newton's identities: m e_m = sum_{n <= m} (-1)^(n-1) p_n e_(m-n), and
    m h_m = sum_{n <= m} p_n h_(m-n)."""
    e = [1]
    for m in range(1, k + 1):
        acc = 0
        for n in range(1, m + 1):
            term = power_sum(n) * e[m - n]
            acc = acc + (-term if signed and n % 2 == 0 else term)
        e.append(acc * Fraction(1, m))
    return e[k]


# the deepest k per (variant, letter) that the Newton tests draw
_NEWTON_DEPTH = {
    ("strict", 0): 20, ("strict", 1): 16, ("strict", 2): 12, ("strict", 3): 10,
    ("weak", 0): 10, ("weak", 1): 8, ("weak", 2): 6, ("weak", 3): 6,
}
_NEWTON_CASES = st.sampled_from(sorted(_NEWTON_DEPTH)).flatmap(
    lambda key: st.tuples(st.just(key), st.integers(1, _NEWTON_DEPTH[key]))
)


class TestNewtonIdentities:
    """A deep oracle from depth-1 values alone: the strict value of a^k is
    the elementary symmetric function e_k of the power sums
    p_n = zeta(n a; v), the weak value the complete one h_k."""

    # the draws rarely reach the deepest cases: the deepest rational one is
    # pinned here, and the polynomial test draws strict 0^20
    @settings(max_examples=12, deadline=None)
    @given(_NEWTON_CASES, st.fractions(min_value=Fraction(-19, 20), max_value=4,
                                       max_denominator=60))
    @example((("strict", 1), 16), Fraction(2, 7))
    def test_rational_shift(self, case, v):
        (variant, a), k = case
        want = newton(lambda n: zeta_value((n * a,), v), k, variant == "strict")
        assert zeta_value((a,) * k, v, variant) == want

    @settings(max_examples=12, deadline=None)
    @given(_NEWTON_CASES)
    @example((("strict", 3), 10))
    @example((("weak", 1), 8))
    def test_polynomial_shift(self, case):
        (variant, a), k = case
        want = newton(lambda n: zeta_poly_in_v((n * a,)), k, variant == "strict")
        assert zeta_poly_in_v((a,) * k, variant) == want
        if variant == "weak":
            assert want == reflected((a,) * k)


def reflected(a, variant: str = "strict") -> Poly:
    """(-1)^(k + |a|) zeta(a; -1 - v) as a polynomial in v."""
    return (-1) ** (len(a) + sum(a)) * zeta_poly_in_v(a, variant)(Poly((-1, -1)))


class TestReflection:
    """The weak value is the strict one reflected at v -> -1 - v:
    zeta_weak(a; v) = (-1)^(k + |a|) zeta_strict(a; -1 - v) in Q[v]."""

    def test_small_words(self):
        words = words_up_to(4, 5)
        assert len(words) == 209
        for a in words:
            assert zeta_poly_in_v(a, "weak") == reflected(a), a

    def test_alt_fails_at_depth_3(self):
        # alt agrees with strict through depth 2, so its reflection is the
        # weak value there too; at depth 3 it is not
        for a in words_up_to(2, 4):
            assert zeta_poly_in_v(a, "weak") == reflected(a, "alt"), a
        assert zeta_poly_in_v((0, 1, 1), "weak") != reflected((0, 1, 1), "alt")


class TestStuffleSuite:
    def test_small_strict(self):
        report = verify_stuffle(4, 0, "strict", max_depth=2)
        assert report.ok and report.cases > 0

    def test_small_weak(self):
        report = verify_stuffle(4, Fraction(1, 2), "weak", max_depth=2)
        assert report.ok

    def test_one_lookup_per_word(self, monkeypatch):
        # one product per word pair, one value per distinct word: the
        # benchmark's per-layer hook wraps mzv.zeta_value
        products, values = [], []
        real_product, real_value = words.QuasiShuffleTable.product, mzv.zeta_value

        def product(table, x, y):
            products.append((table.word(x), table.word(y)))
            return real_product(table, x, y)

        def value(*args):
            values.append(args)
            return real_value(*args)

        monkeypatch.setattr(words.QuasiShuffleTable, "product", product)
        monkeypatch.setattr(mzv, "zeta_value", value)
        v = Fraction(1, 3)
        report = verify_stuffle(4, v, "strict")
        pool = words_up_to(3, 4)
        pairs = [(u, w) for u in pool for w in pool if sum(u) + sum(w) <= 4]
        assert report.ok and report.cases == len(pairs)
        assert products == pairs
        needed = {x for u, w in pairs for x in (u, w)}
        needed |= {x for u, w in pairs for x, _ in words.stuffle(u, w)}
        looked_up = [args[0] for args in values]
        assert len(looked_up) == len(set(looked_up))
        assert set(looked_up) == needed
        assert all(args[1:] == (v, "strict") for args in values)

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_failures_reported_as_the_rational_check_gives(self, variant, monkeypatch):
        # one word's value off by 1/7: every relation it enters must fail,
        # with the same entries, in the same order, as a check in Fractions
        real = mzv.zeta_value

        def faulty(a, v=0, variant="strict"):
            value = real(a, v, variant)
            return value + Fraction(1, 7) if tuple(a) == (1, 2) else value

        monkeypatch.setattr(mzv, "zeta_value", faulty)
        v = Fraction(1, 3)
        report = verify_stuffle(4, v, variant)
        pool = words_up_to(3, 4)
        want = []
        for u in pool:
            for w in pool:
                if sum(u) + sum(w) > 4:
                    continue
                lhs = valuation(words.stuffle(u, w, variant), lambda x: faulty(x, v, variant))
                rhs = faulty(u, v, variant) * faulty(w, v, variant)
                if lhs != rhs:
                    want.append({
                        "case": f"{variant}: ({words.word_str(u)}) * ({words.word_str(w)}) at v={v}",
                        "lhs": rat_str(lhs),
                        "rhs": rat_str(rhs),
                    })
        assert report.cases == sum(1 for u in pool for w in pool if sum(u) + sum(w) <= 4)
        assert want and report.failures == want

    def test_reports_combine(self):
        parts = [verify_stuffle(3, 0, variant, max_depth=2) for variant in ("strict", "weak")]
        parts[1].failures.append({"case": "forced"})
        merged = mzv.Report.combined("stuffle", parts)
        assert (merged.suite, merged.parts) == ("stuffle", [])
        assert merged.cases == parts[0].cases + parts[1].cases > 0
        assert merged.failures == [{"case": "forced"}] and not merged.ok
        assert merged.seconds == parts[0].seconds + parts[1].seconds

    def test_classic_relations(self):
        # zeta(0)^2 = 2 zeta(0,0) + zeta(0)
        assert zeta_depth1(0) ** 2 == 2 * zeta_value((0, 0)) + zeta_depth1(0)
        # zeta(-1)^2 = 2 zeta(-1,-1) + zeta(-2)
        assert zeta_depth1(1) ** 2 == 2 * zeta_value((1, 1)) + zeta_depth1(2)


class TestHurwitz:
    def test_depth1_shift_is_bernoulli(self):
        for a in range(5):
            for v in (Fraction(0), Fraction(1, 2)):
                lhs = zeta_value((a,), v + 1)
                assert lhs == zeta_value((a,), v) - (1 + v) ** a

    def test_reports(self):
        for a in ((1, 1), (2, 1), (1, 2, 1)):
            for v in (Fraction(0), Fraction(1, 2)):
                assert verify_hurwitz_identities(a, v).ok

    def test_empty_word_refused(self):
        with pytest.raises(ValueError, match="nonempty word"):
            verify_hurwitz_identities(())

    def test_derivative_identity_depth1(self):
        # d/dv zeta(-a; v) = a zeta(-a+1; v)
        for a in range(1, 5):
            poly = zeta_poly_in_v((a,))
            dpoly = poly.derivative()
            for v in (Fraction(0), Fraction(2, 3)):
                assert dpoly(v) == a * zeta_value((a - 1,), v)


class TestIdentitiesInQv:
    """The stuffle relations and the Hurwitz shift identity as identities in
    Q[v], which holds them at every shift at once; the point checks above
    stay."""

    def test_stuffle(self):
        # sum_x c_x P_x = P_u P_w for every stuffle u * w, P_x the value of
        # x as a polynomial in v
        pairs = [(u, w) for u in words_up_to(2, 4) for w in words_up_to(2, 4)]
        for variant in ("strict", "weak"):
            for u, w in pairs:
                if sum(u) + sum(w) > 4:
                    continue
                lhs = sum(
                    (c * zeta_poly_in_v(x, variant) for x, c in words.stuffle(u, w, variant)),
                    Poly.zero(),
                )
                rhs = zeta_poly_in_v(u, variant) * zeta_poly_in_v(w, variant)
                assert lhs == rhs, (variant, u, w)

    def test_shift(self):
        # P_a(v + 1) = P_a(v) - (1 + v)^{a_k} P_{a'}(v + 1), a' = a_1..a_{k-1}
        up = Poly((1, 1))
        for a in words_up_to(3, 4):
            lhs = zeta_poly_in_v(a)(up)
            assert lhs == zeta_poly_in_v(a) - up ** a[-1] * zeta_poly_in_v(a[:-1])(up), a


class TestHigherDimensional:
    def test_sphere_counts(self):
        assert sup_sphere_count_coeffs(1) == {0: 2}
        assert sup_sphere_count_coeffs(2) == {1: 8}
        assert sup_sphere_count_coeffs(3) == {2: 24, 0: 2}
        # check against direct point counting on the sup-norm sphere
        for n in (1, 2, 3):
            coeffs = sup_sphere_count_coeffs(n)
            for t in (1, 2, 3):
                count = sum(
                    1
                    for p in _lattice_points(n, t)
                    if max(abs(x) for x in p) == t
                )
                assert sum(c * t**m for m, c in coeffs.items()) == count

    @pytest.mark.parametrize("a", _NOT_INT_WORDS)
    def test_rejects_non_int_letters(self, a):
        # refused, not truncated: (1.9,) would compute at a = 1
        with pytest.raises(ValueError, match="of type int"):
            hdim_zeta(2, a, with_poly=True)

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2), "2", 0, -1])
    def test_rejects_non_int_dimension(self, n):
        # refused, not truncated: True would compute the n = 1 value
        with pytest.raises(ValueError, match="dimension must be an int >= 1"):
            hdim_zeta(n, (0,))
        with pytest.raises(ValueError, match="dimension must be an int >= 1"):
            sup_sphere_count_coeffs(n)

    def test_instances(self):
        assert hdim_zeta(2, (0,)).value == Fraction(-2, 3)
        assert hdim_zeta(3, (0,)).value == Fraction(-1)
        assert hdim_zeta(1, (1, 1)).value == Fraction(1, 72)

    def test_dim1_doubles(self):
        for a in ((0,), (1,), (2, 1), (0, 1, 1)):
            for v in (Fraction(0), Fraction(1, 2)):
                assert hdim_zeta(1, a, v).value == 2 ** len(a) * zeta_value(a, v)

    def test_poly_in_v(self):
        value, poly = hdim_zeta(2, (0, 1), Fraction(1, 3), with_poly=True)
        assert poly(Fraction(1, 3)) == value
        assert poly(Fraction(0)) == hdim_zeta(2, (0, 1)).value

    def test_dim2_shifted_reduction(self):
        # the sphere count 8t written in (t+v) is 8(t+v) - 8v
        for a in range(4):
            for v in (Fraction(0), Fraction(1, 2), Fraction(2)):
                expected = 8 * zeta_value((a + 1,), v) - 8 * v * zeta_value((a,), v)
                assert hdim_zeta(2, (a,), v).value == expected

    def test_dim3_depth2_expansion(self):
        # (24t^2+2) x (24t^2+2): coefficients 576, 48, 48, 4
        for a in range(3):
            for b in range(3):
                expected = (
                    576 * zeta_value((a + 2, b + 2))
                    + 48 * zeta_value((a + 2, b))
                    + 48 * zeta_value((a, b + 2))
                    + 4 * zeta_value((a, b))
                )
                assert hdim_zeta(3, (a, b)).value == expected


def _lattice_points(n, radius):
    from itertools import product

    return product(range(-radius, radius + 1), repeat=n)


class TestPipelineMatchesHoffmanMaps:
    """The strict pipeline's slot expansion must equal what the exp/log
    machinery produces when each slot is twisted by one perturbation unit.

    Slots are encoded as single integers b*1000 + c so that the word
    algebra's letter addition adds exponents and multiplicities at once.
    """

    @staticmethod
    def _via_hoffman(a):
        from renzeta.words import TensorPoly, hoffman_exp, hoffman_log

        logged = hoffman_log(TensorPoly.from_word(tuple(1000 * x for x in a)))
        twisted = TensorPoly(
            {tuple(letter + 1 for letter in w): c for w, c in logged.terms.items()}
        )
        expanded = hoffman_exp(twisted)
        return {
            tuple((letter // 1000, letter % 1000) for letter in w): c
            for w, c in expanded.terms.items()
        }

    def test_small_depths(self):
        from renzeta.mzv import _composition_terms

        words = (
            (2,),
            (0, 1),
            (1, 1, 2),
            (0, 1, 2, 3),
            # repeated and zero letters: distinct structures merge into one
            # exponent list
            (0, 0, 0, 0, 0),
            (1, 0, 1, 0, 1, 0),
            (2, 2, 0, 2, 2, 0, 2),
            (0, 1) * 4,
            # widely spaced letters: every structure stays a term of its own
            tuple(10**i for i in range(8)),
        )
        for a in words:
            assert dict(_composition_terms(a)) == self._via_hoffman(a)


def oracle_strict(a, v):
    """The per-term pipeline: one nested sum per composition term of the
    word, each checked pole-free, summed with its weight."""
    if not a:
        return Fraction(1)
    total = Fraction(0)
    for exps, coeff in mzv._composition_terms(a):
        data = nested_fp_res(exps, v)
        if data.res != 0:
            raise HolomorphyViolation(f"composition term {exps} at v={v} has residue {data.res}")
        total = total + coeff * data.fp
    return total


@st.composite
def _word_of_weight(draw, max_depth, weight):
    """A word of depth <= max_depth whose letters sum to ``weight``."""
    word = []
    for _ in range(draw(st.integers(1, max_depth)) - 1):
        word.append(draw(st.integers(0, weight - sum(word))))
    return tuple(word) + (weight - sum(word),)


_DEEP_WORDS = st.integers(0, 10).flatmap(lambda n: _word_of_weight(7, n))


@st.composite
def _pairs_of_weight(draw, lo, hi):
    """Two words of depth <= 3 with combined weight in lo..hi."""
    total = draw(st.integers(lo, hi))
    first = draw(st.integers(0, total))
    return draw(_word_of_weight(3, first)), draw(_word_of_weight(3, total - first))


class TestFoldedAgainstTerms:
    """The folded recursion over word prefixes against the per-term
    pipeline, off the fixed grids."""

    @settings(max_examples=40, deadline=None)
    @given(_DEEP_WORDS, _SHIFTS)
    def test_rational_shift(self, a, v):
        assert zeta_value(a, v) == oracle_strict(a, v)
        weak = sum(oracle_strict(packet_sums(a, parts), v) for parts in compositions(len(a)))
        assert zeta_value(a, v, "weak") == weak

    @settings(max_examples=15, deadline=None)
    @given(_DEEP_WORDS)
    def test_polynomial_shift(self, a):
        assert zeta_poly_in_v(a) == mzv._as_poly(oracle_strict(a, Poly.x()))
        weak = sum(
            mzv._as_poly(oracle_strict(packet_sums(a, parts), Poly.x()))
            for parts in compositions(len(a))
        )
        assert zeta_poly_in_v(a, "weak") == weak

    @settings(max_examples=20, deadline=None)
    @given(_DEEP_WORDS, _SHIFTS)
    def test_wider_germ_truncation(self, a, v):
        base = emsum.strict_fp_res(a, v)
        for bump in (1, 2):
            v_, head = emsum._head(v, bump, emsum._WORD)
            assert emsum._to_laurent(emsum._nested(a + (0,), v_, head), v) == base


class TestStuffleAboveWeight8:
    @settings(max_examples=30, deadline=None)
    @given(_pairs_of_weight(9, 12), st.sampled_from(("strict", "weak")), _SHIFTS)
    def test_drawn_pairs(self, pair, variant, v):
        u, w = pair
        lhs = valuation(words.stuffle(u, w, variant), lambda x: zeta_value(x, v, variant))
        assert lhs == zeta_value(u, v, variant) * zeta_value(w, v, variant)


def test_holomorphy_violation_error_exists():
    assert issubclass(HolomorphyViolation, ArithmeticError)


def test_holomorphy_checked_on_folded_total(monkeypatch):
    monkeypatch.setattr(mzv, "strict_fp_res", lambda a, v: LaurentData(Fraction(1), Fraction(0)))
    mzv._zeta_strict.cache_clear()
    try:
        with pytest.raises(HolomorphyViolation, match="strict expansion"):
            zeta_value((5, 7, 9), Fraction(1, 5))
    finally:
        mzv._zeta_strict.cache_clear()


def test_holomorphy_checked_on_weak_total(monkeypatch):
    monkeypatch.setattr(mzv, "weak_fp_res", lambda a, v: LaurentData(Fraction(1), Fraction(0)))
    mzv._zeta_weak.cache_clear()
    try:
        with pytest.raises(HolomorphyViolation, match="weak expansion"):
            zeta_value((5, 7, 9), Fraction(1, 5), "weak")
    finally:
        mzv._zeta_weak.cache_clear()
