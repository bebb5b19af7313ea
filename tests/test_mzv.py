from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renzeta import emsum, mzv, verify, words
from renzeta.combinat import contraction_counts
from renzeta.emsum import StructuralViolation, nested_fp_res
from renzeta.exactnum import Poly, rat_str
from renzeta.mzv import (
    DEPTH2_REFERENCE,
    VARIANTS,
    HolomorphyViolation,
    hdim_zeta,
    sup_sphere_count_coeffs,
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
from renzeta.verify import verify_hurwitz_identities
from engine_keys import strict_fp_res, word_head, word_key
from test_combinat import compositions, packet_sums
from test_words import valuation


def strict_from_weak(a, v=0) -> Fraction:
    """Inverse conversion: recovers the strict value from weak values."""
    a, k = tuple(a), len(a)
    return sum(
        Fraction(-1) ** (k - len(parts)) * zeta_value(packet_sums(a, parts), v, "weak")
        for parts in compositions(k)
    )


def faulty_reader(word, off, at=None):
    """``mzv.value_table`` with ``off`` added to the value of ``word``, in
    every lane or only in the lane of the shift ``at``."""
    real = mzv.value_table

    def read(words, v, variant="strict"):
        out = []
        for s, (den, nums) in zip(v if type(v) is tuple else (v,), real(words, v, variant)):
            hit = at is None or s == at
            values = [Fraction(n, den) + (off if hit and x == word else 0) for x, n in zip(words, nums)]
            out.append(mzv._over_one_denominator([q.as_integer_ratio() for q in values]))
        return out

    return read


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


class TestEmptyWord:
    """The empty word has the unit of the shift's ring, and its shift is
    checked as a nonempty word's is."""

    def test_unit_in_every_ring(self):
        for variant in VARIANTS:
            assert zeta_value((), 0, variant) == 1
            assert zeta_value((), (0, Fraction(1, 2)), variant) == (1, 1)
            assert zeta_poly_in_v((), variant) == Poly.one()
        assert hdim_zeta(2, (), Fraction(1, 2), with_poly=True) == (1, Poly.one())

    def test_unit_in_a_cold_batch(self):
        # a cold batch read stores the unit too in every variant; the weak
        # one is written by the weak batch, beside a nonempty word
        v = (0, Fraction(1, 2))
        for variant in VARIANTS:
            mzv._memo.clear()
            table = mzv.value_table([(), (1,)], v, variant)
            assert [Fraction(nums[0], den) for den, nums in table] == [1, 1]  # per lane
            assert mzv._memo[((), variant, emsum._head(v, 0, 0)[1])] == (1, 1)

    @pytest.mark.parametrize("v", [-5, -1, (), (Fraction(-2),)], ids=repr)
    def test_invalid_shift_refused(self, v):
        for a in ((), (1,)):
            for variant in VARIANTS:
                with pytest.raises(StructuralViolation):
                    zeta_value(a, v, variant)

    def test_hdim_invalid_shift_refused(self):
        for a in ((), (1,)):
            with pytest.raises(StructuralViolation):
                hdim_zeta(2, a, v=-5)


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
        # with no plan cached, one product per word pair and one batch read
        # of one value per distinct word
        mzv._stuffle_plan.cache_clear()
        products, reads = [], []
        real_product, real_read = words.QuasiShuffleTable.product, mzv.value_table

        def product(table, x, y):
            products.append((table.word(x), table.word(y)))
            return real_product(table, x, y)

        def read(*args):
            reads.append(args)
            return real_read(*args)

        monkeypatch.setattr(words.QuasiShuffleTable, "product", product)
        monkeypatch.setattr(mzv, "value_table", read)
        v = Fraction(1, 3)
        report = verify_stuffle(4, v, "strict")
        pool = words_up_to(3, 4)
        pairs = [(u, w) for u in pool for w in pool if sum(u) + sum(w) <= 4]
        assert report.ok and report.cases == len(pairs)
        assert products == pairs
        needed = {x for u, w in pairs for x in (u, w)}
        needed |= {x for u, w in pairs for x, _ in words.stuffle(u, w)}
        ((looked_up, shifts, variant),) = reads
        assert len(looked_up) == len(set(looked_up))
        assert set(looked_up) == needed
        assert (shifts, variant) == ((v,), "strict")

    def test_warm_pass_reads_only_values(self, monkeypatch):
        # a second pass on a grid, at another variant and shift, reuses the
        # first pass's plan: no product, one batch read of the value words,
        # same cases. Every weak word is a memo miss, and the batch reads
        # the strict values of their contractions (the value words again):
        # each a memo miss that goes through zeta_value once, and no weak
        # word. A warm pass sends none
        mzv._stuffle_plan.cache_clear()
        first = verify_stuffle(4, Fraction(1, 3), "strict")
        products, reads, values = [], [], []
        real_product, real_read, real_value = (
            words.QuasiShuffleTable.product, mzv.value_table, mzv.zeta_value)

        def product(table, x, y):
            products.append((x, y))
            return real_product(table, x, y)

        def read(*args):
            reads.append(args)
            return real_read(*args)

        def value(*args):
            values.append(args)
            return real_value(*args)

        monkeypatch.setattr(words.QuasiShuffleTable, "product", product)
        monkeypatch.setattr(mzv, "value_table", read)
        monkeypatch.setattr(mzv, "zeta_value", value)
        v = Fraction(-2, 5)
        mzv._memo.clear()
        second = verify_stuffle(4, v, "weak")
        assert second.ok and second.cases == first.cases
        assert products == []
        assert reads == [(words_up_to(6, 4), (v,), "weak")]
        assert len(values) == len(set(values))
        assert set(values) == {(x, (v,), "strict") for x in words_up_to(6, 4)}
        reads.clear()
        values.clear()
        third = verify_stuffle(4, v, "weak")
        assert (third.cases, third.failures) == (second.cases, second.failures)
        assert (products, values) == ([], [])
        assert reads == [(words_up_to(6, 4), (v,), "weak")]

    @pytest.mark.parametrize(
        "grid", [(-1, 3), (4, 0), (True, 3), (4, True), (2.5, 3), (4, 2.0), (Fraction(4), 3)]
    )
    def test_malformed_grid_refused(self, grid):
        # a grid keys a plan: a negative weight or a depth below 1 would give
        # an empty report, a bool would run as 1, a float ends in range()
        with pytest.raises(ValueError, match="max_"):
            verify_stuffle(grid[0], 0, "strict", max_depth=grid[1])

    def test_weight_zero_grid(self):
        report = verify_stuffle(0, 0, "strict")
        assert report.ok and report.cases == 9  # (0,), (0,0), (0,0,0) squared

    @pytest.mark.parametrize("grid, checks, cases", [((4, 3), 388, 757), ((8, 3), 3746, 7437)])
    def test_plan_checks_each_relation_once(self, grid, checks, cases):
        # every off-diagonal pair folds into its twin's check: 19 and 55
        # diagonal pairs are checks of their own
        plan = mzv._stuffle_plan(*grid)
        assert (len(plan.checks), plan.cases) == (checks, cases)
        assert cases - checks == sum(1 for check in plan.checks if check[0] != check[1])

    def test_folded_plan_covers_every_ordered_pair(self):
        # on every grid each ordered pair is a case of exactly one check,
        # (u, w) and (w, u) of the same one, and the report counts them all
        for max_weight, max_depth in product(range(6), range(1, 4)):
            pool = words_up_to(max_depth, max_weight)
            pairs = [(u, w) for u in pool for w in pool if sum(u) + sum(w) <= max_weight]
            plan = mzv._stuffle_plan(max_weight, max_depth)
            covered = sorted(case for *_, cases in plan.checks for case in cases)
            index = {x: i for i, x in enumerate(plan.words)}
            assert covered == [(k, index[u], index[w]) for k, (u, w) in enumerate(pairs)]
            for i, j, *_, cases in plan.checks:
                assert [(x, y) for _, x, y in cases] == ([(i, j)] if i == j else [(i, j), (j, i)])
            for variant in ("strict", "weak"):
                report = verify_stuffle(max_weight, Fraction(2, 7), variant, max_depth)
                assert report.ok and report.cases == plan.cases == len(pairs)

    def test_cells_that_differ_are_not_folded(self, monkeypatch):
        # a (w, u) cell with one multiplicity raised by 1 keeps a check of
        # its own, whose relation fails alone; (u, w) still holds
        u, w = (1,), (0, 1)
        real_product = words.QuasiShuffleTable.product

        def product(table, x, y):
            cell = real_product(table, x, y)
            if (table.word(x), table.word(y)) == (w, u):
                cell = dict(cell)
                first = next(iter(cell))
                cell[first] += 1
            return cell

        monkeypatch.setattr(words.QuasiShuffleTable, "product", product)
        monkeypatch.setattr(mzv, "_stuffle_plan", mzv._stuffle_plan.__wrapped__)
        plan = mzv._stuffle_plan(4, 3)
        assert (len(plan.checks), plan.cases) == (389, 757)
        owners = {(plan.words[x], plan.words[y]): check for check in plan.checks for _, x, y in check[4]}
        assert owners[(u, w)] is not owners[(w, u)]
        v = Fraction(1, 3)
        for variant in ("strict", "weak"):
            report = verify_stuffle(4, v, variant)
            assert report.cases == 757
            assert [f["case"] for f in report.failures] == [f"{variant}: (0,1) * (1) at v={v}"]

    def test_one_plan_per_grid(self):
        # passes of both variants at two shifts on one grid cache one plan,
        # a second grid one more; no quasi-shuffle table outlives its plan
        def pairs(max_weight, max_depth):
            pool = words_up_to(max_depth, max_weight)
            return sum(1 for u in pool for w in pool if sum(u) + sum(w) <= max_weight)

        mzv._stuffle_plan.cache_clear()
        for v, variant in product((Fraction(1, 7), Fraction(-1, 3)), ("strict", "weak")):
            report = verify_stuffle(4, v, variant, max_depth=2)
            assert report.ok and report.cases == pairs(4, 2)
        info = mzv._stuffle_plan.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
        report = verify_stuffle(3, 0, "weak", max_depth=3)
        assert report.ok and report.cases == pairs(3, 3)
        assert mzv._stuffle_plan.cache_info().currsize == 2
        tables = [x for x in (*vars(mzv).values(), *mzv._stuffle_plan(3, 3))
                  if isinstance(x, words.QuasiShuffleTable)]
        assert tables == []

    def test_interleaved_passes_match_fresh_tables(self, monkeypatch):
        # passes of every variant, shift, weight and depth interleaved on
        # cached plans give the reports of the same passes on a plan built
        # afresh; one pass reads a faulty value, so failure lists are compared
        faulty = faulty_reader((1, 1), Fraction(1, 7))

        def on_fresh_table(*args):
            with monkeypatch.context() as m:
                m.setattr(mzv, "_stuffle_plan", mzv._stuffle_plan.__wrapped__)
                return verify_stuffle(*args)

        shifts = (0, Fraction(1, 7), Fraction(-1, 3))
        passes = list(product(range(3, 6), shifts, ("strict", "weak"), (2, 3)))
        # 17 is prime to len(passes) = 36, so this is a permutation of them
        passes = [passes[(i * 17) % len(passes)] for i in range(len(passes))]
        passes.insert(5, passes[4] + ("faulty",))
        failed = 0
        for args in passes:
            with monkeypatch.context() as m:
                if args[-1] == "faulty":
                    args = args[:-1]
                    m.setattr(mzv, "value_table", faulty)
                got, want = verify_stuffle(*args), on_fresh_table(*args)
            assert (got.suite, got.cases, got.failures) == (want.suite, want.cases, want.failures)
            failed += bool(got.failures)
        assert failed == 1

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_failures_reported_as_the_rational_check_gives(self, variant, monkeypatch):
        # one word's value off by 1/7: every relation it enters must fail,
        # with the same entries, in the same order, as a check in Fractions
        def faulty(a, v=0, variant="strict"):
            value = zeta_value(a, v, variant)
            return value + Fraction(1, 7) if tuple(a) == (1, 2) else value

        monkeypatch.setattr(mzv, "value_table", faulty_reader((1, 2), Fraction(1, 7)))
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
                assert verify_hurwitz_identities([a], [v]).ok

    def test_variant_is_read(self):
        # alt satisfies the shift and derivative identities, weak does not:
        # a check that ignored its variant would pass or fail both
        pool = verify._words(3, range(4))
        vs = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))
        alt = verify_hurwitz_identities(pool, vs, variant="alt")
        assert alt.ok and alt.cases == 492
        weak = verify_hurwitz_identities(pool, vs, variant="weak")
        assert weak.cases == 492 and len(weak.failures) == 304

    def test_empty_word_refused(self):
        with pytest.raises(ValueError, match="nonempty word"):
            verify_hurwitz_identities(())
        with pytest.raises(ValueError, match="nonempty word"):
            verify_hurwitz_identities([(1,), ()], [Fraction(0)])

    def test_one_lookup_per_word_and_shift(self, monkeypatch):
        # the values are one batch read: each word once, at one tuple of
        # shifts that covers every v and v + 1 (shifts 0 and 1 share v = 1);
        # each polynomial is read from mzv.zeta_poly_in_v once
        reads, polys = [], []
        real_read, real_poly = mzv.value_table, mzv.zeta_poly_in_v

        def read(words, v, variant="strict"):
            reads.append((words, v))
            return real_read(words, v, variant)

        def poly(a, variant="strict"):
            polys.append(tuple(a))
            return real_poly(a, variant)

        monkeypatch.setattr(mzv, "value_table", read)
        monkeypatch.setattr(mzv, "zeta_poly_in_v", poly)
        pool = words_up_to(3, 4)
        vs = (Fraction(0), Fraction(1), Fraction(2, 3))
        report = verify_hurwitz_identities(pool, vs)
        above = [a for a in pool if min(a) >= 1]
        assert report.ok and report.cases == len(vs) * (len(pool) + len(above))
        ((words, shifts),) = reads
        assert len(words) == len(set(words))
        neighbours = {a[:j] + (a[j] - 1,) + a[j + 1:] for a in above for j in range(len(a))}
        assert set(words) == set(pool) | {a[:-1] for a in pool} | neighbours
        assert type(shifts) is tuple and len(shifts) == len(set(shifts)) == 5
        assert set(shifts) == set(vs) | {v + 1 for v in vs}
        assert polys == above

    @pytest.mark.parametrize("fault", ["value", "poly"])
    def test_failures_reported_as_the_rational_check_gives(self, fault, monkeypatch):
        # one value off by 1/7 at one (word, shift), in one lane of a tuple
        # of shifts, or one word's polynomial off by v^2/7: the failures must
        # be those of a check in Fractions, entry for entry and word by word,
        # each at every shift
        real_poly = mzv.zeta_poly_in_v
        off = Fraction(1, 7)

        def value(a, v=0, variant="strict"):
            got = zeta_value(a, v, variant)
            return got + off if fault == "value" and tuple(a) == (1, 1) and v == Fraction(1, 2) else got

        def poly(a, variant="strict"):
            got = real_poly(a, variant)
            return got + Poly((0, 0, off)) if fault == "poly" and tuple(a) == (1, 2) else got

        if fault == "value":
            monkeypatch.setattr(mzv, "value_table", faulty_reader((1, 1), off, Fraction(1, 2)))
        monkeypatch.setattr(mzv, "zeta_poly_in_v", poly)
        pool = words_up_to(3, 4)
        vs = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
        report = verify_hurwitz_identities(pool, vs)
        want = []
        for a in pool:
            for v in vs:
                lhs = value(a, v + 1)
                rhs = value(a, v) - (1 + v) ** a[-1] * value(a[:-1], v + 1)
                if lhs != rhs:
                    want.append({"case": f"shift identity at a={a}, v={v} (strict)",
                                 "lhs": rat_str(lhs), "rhs": rat_str(rhs)})
                if min(a) < 1:
                    continue
                lhs = poly(a).derivative()(v)
                rhs = sum(a[j] * value(a[:j] + (a[j] - 1,) + a[j + 1:], v) for j in range(len(a)))
                if lhs != rhs:
                    want.append({"case": f"derivative identity at a={a}, v={v} (strict)",
                                 "lhs": rat_str(lhs), "rhs": rat_str(rhs)})
        above = sum(1 for a in pool if min(a) >= 1)
        assert report.cases == len(vs) * (len(pool) + above)
        assert want and report.failures == want
        kinds = {entry["case"].split()[0] for entry in want}
        assert kinds == ({"shift", "derivative"} if fault == "value" else {"derivative"})

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), min_size=1, max_size=4),
        st.lists(
            st.integers(1, 60).flatmap(
                lambda q: st.integers(1 - q, 3 * q).map(lambda p: Fraction(p, q))
            ),
            min_size=1,
            max_size=2,
        ),
    )
    def test_drawn_words_and_shifts(self, pool, vs):
        # off the fixed grids: one shift case per word, one derivative case
        # per word with every letter >= 1, at each shift
        report = verify_hurwitz_identities(pool, vs)
        above = sum(1 for a in pool if min(a) >= 1)
        assert report.ok, report.failures[:3]
        assert report.cases == len(vs) * (len(pool) + above)

    def test_warm_pass_reads_the_memo_once(self, monkeypatch):
        # a warm pass reads every value from the memo in one batch: no
        # zeta_value call, and the lane key built once
        want = verify.suite_hurwitz(2, 2)
        heads, values = [], []
        real_head = mzv._head
        monkeypatch.setattr(mzv, "_head", lambda *args: heads.append(args) or real_head(*args))
        monkeypatch.setattr(mzv, "zeta_value", lambda *args: values.append(args))
        report = verify.suite_hurwitz(2, 2)
        assert report.ok and (report.cases, report.failures) == (want.cases, want.failures)
        assert values == [] and len(heads) == 1

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


def oracle_weak(a, v):
    """The weak value term by term: the twisted expansion of the word with
    the unsigned slot weights |s(L, c)|/L!, i.e. each composition term of
    ``oracle_strict`` taken with the sign (-1)^(k - sum c), k = len(a).

    Proof. The weak value is the sum of the strict values of the
    contractions of the word, and a strict value is the sum over slot
    structures with slot weights s(L, c)/L!. A slot of a contraction made
    of L packets covers M consecutive letters of the word, and its exponent
    is their sum; so the weak value is the twisted expansion of the word
    itself with the slot weight W(M, c) = sum_L C(M-1, L-1) s(L, c)/L!, one
    C(M-1, L-1) for each way to cut M letters into L packets. The packets
    have the generating function sum_M C(M-1, L-1) y^M = (y/(1-y))^L, and
    sum_L s(L, c) x^L/L! = log(1+x)^c/c!, so sum_M W(M, c) y^M =
    log(1 + y/(1-y))^c/c! = (-log(1-y))^c/c! = sum_M |s(M, c)| y^M/M!. Thus
    W(M, c) = |s(M, c)|/M! = (-1)^(M-c) s(M, c)/M!, and a structure's
    weight changes by the product of these signs, (-1)^(k - sum c)."""
    total = Fraction(0)
    for exps, coeff in mzv._composition_terms(a):
        data = nested_fp_res(exps, v)
        if data.res != 0:
            raise HolomorphyViolation(f"composition term {exps} at v={v} has residue {data.res}")
        total = total + (-1) ** (len(a) - sum(c for _, c in exps)) * coeff * data.fp
    return total


def engine_weak(a, v) -> emsum.LaurentData:
    """The weak value as one engine sum: the prefix-sum states of the word's
    distinct contractions, each read once from the engine with its integer
    multiplicity and summed by the engine's kernel. Residue and finite part,
    at one shift, a tuple of shifts or v = ``Poly.x()``; the word and v are
    validated as a strict engine entry validates them.

    >>> engine_weak((0, 0), 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(-1, 8))
    """
    word, ring, head = word_head(a, v)
    states = ((word_key(x, head), (m, 1)) for x, m in contraction_counts(word).items())
    return emsum._to_laurent(emsum._weighted_sum(states, True, ring, head), v)


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
        assert zeta_poly_in_v(a) == oracle_strict(a, Poly.x())
        weak = sum(oracle_strict(packet_sums(a, parts), Poly.x()) for parts in compositions(len(a)))
        assert zeta_poly_in_v(a, "weak") == weak

    @settings(max_examples=30, deadline=None)
    @given(_DEEP_WORDS, _SHIFTS)
    def test_weak_unsigned_weights(self, a, v):
        assert zeta_value(a, v, "weak") == oracle_weak(a, v)

    @settings(max_examples=10, deadline=None)
    @given(_DEEP_WORDS)
    def test_weak_unsigned_weights_polynomial(self, a):
        assert zeta_poly_in_v(a, "weak") == oracle_weak(a, Poly.x())

    @settings(max_examples=20, deadline=None)
    @given(_DEEP_WORDS, _SHIFTS)
    def test_wider_germ_truncation(self, a, v):
        base = strict_fp_res(a, v)
        for bump in (1, 2):
            v_, head = emsum._head(v, bump, emsum._WORD)
            assert emsum._to_laurent(emsum._nested(word_key(a, head), v_, head), v) == base


class _CountingMemo(dict):
    """A value memo that records the key of every entry written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)

    def weak_writes(self) -> list:
        return sorted(key for key in self.writes if key[1] == "weak")


class TestWeakFromStrictTable:
    """Weak values read off the strict value table (``mzv._weak_table``)
    against the engine's contraction sum (``engine_weak``) and the unsigned
    expansion (``oracle_weak``), on drawn words of depth 1-8."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_words(6), min_size=1, max_size=4),
        st.one_of(_SHIFTS, st.lists(_SHIFTS, min_size=1, max_size=3).map(tuple)),
    )
    def test_one_weak_write_per_miss(self, words_, v):
        # ``_weak_table`` is the weak memo's only writer: a cold one-word
        # read writes exactly one weak entry, a cold batch one per distinct
        # miss, each the engine's contraction sum
        lanes = v if type(v) is tuple else (v,)
        head = emsum._head(lanes, 0, 0)[1]
        distinct = sorted(set(words_))
        for x in distinct:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(mzv, "_memo", _CountingMemo())
                got = zeta_value(x, v, "weak")
                assert mzv._memo.weak_writes() == [(x, "weak", head)]
                assert mzv._memo[(x, "weak", head)] == (got if type(v) is tuple else (got,))
                assert got == engine_weak(x, v).fp
                assert mzv._memo[(x, "weak", head)][0] == oracle_weak(x, lanes[0])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mzv, "_memo", _CountingMemo())
            table = mzv.value_table(words_, v, "weak")
            assert mzv._memo.weak_writes() == [(x, "weak", head) for x in distinct]
            for lane, (den, nums) in enumerate(table):
                for x, n in zip(words_, nums):
                    assert Fraction(n, den) == mzv._memo[(x, "weak", head)][lane]
            assert mzv.value_table(words_, v, "weak") == table  # warm: no more writes
            assert len(mzv._memo.weak_writes()) == len(distinct)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_words(8), min_size=1, max_size=4),
        st.one_of(_SHIFTS, st.lists(_SHIFTS, min_size=1, max_size=3).map(tuple)),
        st.booleans(),
    )
    def test_rational_shifts(self, words_, v, cold):
        if cold:
            mzv._memo.clear()
        lanes = v if type(v) is tuple else (v,)
        table = mzv.value_table(words_, v, "weak")
        assert len(table) == len(lanes)
        for x in words_:
            got = zeta_value(x, v, "weak")
            engine = engine_weak(x, v)
            assert engine.res == (0,) * len(lanes) if type(v) is tuple else engine.res == 0
            assert got == engine.fp
        for i, (s, (den, nums)) in enumerate(zip(lanes, table)):
            want = [zeta_value(x, s, "weak") for x in words_]
            assert [Fraction(n, den) for n in nums] == want
            assert den == lcm(*(q.denominator for q in want))  # D is least
            if i == 0:
                assert want == [oracle_weak(x, s) for x in words_]

    @settings(max_examples=15, deadline=None)
    @given(_words(8))
    def test_polynomial_shift(self, a):
        mzv._memo.clear()
        got = zeta_poly_in_v(a, "weak")
        engine = engine_weak(a, Poly.x())
        assert engine.res == Poly.zero()
        assert got == engine.fp == oracle_weak(a, Poly.x())
        # a cold read over Q[v] writes one weak entry, the polynomial
        head = emsum._head(Poly.x(), 0, 0)[1]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mzv, "_memo", _CountingMemo())
            assert zeta_poly_in_v(a, "weak") == got
            assert mzv._memo.weak_writes() == [(a, "weak", head)]
            assert mzv._memo[(a, "weak", head)] == got


class TestStuffleAboveWeight8:
    @settings(max_examples=30, deadline=None)
    @given(_pairs_of_weight(9, 12), st.sampled_from(("strict", "weak")), _SHIFTS)
    def test_drawn_pairs(self, pair, variant, v):
        u, w = pair
        lhs = valuation(words.stuffle(u, w, variant), lambda x: zeta_value(x, v, variant))
        assert lhs == zeta_value(u, v, variant) * zeta_value(w, v, variant)


#: Each shift written two ways: an int and a Fraction, or a Fraction given
#: in lowest and in higher terms.
_SPELLINGS = ((0, Fraction(0)), (Fraction(1, 2), Fraction(2, 4)), (Fraction(-1, 3), Fraction(-2, 6)))

#: Every way to read the value at one shift v (spelled ``v`` or ``w``): as a
#: single shift, as a one-lane tuple, in either lane of a two-lane tuple,
#: respelled, and from the polynomial in v.
_READS = (
    lambda a, var, v, w: zeta_value(a, v, var),
    lambda a, var, v, w: zeta_value(a, (v,), var)[0],
    lambda a, var, v, w: zeta_value(a, (v, Fraction(3, 7)), var)[0],
    lambda a, var, v, w: zeta_value(a, (Fraction(3, 7), w), var)[1],
    lambda a, var, v, w: zeta_value(a, w, var),
    lambda a, var, v, w: zeta_poly_in_v(a, var)(v),
)


def test_memo_keys_never_cross():
    # one memo serves every variant, single shifts, tuples of shifts and
    # Q[v]; the reads are interleaved in one order that mixes all of them,
    # so an entry stored under a key another read shares would be read back
    mzv._memo.clear()
    words_ = ((0, 0), (0, 1, 1), (2, 1), (1, 0, 2))
    calls = list(product(words_, VARIANTS, _SPELLINGS, _READS))
    # 7919 is prime to len(calls) = 216, so this is a permutation of the calls
    order = sorted(range(len(calls)), key=lambda i: (i * 7919) % len(calls))
    got: dict = {}
    for i in order:
        a, variant, (v, w), read = calls[i]
        got.setdefault((a, variant, v), []).append(read(a, variant, v, w))
    for values in got.values():
        assert len(values) == len(_READS)
        assert all(type(x) is Fraction for x in values) and len(set(values)) == 1
    assert got[((0, 0), "strict", 0)][0] == Fraction(3, 8)
    assert got[((0, 0), "weak", 0)][0] == Fraction(-1, 8)
    for v, _ in _SPELLINGS:
        assert got[((0, 1, 1), "strict", v)][0] != got[((0, 1, 1), "alt", v)][0]


def test_single_shift_hit_skips_head(monkeypatch):
    # a memo hit at one rational shift builds its key without emsum._head and
    # reads what the one-lane tuple form stored; bool shifts, v <= -1 and an
    # unknown variant still raise as the tuple form does
    a = (1, 0, 2)
    for variant in VARIANTS:
        want = zeta_value(a, (Fraction(2, 5),), variant)[0]
        with monkeypatch.context() as m:
            m.setattr(mzv, "_head", None)
            assert zeta_value(a, Fraction(4, 10), variant) == want
            assert zeta_value(list(a), Fraction(2, 5), variant) == want
    assert zeta_value(a, 3) == zeta_value(a, (3,))[0] == zeta_value(a, Fraction(3))
    for v in (True, False):
        with pytest.raises(TypeError, match="bool"):
            zeta_value(a, v)
    for v in (-1, Fraction(-3, 2)):
        for word in (a, ()):
            with pytest.raises(StructuralViolation):
                zeta_value(word, v)
    with pytest.raises(ValueError, match="unknown variant"):
        zeta_value(a, Fraction(2, 5), "bogus")


def test_single_shift_miss_converts_and_keys_once(monkeypatch):
    # a miss at one rational shift converts v once and keys it without
    # emsum._head, and stores what the one-lane tuple form reads
    a = (1, 0, 2)
    want = {variant: zeta_value(a, (Fraction(2, 5),), variant)[0] for variant in VARIANTS}
    converted = []
    real = mzv.as_rational
    monkeypatch.setattr(mzv, "as_rational", lambda x: converted.append(x) or real(x))
    monkeypatch.setattr(mzv, "_head", None)
    for variant in VARIANTS:
        mzv._memo.clear()
        converted.clear()
        assert zeta_value(a, Fraction(2, 5), variant) == want[variant]
        assert converted == [Fraction(2, 5)]
        assert mzv._memo[(a, variant, (0, 0, 2, 5))] == (want[variant],)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple), min_size=1, max_size=6),
    st.one_of(_SHIFTS, st.lists(_SHIFTS, min_size=1, max_size=3).map(tuple)),
    st.sampled_from(VARIANTS),
    st.booleans(),
)
def test_value_table_matches_zeta_value(words_, v, variant, cold):
    # the batch read is, lane by lane, the per-word values over their least
    # common denominator; cold (every word a memo miss) and warm alike
    if cold:
        mzv._memo.clear()
    table = mzv.value_table(words_, v, variant)
    assert mzv.value_table(words_, v, variant) == table  # warm
    lanes = v if type(v) is tuple else (v,)
    assert len(table) == len(lanes)
    for s, (den, nums) in zip(lanes, table):
        want = [zeta_value(x, s, variant) for x in words_]
        assert [Fraction(n, den) for n in nums] == want
        assert den == lcm(*(q.denominator for q in want))


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_value((1,), True),
        lambda: zeta_value((1,), (False, True)),
        lambda: nested_fp_res([(1, 1)], True),
        lambda: hdim_zeta(2, (0,), v=True),
        lambda: verify_stuffle(2, True, "strict", max_depth=1),
    ],
)
def test_bool_shift_refused(call):
    # a bool is refused as a float is, not read as 1 or 0 (zeta(-1; True)
    # would be -13/12)
    with pytest.raises(TypeError, match="bool"):
        call()


def test_holomorphy_violation_error_exists():
    assert issubclass(HolomorphyViolation, ArithmeticError)


def test_holomorphy_checked_on_folded_total(monkeypatch):
    # the engine entry of a strict miss, returning residue 1 and finite part 0
    monkeypatch.setattr(emsum, "_word_total", lambda word, ring, head: ((1, (1,)), (1, ())))
    mzv._memo.clear()
    try:
        with pytest.raises(HolomorphyViolation, match="strict expansion"):
            zeta_value((5, 7, 9), Fraction(1, 5))
    finally:
        mzv._memo.clear()


def test_holomorphy_checked_on_weak_total(monkeypatch):
    # a weak miss reads the strict values of its contractions, and the
    # engine entry of each strict miss returns residue 1 and finite part 0:
    # the weak value is refused on the first strict residue it reads, at one
    # shift, at a tuple of shifts and over Q[v]
    monkeypatch.setattr(emsum, "_word_total", lambda word, ring, head: ((1, (1,)), (1, ())))
    mzv._memo.clear()
    try:
        for v in (Fraction(1, 5), (Fraction(1, 5), 0)):
            with pytest.raises(HolomorphyViolation, match="strict expansion"):
                zeta_value((5, 7, 9), v, "weak")
        with pytest.raises(HolomorphyViolation, match="strict expansion"):
            zeta_poly_in_v((5, 7, 9), "weak")
        with pytest.raises(HolomorphyViolation, match="strict expansion"):
            mzv.value_table([(5, 7, 9), (1,)], Fraction(1, 5), "weak")
        assert not [key for key in mzv._memo if key[1] == "weak"]
    finally:
        mzv._memo.clear()
