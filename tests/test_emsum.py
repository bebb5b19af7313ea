import operator
import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renzeta.emsum as emsum
from renzeta import mzv, verify
from renzeta.emsum import (
    NONRATIONAL,
    LaurentData,
    RationalityLeak,
    StructuralViolation,
    nested_fp_res,
)
from renzeta.exactnum import Poly
from renzeta.verify import random_exponent_lists
from engine_keys import decode, reach, strict_fp_res
from test_mzv import engine_weak


class InterpolationMismatch(ArithmeticError):
    """Interpolated polynomial failed verification at a fresh node."""


def interpolate_in_v(value_at, degree_bound: int, what: str) -> Poly:
    """Interpolate v -> value_at(v) through the integer nodes 0..degree_bound
    and verify the polynomial at two fresh nodes, 1/2 and 3/2: an oracle for
    the engine run over Q[v], built from the engine run over Q."""
    nodes = [Fraction(i) for i in range(degree_bound + 1)]
    poly = Poly.interpolate([(x, value_at(x)) for x in nodes])
    for x in (Fraction(1, 2), Fraction(3, 2)):
        if poly(x) != value_at(x):
            raise InterpolationMismatch(
                f"{what} is not a degree-{degree_bound} polynomial in v"
            )
    return poly


def poly_in_v(exponents, degree_bound: int) -> Poly:
    """v -> finite part as an exact polynomial, interpolated through
    degree_bound+1 integer nodes and verified at two fresh ones; needs the
    last exponent's b >= 0 (rational finite part)."""
    exps = tuple(exponents)
    if exps[-1][0] < 0:
        raise ValueError("finite part is only polynomial in v when the last b >= 0")
    if degree_bound < len(exps):
        raise ValueError("degree bound below the depth")
    return interpolate_in_v(
        lambda x: nested_fp_res(exps, x).fp, degree_bound, f"finite part of {exps}"
    )


def safe_degree_bound(exponents) -> int:
    """Degree bound sum(max(b_i,0)+1) that always dominates the true degree."""
    return sum(max(b, 0) + 1 for b, _ in exponents)


def fixed_menu_reach(key) -> int:
    """The reach b_1 + ... + b_l + l - 1 of a fixed-menu memo key, whose
    state is the slots (b, c)."""
    head, state = decode(key)
    assert head[0] == emsum._SLOTS
    bs = state[::2]
    return sum(bs) + len(bs) - 1


class TestNonRationalMarker:
    # the marker has no arithmetic: only the engine kernel reads it
    OPERANDS = (0, 3, Fraction(0), Fraction(1, 2), Poly.zero(), Poly.x(), NONRATIONAL)

    def test_sum_and_difference_raise_type_error(self):
        for x in self.OPERANDS:
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(NONRATIONAL, x)
                with pytest.raises(TypeError):
                    op(x, NONRATIONAL)
        with pytest.raises(TypeError):
            -NONRATIONAL

    def test_product_raises_type_error(self):
        for x in self.OPERANDS:
            with pytest.raises(TypeError):
                NONRATIONAL * x
            with pytest.raises(TypeError):
                x * NONRATIONAL

    def test_bare_marker(self):
        assert repr(NONRATIONAL) == "NONRATIONAL"
        assert NONRATIONAL == NONRATIONAL and NONRATIONAL != 0
        assert not hasattr(NONRATIONAL, "__dict__")


_COEFFS = st.tuples(st.integers(-40, 40).filter(bool), st.integers(1, 40))


@st.composite
def _engine_values(draw, max_degree=3):
    """An engine value (D, (n_0, ..., n_d)) with d <= max_degree and no
    trailing zero, not necessarily reduced; the empty tuple is zero."""
    size = draw(st.integers(0, max_degree + 1))
    nums = [draw(st.integers(-30, 30)) for _ in range(size)]
    if nums and not nums[-1]:
        nums[-1] = draw(st.integers(1, 30))
    return draw(st.integers(1, 30)), tuple(nums)


@st.composite
def _kernel_terms(draw, max_degree=3):
    """0..8 kernel terms, exact zeros among them, and sometimes the
    negation of some of them, so that the sum partly or wholly cancels."""
    values = st.one_of(st.just(emsum._ZERO), _engine_values(max_degree))
    terms = draw(st.lists(st.tuples(_COEFFS, values), max_size=8))
    negated = [((-p, q), x) for (p, q), x in terms if draw(st.booleans())]
    return draw(st.permutations(terms + negated[: 8 - len(terms)]))


def _as_poly(x) -> Poly:
    den, nums = x
    return Poly(tuple(Fraction(n, den) for n in nums))


class TestKernel:
    """The kernel ``_combine`` against the same sum taken in Fraction and
    Poly arithmetic, on drawn terms of degree 0..3."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_kernel_terms(), _kernel_terms(max_degree=0)))
    def test_against_poly_sum(self, terms):
        got = emsum._combine(terms)
        want = sum((Fraction(p, q) * _as_poly(x) for (p, q), x in terms), Poly.zero())
        assert _as_poly(got) == want
        den, nums = got
        # reduced: positive denominator, coprime to the numerators, no trailing zero
        assert den > 0
        assert gcd(den, *nums) == 1
        assert not nums or nums[-1]
        if not want.coeffs:
            assert got == emsum._ZERO

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            _kernel_terms(),
            _kernel_terms(max_degree=0),
            st.lists(st.tuples(_COEFFS, st.just(emsum._ZERO)), max_size=7),
        ),
        _COEFFS,
        st.integers(0, 8),
    )
    def test_marker_raises(self, terms, coeff, at):
        # the marker raises whatever the other terms are: all exact zeros,
        # all of degree 0, or mixed
        terms = list(terms[:7])
        terms.insert(at % (len(terms) + 1), (coeff, NONRATIONAL))
        with pytest.raises(RationalityLeak, match="non-rational finite part"):
            emsum._combine(terms)


class TestGerms:
    # a row entry is (b + 1 - j, h_m1, h_0, h_1), each coefficient a reduced
    # integer pair (p, q), an exact zero stored as None
    def test_examples(self):
        assert emsum._germ_row(-1, 2, 2)[0] == (0, (-1, 2), None, None)
        assert emsum._germ_row(5, 1, 2)[1] == (5, None, (-1, 2), None)
        # odd j > 1 germs vanish and are left out of the row: j = 0, 1, 2, 4
        row = emsum._germ_row(0, 1, 4)
        assert [shift for shift, *_ in row] == [1, 0, -1, -3]

    def test_regular_j0(self):
        assert emsum._germ_row(2, 3, 2)[0] == (3, None, (1, 3), (1, 3))

    def test_j2(self):
        # (B_2/2!)(b - cz): constant b/12, slope -c/12
        assert emsum._germ_row(4, 2, 2)[2] == (3, None, (1, 3), (-1, 6))

    @pytest.mark.parametrize("b, c", [(-1, 2), (3, 1), (-7, 3)])
    def test_longer_request_extends_the_row(self, b, c, monkeypatch):
        # a short request then a long one gives the row of a fresh long
        # build, and the long one builds only the new entries: one
        # Bernoulli number for each new j
        emsum.clear_cache()
        try:
            fresh = emsum._germ_row(b, c, 12)
            emsum.clear_cache()
            assert emsum._germ_row(b, c, 5) == fresh[:4]
            built = []
            real = emsum.bernoulli
            monkeypatch.setattr(emsum, "bernoulli", lambda j: built.append(j) or real(j))
            assert emsum._germ_row(b, c, 12) == fresh
            assert built == [6, 8, 10, 12]
            assert emsum._germ_row(b, c, 7) == fresh[:5] and built == [6, 8, 10, 12]
        finally:
            emsum.clear_cache()


class TestRowLength:
    def test_row_sized_by_reach(self):
        # the state (2, 1), (1, 1) has reach R = 1 + 2 + 1 = 4, so the row
        # of its last slot runs to j = R + 1 = 5, the last germ whose child
        # has reach >= -1: j = 0, 1, 2, 4 (odd j > 1 vanish)
        emsum.clear_cache()
        try:
            nested_fp_res([(2, 1), (1, 1)], 0)
            row = emsum._germ_cache[(1, 1)]
            assert [shift for shift, *_ in row] == [2, 1, 0, -2]
        finally:
            emsum.clear_cache()


class TestEngineDepth1:
    def test_nonnegative(self):
        assert nested_fp_res([(1, 1)], 0) == LaurentData(Fraction(0), Fraction(-1, 12))
        assert nested_fp_res([(0, 2)], 0).fp == Fraction(-1, 2)
        # value is independent of the perturbation multiplicity
        assert nested_fp_res([(3, 1)], 0).fp == nested_fp_res([(3, 7)], 0).fp

    def test_pole(self):
        data = nested_fp_res([(-1, 3)], Fraction(1, 2))
        assert data.res == Fraction(1, 3)
        assert data.fp is NONRATIONAL
        # the residue does not depend on v
        assert nested_fp_res([(-1, 3)], Fraction(2, 3)).res == Fraction(1, 3)

    def test_deep_negative(self):
        data = nested_fp_res([(-2, 1)], 0)
        assert data.res == 0 and data.fp is NONRATIONAL


class TestEngineDeeper:
    def test_table_identifications(self):
        assert nested_fp_res([(0, 1), (0, 1)], 0).fp == Fraction(3, 8)
        assert nested_fp_res([(2, 1), (1, 1)], 0).fp == Fraction(-1, 240)
        assert nested_fp_res([(1, 1), (1, 1)], 0).fp == Fraction(1, 288)

    def test_structural_violation(self):
        with pytest.raises(StructuralViolation):
            nested_fp_res([(-1, 1), (0, 1)], 0)
        with pytest.raises(StructuralViolation):
            nested_fp_res([(1, 0)], 0)
        with pytest.raises(StructuralViolation):
            nested_fp_res([(1, 1)], Fraction(-3, 2))
        with pytest.raises(StructuralViolation):
            nested_fp_res([], 0)

    @pytest.mark.parametrize(
        "exps", [[(2.0, 1)], [(True, 1)], [(Fraction(2), 1)], [(1, True)]], ids=repr
    )
    def test_refuses_non_int_exponent(self, exps):
        # b must be of type int, and c a rational that is not a bool
        with pytest.raises(StructuralViolation):
            nested_fp_res(exps, 0)

    def test_holomorphy_all_nonnegative(self):
        cs = (Fraction(1), Fraction(2), Fraction(3))
        rng = random.Random(2)
        cases = []
        for depth in (1, 2):
            cases.extend(
                tuple(zip(bs, css))
                for bs in iproduct(range(3), repeat=depth)
                for css in iproduct(cs[:2], repeat=depth)
            )
        for depth in (3, 4):
            for _ in range(40):
                cases.append(
                    tuple(
                        (rng.randint(0, 4), rng.choice(cs)) for _ in range(depth)
                    )
                )
        for exps in cases:
            for v in (Fraction(0), Fraction(1, 3)):
                data = nested_fp_res(exps, v)
                assert data.res == 0
                assert isinstance(data.fp, Fraction)

    def test_j_stability_sample(self):
        for exps, v in random_exponent_lists(40, seed=99):
            base = nested_fp_res(exps, v)
            assert nested_fp_res(exps, v, j_bump=1) == base
            assert nested_fp_res(exps, v, j_bump=2) == base

    def test_regularised_stuffle_equal_perturbation(self):
        # fp of the depth-1 product expansion: the meromorphic stuffle
        # identity evaluated at 0 on a pole-free family
        for v in (Fraction(0), Fraction(1, 2)):
            for a in range(6):
                for b in range(6):
                    lhs = nested_fp_res([(a, 1)], v).fp * nested_fp_res([(b, 1)], v).fp
                    rhs = (
                        nested_fp_res([(a, 1), (b, 1)], v).fp
                        + nested_fp_res([(b, 1), (a, 1)], v).fp
                        + nested_fp_res([(a + b, 2)], v).fp
                    )
                    assert lhs == rhs

    def test_negative_last_slot_residue(self):
        # depth 2 with a pole: residue rational, finite part withheld
        data = nested_fp_res([(1, 1), (-1, 1)], 0)
        assert isinstance(data.res, Fraction)
        assert data.fp is NONRATIONAL


class TestPolyInV:
    def test_depth1_quadratic(self):
        poly = poly_in_v([(1, 1)], 2)
        assert poly == Poly((Fraction(-1, 12), Fraction(-1, 2), Fraction(-1, 2)))

    def test_bound_too_small_is_detected(self):
        with pytest.raises(InterpolationMismatch):
            poly_in_v([(1, 1)], 1)

    def test_constant_term_is_table_entry(self):
        poly = poly_in_v([(0, 1), (0, 1)], safe_degree_bound([(0, 1), (0, 1)]))
        assert poly(Fraction(0)) == Fraction(3, 8)

    def test_zero_polynomial(self):
        # depth-1 even zeta zeros: zeta(-2; v) is not zero, so use a crafted
        # zero combination instead: fp([(a,1)]) - fp([(a,2)]) vanishes in v
        vals = [
            nested_fp_res([(2, 1)], Fraction(i)).fp - nested_fp_res([(2, 2)], Fraction(i)).fp
            for i in range(4)
        ]
        assert all(x == 0 for x in vals)

    def test_requires_nonnegative_last(self):
        with pytest.raises(ValueError):
            poly_in_v([(-1, 1)], 3)


class TestMemo:
    def test_deterministic_results(self):
        emsum.clear_cache()
        first = nested_fp_res([(2, 1), (2, 1), (2, 1)], Fraction(1, 2))
        emsum.clear_cache()
        second = nested_fp_res([(2, 1), (2, 1), (2, 1)], Fraction(1, 2))
        assert first == second

    def test_clear_cache_empties_every_table(self):
        # states, the prefix trie and its roots, germ rows and depth-1 finite
        # parts; a recomputation gives the same values from as many states
        tables = (
            emsum._cache, emsum._trie, emsum._roots, emsum._germ_cache, emsum._boundary_cache
        )
        exps = [(2, 1), (1, Fraction(1, 2)), (0, 1)]
        emsum.clear_cache()
        first = nested_fp_res(exps, Fraction(1, 3)), strict_fp_res((1, 0, 2), Fraction(1, 3))
        states = len(emsum._cache)
        assert all(tables)
        emsum.clear_cache()
        assert not any(tables)
        again = nested_fp_res(exps, Fraction(1, 3)), strict_fp_res((1, 0, 2), Fraction(1, 3))
        assert again == first and len(emsum._cache) == states

    def test_weak_reads_each_distinct_contraction_once(self, monkeypatch):
        # (0,) * 16 has 2^15 contractions but 16 distinct ones, (0,) * j:
        # cold, a weak value reads their 16 strict values once each, and no
        # more. A batch read and a single value both send each miss through
        # the module global zeta_value, at the one-lane tuple; from a warm
        # engine memo, neither makes a state
        word = (0,) * 16
        want = [((0,) * j, (0,), "strict") for j in range(1, 17)]
        reads = []
        real_value = mzv.zeta_value

        def value(*args):
            reads.append(args)
            return real_value(*args)

        emsum.clear_cache()
        mzv._memo.clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(mzv, "zeta_value", value)
                ((den, (num,)),) = mzv.value_table([word], 0, "weak")
            assert sorted(reads) == want
            assert Fraction(num, den) == engine_weak(word, 0).fp
            reads.clear()
            mzv._memo.clear()
            states = len(emsum._cache)
            with monkeypatch.context() as m:
                m.setattr(mzv, "zeta_value", value)
                m.setattr(emsum, "_nested", None)
                assert real_value(word, 0, "weak") == Fraction(num, den)
            assert sorted(reads) == want and len(emsum._cache) == states
        finally:
            emsum.clear_cache()
            mzv._memo.clear()

    def test_engine_state_count(self):
        # the set of engine states is part of the engine's contract: the
        # states visited are exactly those of reach >= -1 (the peel stops
        # at the first child of lower reach). Pinned on the per-term path:
        # one nested sum per composition term.
        emsum.clear_cache()
        try:
            value = sum(
                coeff * nested_fp_res(exps, 0).fp
                for exps, coeff in mzv._composition_terms((1,) * 7)
            )
            assert len(emsum._cache) == 1926
            assert all(fixed_menu_reach(key) >= -1 for key in emsum._cache)
            assert value == Fraction(534703531, 902961561600)
        finally:
            emsum.clear_cache()

    def test_polynomial_state_count(self):
        # the same peel steps over Q[v]: the states of the strict value of
        # (1,)*6 at v = Poly.x() are the ones the rational shifts visit
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            poly = mzv.zeta_poly_in_v((1,) * 6)
            assert len(emsum._cache) == 406
            # every memo value is stored reduced: numerators and denominator coprime
            values = [x for entry in emsum._cache.values() for x in entry if x is not NONRATIONAL]
            assert all(gcd(den, *nums) == 1 for den, nums in values)
            assert poly(Fraction(0)) == mzv.zeta_value((1,) * 6, 0)
            assert poly.coeffs[-1] == Fraction(1, 46080)
        finally:
            emsum.clear_cache()

    def test_rational_state_count(self):
        # the twin at a rational shift: the same states, and every stored
        # value reduced, over a positive denominator, of degree <= 0
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            value = mzv.zeta_value((1,) * 6, Fraction(2, 7))
            assert len(emsum._cache) == 406
            values = [x for entry in emsum._cache.values() for x in entry if x is not NONRATIONAL]
            assert all(den > 0 and gcd(den, *nums) == 1 for den, nums in values)
            assert all(len(nums) <= 1 for _, nums in values)
            assert value == mzv.zeta_poly_in_v((1,) * 6)(Fraction(2, 7))
        finally:
            emsum.clear_cache()

    def test_folded_state_count(self):
        # the same value by the folded recursion over word prefixes
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            value = mzv.zeta_value((1,) * 7, 0)
            assert len(emsum._cache) == 726
            assert value == Fraction(534703531, 902961561600)
        finally:
            emsum.clear_cache()

    def test_deep_word_state_count(self):
        # the cutoff well past the depth-7 pins: twelve letters under the
        # word menu, the value recorded before the cutoff existed
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            value = mzv.zeta_value((1,) * 12, 0)
            assert len(emsum._cache) == 5780
            assert value == Fraction(
                -1579029138854919086429, 9716130015581401251840000
            )
        finally:
            emsum.clear_cache()

    def test_bumped_state_counts(self):
        # j_bump peels every row 2 j_bump germs further, into children of
        # reach down to -1 - 2 j_bump. The 200 robustness lists create more
        # states at each bump, and every state of reach below -1 is
        # (0, NONRATIONAL)
        counts = []
        try:
            for bump in (0, 1, 2):
                emsum.clear_cache()
                for exps, v in random_exponent_lists(200, seed=verify.ENGINE_SEED):
                    nested_fp_res(exps, v, j_bump=bump)
                counts.append(len(emsum._cache))
                for key, value in emsum._cache.items():
                    if fixed_menu_reach(key) < -1:
                        assert value == (emsum._ZERO, NONRATIONAL), key
        finally:
            emsum.clear_cache()
        # lists whose directions agree up to scale share their states
        assert counts == [2630, 3034, 3439]

    def test_word_menu_cutoff(self):
        # the word-menu twin of the fixed-menu floor: over the weight-4
        # stuffle grid and (1,)*12, every state has reach >= -1 - 2 j_bump,
        # read from the trie as B + letter sum + length, the floor is met,
        # and every state of reach below -1 is (0, NONRATIONAL). The words'
        # values do not depend on j_bump
        words = [w for w in mzv._stuffle_plan(4, 3).words if w] + [(1,) * 12]
        values = []
        try:
            for bump in (0, 1):
                emsum.clear_cache()
                ring, head = emsum._head(Fraction(1, 7), bump, emsum._WORD)
                values.append([emsum._word_total(w, ring, head) for w in words])
                reaches = {key: reach(key) for key in emsum._cache}
                assert min(reaches.values()) == -1 - 2 * bump
                for key, r in reaches.items():
                    if r < -1:
                        assert emsum._cache[key] == (emsum._ZERO, NONRATIONAL), decode(key)
        finally:
            emsum.clear_cache()
        assert values[0] == values[1]

    def test_one_prefix_sum_state_per_prefix(self):
        # the strict expansion of each prefix word is a state (a_1..a_m, 0),
        # computed once: the value of the whole word and the boundary subsum
        # of every state after the prefix
        emsum.clear_cache()
        try:
            strict_fp_res((1,) * 12, 0)
            prefix_sums = [decode(key)[1] for key in emsum._cache if len(key) == 2]
            assert sorted(prefix_sums) == [(1,) * m + (0,) for m in range(1, 13)]
        finally:
            emsum.clear_cache()

    def test_each_state_created_by_one_call(self, monkeypatch):
        # a caller reads a child from the memo and descends only on a miss:
        # cold, every call of _nested creates its state, so the calls are
        # the memo's keys, each once
        calls = []
        real = emsum._nested

        def spied(key, ring, head):
            calls.append((key, key in emsum._cache))
            return real(key, ring, head)

        emsum.clear_cache()
        mzv._memo.clear()
        monkeypatch.setattr(emsum, "_nested", spied)
        try:
            for variant in ("strict", "weak"):
                report = mzv.verify_stuffle(4, Fraction(1, 7), variant, max_depth=3)
                assert report.ok
            created = list(emsum._cache)
            states = {decode(key) for key in created}
        finally:
            emsum.clear_cache()
            mzv._memo.clear()
        keys = [key for key, _ in calls]
        assert not any(present for _, present in calls)
        assert len(keys) == len(set(keys)) == len(created) == len(states) == 4361
        assert set(keys) == set(created)

    @pytest.mark.parametrize(
        "v", [Fraction(1, 7), Fraction(3, 7), (Fraction(1, 7), Fraction(2, 7))]
    )
    def test_stuffle_grid_state_count(self, v):
        # the value words of the weight-4, depth-3 stuffle grid: the strict
        # values create 4,361 states at any shift, and the weak values,
        # read off the strict values of their contractions, create none
        words = mzv._stuffle_plan(4, 3).words
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            for w in words:
                mzv.zeta_value(w, v)
            strict = len(emsum._cache)
            for w in words:
                mzv.zeta_value(w, v, "weak")
            assert (strict, len(emsum._cache)) == (4361, 4361)
        finally:
            emsum.clear_cache()
            mzv._memo.clear()

    def test_stuffle_suite_reads_its_shifts_as_lanes(self):
        # the suite reads each variant once, at the tuple of its shifts: the
        # grid's 4,361 states serve both shifts (one recursion per shift
        # made 8,722), and the report is that of one pass per shift
        emsum.clear_cache()
        mzv._memo.clear()
        try:
            report = verify.suite_stuffle(4)
            states = len(emsum._cache)
        finally:
            emsum.clear_cache()
            mzv._memo.clear()
        passes = [
            mzv.verify_stuffle(4, v, variant)
            for v in verify.STUFFLE_SHIFTS
            for variant in ("strict", "weak")
        ]
        want = mzv.Report.combined("stuffle", passes)
        assert states == 4361
        assert report.ok
        assert (report.suite, report.cases, report.failures) == ("stuffle", want.cases, want.failures)

    def test_strict_refuses_depth_at_recursion_limit_at_once(self):
        # the strict twin of the weak refusal: a value-memo miss enters the
        # engine past the word checks of strict_fp_res, and must still be
        # refused by the depth check before any state is made
        emsum.clear_cache()
        t0 = time.monotonic()
        with pytest.raises(RecursionError, match="than the recursion limit"):
            mzv.zeta_value((0,) * 1200, 0)
        assert time.monotonic() - t0 < 1.0
        assert not emsum._cache and not emsum._trie


class TestSentinelInEngine:
    # peeling (0, 1) from [(0, 1), (0, 1)] merges at j = 2 into the slot
    # (-1, 2), whose finite part is NONRATIONAL; the true h_0 there is 0.
    # The poisoned row of the slot (0, 1) gives that germ h_0 = 1.
    TWO_J = 2

    def poison_j2(self):
        row = list(emsum._germ_row(0, 1, self.TWO_J))
        assert row[2] == (-1, None, None, (-1, 12))
        row[2] = (-1, None, (1, 1), (-1, 12))
        emsum._germ_cache[(0, 1)] = tuple(row)

    def test_nonzero_germ_meets_sentinel(self):
        emsum.clear_cache()
        try:
            assert nested_fp_res([(-1, 2)], 0).fp is NONRATIONAL
            emsum.clear_cache()
            self.poison_j2()
            with pytest.raises(RationalityLeak, match="non-rational finite part"):
                nested_fp_res([(0, 1), (0, 1)], 0)
        finally:
            emsum.clear_cache()
        assert nested_fp_res([(0, 1), (0, 1)], 0).fp == Fraction(3, 8)

    def test_nonzero_germ_meets_sentinel_over_q_v(self):
        # the same poisoned germ, with the engine run over Q[v]
        emsum.clear_cache()
        try:
            assert nested_fp_res([(-1, 2)], Poly.x()).fp is NONRATIONAL
            emsum.clear_cache()
            self.poison_j2()
            with pytest.raises(RationalityLeak, match="non-rational finite part"):
                nested_fp_res([(0, 1), (0, 1)], Poly.x())
        finally:
            emsum.clear_cache()
        assert nested_fp_res([(0, 1), (0, 1)], Poly.x()).fp(0) == Fraction(3, 8)

    def test_nonzero_germ_meets_sentinel_in_folded_recursion(self):
        # the same poisoned germ reached through the strict expansion of
        # (0, 0): the one-letter slot (0, 1) merged into (-1, 2)
        emsum.clear_cache()
        try:
            self.poison_j2()
            with pytest.raises(RationalityLeak, match="non-rational finite part"):
                strict_fp_res((0, 0), 0)
        finally:
            emsum.clear_cache()
        assert strict_fp_res((0, 0), 0).fp == Fraction(3, 8)


class TestEngineOverQv:
    def test_symbolic_shift_is_only_v(self):
        # the engine's own v passes by identity, an equal fresh one by value
        fresh = Poly.x()
        assert fresh is not emsum._X
        assert emsum._head(fresh, 0, 0) == emsum._head(emsum._X, 0, 0)
        for p in (Poly((0, 2)), Poly((1, 1))):
            with pytest.raises(StructuralViolation):
                nested_fp_res([(1, 1)], p)

    def test_memo_keeps_rings_apart(self):
        emsum.clear_cache()
        try:
            sym = nested_fp_res([(2, 1), (1, 1)], Poly.x())
            num = nested_fp_res([(2, 1), (1, 1)], 0)
            assert isinstance(sym.fp, Poly) and isinstance(num.fp, Fraction)
            assert sym.fp(0) == num.fp == Fraction(-1, 240)
        finally:
            emsum.clear_cache()


@st.composite
def _words(draw, max_depth=5, max_weight=10):
    """A word of depth <= max_depth and weight <= max_weight."""
    budget = draw(st.integers(0, max_weight))
    word = []
    for _ in range(draw(st.integers(1, max_depth))):
        word.append(draw(st.integers(0, budget)))
        budget -= word[-1]
    return tuple(word)


_SHIFTS = st.fractions(min_value=Fraction(-11, 12), max_value=3, max_denominator=12)


class TestPolyEngineAgainstInterpolation:
    """The Q[v] engine against interpolation of the Q engine, off the fixed
    grids: drawn words, every variant, drawn hdim cases."""

    @settings(max_examples=40, deadline=None)
    @given(_words(), st.sampled_from(mzv.VARIANTS), _SHIFTS)
    def test_words(self, a, variant, v):
        poly = mzv.zeta_poly_in_v(a, variant)
        want = interpolate_in_v(
            lambda x: mzv.zeta_value(a, x, variant), sum(x + 1 for x in a), f"zeta{a}"
        )
        assert poly == want
        assert poly(v) == mzv.zeta_value(a, v, variant)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), _words(max_depth=2, max_weight=4), _SHIFTS)
    def test_hdim(self, n, a, v):
        value, poly = mzv.hdim_zeta(n, a, v, with_poly=True)
        want = interpolate_in_v(
            lambda x: mzv.hdim_zeta(n, a, x).value, len(a) * n + sum(a), f"hdim{a}"
        )
        assert poly == want
        assert poly(v) == value


_DIRECTIONS = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)


@st.composite
def _exponent_lists(draw, max_depth=3):
    """An exponent list of depth <= max_depth with rational directions;
    only the last slot may have a negative b."""
    depth = draw(st.integers(1, max_depth))
    bs = [draw(st.integers(0, 3)) for _ in range(depth - 1)] + [draw(st.integers(-3, 3))]
    return tuple((b, draw(_DIRECTIONS)) for b in bs)


class TestDirectionScaling:
    """Scaling every direction by lambda > 0 is z -> lambda z: the finite
    part stays and the residue is divided by lambda."""

    @settings(max_examples=60, deadline=None)
    @given(_exponent_lists(), _DIRECTIONS, st.one_of(_SHIFTS, st.just(Poly.x())))
    def test_scaled_directions(self, exps, lam, v):
        base = nested_fp_res(exps, v)
        scaled = nested_fp_res([(b, lam * c) for b, c in exps], v)
        assert scaled.res * lam == base.res
        if base.fp is NONRATIONAL:
            assert scaled.fp is NONRATIONAL
        else:
            assert scaled.fp == base.fp


_LANE = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.integers(0, 3).map(Fraction),
    st.fractions(min_value=Fraction(-11, 12), max_value=Fraction(-1, 12), max_denominator=12),
    _SHIFTS,
)


@st.composite
def _lanes(draw):
    """A tuple of 1..6 shifts: ints and Fractions, zero, negatives > -1,
    mixed denominators, and sometimes a repeated shift."""
    lanes = draw(st.lists(_LANE, min_size=1, max_size=6))
    if len(lanes) < 6 and draw(st.booleans()):
        lanes.insert(draw(st.integers(0, len(lanes))), draw(st.sampled_from(lanes)))
    return tuple(lanes)


def _agree_lane_by_lane(got, singles):
    """The LaurentData of a lanes call against the single-shift results."""
    assert got.res == tuple(one.res for one in singles)
    if singles[0].fp is NONRATIONAL:
        assert got.fp is NONRATIONAL
        assert all(one.fp is NONRATIONAL for one in singles)
    else:
        assert got.fp == tuple(one.fp for one in singles)


def _states(call) -> set:
    """The engine states one cold call creates, each with the menu and
    j_bump of its head but not its key of v: a head is (menu, j_bump, p, q)
    for one shift p/q, or (menu, j_bump, (p_1, ..., p_S), (q_1, ..., q_S))
    for S shifts."""
    emsum.clear_cache()
    try:
        call()
        return {(head[:2], state) for head, state in map(decode, emsum._cache)}
    finally:
        emsum.clear_cache()


class TestLanes:
    """A tuple of shifts runs one recursion with one lane per shift: each
    lane must equal the engine run at that shift alone."""

    @settings(max_examples=60, deadline=None)
    @given(_exponent_lists(), _lanes(), st.sampled_from((0, 1)))
    def test_fixed_menu(self, exps, lanes, bump):
        got = nested_fp_res(exps, lanes, j_bump=bump)
        _agree_lane_by_lane(got, [nested_fp_res(exps, x, j_bump=bump) for x in lanes])

    @settings(max_examples=60, deadline=None)
    @given(_words(max_depth=4, max_weight=6), _lanes(), st.sampled_from(("strict", "weak")))
    def test_word_menu(self, word, lanes, variant):
        fn = strict_fp_res if variant == "strict" else engine_weak
        _agree_lane_by_lane(fn(word, lanes), [fn(word, x) for x in lanes])

    @settings(max_examples=30, deadline=None)
    @given(_words(max_depth=4, max_weight=6), _lanes(), st.sampled_from(mzv.VARIANTS))
    def test_values(self, word, lanes, variant):
        got = mzv.zeta_value(word, lanes, variant)
        assert got == tuple(mzv.zeta_value(word, x, variant) for x in lanes)
        assert mzv.zeta_value(word, lanes, variant) is got  # memoised per (word, shifts)

    @settings(max_examples=30, deadline=None)
    @given(_exponent_lists(), _words(max_depth=4, max_weight=6), _lanes(), st.sampled_from((0, 1)))
    def test_states_of_one_shift(self, exps, word, lanes, bump):
        # the recursion does not depend on the shift: a lanes call creates
        # exactly the states of one single-shift call, and one lane is keyed
        # as that shift alone
        calls = (
            lambda v: nested_fp_res(exps, v, j_bump=bump),
            lambda v: strict_fp_res(word, v),
            lambda v: engine_weak(word, v),
        )
        for call in calls:
            assert _states(lambda: call(lanes)) == _states(lambda: call(lanes[0]))
            emsum.clear_cache()
            try:
                call(lanes[:1])
                one_lane = set(map(decode, emsum._cache))
                emsum.clear_cache()
                call(lanes[0])
                assert one_lane == set(map(decode, emsum._cache))
            finally:
                emsum.clear_cache()

    def test_pinned_state_counts(self):
        # the pins of TestMemo, at three shifts in one recursion
        lanes = (Fraction(2, 7), 0, Fraction(-1, 2))
        for call, count in (
            (lambda: mzv.zeta_value((1,) * 7, lanes), 726),
            (lambda: strict_fp_res((1,) * 6, lanes), 406),
        ):
            emsum.clear_cache()
            mzv._memo.clear()
            try:
                call()
                assert len(emsum._cache) == count
            finally:
                emsum.clear_cache()

    @pytest.mark.parametrize("lanes", [(), (Fraction(1, 2), -1), (0, Fraction(-3, 2), 1)], ids=repr)
    def test_refused(self, lanes):
        for call in (
            lambda: nested_fp_res([(1, 1)], lanes),
            lambda: strict_fp_res((1, 2), lanes),
            lambda: engine_weak((1, 2), lanes),
            lambda: mzv.zeta_value((1, 2), lanes, "weak"),
            lambda: mzv.zeta_value((1, 2), lanes),
        ):
            with pytest.raises(StructuralViolation):
                call()

    def test_warm_hit_hashes_no_fraction(self, monkeypatch):
        lanes = (Fraction(2, 7), Fraction(9, 7), Fraction(-1, 3))
        want = mzv.zeta_value((2, 1), lanes)
        hashed = []
        real = Fraction.__hash__

        def counted(self):
            hashed.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert mzv.zeta_value((2, 1), lanes) is want
        assert not hashed
