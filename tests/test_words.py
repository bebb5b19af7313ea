import hashlib
import random
from fractions import Fraction
from itertools import product as iproduct

from hypothesis import given, settings
from hypothesis import strategies as st
from test_combinat import oracle_shuffle, oracle_stuffle

from renzeta.chenint import chen_character_exact, zeta_symbol
from renzeta.mzv import words_up_to
from renzeta.words import (
    QuasiShuffleTable,
    TensorPoly,
    Word,
    _add_into,
    hoffman_exp,
    hoffman_log,
    shuffle,
    stuffle,
    stuffle_poly,
    word_str,
)


def valuation(t: TensorPoly, fn):
    """Linear extension of a word-level valuation: sum of c * fn(word)."""
    return sum((c * fn(w) for w, c in t), Fraction(0))


def parse_word(s: str) -> Word:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(part) for part in s.split(","))


def shuffle_poly(s: TensorPoly, t: TensorPoly) -> TensorPoly:
    """Bilinear extension of the shuffle product."""
    out: dict[Word, Fraction] = {}
    for u, cu in s.terms.items():
        for w, cw in t.terms.items():
            _add_into(out, shuffle(u, w), cu * cw)
    return TensorPoly(out)


def deconcat(w) -> list[tuple[Word, Word]]:
    """All |w|+1 splits (prefix, suffix), trivial ones included."""
    w = tuple(w)
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


def deconcat_reduced(w) -> list[tuple[Word, Word]]:
    """The splits with both parts nonempty (what Birkhoff recursions use)."""
    w = tuple(w)
    return [(w[:i], w[i:]) for i in range(1, len(w))]


def words_over(letters, max_len):
    out = []
    for ln in range(1, max_len + 1):
        out.extend(iproduct(letters, repeat=ln))
    return out


class TestShuffle:
    def test_examples(self):
        assert shuffle((1,), (2,)) == TensorPoly({(1, 2): 1, (2, 1): 1})
        assert shuffle((), (1, 2)) == TensorPoly.from_word((1, 2))
        assert shuffle((1, 2), (3,)) == TensorPoly(
            {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}
        )

    def test_commutative_and_associative(self):
        ws = words_over((0, 1, 2), 2)
        for u in ws:
            for w in ws:
                if len(u) + len(w) > 5:
                    continue
                assert shuffle(u, w) == shuffle(w, u)
        for u in words_over((0, 1), 2):
            for w in words_over((1, 2), 1):
                for x in words_over((0, 2), 2):
                    if len(u) + len(w) + len(x) > 5:
                        continue
                    lhs = shuffle_poly(shuffle(u, w), TensorPoly.from_word(x))
                    rhs = shuffle_poly(TensorPoly.from_word(u), shuffle(w, x))
                    assert lhs == rhs


_DRAWN_WORDS = st.lists(st.integers(0, 4), max_size=4).map(tuple)


def table_terms(table: QuasiShuffleTable, u, w) -> list:
    """(word, multiplicity) of each term of u * w on ``table``, in order."""
    cell = table.product(table.intern(u), table.intern(w))
    return [(table.word(x), m) for x, m in cell.items()]


class TestStuffle:
    def test_strict_example(self):
        # the classical depth 1 x 1 relation: two interleavings plus a merge
        assert stuffle((1,), (2,)) == TensorPoly({(1, 2): 1, (2, 1): 1, (3,): 1})

    def test_weak_signs(self):
        assert stuffle((1,), (2,), "weak") == TensorPoly(
            {(1, 2): 1, (2, 1): 1, (3,): -1}
        )

    def test_unit(self):
        assert stuffle((), (4, 5)) == TensorPoly.from_word((4, 5))

    def test_commutative_and_associative(self):
        for mode in ("strict", "weak"):
            ws = words_over((0, 1, 2), 2)
            for u in ws:
                for w in ws:
                    if len(u) + len(w) > 5:
                        continue
                    assert stuffle(u, w, mode) == stuffle(w, u, mode)
            for u in words_over((0, 1), 2):
                for w in words_over((1, 3), 1):
                    for x in words_over((2,), 2):
                        if len(u) + len(w) + len(x) > 5:
                            continue
                        lhs = stuffle_poly(stuffle(u, w, mode), TensorPoly.from_word(x), mode)
                        rhs = stuffle_poly(TensorPoly.from_word(u), stuffle(w, x, mode), mode)
                        assert lhs == rhs

    def test_truncated_sum_factorization(self):
        # inclusion-exclusion oracle: the strict stuffle expansion of two
        # words multiplies truncated nested sums
        rng = random.Random(3)
        for _ in range(10):
            depth_u = rng.randint(1, 2)
            depth_w = rng.randint(1, 2)
            u = tuple(rng.randint(0, 2) for _ in range(depth_u))
            w = tuple(rng.randint(0, 2) for _ in range(depth_w))
            n_top = 20

            def nested(word):
                def rec(word, upper):
                    if not word:
                        return Fraction(1)
                    return sum(
                        Fraction(n) ** word[0] * rec(word[1:], n)
                        for n in range(1, upper)
                    )

                return rec(word, n_top + 1)

            lhs = valuation(stuffle(u, w), nested)
            assert lhs == nested(u) * nested(w)

    def test_long_words_need_no_recursion(self):
        # words and cells are built iteratively: no RecursionError at any length
        long = (1,) * 5000
        assert stuffle((), long) == TensorPoly.from_word(long)
        got = shuffle((1,) * 2000, (2,))
        assert len(got) == 2001 and set(c for _, c in got) == {1}
        assert ((1,) * 2000 + (2,), 1) in got

    def test_shared_table_gives_the_same_products(self):
        # one table for every pair, as the stuffle passes share it: the same
        # words, multiplicities and term order as a throwaway table per pair
        pool = [()] + words_up_to(3, 6)
        for merge in (False, True):
            shared = QuasiShuffleTable(merge)
            for u in pool:
                for w in pool:
                    want = table_terms(QuasiShuffleTable(merge), u, w)
                    assert table_terms(shared, u, w) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_DRAWN_WORDS, _DRAWN_WORDS), min_size=1, max_size=6))
    def test_drawn_pairs_on_one_table(self, pairs):
        # shared tables against the enumeration of (quasi-)shuffles; the
        # shuffle table gets symbol letters, which have no order and no sum
        sym = {s: zeta_symbol(s) for s in range(5)}
        stuffles, shuffles = QuasiShuffleTable(True), QuasiShuffleTable(False)
        for u, w in pairs:
            want = [(x, int(c)) for x, c in oracle_stuffle(u, w).terms.items()]
            assert table_terms(stuffles, u, w) == want
            su, sw = (tuple(sym[a] for a in x) for x in (u, w))
            want = [(x, int(c)) for x, c in oracle_shuffle(su, sw).terms.items()]
            assert table_terms(shuffles, su, sw) == want


class TestDeconcat:
    def test_examples(self):
        assert deconcat((1, 2)) == [((), (1, 2)), ((1,), (2,)), ((1, 2), ())]
        assert deconcat(()) == [((), ())]
        assert deconcat_reduced((1, 2, 3)) == [((1,), (2, 3)), ((1, 2), (3,))]


class TestHoffman:
    def test_exp_examples(self):
        assert hoffman_exp(TensorPoly.from_word((1,))) == TensorPoly.from_word((1,))
        assert hoffman_exp(TensorPoly.from_word((1, 2))) == TensorPoly(
            {(1, 2): 1, (3,): Fraction(1, 2)}
        )
        got = hoffman_log(TensorPoly.from_word((1, 2, 4)))
        assert got == TensorPoly(
            {
                (1, 2, 4): 1,
                (3, 4): Fraction(-1, 2),
                (1, 6): Fraction(-1, 2),
                (7,): Fraction(1, 3),
            }
        )

    def test_weak_bullet_sign(self):
        got = hoffman_exp(TensorPoly.from_word((1, 2)), "-")
        assert got == TensorPoly({(1, 2): 1, (3,): Fraction(-1, 2)})

    def test_round_trip(self):
        rng = random.Random(5)
        for sign in ("+", "-"):
            for ln in range(1, 6):
                for _ in range(8):
                    w = tuple(rng.randint(-3, 5) for _ in range(ln))
                    t = TensorPoly.from_word(w)
                    assert hoffman_log(hoffman_exp(t, sign), sign) == t
                    assert hoffman_exp(hoffman_log(t, sign), sign) == t

    def test_terms_pinned(self):
        # the terms, in order, of exp and log on every word of length <= 5
        # over {0, 1, 2, 3} with both bullet signs, recorded while the packet
        # sizes still came from a separate compositions enumerator
        h = hashlib.sha256()
        for word in (w for n in range(6) for w in iproduct(range(4), repeat=n)):
            for sign in ("+", "-"):
                for fn in (hoffman_exp, hoffman_log):
                    terms = list(fn(TensorPoly.from_word(word), sign).terms.items())
                    h.update(repr(terms).encode())
        assert h.hexdigest() == "8e2b277a40b6006036a2cdb7741410eab0a795dd51eb2419bf4e00568a7c56da"

    def test_hopf_morphism(self):
        # exp(u shuffle w) = exp(u) stuffle exp(w), with matching signs
        words = words_over((0, 1, 2), 3)
        for sign, mode in (("+", "strict"), ("-", "weak")):
            for u in words:
                for w in words:
                    if len(u) + len(w) > 5:
                        continue
                    lhs = hoffman_exp(shuffle(u, w), sign)
                    rhs = stuffle_poly(
                        hoffman_exp(TensorPoly.from_word(u), sign),
                        hoffman_exp(TensorPoly.from_word(w), sign),
                        mode,
                    )
                    assert lhs == rhs


class TestSymbolLetters:
    """Letters only need to be hashable: symbols of the continuous side have
    no order."""

    def test_shuffle_of_power_log_symbols(self):
        sym = {s: zeta_symbol(s) for s in (1, 2, 3)}
        u, w = (sym[1], sym[2]), (sym[3],)
        got = shuffle(u, w)
        want = {tuple(sym[x] for x in word): c for word, c in shuffle((1, 2), (3,))}
        assert dict(got) == want
        assert len(list(got)) == 3
        assert repr(got).startswith("TensorPoly(1*(")

    def test_symbol_algebra(self):
        sym = {s: zeta_symbol(s) for s in (1, 2, 3)}
        u, w, x = (sym[1],), (sym[2], sym[3]), (sym[2],)
        # the cut-off character is multiplicative under the shuffle
        lhs = valuation(shuffle(u, w), chen_character_exact)
        assert lhs == chen_character_exact(u) * chen_character_exact(w)
        lhs = shuffle_poly(shuffle(u, w), TensorPoly.from_word(x))
        rhs = shuffle_poly(TensorPoly.from_word(u), shuffle(w, x))
        assert lhs == rhs


def test_word_serialization():
    assert word_str((0, 1, 1)) == "0,1,1"
    assert parse_word("0,1,1") == (0, 1, 1)
    assert parse_word("") == ()
    assert word_str(()) == ""
