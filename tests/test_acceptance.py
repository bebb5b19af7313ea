"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected values are frozen here independently of the package's own reference
data; tolerances are exact (zero) everywhere, as required.
"""

import time
from fractions import Fraction
from itertools import product as iproduct

from renzeta import chenint, cli, emsum, mzv, verify, words

# the 49 double-zeta values zeta(-a,-b), row b, column a
EXPECTED_TABLE = {
    0: ("3/8", "1/12", "7/720", "-1/120", "-11/2520", "1/252", "1/224"),
    1: ("1/24", "1/288", "-1/240", "-19/10080", "1/504", "41/20160", "-1/480"),
    2: ("-7/720", "-1/240", "0", "1/504", "113/151200", "-1/480", "-307/166320"),
    3: ("-1/240", "1/840", "1/504", "1/28800", "-1/480", "-281/332640", "1/264"),
    4: ("11/2520", "1/504", "-113/151200", "-1/480", "0", "1/264", "117977/75675600"),
    5: ("1/504", "-103/60480", "-1/480", "1/1232", "1/264", "1/127008", "-691/65520"),
    6: ("-1/224", "-1/480", "307/166320", "1/264", "-117977/75675600", "-691/65520", "0"),
}


def _pass(n, text):
    print(f"ACCEPTANCE {n:02d} PASS  {text}")


def test_criterion_01_table_reproduction(capsys):
    t0 = time.monotonic()
    code = cli.main(["table", "--max", "6"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b\\a,0,1,2,3,4,5,6"
    assert len(lines) == 8
    for b in range(7):
        cells = lines[b + 1].split(",")
        assert cells[0] == str(b)
        assert tuple(cells[1:]) == EXPECTED_TABLE[b], f"row b={b}"
    assert elapsed < 60
    with capsys.disabled():
        _pass(1, f"49-entry table reproduced exactly in {elapsed:.2f}s")


def test_criterion_02_two_path_agreement(capsys):
    for a in range(7):
        for b in range(7):
            assert mzv.zeta_value((a, b)) == mzv.zeta2_closed(a, b), (a, b)
    with capsys.disabled():
        _pass(2, "pipeline equals closed depth-2 formula for all 0 <= a,b <= 6")


def test_criterion_03_odd_weight_law(capsys):
    for a in range(7):
        for b in range(1, 7):
            if (a + b) % 2 == 1:
                assert mzv.zeta_value((a, b)) == -mzv.zeta_depth1(a + b) / 2, (a, b)
    for a in (1, 3, 5):
        assert mzv.zeta_value((a, 0)) == -mzv.zeta_depth1(a)
    with capsys.disabled():
        _pass(3, "odd-weight law and trailing-zero law hold exactly")


def test_criterion_04_stuffle_suite(capsys):
    total_cases = 0
    for v in (Fraction(0), Fraction(1, 2)):
        for variant in ("strict", "weak"):
            report = mzv.verify_stuffle(8, v, variant, max_depth=3)
            assert report.ok, report.failures[:3]
            total_cases += report.cases
    with capsys.disabled():
        _pass(4, f"stuffle relations exact on {total_cases} word-pair cases")


def test_criterion_05_scheme_agreement_and_depth3_gap(capsys):
    vs = (Fraction(0), Fraction(1, 3), Fraction(2))
    for v in vs:
        for a in range(7):
            assert mzv.zeta_value((a,), v, "alt") == mzv.zeta_value((a,), v)
            for b in range(7):
                assert mzv.zeta_value((a, b), v, "alt") == mzv.zeta_value((a, b), v)
        gap = mzv.zeta_value((0, 1, 1), v) - mzv.zeta_value((0, 1, 1), v, "alt")
        assert gap == Fraction(1, 2880), v
    with capsys.disabled():
        _pass(5, "schemes agree through depth 2; depth-3 gap is 1/2880 at every v")


def test_criterion_06_hurwitz_identities(capsys):
    report = verify.suite_hurwitz(
        max_depth=3, max_entry=3, vs=(Fraction(0), Fraction(1, 2), Fraction(3, 4))
    )
    assert report.ok, report.failures[:3]
    with capsys.disabled():
        _pass(6, f"shift and derivative identities exact on {report.cases} cases")


def test_criterion_07_assertions_never_fire(capsys):
    # every value computation below runs with the holomorphy and
    # rationality assertions armed; any violation raises
    checked = 0
    for w in mzv.words_up_to(3, 6):
        for v in (Fraction(0), Fraction(1, 2)):
            for variant in ("strict", "weak", "alt"):
                mzv.zeta_value(w, v, variant)
                checked += 1
    for exps, v in verify.random_exponent_lists(100, seed=4242):
        data = emsum.nested_fp_res(exps, v)
        if exps[-1][0] >= 0:
            assert data.res == 0 and isinstance(data.fp, Fraction)
        checked += 1
    with capsys.disabled():
        _pass(7, f"no holomorphy/rationality assertion fired across {checked} evaluations")


def test_criterion_08_truncation_stability(capsys):
    lists = verify.random_exponent_lists(200, seed=verify.ENGINE_SEED)
    for exps, v in lists:
        base = emsum.nested_fp_res(exps, v)
        assert emsum.nested_fp_res(exps, v, j_bump=1) == base, (exps, v)
        assert emsum.nested_fp_res(exps, v, j_bump=2) == base, (exps, v)
    with capsys.disabled():
        _pass(8, "results invariant under germ-truncation widening on 200 random lists")


def test_criterion_09_finite_part_vanishing(capsys):
    from renzeta.exactnum import Poly

    cases = 0
    for depth in (1, 2, 3):
        for bs in iproduct(range(4), repeat=depth):
            for v in (Fraction(0), Fraction(1, 4)):
                degree = sum(b + 1 for b in bs)
                pts = [
                    (Fraction(n), verify.brute_truncated_nested_sum(bs, v, n))
                    for n in range(degree + 1)
                ]
                poly = Poly.interpolate(pts)
                # confirm the interpolation really is the N-polynomial
                assert poly(Fraction(degree + 1)) == verify.brute_truncated_nested_sum(
                    bs, v, degree + 1
                )
                assert poly.coefficient(0) == 0, (bs, v)
                cases += 1
    with capsys.disabled():
        _pass(9, f"cut-off power sums have vanishing constant term ({cases} cases)")


def test_criterion_10_higher_dimensional_instances(capsys):
    for a in range(6):
        assert mzv.hdim_zeta(2, (a,)).value == 8 * mzv.zeta_value((a + 1,))
        assert mzv.hdim_zeta(3, (a,)).value == 24 * mzv.zeta_value((a + 2,)) + 2 * mzv.zeta_value((a,))
        for b in range(6):
            assert mzv.hdim_zeta(2, (a, b)).value == 64 * mzv.zeta_value((a + 1, b + 1))
    for args in ((0,), (3,), (1, 2), (0, 1, 1)):
        assert mzv.hdim_zeta(1, args).value == 2 ** len(args) * mzv.zeta_value(args)
    with capsys.disabled():
        _pass(10, "dimension 1/2/3 reduction identities hold exactly")


def test_criterion_11_continuous_side(capsys):
    report = verify.suite_shuffle_cont()
    assert report.ok, report.failures[:3]
    assert chenint.zeta_tilde_renorm((3, 2)) == Fraction(1, 6)
    assert chenint.zeta_tilde_renorm((1,)) == 0
    assert chenint.zeta_tilde_renorm((1, 1)) == 0
    with capsys.disabled():
        _pass(11, f"continuous shuffle/renormalisation identities exact ({report.cases} cases)")


def test_criterion_12_hoffman_roundtrip_and_morphism(capsys):
    alphabet = (0, 1, 2)
    all_words = []
    for ln in range(1, 6):
        all_words.extend(iproduct(alphabet, repeat=ln))
    pairs = 0
    for sign, mode in (("+", "strict"), ("-", "weak")):
        for w in all_words:
            t = words.TensorPoly.from_word(w)
            assert words.hoffman_log(words.hoffman_exp(t, sign), sign) == t
        for u in all_words:
            if len(u) > 4:
                continue
            for w in all_words:
                if len(u) + len(w) > 5:
                    continue
                lhs = words.hoffman_exp(words.shuffle(u, w), sign)
                rhs = words.stuffle_poly(
                    words.hoffman_exp(words.TensorPoly.from_word(u), sign),
                    words.hoffman_exp(words.TensorPoly.from_word(w), sign),
                    mode,
                )
                assert lhs == rhs, (u, w, sign)
                pairs += 1
    with capsys.disabled():
        _pass(12, f"exp/log inverse on all length<=5 words; morphism on {pairs} pairs")
