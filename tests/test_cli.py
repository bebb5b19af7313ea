import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renzeta import chenint, cli
from renzeta.combinat import bernoulli
from renzeta.exactnum import rat_str
from renzeta.mzv import Report
from test_chenint import chen_character


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "-a", "0,0")
        assert code == 0
        assert out.strip() == "zeta(0, 0; v=0) [strict] = 3/8"

    def test_alt_variant(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "-a", "2,1", "--variant", "alt")
        assert code == 0 and "-1/240" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", "-a", "0,1,1", "--format", "json", "--poly-v"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["args"] == [0, -1, -1]
        assert payload["variant"] == "strict"
        value = Fraction(payload["value"])
        poly = [Fraction(c) for c in payload["poly_v"]]
        assert poly[0] == value  # constant term is the v=0 value
        assert str(value) == payload["value"]

    def test_scheme_difference(self, capsys):
        _, out_strict, _ = run_cli(capsys, "zeta", "-a", "0,1,1", "--format", "json")
        _, out_alt, _ = run_cli(
            capsys, "zeta", "-a", "0,1,1", "--variant", "alt", "--format", "json"
        )
        strict = Fraction(json.loads(out_strict)["value"])
        alt = Fraction(json.loads(out_alt)["value"])
        assert strict - alt == Fraction(1, 2880)

    def test_hurwitz_shift_flag(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "-a", "1", "--v", "1/2", "--format", "json")
        assert code == 0
        # -B_2(3/2)/2 = -(9/4 - 3/2 + 1/6)/2
        assert Fraction(json.loads(out)["value"]) == Fraction(-11, 24)

    def test_value_past_the_digit_limit(self, capsys):
        # zeta(-2063) = -B_2064/2064 has a 4,309-digit numerator, past Python's
        # default limit of 4,300 digits on int-to-string conversion
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "--limit-weight", "2063", "zeta", "-a", "2063")
        assert code == 0 and sys.get_int_max_str_digits() == limit
        printed = re.fullmatch(r"zeta\(-2063; v=0\) \[strict\] = ([0-9]+)/([0-9]+)\n", out)
        want = -bernoulli(2064) / 2064
        sys.set_int_max_str_digits(0)
        try:
            assert printed.groups() == (str(want.numerator), str(want.denominator))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(printed.group(1)) == 4309

    def test_polynomial_past_the_digit_limit(self, capsys):
        # the Hurwitz polynomial of zeta(-2063; v) = -B_2064(1+v)/2064: its
        # constant term is the value at v = 0, 4,309 digits over the limit,
        # and its leading term -v^2064/2064. Compared as text, which needs
        # no int conversion
        code, out, _ = run_cli(capsys, "--limit-weight", "2063", "zeta", "-a", "2063", "--poly-v")
        assert code == 0
        first, second = out.splitlines()
        value = run_cli(capsys, "--limit-weight", "2063", "zeta", "-a", "2063")[1].splitlines()[0]
        assert first == value
        assert len(value.rsplit(" ", 1)[1].split("/")[0]) == 4309
        assert second.startswith("as polynomial in v: -1/2064*v^2064 - 1/2*v^2063 ")
        assert second.endswith(" + " + value.rsplit(" ", 1)[1])

    def test_malformed_input(self, capsys):
        assert run_cli(capsys, "zeta", "-a", "0,x")[0] == 2
        assert run_cli(capsys, "zeta", "-a", "1", "--v", "0.5")[0] == 2
        assert run_cli(capsys, "zeta", "-a", "1", "--v", "-2")[0] == 2
        assert run_cli(capsys, "zeta", "-a", "-1,2")[0] == 2

    def test_spaces_around_letters(self, capsys):
        assert run_cli(capsys, "zeta", "-a", "1, 2")[:2] == run_cli(capsys, "zeta", "-a", "1,2")[:2]

    def test_depth_guard(self, capsys):
        assert run_cli(capsys, "zeta", "-a", "0,0,0,0,0,0,0")[0] == 2
        code, _, _ = run_cli(
            capsys, "--limit-depth", "7", "zeta", "-a", "0,0,0,0,0,0,0"
        )
        assert code == 0


    def test_too_deep_for_the_recursion_limit(self, capsys):
        zeros = ",".join(["0"] * 1200)
        for variant in ("strict", "weak", "alt"):
            code, out, err = run_cli(
                capsys, "--limit-depth", "2000", "zeta", "-a", zeros, "--variant", variant
            )
            assert code == 2 and out == ""
            assert err.startswith("error: out of recursion depth")

    def test_out_of_memory(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise MemoryError

        monkeypatch.setattr(cli.mzv, "_zeta_result", boom)
        code, out, err = run_cli(capsys, "zeta", "-a", "0,0")
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory")


class TestTableCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "b\\a,0,1,2"
        assert lines[1] == "0,3/8,1/12,7/720"
        assert lines[2] == "1,1/24,1/288,-1/240"
        assert lines[3] == "2,-7/720,-1/240,0"

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--max", "4")
        _, second, _ = run_cli(capsys, "table", "--max", "4")
        assert first == second

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "6", "--format", "json")
        entries = json.loads(out)["entries"]
        assert entries["6,4"] == "117977/75675600"
        assert entries["4,6"] == "-117977/75675600"
        assert entries["5,6"] == "-691/65520"

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max", "1", "--format", "latex")
        assert code == 0
        assert r"\frac{3}{8}" in out and r"\frac{1}{24}" in out

    def test_max_guard(self, capsys):
        assert run_cli(capsys, "table", "--max", "13")[0] == 2


class TestHdimCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "hdim", "--dim", "2", "-a", "0")
        assert code == 0 and "-2/3" in out
        code, out, _ = run_cli(capsys, "hdim", "--dim", "3", "-a", "0")
        assert code == 0 and out.strip().endswith("= -1")
        code, out, _ = run_cli(capsys, "hdim", "--dim", "1", "-a", "1,1", "--format", "json")
        assert json.loads(out)["value"] == "1/72"

    def test_dim_guard(self, capsys):
        assert run_cli(capsys, "hdim", "--dim", "6", "-a", "0")[0] == 2


_OVERLONG = "1" * 5000
_NINES = "9" * 4300  # the longest integer a token may hold


class TestIntegerGrammar:
    """Integers on the command line are ASCII digits with an optional sign:
    Python's int() would also take underscores and other scripts' digits."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("zeta", "-a", "1_0"), "argument list must be comma-separated integers: '1_0'"),
            (("zeta", "-a", "\u0663"), "argument list must be comma-separated integers: '\u0663'"),
            (("chen", "--word", "1_2"), "--word must be comma-separated integers: '1_2'"),
            (("zeta", "-a", "1", "--v", "\u0663"), "not a p/q rational: '\u0663'"),
            (("zeta", "-a", "1", "--v", "1_0"), "not a p/q rational: '1_0'"),
            (("zeta", "-a", "1", "--v", "\u0661/\u0663"), "not a p/q rational: '\u0661/\u0663'"),
            (("chen", "--word", "1", "--laurent-order", "1_0"),
             "argument --laurent-order: invalid int value: '1_0'"),
            (("--limit-depth", "\u0669", "zeta", "-a", "0"),
             "argument --limit-depth: invalid int value: '\u0669'"),
            (("--limit-weight", "1_0", "zeta", "-a", "0"),
             "argument --limit-weight: invalid int value: '1_0'"),
            (("--limit-dim", "\u0663", "hdim", "--dim", "1", "-a", "0"),
             "argument --limit-dim: invalid int value: '\u0663'"),
            (("hdim", "--dim", "1_0", "-a", "0"), "argument --dim: invalid int value: '1_0'"),
            (("table", "--max", "\u0661"), "argument --max: invalid int value: '\u0661'"),
            (("verify", "--suite", "table", "--max-weight", "1_0"),
             "argument --max-weight: invalid int value: '1_0'"),
            # past Python's 4,300-digit limit, which holds while arguments are parsed
            (("zeta", "-a", _OVERLONG),
             f"argument list must be comma-separated integers: '{_OVERLONG}'"),
            (("chen", "--word", _OVERLONG), f"--word must be comma-separated integers: '{_OVERLONG}'"),
            (("chen", "--word", "1", "--laurent-order", _OVERLONG),
             f"argument --laurent-order: invalid int value: '{_OVERLONG}'"),
            # letters within the limit whose weight is past it: 2 (10^4300 - 1)
            (("--limit-weight", "1", "zeta", "-a", f"{_NINES},{_NINES}"),
             f"weight 1{'9' * 4299}8 exceeds limit 1 (raise --limit-weight)"),
        ],
        ids=["a-underscore", "a-arabic-digit", "word-underscore",
             "v-arabic-digit", "v-underscore", "v-arabic-fraction",
             "laurent-order-underscore", "limit-depth-arabic-digit", "limit-weight-underscore",
             "limit-dim-arabic-digit", "dim-underscore", "max-arabic-digit",
             "max-weight-underscore", "a-overlong", "word-overlong", "laurent-order-overlong",
             "weight-overlong"],
    )
    def test_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        if message.startswith("argument --"):  # refused by argparse, after its usage text
            assert err.startswith("usage: renzeta")
            err = "error: " + err.split(": error: ", 1)[1]
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestNegativeShift:
    """A negative fractional shift may follow ``--v`` as its own token:
    argparse alone would read ``-1/2`` as an option."""

    @pytest.mark.parametrize(
        "head, shift",
        [
            (("zeta", "-a", "3"), "-1/2"),
            (("zeta", "-a", "0,1", "--poly-v", "--format", "json"), "-2/3"),
            (("hdim", "--dim", "2", "-a", "1"), "-1/3"),
            (("verify", "--suite", "table"), "-1/3"),
        ],
        ids=["zeta", "zeta-json", "hdim", "verify"],
    )
    def test_spaced_form_is_the_equals_form(self, capsys, head, shift):
        spaced = run_cli(capsys, *head, "--v", shift)
        joined = run_cli(capsys, *head, f"--v={shift}")
        assert spaced[0] == 0 and spaced[1]
        # verify prints its timing on stderr, which differs from run to run
        assert spaced[:2] == joined[:2]

    def test_before_other_options(self, capsys):
        assert run_cli(capsys, "zeta", "--v", "-1/2", "-a", "3") == (
            0, "zeta(-3; v=-1/2) [strict] = -7/960\n", ""
        )

    def test_from_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["renzeta", "zeta", "-a", "3", "--v", "-1/2"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "zeta(-3; v=-1/2) [strict] = -7/960\n"

    @pytest.mark.parametrize("shift", ["-1", "-3/2"])
    def test_out_of_range(self, capsys, shift):
        assert run_cli(capsys, "zeta", "-a", "3", "--v", shift) == (
            2, "", f"error: Hurwitz shift must satisfy v > -1, got {shift}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("zeta", "-a", "3", "--v", "-x"), "argument --v: expected one argument"),
            (("zeta", "-a", "3", "--v", "-1/0"), "argument --v: expected one argument"),
            (("zeta", "-a", "--v", "-1/2"), "argument -a/--args: expected one argument"),
            (("chen", "--word", "1", "--v", "-1/2"), "unrecognized arguments: --v -1/2"),
        ],
        ids=["not-a-number", "zero-denominator", "missing-args", "no-shift-option"],
    )
    def test_other_refusals_unchanged(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: renzeta") and err.endswith(f": error: {message}\n")


class TestChenCommand:
    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "chen", "--word", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["character"] == "(1) / (z)"
        assert payload["renormalised"] == "0"

    def test_convergent(self, capsys):
        code, out, _ = run_cli(capsys, "chen", "--word", "3,2")
        assert code == 0 and "renormalised   = 1/6" in out

    def test_double(self, capsys):
        code, out, _ = run_cli(capsys, "chen", "--word", "1,1", "--format", "json")
        assert json.loads(out)["renormalised"] == "0"

    def test_bad_word(self, capsys):
        assert run_cli(capsys, "chen", "--word", "0,2")[0] == 2

    def test_depth_guard(self, capsys):
        # refused with the hint that zeta and hdim give
        code, out, err = run_cli(capsys, "chen", "--word", "1,1,1,1,1,1,1")
        assert (code, out, err) == (2, "", "error: depth 7 exceeds limit 6 (raise --limit-depth)\n")
        assert run_cli(capsys, "--limit-depth", "7", "chen", "--word", "1,1,1,1,1,1,1")[0] == 0

    GOLDEN_TEXT = {
        "1,2,3,1,2": (
            "character(z)   = (1/120) / (z^5 + 61/20*z^4 + 137/40*z^3 + 67/40*z^2 + 3/10*z)\n"
            "laurent window = 1/36*z^-1 - 67/432 + 2845/5184*z - 98035/62208*z^2"
            " + 2999101/746496*z^3 - 85120147/8957952*z^4 + 2298160285/107495424*z^5"
            " + O(z^6)\n"
            "renormalised   = -23/432\n"
        ),
        "3,3,3,3,3": (
            "character(z)   = (1/120) / (z^5 + 10*z^4 + 40*z^3 + 80*z^2 + 80*z + 32)\n"
            "laurent window = 1/3840 - 1/1536*z + 1/1024*z^2 - 7/6144*z^3 + 7/6144*z^4"
            " - 21/20480*z^5 + O(z^6)\n"
            "renormalised   = 1/3840\n"
        ),
    }

    GOLDEN_JSON = {
        "1,2,3,1,2": (
            '{"word": [1, 2, 3, 1, 2], "character": "(1/120) / (z^5 + 61/20*z^4'
            ' + 137/40*z^3 + 67/40*z^2 + 3/10*z)", "laurent": "1/36*z^-1 - 67/432'
            " + 2845/5184*z - 98035/62208*z^2 + 2999101/746496*z^3 - 85120147/8957952*z^4"
            ' + 2298160285/107495424*z^5 + O(z^6)", "laurent_order": 5,'
            ' "renormalised": "-23/432"}\n'
        ),
        "3,3,3,3,3": (
            '{"word": [3, 3, 3, 3, 3], "character": "(1/120) / (z^5 + 10*z^4 + 40*z^3'
            ' + 80*z^2 + 80*z + 32)", "laurent": "1/3840 - 1/1536*z + 1/1024*z^2'
            ' - 7/6144*z^3 + 7/6144*z^4 - 21/20480*z^5 + O(z^6)", "laurent_order": 5,'
            ' "renormalised": "1/3840"}\n'
        ),
    }

    def test_golden_output(self, capsys):
        # recorded before the rational-function arithmetic stopped taking a
        # full gcd per operation: the printed strings must not move
        for word, want in self.GOLDEN_TEXT.items():
            assert run_cli(capsys, "chen", "--word", word)[:2] == (0, want)
        for word, want in self.GOLDEN_JSON.items():
            assert run_cli(capsys, "chen", "--word", word, "--format", "json")[:2] == (0, want)

    REFERENCE_WORDS = [w for k in (1, 2, 3) for w in product((1, 2, 3), repeat=k)] + [
        (1, 2, 3, 1, 2),
        (3, 3, 3, 3, 3),
    ]

    @staticmethod
    def reference_output(s, order_arg, fmt):
        """The `chen` output rebuilt from the symbol algebra: the character
        from chen_character_exact, the value from a Birkhoff factorisation
        over chen_character."""
        word = tuple(chenint.zeta_symbol(x) for x in s)
        exact = chenint.chen_character_exact(word)
        order = order_arg if order_arg is not None else max(1, len(s))
        series = exact.laurent_expand(order)
        bf = chenint.BirkhoffFactorization(lambda w: chen_character(w, max(1, len(s))))
        value = rat_str(bf.plus_at_zero(word))
        if fmt == "json":
            payload = {
                "word": list(s),
                "character": exact.to_str(),
                "laurent": series.to_str(),
                "laurent_order": order,
                "renormalised": value,
            }
            return json.dumps(payload) + "\n"
        return (
            f"character(z)   = {exact.to_str()}\n"
            f"laurent window = {series.to_str()}\n"
            f"renormalised   = {value}\n"
        )

    def test_matches_symbol_algebra(self, capsys):
        for s in self.REFERENCE_WORDS:
            for order in (None, 0, 7):
                extra = [] if order is None else ["--laurent-order", str(order)]
                for fmt in ("json", "text"):
                    argv = ["chen", "--word", ",".join(map(str, s)), "--format", fmt, *extra]
                    want = self.reference_output(s, order, fmt)
                    assert run_cli(capsys, *argv)[:2] == (0, want), argv

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=5),
        st.one_of(st.none(), st.integers(-3, 8)),
    )
    def test_laurent_order_is_the_printed_window(self, word, order):
        argv = ["chen", "--word", ",".join(map(str, word)), "--format", "json"]
        if order is not None:
            argv += ["--laurent-order", str(order)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        payload = json.loads(out.getvalue())
        printed = re.fullmatch(r".* \+ O\(z\^(-?\d+)\)", payload["laurent"])
        assert payload["laurent_order"] == int(printed.group(1)) - 1
        if order is not None:
            assert payload["laurent_order"] == order

    def test_values_past_the_digit_limit(self, capsys):
        # 1/(z + 99999) = sum over n of (-1)^n z^n / 99999^(n+1): the last
        # denominator of the window has 5,005 digits, past Python's default
        # limit of 4,300 on int-to-string conversion
        limit = sys.get_int_max_str_digits()
        argv = ("chen", "--word", "100000", "--laurent-order", "1000", "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # restored for the next caller
        payload = json.loads(out)
        last = re.fullmatch(r".* \+ 1/([0-9]+)\*z\^1000 \+ O\(z\^1001\)", payload["laurent"])
        sys.set_int_max_str_digits(0)
        try:
            assert last.group(1) == str(99999**1001)
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["renormalised"] == "1/99999"

    def test_laurent_window_error_exit_1(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise chenint.InsufficientOrder("forced for the exit-code contract")

        monkeypatch.setattr(chenint, "_zeta_prefix_pass", boom)
        code, out, err = run_cli(capsys, "chen", "--word", "1,1")
        assert code == 1 and out == ""
        assert err.startswith("internal invariant violated: ")


class TestVerifyCommand:
    def test_table_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "table")
        assert code == 0
        payload = json.loads(out)
        assert payload["cases"] == 98 and payload["failures"] == []
        assert "suite table" in err

    def test_stdout_has_no_timing(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "table")
        _, second, _ = run_cli(capsys, "verify", "--suite", "table")
        assert first == second

    def test_failures_exit_3(self, capsys, monkeypatch):
        broken = Report(suite="table", cases=1, failures=[{"case": "x", "lhs": "0", "rhs": "1"}])
        monkeypatch.setattr(cli.verify, "run_suite", lambda *a, **k: broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "table")
        assert code == 3
        assert json.loads(out)["failures"]

    def test_negative_max_weight_is_malformed_input(self, capsys):
        for suite in ("stuffle", "table"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-weight", "-1")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "--max-weight" in err
        assert run_cli(capsys, "verify", "--suite", "stuffle", "--max-weight", "0")[0] == 0

    def test_max_weight_over_limit_is_refused(self, capsys, monkeypatch):
        # refused before any work: no suite runs; a raised --limit-weight
        # passes the weight through to run_suite, and the limit itself passes
        calls = []

        def run_suite(*args, **kwargs):
            calls.append((args, kwargs))
            return Report("stuffle")

        monkeypatch.setattr(cli.verify, "run_suite", run_suite)
        code, out, err = run_cli(capsys, "verify", "--suite", "stuffle", "--max-weight", "25")
        assert (code, out, calls) == (2, "", [])
        assert err == "error: --max-weight 25 exceeds limit 24 (raise --limit-weight)\n"
        code, _, err = run_cli(capsys, "--limit-weight", "3", "verify", "--max-weight", "4")
        assert (code, calls) == (2, [])
        assert err == "error: --max-weight 4 exceeds limit 3 (raise --limit-weight)\n"
        argv = ("--limit-weight", "30", "verify", "--suite", "stuffle", "--max-weight", "30")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["suite"] == "stuffle"
        assert calls == [(("stuffle",), {"max_weight": 30, "v": Fraction(0)})]
        assert run_cli(capsys, "verify", "--suite", "table", "--max-weight", "24")[0] == 0
        assert calls[1] == (("table",), {"max_weight": 24, "v": Fraction(0)})

    def test_all_suites_report_per_part_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-weight", "2")
        assert code == 0
        # 49 fewer than 2484 since the engine suite stopped repeating the
        # table suite's depth-2 checks; nothing else on stdout moved
        assert out == '{"suite": "all", "cases": 2435, "failures": []}\n'
        lines = err.splitlines()
        names = [line.split(":")[0] for line in lines]
        assert names == [
            "suite table",
            "suite engine",
            "suite stuffle",
            "suite hurwitz",
            "suite shuffle-cont",
            "suite all",
        ]
        cases = [int(line.split(": ")[1].split(" cases")[0]) for line in lines]
        assert sum(cases[:-1]) == cases[-1] == 2435
        assert all(line.endswith("s") and " 0 failures, " in line for line in lines)

    def test_shift_joins_the_suite_grid(self):
        # --v adds one shift to a suite's own grid, unless the grid has it
        verify, v = cli.verify, Fraction(1, 3)

        def cases(name, shift):
            return verify.run_suite(name, max_weight=2, v=shift).cases

        assert cases("stuffle", Fraction(1, 2)) == verify.suite_stuffle(2).cases
        assert cases("stuffle", v) == verify.suite_stuffle(2, verify.STUFFLE_SHIFTS + (v,)).cases
        assert cases("hurwitz", Fraction(3, 4)) == verify.suite_hurwitz().cases
        assert cases("hurwitz", v) == verify.suite_hurwitz(vs=verify.HURWITZ_SHIFTS + (v,)).cases

    def test_internal_violation_exit_1(self, capsys, monkeypatch):
        from renzeta.mzv import HolomorphyViolation

        def boom(*a, **k):
            raise HolomorphyViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli.mzv, "_zeta_result", boom)
        code, _, err = run_cli(capsys, "zeta", "-a", "0,0")
        assert code == 1 and "internal invariant" in err


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "renzeta.cli", "zeta", "-a", "2,1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "-1/240"


_GOLDEN_WORDS = ("0", "1", "0,0", "1,1", "2,1", "0,1,1", "1,0,2", "2,0,1,1")
_GOLDEN_SHIFTS = ("0", "1/2", "-1/3")
_GOLDEN_DIGEST = "576c44dadd0f3e56cc8b5615509bf0e4971e8da0a9c030be08f8420a3e68cb01"


def _golden_grid():
    """The fixed command grid of :func:`test_cli_golden_digest`."""
    for word, variant, v, fmt in product(
        _GOLDEN_WORDS, ("strict", "weak", "alt"), _GOLDEN_SHIFTS, ("text", "json")
    ):
        yield ("zeta", "-a", word, "--variant", variant, "--v", v, "--format", fmt)
    for word, variant, fmt in product(_GOLDEN_WORDS[2:6], ("strict", "weak", "alt"), ("text", "json")):
        yield ("zeta", "-a", word, "--variant", variant, "--v", "1/2", "--poly-v", "--format", fmt)
    for dim, word, v in product(("1", "2", "3"), ("0", "1,0", "2,1"), ("0", "-1/3")):
        yield ("hdim", "--dim", dim, "-a", word, "--v", v)
    yield ("hdim", "--dim", "2", "-a", "1", "--v", "1/2", "--format", "json")
    for fmt in ("csv", "json", "latex"):
        yield ("table", "--format", fmt)
    for suite in ("table", "hurwitz"):
        yield ("verify", "--suite", suite)
    yield ("zeta", "-a", "1", "--v", "-1")  # refused: exit 2, nothing on stdout
    yield ("hdim", "--dim", "2", "-a", "", "--v", "-5")


def _golden_digest(grid) -> str:
    digest = hashlib.sha256()
    for argv in grid:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def test_cli_golden_digest():
    """One sha256 over the argv, exit code and stdout of every command of a
    fixed grid: ``zeta`` on 8 words in every variant at three shifts in both
    formats, ``--poly-v`` on 4 of the words, ``hdim`` in dimensions 1-3,
    ``table`` in every format, ``verify --suite table`` and ``--suite
    hurwitz``, and two refused commands. Stderr (the suite seconds) is not
    hashed. Any byte the CLI prints differently fails this test; a change
    that alters these bytes on purpose re-pins the digest and says so in
    CHANGES.md."""
    assert _golden_digest(_golden_grid()) == _GOLDEN_DIGEST


_STUFFLE_DIGEST = "2a89d294c508b1eb81504642aef64d5532e813404de04b6b7d78081536006c39"


def test_stuffle_suite_digest():
    """The same sha256 over ``verify --suite stuffle --max-weight 5`` at its
    default shifts, with ``--v 1/7`` and with ``--v=-1/3``: each suite runs
    several passes on the one quasi-shuffle table of the process."""
    base = ("verify", "--suite", "stuffle", "--max-weight", "5")
    grid = (base, base + ("--v", "1/7"), base + ("--v=-1/3",))
    assert _golden_digest(grid) == _STUFFLE_DIGEST


def _chen_grid():
    """The fixed command grid of :func:`test_chen_digest`."""
    words = [w for k in range(1, 5) for w in product("123", repeat=k)]
    words += [("1",) * k for k in range(5, 8)] + [("100000",)]
    for word, fmt, order in product(words, ("text", "json"), (None, "0", "-2", "7")):
        limit = ("--limit-depth", str(len(word))) if len(word) > 6 else ()
        extra = () if order is None else ("--laurent-order", order)
        yield (*limit, "chen", "--word", ",".join(word), "--format", fmt, *extra)


_CHEN_DIGEST = "e4096f2beb2d49bb9cd62f68caa0880dfe9d5461b2c382775ef8b287deb1b571"


def test_chen_digest():
    """The same sha256 over ``chen`` on every word of length 1-4 over
    {1, 2, 3}, the 1-runs of length 5-7 (pole order = depth) and ``100000``,
    in both formats, at the default Laurent order and at 0, -2 and 7."""
    assert _golden_digest(_chen_grid()) == _CHEN_DIGEST
