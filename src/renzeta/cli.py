"""Command-line front end.

Subcommands: ``zeta`` (one renormalised value), ``table`` (the depth-2 value
table), ``hdim`` (higher-dimensional values), ``chen`` (continuous side), and
``verify`` (identity suites). Every number crosses the boundary as an exact
``p/q`` string; there is no floating point in any output.

Exit codes: 0 success, 1 internal invariant violation, 2 malformed input
or an input too large for the interpreter's recursion limit or memory,
3 verification failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import chenint, mzv, verify
from .emsum import RationalityLeak, StructuralViolation
from .exactnum import LaurentWindowError, parse_int, parse_rational, rat_str
from .mzv import HolomorphyViolation

DEFAULT_LIMIT_DEPTH = 6
DEFAULT_LIMIT_WEIGHT = 24
DEFAULT_LIMIT_DIM = 5


class InputError(ValueError):
    pass


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated integers: {text!r}") from exc


def _int_option(text: str) -> int:
    """An integer option, in the grammar of ``parse_int``; a refusal reads
    as argparse's own ``invalid int value``."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_args_list(args) -> tuple[int, ...]:
    """The ``-a`` word of a command, within the depth and weight limits."""
    a = _parse_ints(args.args, "argument list")
    if any(x < 0 for x in a):
        raise InputError("arguments are exponents of nonpositive integers: need a_i >= 0")
    if len(a) > args.limit_depth:
        raise InputError(f"depth {len(a)} exceeds limit {args.limit_depth} (raise --limit-depth)")
    weight = sum(a)
    if weight > args.limit_weight:
        with _AllDigits():  # letters under the digit limit may sum past it
            message = f"weight {weight} exceeds limit {args.limit_weight} (raise --limit-weight)"
        raise InputError(message)
    return a


class _AllDigits:
    """Lifts Python's limit on the digits of an int converted to or from a
    string (4,300 by default) inside a ``with`` block, and restores it
    after. Results are formatted inside such a block, because an exact
    value may be longer; arguments are parsed outside one, so an overlong
    integer stays malformed input. A limit of 0 (as on interpreters that
    have none) means no limit and is left alone."""

    __slots__ = ("limit",)

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def _parse_v(text: str) -> Fraction:
    try:
        v = parse_rational(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if v <= -1:
        raise InputError(f"Hurwitz shift must satisfy v > -1, got {text}")
    return v


def cmd_zeta(args) -> int:
    a = _parse_args_list(args)
    v = _parse_v(args.v)
    result = mzv._zeta_result(a, v, args.variant, args.poly_v)
    with _AllDigits():
        payload = {
            "args": [-x for x in a],
            "v": rat_str(v),
            "variant": args.variant,
            "value": rat_str(result.value),
        }
        if args.poly_v:
            payload["poly_v"] = [rat_str(c) for c in result.as_poly_in_v.coeffs] or ["0"]
        if args.format == "json":
            print(json.dumps(payload))
        else:
            print(f"zeta({', '.join(str(-x) for x in a)}; v={rat_str(v)}) [{args.variant}] = {rat_str(result.value)}")
            if args.poly_v:
                print(f"as polynomial in v: {result.as_poly_in_v.to_str('v')}")
    return 0


def _latex_rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def cmd_table(args) -> int:
    if args.max < 0 or args.max > 12:
        raise InputError("--max must lie in 0..12")
    cols = list(range(args.max + 1))
    values = {(a, b): mzv.zeta_value((a, b), 0, "strict") for a in cols for b in cols}
    if args.format == "json":
        print(
            json.dumps(
                {
                    "max": args.max,
                    "entries": {f"{a},{b}": rat_str(v) for (a, b), v in sorted(values.items())},
                }
            )
        )
    elif args.format == "latex":
        header = " & ".join([r"\zeta(-a,-b)"] + [f"a={a}" for a in cols]) + r" \\ \hline"
        print(r"\begin{array}{" + "c|" * (len(cols) + 1) + "}")
        print(header)
        for b in cols:
            row = " & ".join([f"b={b}"] + [_latex_rat(values[(a, b)]) for a in cols])
            print(row + r" \\")
        print(r"\end{array}")
    else:
        print("b\\a," + ",".join(str(a) for a in cols))
        for b in cols:
            print(",".join([str(b)] + [rat_str(values[(a, b)]) for a in cols]))
    return 0


def cmd_hdim(args) -> int:
    a = _parse_args_list(args)
    if args.dim < 1 or args.dim > args.limit_dim:
        raise InputError(f"--dim must lie in 1..{args.limit_dim} (raise --limit-dim)")
    v = _parse_v(args.v)
    result = mzv.hdim_zeta(args.dim, a, v)
    with _AllDigits():
        payload = {
            "dim": args.dim,
            "args": [-x for x in a],
            "v": rat_str(v),
            "value": rat_str(result.value),
        }
        if args.format == "json":
            print(json.dumps(payload))
        else:
            print(
                f"zeta_{args.dim}({', '.join(str(-x) for x in a)}; v={rat_str(v)}) = {rat_str(result.value)}"
            )
    return 0


def cmd_chen(args) -> int:
    word = _parse_ints(args.word, "--word")
    if any(s < 1 for s in word):
        raise InputError("--word entries must be positive integers")
    if len(word) > args.limit_depth:
        raise InputError(f"depth {len(word)} exceeds limit {args.limit_depth}")
    exact, series, value = chenint._zeta_character_and_value(word)
    if args.laurent_order not in (None, series.order):
        series = exact.laurent_expand(args.laurent_order)
    with _AllDigits():
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "word": list(word),
                        "character": exact.to_str(),
                        "laurent": series.to_str(),
                        "laurent_order": series.order,
                        "renormalised": rat_str(value),
                    }
                )
            )
        else:
            print(f"character(z)   = {exact.to_str()}")
            print(f"laurent window = {series.to_str()}")
            print(f"renormalised   = {rat_str(value)}")
    return 0


def cmd_verify(args) -> int:
    if args.max_weight < 0:
        raise InputError(f"--max-weight must be >= 0, got {args.max_weight}")
    v = _parse_v(args.v)
    report = verify.run_suite(args.suite, max_weight=args.max_weight, v=v)
    payload = {
        "suite": report.suite,
        "cases": report.cases,
        "failures": report.failures,
    }
    print(json.dumps(payload))
    for part in report.parts + [report]:
        print(
            f"suite {part.suite}: {part.cases} cases, {len(part.failures)} failures, "
            f"{part.seconds:.2f}s",
            file=sys.stderr,
        )
    return 0 if report.ok else 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    of :func:`main` (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="renzeta",
        description="Exact renormalised multiple (Hurwitz) zeta values at nonpositive integers.",
    )
    parser.add_argument("--limit-depth", type=_int_option, default=DEFAULT_LIMIT_DEPTH)
    parser.add_argument("--limit-weight", type=_int_option, default=DEFAULT_LIMIT_WEIGHT)
    parser.add_argument("--limit-dim", type=_int_option, default=DEFAULT_LIMIT_DIM)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", help="one renormalised value")
    p.add_argument("-a", "--args", required=True, help="comma-separated a_i >= 0 for zeta(-a_1,...,-a_k)")
    p.add_argument("--v", default="0", help="Hurwitz shift as p/q (> -1)")
    p.add_argument("--variant", choices=mzv.VARIANTS, default="strict")
    p.add_argument("--poly-v", action="store_true", help="also emit the value as a polynomial in v")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("table", help="the depth-2 value table zeta(-a,-b)")
    p.add_argument("--max", type=_int_option, default=6)
    p.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("hdim", help="higher-dimensional (sup-norm) values")
    p.add_argument("--dim", type=_int_option, required=True)
    p.add_argument("-a", "--args", required=True)
    p.add_argument("--v", default="0")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_hdim)

    p = sub.add_parser("chen", help="continuous-side character and renormalised value")
    p.add_argument("--word", required=True, help="comma-separated positive integers s_1,...,s_k")
    p.add_argument("--laurent-order", type=_int_option, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_chen)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        choices=("stuffle", "hurwitz", "table", "shuffle-cont", "engine", "all"),
        default="all",
    )
    p.add_argument("--max-weight", type=_int_option, default=8)
    p.add_argument("--v", default="0")
    p.set_defaults(fn=cmd_verify)
    return parser


#: The subcommands, and those of them that take a shift ``--v``.
_COMMANDS = ("zeta", "table", "hdim", "chen", "verify")
_SHIFT_COMMANDS = ("zeta", "hdim", "verify")


def _is_signed_shift(text: str) -> bool:
    """A ``p/q`` token with a leading minus sign, such as ``-1/2``."""
    if not text.startswith("-"):
        return False
    try:
        parse_rational(text)
    except ValueError:
        return False
    return True


def _join_negative_shift(argv) -> list:
    """argv with each ``--v -p/q`` after a command that takes ``--v``
    written as ``--v=-p/q``: argparse reads a token such as ``-1/2`` as an
    option, not as the value of ``--v``. Every other token is left as it
    is, so argparse refuses it as before."""
    out = list(argv)
    if "--v" not in out:
        return out
    start = next((i for i, a in enumerate(out) if a in _COMMANDS), None)
    if start is None or out[start] not in _SHIFT_COMMANDS:
        return out
    # from the end, so that joining a pair leaves the indices before it
    for i in range(len(out) - 1, start + 1, -1):
        if out[i - 1] == "--v" and _is_signed_shift(out[i]):
            out[i - 1 : i + 1] = [f"--v={out[i]}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_shift(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        what = "recursion depth" if isinstance(exc, RecursionError) else "memory"
        print(f"error: out of {what}, input too large ({exc})", file=sys.stderr)
        return 2
    except (RationalityLeak, HolomorphyViolation, StructuralViolation, LaurentWindowError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
