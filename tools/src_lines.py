"""Line counts of the ``renzeta`` package: per module and in total, all
lines and code lines. A code line holds a token that is not a comment and
not part of a docstring (a module, class or function docstring, as ``ast``
finds it); blank lines do not count.

Run from the repository root, on the working tree or on another checkout:

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/renzeta``. Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the module ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def counts(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/renzeta")
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
