"""The tensor (word) algebra on integer letters: shuffle, the two stuffle
sign conventions, and the exp/log isomorphism between the shuffle and
quasi-shuffle Hopf algebras.

A letter is a plain int: the exponent a of one nested-sum slot (the zeta
argument it denotes is -a). The bullet product of two letters adds their
values; in the weak ("-") convention every binary merge also flips the sign
of the coefficient. Shuffle and stuffle are one first-letter recursion, the
shuffle without the merge branch, memoised on pairs of word suffixes; both
stuffle conventions read their coefficients off the same multiplicities.
The memo lives for one call, or for as long as the caller keeps the
:class:`SuffixTable` it passes to ``stuffle``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .combinat import compositions, packet_sums
from .exactnum import as_rational, rational_combination

Word = tuple  # tuple of int letters; () is the unit word


def word_str(w) -> str:
    """Canonical form "a1,a2,...,ak" used by reprs; the unit word is ""."""
    return ",".join(str(a) for a in w)


def _add_into(acc: dict, t: "TensorPoly", scale) -> None:
    """acc += scale * t in place. A term that cancels is removed, so one that
    comes back is appended, the same order repeated ``+`` gives."""
    for w, c in t.terms.items():
        old = acc.get(w)
        total = c * scale if old is None else old + c * scale
        if total:
            acc[w] = total
        else:
            acc.pop(w, None)


class TensorPoly:
    """Finite formal Q-linear combination of words.

    Terms keep their insertion order, which is deterministic, so letters
    need not be orderable: any hashable letter (an int, a symbol) works.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Word, Fraction] = {}
        if terms:
            for w, c in dict(terms).items():
                c = as_rational(c)
                if c != 0:
                    data[tuple(w)] = c
        self.terms = data

    @classmethod
    def from_word(cls, w, coeff=1) -> "TensorPoly":
        return cls({tuple(w): coeff})

    @classmethod
    def _wrap(cls, terms: dict) -> "TensorPoly":
        """Take a dict of nonzero Fraction coefficients as it is."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def unit(cls) -> "TensorPoly":
        return cls({(): 1})

    def __add__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other, 1)
        return TensorPoly(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        q = as_rational(scalar)
        return TensorPoly({w: c * q for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.terms == other.terms

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def apply(self, fn):
        """Linear extension of a word-level valuation: sum of c * fn(word).
        Rational values are summed over one common denominator and reduced
        once; any other value (a character, say) by its own arithmetic."""
        values = [(c, fn(w)) for w, c in self.terms.items()]
        if all(type(x) is Fraction or type(x) is int for _, x in values):
            return rational_combination(values)
        total = Fraction(0)
        for c, x in values:
            total += c * x
        return total

    def map_words(self, fn) -> "TensorPoly":
        """Linear extension of a word -> TensorPoly map."""
        out: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            _add_into(out, fn(w), c)
        return TensorPoly(out)

    def __repr__(self):
        if not self.terms:
            return "TensorPoly(0)"
        bits = [f"{c}*({word_str(w) or '1'})" for w, c in self.terms.items()]
        return "TensorPoly(" + " + ".join(bits) + ")"


class SuffixTable:
    """Quasi-shuffle multiplicities memoised on suffix pairs, for a caller
    that multiplies many words sharing suffixes (a stuffle sweep keeps one
    for a whole pass). ``cells`` maps a pair (u[i:], w[j:]) to its
    {word: multiplicity} dict; ``words`` interns the words the cells hold,
    so equal words are one tuple, not a copy per cell."""

    __slots__ = ("cells", "words")

    def __init__(self):
        self.cells: dict = {}
        self.words: dict = {}

    def drop(self, u: Word, w: Word) -> None:
        """Forget the entry of the pair (u, w) itself; its suffix pairs stay."""
        self.cells.pop((u, w), None)


def _first_letter(u: Word, w: Word, merge: bool, table: SuffixTable | None = None) -> dict:
    """The multiplicity of each word in the shuffle of u and w or, with
    ``merge``, in their quasi-shuffle, by Hoffman's first-letter recursion

        a.u' * b.w' = a.(u' * b.w') + b.(a.u' * w') + (a+b).(u' * w').

    The memo has one entry per pair of suffixes (u[i:], w[j:]). It is built
    row by row from the ends of the words, reusing every pair ``table``
    already holds. Without a table it lives for this call only; a table
    must only ever see one value of ``merge``. Words come out in the order
    in which a depth-first walk trying take-left, take-right, then merge
    first meets them, which depends on the suffix pair alone. The returned
    dict may be the table's own entry: callers must not change it.
    """
    if table is None:
        table = SuffixTable()
    cells, interned = table.cells, table.words
    k, l = len(u), len(w)
    us = [u[i:] for i in range(k + 1)]
    ws = [w[j:] for j in range(l + 1)]
    below = [{x: 1} for x in ws]  # i = k: only w[j:] is left
    for i in range(k - 1, -1, -1):
        a = u[i]
        row = [None] * l + [{us[i]: 1}]
        for j in range(l - 1, -1, -1):
            key = (us[i], ws[j])
            acc = cells.get(key)
            if acc is None:
                b = w[j]
                branches = [(a, below[j]), (b, row[j + 1])]
                if merge:
                    branches.append((a + b, below[j + 1]))
                acc = {}
                for head, tails in branches:
                    for tail, m in tails.items():
                        x = (head,) + tail
                        x = interned.setdefault(x, x)
                        acc[x] = acc.get(x, 0) + m
                cells[key] = acc
            row[j] = acc
        below = row
    return below[0]


def shuffle(u, w) -> TensorPoly:
    """Shuffle product of two words: the sum of all interleavings.

    >>> sorted(shuffle((1,), (2,)).terms.items())
    [((1, 2), Fraction(1, 1)), ((2, 1), Fraction(1, 1))]
    """
    counts = _first_letter(tuple(u), tuple(w), False)
    return TensorPoly._wrap({x: Fraction(m) for x, m in counts.items()})


def stuffle(u, w, sign_mode: str = "strict", table: SuffixTable | None = None) -> TensorPoly:
    """Stuffle (quasi-shuffle) product: interleavings plus merges, merged
    letters adding their values. Every quasi-shuffle giving a word x makes
    |u| + |w| - |x| merges, so in ``weak`` mode the coefficient of x is its
    multiplicity times (-1)**(|u| + |w| - |x|). Both modes read the same
    multiplicities, so one ``table`` (see :class:`SuffixTable`) serves both.

    >>> sorted(stuffle((1,), (2,)).terms)
    [(1, 2), (2, 1), (3,)]
    """
    if sign_mode not in ("strict", "weak"):
        raise ValueError("sign_mode must be 'strict' or 'weak'")
    u, w = tuple(u), tuple(w)
    counts = _first_letter(u, w, True, table)
    n = len(u) + len(w)
    weak = sign_mode == "weak"
    coeffs: dict = {}  # one Fraction per distinct coefficient: most terms share a few
    terms = {}
    for x, m in counts.items():
        if weak and (n - len(x)) % 2:
            m = -m
        c = coeffs.get(m)
        if c is None:
            c = coeffs[m] = Fraction(m)
        terms[x] = c
    return TensorPoly._wrap(terms)


def stuffle_poly(s: TensorPoly, t: TensorPoly, sign_mode: str = "strict") -> TensorPoly:
    out: dict[Word, Fraction] = {}
    for u, cu in s.terms.items():
        for w, cw in t.terms.items():
            _add_into(out, stuffle(u, w, sign_mode), cu * cw)
    return TensorPoly(out)


def _hoffman_word(w: Word, bullet_sign: str, mode: str) -> TensorPoly:
    n = len(w)
    if n == 0:
        return TensorPoly.unit()
    out: dict[Word, Fraction] = {}
    for parts in compositions(n):
        merges = n - len(parts)  # the weak bullet flips the sign once per merge
        sign = (-1) ** merges if bullet_sign == "-" else 1
        if mode == "exp":
            coeff = Fraction(sign, prod(factorial(p) for p in parts))
        else:
            coeff = Fraction(sign * (-1) ** merges, prod(parts))
        word = packet_sums(w, parts)
        out[word] = out.get(word, Fraction(0)) + coeff
    return TensorPoly(out)


def hoffman_exp(t: TensorPoly, bullet_sign: str = "+") -> TensorPoly:
    """The composition-sum isomorphism from the shuffle to the quasi-shuffle
    Hopf algebra: sum over compositions with coefficients 1/(i_1! ... i_r!).

    >>> hoffman_exp(TensorPoly.from_word((1, 2)))
    TensorPoly(1*(1,2) + 1/2*(3))
    """
    if bullet_sign not in ("+", "-"):
        raise ValueError("bullet_sign must be '+' or '-'")
    return t.map_words(lambda w: _hoffman_word(w, bullet_sign, "exp"))


def hoffman_log(t: TensorPoly, bullet_sign: str = "+") -> TensorPoly:
    """Inverse of :func:`hoffman_exp`: coefficients (-1)^(n-r)/(i_1 ... i_r)."""
    if bullet_sign not in ("+", "-"):
        raise ValueError("bullet_sign must be '+' or '-'")
    return t.map_words(lambda w: _hoffman_word(w, bullet_sign, "log"))
