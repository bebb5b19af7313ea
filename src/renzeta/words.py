"""The tensor (word) algebra on integer letters: shuffle, the two stuffle
sign conventions, and the exp/log isomorphism between the shuffle and
quasi-shuffle Hopf algebras.

A letter is a plain int: the exponent a of one nested-sum slot (the zeta
argument it denotes is -a). The bullet product of two letters adds their
values; in the weak ("-") convention every binary merge also flips the sign
of the coefficient. Shuffle and stuffle are one first-letter recursion, the
shuffle without the merge branch, on interned words with one cell of integer
multiplicities per pair of words (:class:`QuasiShuffleTable`); both stuffle
conventions read their coefficients off the same multiplicities.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .combinat import contractions
from .exactnum import as_rational

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


class QuasiShuffleTable:
    """Shuffle or quasi-shuffle multiplicities on interned words, one cell
    per pair of words, for a caller that multiplies many words sharing
    suffixes.

    A word is an int: 0 is the unit word, and a nonempty word x is its first
    letter ``head[x]`` followed by the word ``tail[x]``. The cell of a pair
    (x, y) maps the index of each word of the product to its integer
    multiplicity, by Hoffman's first-letter recursion

        a.u' * b.w' = a.(u' * b.w') + b.(a.u' * w') + (a+b).(u' * w'),

    the last (merge) branch only with ``merge``. A cell is built once, from
    the cells of (tail x, y), (x, tail y) and (tail x, tail y); its words
    come in the order in which a depth-first walk trying take-left,
    take-right, then merge first meets them, which depends on the pair
    alone. Words and cells are made without recursion, so word length is
    bounded by memory only.
    """

    __slots__ = ("merge", "head", "tail", "_index", "cells")

    def __init__(self, merge: bool):
        self.merge = merge
        self.head: list = [None]
        self.tail: list = [0]
        self._index: dict = {}  # first letter -> {tail index: word index}
        self.cells: dict = {}  # (x, y) -> {word index: multiplicity}

    def _cons(self, a, x: int) -> int:
        """The index of the word a.x, interned on first sight."""
        row = self._index.setdefault(a, {})
        y = row.get(x)
        if y is None:
            y = row[x] = len(self.head)
            self.head.append(a)
            self.tail.append(x)
        return y

    def intern(self, word) -> int:
        """The index of ``word`` (a sequence of letters), and of its suffixes."""
        x = 0
        for a in reversed(word):
            x = self._cons(a, x)
        return x

    def word(self, x: int) -> Word:
        """The letters of the word with index x."""
        out = []
        while x:
            out.append(self.head[x])
            x = self.tail[x]
        return tuple(out)

    def product(self, x: int, y: int) -> dict:
        """The cell of (x, y), building it and any missing suffix cells. The
        dict is the table's own: callers must not change it."""
        cells, head, tail, index, merge = self.cells, self.head, self.tail, self._index, self.merge
        todo = [(x, y)]
        while todo:
            key = todo[-1]
            if key in cells:
                todo.pop()
                continue
            i, j = key
            if not i or not j:
                cells[key] = {i or j: 1}
                todo.pop()
                continue
            ti, tj = tail[i], tail[j]
            branches = [(head[i], (ti, j)), (head[j], (i, tj))]
            if merge:
                branches.append((head[i] + head[j], (ti, tj)))
            missing = [k for _, k in branches if k not in cells]
            if missing:
                todo.extend(missing)  # each is a shorter pair: they finish first
                continue
            acc: dict = {}
            for a, k in branches:
                row = index.get(a, {})
                for t, m in cells[k].items():
                    z = row.get(t)
                    if z is None:
                        z = self._cons(a, t)
                    acc[z] = acc.get(z, 0) + m
            cells[key] = acc
            todo.pop()
        return cells[(x, y)]


def _multiplicities(u, w, merge: bool) -> list:
    """(word, multiplicity) for each term of u * w, on a throwaway table."""
    table = QuasiShuffleTable(merge)
    cell = table.product(table.intern(u), table.intern(w))
    return [(table.word(x), m) for x, m in cell.items()]


def shuffle(u, w) -> TensorPoly:
    """Shuffle product of two words: the sum of all interleavings.

    >>> sorted(shuffle((1,), (2,)).terms.items())
    [((1, 2), Fraction(1, 1)), ((2, 1), Fraction(1, 1))]
    """
    counts = _multiplicities(tuple(u), tuple(w), False)
    return TensorPoly._wrap({x: Fraction(m) for x, m in counts})


def stuffle(u, w, sign_mode: str = "strict") -> TensorPoly:
    """Stuffle (quasi-shuffle) product: interleavings plus merges, merged
    letters adding their values. Every quasi-shuffle giving a word x makes
    |u| + |w| - |x| merges, so in ``weak`` mode the coefficient of x is its
    multiplicity times (-1)**(|u| + |w| - |x|). The multiplicities come from
    a throwaway :class:`QuasiShuffleTable`.

    >>> sorted(stuffle((1,), (2,)).terms)
    [(1, 2), (2, 1), (3,)]
    """
    if sign_mode not in ("strict", "weak"):
        raise ValueError("sign_mode must be 'strict' or 'weak'")
    u, w = tuple(u), tuple(w)
    n = len(u) + len(w)
    weak = sign_mode == "weak"
    coeffs: dict = {}  # one Fraction per distinct coefficient: most terms share a few
    terms = {}
    for x, m in _multiplicities(u, w, True):
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
    # the packet sizes are the contractions of (1,) * n, in the same order
    for parts, word in zip(contractions((1,) * n), contractions(w)):
        merges = n - len(parts)  # the weak bullet flips the sign once per merge
        sign = (-1) ** merges if bullet_sign == "-" else 1
        if mode == "exp":
            coeff = Fraction(sign, prod(factorial(p) for p in parts))
        else:
            coeff = Fraction(sign * (-1) ** merges, prod(parts))
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
