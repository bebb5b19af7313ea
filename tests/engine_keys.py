"""Test-side readers of the nested-sum engine: the strict word entry
:func:`strict_fp_res`, and :func:`decode`, which spells an engine memo key
out as the recursion head and the state written as one flat tuple.

An engine memo key names its prefix by a node id of the prefix trie
(``emsum._trie``), whose root belongs to one recursion head (``emsum._roots``);
see the module docstring of ``renzeta.emsum``. The tests that read states
read them through this module, so only it knows how a key is built.
"""

from renzeta import emsum
from renzeta.emsum import LaurentData, StructuralViolation


def word_head(word, v):
    """(word as a tuple, ring, head) for the word menu, both validated."""
    word = tuple(word)
    if not word or any(type(a) is not int or a < 0 for a in word):
        raise StructuralViolation(f"a word needs one or more letters a_i >= 0, got {word}")
    ring, head = emsum._head(v, 0, emsum._WORD)
    return word, ring, head


def strict_fp_res(word, v) -> LaurentData:
    """Residue and finite part at z = 0 of the twisted-regularisation
    expansion of the word (a_1, ..., a_k): the sum over every way of cutting
    the word into consecutive slots, a slot of L letters with exponent their
    sum, multiplicity c in 1..L and weight s(L, c)/L!, of the nested sum of
    those slots. Its finite part is the strict renormalised value
    zeta(-a_1, ..., -a_k; v), its residue is zero.

    >>> strict_fp_res((0, 0), 0)
    LaurentData(res=Fraction(0, 1), fp=Fraction(3, 8))
    """
    word, ring, head = word_head(word, v)
    return emsum._to_laurent(emsum._word_total(word, ring, head), v)


def word_key(word, head) -> tuple:
    """The memo key of the prefix-sum state of ``word`` under ``head``."""
    return emsum._prefix(head, tuple(word)), 0


def decode(key) -> tuple:
    """(head, state) for an engine memo key. The state is the prefix spelled
    out, its letters a_1, ..., a_m (word menu) or its slots b_1, c_1, ...,
    b_m, c_m (fixed menu), followed by the rest of the key: (.., B, C) for a
    slot state, (.., B, C, -L) for a presum state, (.., 0) for a prefix-sum
    state.

    >>> emsum.clear_cache()
    >>> _ = strict_fp_res((1, 2), 0)
    >>> sorted(decode(key)[1] for key in emsum._cache if len(key) == 2)
    [(1, 0), (1, 2, 0)]
    >>> emsum.clear_cache()
    """
    letters, node = [], key[0]
    while True:
        parent, letter = emsum._trie[node][:2]
        if parent is None:
            break
        letters.extend(reversed(letter) if type(letter) is tuple else (letter,))
        node = parent
    (head,) = [h for h, root in emsum._roots.items() if root == node]
    return head, tuple(reversed(letters)) + key[1:]


def reach(key) -> int:
    """B plus the letter sum and the length of the key's node, read from the
    trie: the reach of a slot or presum state (B, C) after its prefix. A
    prefix-sum state (id, 0) reads as B = 0, which is at least its reach."""
    _, _, length, total = emsum._trie[key[0]][:4]
    return key[1] + total + length
