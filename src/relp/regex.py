"""Regular expressions for finite languages: words, union, concatenation.

The grammar is deliberately star-free and epsilon-free:

    R ::= w | (R1 + ... + Rm) | R1 ... Rm        (w a nonempty word, m >= 2)

so every expression denotes a nonempty finite language of nonempty
strings.  The *length* of an expression is the number of symbol
occurrences in it -- parentheses and plus signs are free.  A ``Concat``
or ``Union`` node holds m >= 2 parts, none of its own type: ``cat`` and
``alt``, which build every node, flatten chains into one, and ``cat``
merges each run of words, so a term (a maximal run of symbols) is one
``Word``.

Text syntax follows the usual conventions: juxtaposition for
concatenation, ``(...+...+...)`` for (n-ary) union.  The renderer emits
the minimal parenthesization: unions are always parenthesized, words
and concatenations never are, so ``parse(render(r)) == r`` at every
depth.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import TypeVar

from .lang import FORBIDDEN_SYMBOLS, Language, check_alphabet, singleton


@dataclass(frozen=True, slots=True)
class Word:
    s: str

    def __post_init__(self) -> None:
        if not self.s:
            raise ValueError("a Word needs at least one symbol")


class _Node:
    """Equality, hash and repr of a ``Concat`` or ``Union``, on explicit stacks."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or isinstance(a, Word) and a == b:
                continue
            if type(a) is not type(b) or isinstance(a, Word) or len(a.parts) != len(b.parts):
                return False
            stack += zip(a.parts, b.parts)
        return True

    def __hash__(self) -> int:
        return hash(render(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render(self)!r})"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Concat(_Node):
    parts: tuple["Regex", ...]


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Union(_Node):
    parts: tuple["Regex", ...]


Regex = Word | Concat | Union


class RegexSyntaxError(ValueError):
    pass


# -- structure helpers -------------------------------------------------------


def _node(op: type[Concat] | type[Union], parts: list[Regex]) -> Regex:
    if not parts:
        raise ValueError(f"a {op.__name__} needs at least one part")
    return parts[0] if len(parts) == 1 else op(tuple(parts))


def cat(factors: Iterable[Regex]) -> Regex:
    """The concatenation of the factors as one chain: a concatenation among
    them contributes its own parts, each run of words is joined once into
    one word (a lone word is kept as is), and a lone part comes back as is."""
    flat = [p for f in factors for p in (f.parts if isinstance(f, Concat) else (f,))]
    parts: list[Regex] = []
    for kind, run in groupby(flat, type):
        group = list(run)
        merge = kind is Word and len(group) > 1
        parts += [Word("".join(w.s for w in group))] if merge else group
    return _node(Concat, parts)


def alt(branches: Iterable[Regex]) -> Regex:
    """The union of the branches as one node, flattened as ``cat`` is."""
    flat = [p for b in branches for p in (b.parts if isinstance(b, Union) else (b,))]
    return _node(Union, flat)


T = TypeVar("T")
Join = Callable[[list[T]], T]  # a node's value from its parts' values


def _readers(r: Regex) -> dict[int, int]:
    """How often each node of r is read as a part, keyed by ``id(node)``;
    r itself is read once, by the caller."""
    readers = {id(r): 1}
    stack = [r]
    while stack:
        node = stack.pop()
        if not isinstance(node, Word):
            for key, part in zip(map(id, node.parts), node.parts):
                readers[key] = readers.get(key, 0) + 1
                if readers[key] == 1:  # first seen, so its parts are not counted yet
                    stack.append(part)
    return readers


def fold(
    r: Regex, word: Callable[[str], T], concat: Join[T], union: Join[T], _release: bool = False
) -> dict[int, T]:
    """The value of every node of r, keyed by ``id(node)``, folded post-order.

    A word's value is ``word(s)``; a concatenation's is ``concat`` of
    the list of its parts' values, and a union's ``union`` of it.  An
    explicit stack stands in for recursion, so any depth folds.  A node
    shared by several parents (as in ``ellul_bnk``) is folded once; with
    ``_release`` its value is dropped once its last parent has read it,
    so only r's is left.  The ids stay unique while r is alive.
    """
    readers = _readers(r) if _release else {}
    values: dict[int, T] = {}
    stack: list[tuple[Regex, bool]] = [(r, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            op = concat if isinstance(node, Concat) else union
            values[id(node)] = op([values[id(part)] for part in node.parts])
            if _release:
                for key in map(id, node.parts):
                    readers[key] -= 1
                    if not readers[key]:
                        del values[key]
        elif id(node) in values:
            continue
        elif isinstance(node, Word):
            values[id(node)] = word(node.s)
        else:
            stack += [(node, True), *((part, False) for part in reversed(node.parts))]
    return values


def length(r: Regex) -> int:
    """Number of alphabet-symbol occurrences in r."""
    return fold(r, len, sum, sum)[id(r)]


_SWAP = str.maketrans("01", "10")


def flip(r: Regex) -> Regex:
    """Exchange the symbols 0 and 1 throughout."""
    return fold(r, lambda s: Word(s.translate(_SWAP)), cat, alt)[id(r)]


# one Language per node: partial products and unions stay plain strings
def _product(langs: list[Language]) -> Language:
    strings = {""}
    for lang in langs:
        strings = {u + v for u in strings for v in lang.members}
    return Language(strings)


def _union(langs: list[Language]) -> Language:
    return Language(s for lang in langs for s in lang.members)


def node_languages(r: Regex) -> dict[int, Language]:
    """The language of every node of r, keyed by ``id(node)``."""
    return fold(r, singleton, _product, _union)


def language_of(r: Regex) -> Language:
    """The finite language denoted by r."""
    return fold(r, singleton, _product, _union, _release=True)[id(r)]


# -- text form ----------------------------------------------------------------


def _union_text(branches: list[str]) -> str:
    return "(" + "+".join(branches) + ")"


def render(r: Regex) -> str:
    # a union is parenthesized wherever it stands, and never has a union
    # branch, so each node's text is its parts' texts joined
    return fold(r, str, "".join, _union_text, _release=True)[id(r)]


def parse(text: str, alphabet: str = "01") -> Regex:
    """Parse the text syntax; star, epsilon and empty-set tokens are refused.

    One loop reads the text over a stack of open groups, each a list of
    branches and each branch a list of factors, so any depth reads back.
    """
    check_alphabet(alphabet)
    word = re.compile(f"[{re.escape(alphabet)}]+")
    n = len(text)
    groups: list[list[list[Regex]]] = [[[]]]  # the text itself is the outermost group
    pos = 0

    def fail(msg: str) -> "RegexSyntaxError":
        lo, hi = max(0, pos - 20), pos + 20  # quote a window, not the whole text
        near = ("..." if lo else "") + text[lo:hi] + ("..." if hi < n else "")
        return RegexSyntaxError(f"{msg} at position {pos} near {near!r}")

    while pos < n:
        if run := word.match(text, pos):
            groups[-1][-1].append(Word(run.group()))
            pos = run.end()
            continue
        ch = text[pos]
        if ch in "+)":
            if not groups[-1][-1]:
                raise fail("empty expression")
            if len(groups) == 1:
                raise fail("top-level union must be parenthesized" if ch == "+"
                           else f"unexpected character {ch!r}")
            if ch == "+":
                groups[-1].append([])
            else:
                branches = groups.pop()
                groups[-1][-1].append(alt(cat(b) for b in branches))
        elif ch == "(":
            groups.append([[]])
        elif ch in FORBIDDEN_SYMBOLS or ch in "ε∅":
            raise fail(f"token {ch!r} is not part of this grammar (no star, no epsilon, no empty set)")
        elif ch not in " \t":
            raise fail(f"unexpected character {ch!r} (alphabet is {alphabet!r})")
        pos += 1
    if not groups[-1][-1]:
        raise fail("empty expression")
    if len(groups) > 1:
        raise fail("expected ')'")
    return cat(groups[0][0])


# -- divide-and-conquer constructions ----------------------------------------


def _sigma_chain(m: int) -> Regex:
    return cat([alt([Word("0"), Word("1")])] * m)


def ellul_b_n1_length(n: int) -> int:
    """n*ceil(lg n) + 2n - 2^ceil(lg n), the exact length of ellul_bnk(n, 1),
    which is R_1 = 1 and R_n = (0^(n//2) R_ceil + R_floor 0^ceil(n/2)).

    It solves L(1) = 1, L(n) = n + L(n//2) + L(ceil(n/2)).  The often
    quoted ceil(n*log2(2n)) is only a lower bound on it: the two agree
    for n <= 18, but not at n = 19 (101 against 100) and many n beyond.
    """
    c = (n - 1).bit_length()  # ceil(lg n)
    return n * c + 2 * n - (1 << c)


def ellul_t_n1(n: int) -> Regex:
    """The same halving idea for T(n,1), with (0+1) blocks for the free half.

    Its length is exactly 2*ellul_b_n1_length(n) - n: each level costs 2n
    symbols, twice the B(n,1) construction's n, and each of the n leaves
    1, as there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Word("1")
    a, b = n // 2, n - n // 2
    return alt([cat([_sigma_chain(a), ellul_t_n1(b)]), cat([ellul_t_n1(a), _sigma_chain(b)])])


def ellul_t_n1_length(n: int) -> int:
    """2*ellul_b_n1_length(n) - n, the exact length of ellul_t_n1(n)."""
    return 2 * ellul_b_n1_length(n) - n


@lru_cache(maxsize=None)
def ellul_bnk(n: int, k: int) -> Regex:
    """Generalized balanced construction for B(n,k).

    R_{n,0} = 0^n; for k > n/2 take the 0/1 flip of R_{n,n-k}; otherwise
    split the positions in half and branch over how many ones fall left:

        R_{n,k} = ( R_{floor,0} R_{ceil,k} + ... + R_{floor,k} R_{ceil,0} )

    Summands whose factor would need more ones than positions (an empty
    block) are dropped; with the flip rule applied first this never
    actually triggers, but it keeps the recursion safe under edits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return Word("0" * n)
    if 2 * k > n:
        return flip(ellul_bnk(n, n - k))
    a, b = n // 2, n - n // 2
    branches = [
        cat([ellul_bnk(a, i), ellul_bnk(b, k - i)])
        for i in range(k + 1)
        if i <= a and k - i <= b
    ]
    return alt(branches)
