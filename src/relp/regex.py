"""Regular expressions for finite languages: symbols, union, concatenation.

The grammar is deliberately star-free and epsilon-free:

    R ::= a | (R1 + ... + Rm) | R1 ... Rm        (a an alphabet symbol, m >= 2)

so every expression denotes a nonempty finite language of nonempty
strings.  The *length* of an expression is the number of symbol
occurrences in it -- parentheses and plus signs are free.  A ``Concat``
or ``Union`` node holds m >= 2 parts, none of its own type: ``cat`` and
``alt``, which build every node, flatten chains into one.

Text syntax follows the usual conventions: juxtaposition for
concatenation, ``(...+...+...)`` for (n-ary) union.  The renderer emits
the minimal parenthesization: unions are always parenthesized, symbols
and concatenations never are, so ``parse(render(r)) == r``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import TypeVar

from .lang import FORBIDDEN_SYMBOLS, Language, check_alphabet, singleton


@dataclass(frozen=True, slots=True)
class Symbol:
    ch: str


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple["Regex", ...]


@dataclass(frozen=True, slots=True)
class Union:
    parts: tuple["Regex", ...]


Regex = Symbol | Concat | Union


class RegexSyntaxError(ValueError):
    pass


# -- structure helpers -------------------------------------------------------


def _join(op: type[Concat] | type[Union], parts: Iterable[Regex]) -> Regex:
    flat: list[Regex] = []
    for part in parts:
        flat += part.parts if isinstance(part, op) else (part,)
    if not flat:
        raise ValueError(f"a {op.__name__} needs at least one part")
    return flat[0] if len(flat) == 1 else op(tuple(flat))


def cat(factors: Iterable[Regex]) -> Regex:
    """The concatenation of the factors as one chain: a concatenation among
    them contributes its own factors, and a lone factor comes back as is."""
    return _join(Concat, factors)


def alt(branches: Iterable[Regex]) -> Regex:
    """The union of the branches as one node, flattened as ``cat`` is."""
    return _join(Union, branches)


T = TypeVar("T")
Join = Callable[[list[T]], T]  # a node's value from its parts' values


def _readers(r: Regex) -> dict[int, int]:
    """How many distinct parents read each node of r, keyed by ``id(node)``;
    r itself has one reader, the caller."""
    readers = {id(r): 1}
    stack = [r]
    while stack:
        node = stack.pop()
        if not isinstance(node, Symbol):
            for key, part in {id(part): part for part in node.parts}.items():
                readers[key] = readers.get(key, 0) + 1
                if readers[key] == 1:  # first seen, so its parts are not counted yet
                    stack.append(part)
    return readers


def fold(
    r: Regex, symbol: Callable[[str], T], concat: Join[T], union: Join[T], _release: bool = False
) -> dict[int, T]:
    """The value of every node of r, keyed by ``id(node)``, folded post-order.

    A symbol's value is ``symbol(ch)``; a concatenation's is ``concat`` of
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
                for key in {id(part) for part in node.parts}:
                    readers[key] -= 1
                    if not readers[key]:
                        del values[key]
        elif id(node) in values:
            continue
        elif isinstance(node, Symbol):
            values[id(node)] = symbol(node.ch)
        else:
            stack += [(node, True), *((part, False) for part in reversed(node.parts))]
    return values


def word(s: str) -> Regex:
    """The term denoting exactly the string s."""
    return cat(map(Symbol, s))


def as_word(r: Regex) -> str | None:
    """The string spelled by r if r is symbols-only (a term), else None."""
    factors = r.parts if isinstance(r, Concat) else (r,)
    symbols_only = all(isinstance(f, Symbol) for f in factors)
    return "".join(f.ch for f in factors) if symbols_only else None


def length(r: Regex) -> int:
    """Number of alphabet-symbol occurrences in r."""
    return fold(r, lambda ch: 1, sum, sum)[id(r)]


_SWAP = {"0": "1", "1": "0"}


def flip(r: Regex) -> Regex:
    """Exchange the symbols 0 and 1 throughout."""
    return fold(r, lambda ch: Symbol(_SWAP.get(ch, ch)), cat, alt)[id(r)]


_letter = lru_cache(maxsize=None)(singleton)  # one shared language per symbol


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
    return fold(r, _letter, _product, _union)


def language_of(r: Regex) -> Language:
    """The finite language denoted by r."""
    return fold(r, _letter, _product, _union, _release=True)[id(r)]


# -- text form ----------------------------------------------------------------


def _factor_text(value: tuple[str, bool]) -> str:
    text, is_union = value
    return f"({text})" if is_union else text


def render(r: Regex) -> str:
    # a node's value is its text and whether it is a union; a union's text
    # leaves off its parentheses, which its parent adds
    values = fold(
        r,
        lambda ch: (ch, False),
        lambda parts: ("".join(map(_factor_text, parts)), False),
        lambda parts: ("+".join(text for text, _ in parts), True),
    )
    return _factor_text(values[id(r)])


# parentheses nested deeper than this are refused: the parser recurses once
# per level, while every walk over the tree it builds is an iterative fold
MAX_NESTING = 200


def parse(text: str, alphabet: str = "01") -> Regex:
    """Parse the text syntax.  Star, epsilon and empty-set tokens are
    refused, and so are parentheses nested past ``MAX_NESTING`` levels."""
    check_alphabet(alphabet)
    symbols = set(alphabet)
    pos = 0
    depth = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def fail(msg: str) -> "RegexSyntaxError":
        lo, hi = max(0, pos - 20), pos + 20  # quote a window, not the whole text
        near = ("..." if lo else "") + text[lo:hi] + ("..." if hi < n else "")
        return RegexSyntaxError(f"{msg} at position {pos} near {near!r}")

    def parse_seq() -> Regex:
        nonlocal pos, depth
        factors: list[Regex] = []
        while True:
            skip_ws()
            if pos >= n or text[pos] in ")+":
                break
            ch = text[pos]
            if ch == "(":
                if depth == MAX_NESTING:
                    raise fail(f"parentheses nested deeper than {MAX_NESTING} levels")
                pos += 1
                depth += 1
                factors.append(parse_alt())
                depth -= 1
                skip_ws()
                if pos >= n or text[pos] != ")":
                    raise fail("expected ')'")
                pos += 1
            elif ch in symbols:
                factors.append(Symbol(ch))
                pos += 1
            elif ch in FORBIDDEN_SYMBOLS or ch in "ε∅":
                raise fail(f"token {ch!r} is not part of this grammar (no star, no epsilon, no empty set)")
            else:
                raise fail(f"unexpected character {ch!r} (alphabet is {alphabet!r})")
        if not factors:
            raise fail("empty expression")
        return cat(factors)

    def parse_alt() -> Regex:
        nonlocal pos
        branches = [parse_seq()]
        while True:
            skip_ws()
            if pos < n and text[pos] == "+":
                pos += 1
                branches.append(parse_seq())
            else:
                break
        return alt(branches)

    result = parse_seq()
    skip_ws()
    if pos != n:
        if text[pos] == "+":
            raise fail("top-level union must be parenthesized")
        raise fail(f"unexpected character {text[pos]!r}")
    return result


# -- divide-and-conquer constructions ----------------------------------------


def _sigma_chain(m: int) -> Regex:
    return cat([alt([Symbol("0"), Symbol("1")])] * m)


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
        return Symbol("1")
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
        return word("0" * n)
    if 2 * k > n:
        return flip(ellul_bnk(n, n - k))
    a, b = n // 2, n - n // 2
    branches = [
        cat([ellul_bnk(a, i), ellul_bnk(b, k - i)])
        for i in range(k + 1)
        if i <= a and k - i <= b
    ]
    return alt(branches)
