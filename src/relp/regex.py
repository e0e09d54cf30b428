"""Regular expressions for finite languages: symbols, union, concatenation.

The grammar is deliberately star-free and epsilon-free:

    R ::= a | (R1 + R2) | R1 R2        (a an alphabet symbol)

so every expression denotes a nonempty finite language of nonempty
strings.  The *length* of an expression is the number of symbol
occurrences in it -- parentheses and plus signs are free.

Text syntax follows the usual conventions: juxtaposition for
concatenation, ``(...+...+...)`` for (n-ary) union.  The renderer emits
the minimal parenthesization: unions are always parenthesized, symbols
and concatenations never are.  Parsing folds n-ary unions to the right
and concatenation chains to the left, so ``parse(render(r))`` recovers
``r`` up to those folds (see :func:`normalize`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add
from typing import TypeVar

from .lang import FORBIDDEN_SYMBOLS, Language, check_alphabet, singleton


@dataclass(frozen=True, slots=True)
class Symbol:
    ch: str


@dataclass(frozen=True, slots=True)
class Concat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True, slots=True)
class Union:
    left: "Regex"
    right: "Regex"


Regex = Symbol | Concat | Union


class RegexSyntaxError(ValueError):
    pass


# -- structure helpers -------------------------------------------------------


def operands(r: Regex, op: type[Concat] | type[Union]) -> list[Regex]:
    """Flatten the maximal ``op`` chain at the top of r into its operand
    sequence, left to right: [r] itself when r is not an ``op`` node."""
    out: list[Regex] = []
    stack = [r]
    while stack:
        node = stack.pop()
        if isinstance(node, op):
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


concat_factors = partial(operands, op=Concat)
union_branches = partial(operands, op=Union)


T = TypeVar("T")


def fold(
    r: Regex, symbol: Callable[[str], T], concat: Callable[[T, T], T], union: Callable[[T, T], T]
) -> dict[int, T]:
    """The value of every node of r, keyed by ``id(node)``, folded post-order.

    A symbol's value is ``symbol(ch)``; a concatenation's is ``concat`` of
    its operands' values, and a union's ``union`` of them.  An explicit
    stack stands in for recursion, so any depth folds: an operator comes
    off it once to push its operands and once, flagged ready, to be folded.
    A node shared by several parents (as in ``ellul_bnk``) is folded once.
    The ids stay unique while r, which holds every node, is alive.
    """
    values: dict[int, T] = {}
    stack: list[tuple[Regex, bool]] = [(r, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            op = concat if isinstance(node, Concat) else union
            values[id(node)] = op(values[id(node.left)], values[id(node.right)])
        elif id(node) in values:
            continue
        elif isinstance(node, Symbol):
            values[id(node)] = symbol(node.ch)
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
    return values


def cat(factors: list[Regex]) -> Regex:
    """Left-fold a factor list back into a concatenation chain."""
    if not factors:
        raise ValueError("cannot concatenate zero factors")
    node = factors[0]
    for f in factors[1:]:
        node = Concat(node, f)
    return node


def alt(branches: list[Regex]) -> Regex:
    """Right-fold a branch list back into a union chain."""
    if not branches:
        raise ValueError("cannot union zero branches")
    node = branches[-1]
    for b in reversed(branches[:-1]):
        node = Union(b, node)
    return node


def word(s: str) -> Regex:
    """The term denoting exactly the string s."""
    return cat([Symbol(ch) for ch in s])


def as_word(r: Regex) -> str | None:
    """The string spelled by r if r is symbols-only (a term), else None."""
    factors = concat_factors(r)
    symbols_only = all(isinstance(f, Symbol) for f in factors)
    return "".join(f.ch for f in factors) if symbols_only else None


def length(r: Regex) -> int:
    """Number of alphabet-symbol occurrences in r."""
    return fold(r, lambda ch: 1, add, add)[id(r)]


def normalize(r: Regex) -> Regex:
    """Canonical fold: concatenations to the left, unions to the right."""
    # both operands are normal already, so one's chain extends the other's
    return fold(
        r,
        Symbol,
        lambda a, b: cat([a, *concat_factors(b)]),
        lambda a, b: alt([*union_branches(a), b]),
    )[id(r)]


_SWAP = {"0": "1", "1": "0"}


def flip(r: Regex) -> Regex:
    """Exchange the symbols 0 and 1 throughout."""
    return fold(r, lambda ch: Symbol(_SWAP.get(ch, ch)), Concat, Union)[id(r)]


_letter = lru_cache(maxsize=None)(singleton)  # one shared language per symbol


def node_languages(r: Regex) -> dict[int, Language]:
    """The language of every node of r, keyed by ``id(node)``."""
    return fold(r, _letter, Language.concat, Language.union)


def language_of(r: Regex) -> Language:
    """The finite language denoted by r."""
    return node_languages(r)[id(r)]


# -- text form ----------------------------------------------------------------


def _factor_text(value: tuple[str, bool]) -> str:
    text, is_union = value
    return f"({text})" if is_union else text


def render(r: Regex) -> str:
    # a node's value is its text and whether it is a union; a union's text
    # leaves off its parentheses, so nested unions join into one
    values = fold(
        r,
        lambda ch: (ch, False),
        lambda a, b: (_factor_text(a) + _factor_text(b), False),
        lambda a, b: (f"{a[0]}+{b[0]}", True),
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


def _zeros(m: int) -> Regex:
    return word("0" * m)


def _sigma_chain(m: int) -> Regex:
    return cat([Union(Symbol("0"), Symbol("1")) for _ in range(m)])


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
    return Union(
        Concat(_sigma_chain(a), ellul_t_n1(b)),
        Concat(ellul_t_n1(a), _sigma_chain(b)),
    )


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
        return _zeros(n)
    if 2 * k > n:
        return flip(ellul_bnk(n, n - k))
    a, b = n // 2, n - n // 2
    branches = [
        Concat(ellul_bnk(a, i), ellul_bnk(b, k - i))
        for i in range(k + 1)
        if i <= a and k - i <= b
    ]
    return alt(branches)
