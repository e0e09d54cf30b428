"""Finite languages over small alphabets.

A language here is an immutable, canonically ordered set of nonempty
strings.  The canonical order -- ascending length, then lexicographic --
is used everywhere: serialization, variable naming, and tie-breaking all
assume it, so it must never change.

The text form of a language is ``{s1,s2,...}`` with members in canonical
order and no whitespace, e.g. ``{0,00,000}``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator

# Characters that can never be alphabet symbols because they carry meaning
# in the regex / language / LP text formats.
RESERVED_CHARS = frozenset("(){}[]+,=:;/ \t\r\n")

# Tokens of extended regex syntaxes we explicitly refuse.
FORBIDDEN_SYMBOLS = frozenset("*?|&~^$.")


def check_symbol(ch: str) -> str:
    if len(ch) != 1:
        raise ValueError(f"alphabet symbols are single characters, got {ch!r}")
    if ch in RESERVED_CHARS or ch in FORBIDDEN_SYMBOLS:
        raise ValueError(f"character {ch!r} cannot be used as an alphabet symbol")
    return ch


def check_alphabet(alphabet: str) -> str:
    """Validate an alphabet given as a string of distinct symbols."""
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError(f"alphabet has repeated symbols: {alphabet!r}")
    for ch in alphabet:
        check_symbol(ch)
    return alphabet


def canon_key(s: str) -> tuple[int, str]:
    """Sort key giving the canonical (length, lexicographic) order."""
    return (len(s), s)


class Language:
    """An immutable finite set of nonempty strings in canonical order."""

    __slots__ = ("members", "_set", "_hash")

    members: tuple[str, ...]

    def __init__(self, strings: Iterable[str]) -> None:
        member_set = frozenset(strings)
        members = sorted(member_set, key=canon_key)
        if not members:
            raise ValueError("a language must contain at least one string")
        for s in members:
            if not s:
                raise ValueError("the empty string is not allowed (no epsilon in this grammar)")
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "_set", member_set)
        object.__setattr__(self, "_hash", hash(self.members))

    @classmethod
    def _from_canonical(cls, members: tuple[str, ...]) -> "Language":
        """The language of a tuple that is already canonical: distinct,
        nonempty strings in canonical order.  Nothing is checked or
        sorted; the closure search builds its members through here."""
        lang = object.__new__(cls)
        object.__setattr__(lang, "members", members)
        object.__setattr__(lang, "_set", frozenset(members))
        object.__setattr__(lang, "_hash", hash(members))
        return lang

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Language is immutable")

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __contains__(self, s: object) -> bool:
        return s in self._set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Language) and self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Language") -> bool:
        # canonical order on languages mirrors the order on serializations
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Language({self.serialize()})"

    # -- basic queries ------------------------------------------------------

    @property
    def is_singleton(self) -> bool:
        return len(self.members) == 1

    @property
    def only(self) -> str:
        if not self.is_singleton:
            raise ValueError(f"{self!r} is not a singleton")
        return self.members[0]

    def max_len(self) -> int:
        return len(self.members[-1])

    def min_len(self) -> int:
        return len(self.members[0])

    def uniform_length(self) -> int | None:
        """Common length of all members, or None if lengths differ."""
        n = len(self.members[0])
        return n if len(self.members[-1]) == n else None

    def total_length(self) -> int:
        return sum(len(s) for s in self.members)

    def sort_key(self) -> tuple:
        return tuple(canon_key(s) for s in self.members)

    # -- algebra ------------------------------------------------------------

    def concat(self, other: "Language") -> "Language":
        return Language(u + v for u in self.members for v in other.members)

    def union(self, other: "Language") -> "Language":
        return Language(self.members + other.members)

    def subsets(self, proper: bool = False) -> Iterator["Language"]:
        """All nonempty subsets, optionally excluding the language itself."""
        top = len(self.members) - 1 if proper else len(self.members)
        for r in range(1, top + 1):
            for combo in combinations(self.members, r):
                yield Language(combo)

    # -- text form ----------------------------------------------------------

    def serialize(self) -> str:
        return "{" + ",".join(self.members) + "}"

    @classmethod
    def parse(cls, text: str) -> "Language":
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ValueError(f"language text must look like {{s1,s2,...}}, got {text!r}")
        body = text[1:-1]
        if not body:
            raise ValueError("a language must contain at least one string")
        members = body.split(",")
        for s in members:
            if not s:
                raise ValueError(f"empty member in language text {text!r}")
            for ch in s:
                check_symbol(ch)
        return cls(members)

    def infer_alphabet(self) -> str:
        return "".join(sorted({ch for s in self.members for ch in s}))


def singleton(s: str) -> Language:
    return Language([s])


def ones(s: str) -> int:
    """Number of occurrences of the symbol '1' (the weight of a binary string)."""
    return s.count("1")


# -- standard families ------------------------------------------------------


def all_strings(n: int, alphabet: str = "01") -> Language:
    """Sigma^n: every string of length n over the alphabet."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_alphabet(alphabet)
    return Language("".join(p) for p in product(alphabet, repeat=n))


# The block builders and the calibration list the same small blocks over
# and over; a block of at most this many characters in all is kept after
# it is first built, so the memo stays a few MB even on the length-64
# ratio grid.
_BINOMIAL_MEMO_MAX_CHARS = 1 << 16
_binomial_memo: dict[tuple[int, int], Language] = {}


def binomial(n: int, k: int) -> Language:
    """B(n,k): binary strings of length n with exactly k ones."""
    lang = _binomial_memo.get((n, k))
    if lang is not None:
        return lang
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = []
    for positions in combinations(range(n), k):
        chars = ["0"] * n
        for i in positions:
            chars[i] = "1"
        out.append("".join(chars))
    lang = Language(out)
    if n * len(lang) <= _BINOMIAL_MEMO_MAX_CHARS:
        _binomial_memo[n, k] = lang
    return lang


def threshold(n: int, k: int) -> Language:
    """T(n,k): binary strings of length n with at least k ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Language(
        s for s in ("".join(p) for p in product("01", repeat=n)) if ones(s) >= k
    )


def gen_family(family: str, n: int, k: int | None = None) -> Language:
    """Dispatch to a named family: sigma (all strings), binomial, or threshold.

    ``sigma`` ignores k; the binary families require 0 <= k <= n.
    """
    name = family.strip().lower()
    if name in ("sigma", "sigma_n"):
        return all_strings(n)
    if name in ("binomial", "threshold"):
        if k is None:
            raise ValueError(f"family {name} needs k")
        return binomial(n, k) if name == "binomial" else threshold(n, k)
    raise ValueError(f"unknown family {family!r} (want sigma, binomial, or threshold)")
