"""Decomposition closure of a finite language.

The closure C(L) is the smallest family of languages that contains L and,
for every member K and every way of writing K as a concatenation K1·K2 or
a union K1+K2 of nonempty languages, contains K1 and K2 as well.

Because K = K1 + K with any nonempty K1 subset of K, the union rule is
equivalent to: every nonempty subset of a member is a member.  So C(L)
is every nonempty subset of a few *generators*, found as a fixpoint from
L.  For a generator M, take the pair relation {(u,v) : uv in M} over all
cuts at once, so mixed lengths are covered, and add both sides X and Y
of each of its maximal rectangles X × Y.  Its intents Y are the nonempty
intersections of the left quotients u^{-1}M, and X = {u : Y within
u^{-1}M}.  These rectangles are the formal concepts of the relation
(Ganter & Wille 1999, *Formal Concept Analysis*), the factors of
Conway's factor matrix (Conway 1971, *Regular Algebra and Finite
Machines*, ch. 5).  The subsets of the generators are exactly C(L):

* if a member K within M factors as A·B, then A × B lies in M's pair
  relation, so A and B lie within the sides of some maximal rectangle;
* conversely X·Y is within M, so it is a member, and it factors as X·Y.

A ``Closure`` is its generators, the inclusion-maximal members: a
language is a member exactly when it lies within some generator.  The
member cap refuses a closure of more than max_members members.

Derived index sets used by the linear programs:

* strings: C0(L), the s with {s} in C(L), which is the union of the
  generators (one LP variable per string);
* concat_pairs: ordered member pairs (K1,K2) with K1·K2 in C(L);
* union_pairs: unordered pairs {K1,K2} of incomparable members with
  K1+K2 in C(L), each once, K1 first in canonical order.

For the block languages B(n,k) the closure has a closed form -- all
nonempty subsets of the blocks B(m,l) with 0 < m <= n, 0 <= l <= min(m,k)
and k - l <= n - m -- and materializing it is hopeless beyond small n.
The last condition says a block must leave room for the missing ones: a
length-m factor of a weight-k length-n string keeps at least k - (n - m)
of its ones, so {00} is not in C({01,10}).  BinomialIndex is the
implicit counterpart used by the relaxed programs and their certificates:
it owns that fit rule, and enumerates exactly the fitted blocks and the
block quadruples with a fitted product without ever listing subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .config import DEFAULT_CONFIG, ResourceCapError
from .lang import Language, binomial, canon_key


def _concat_set(k1: Language, k2: Language) -> frozenset[str]:
    """The strings of K1·K2, without building its Language."""
    return frozenset([u + v for u in k1.members for v in k2.members])


class Closure:
    """C(L), the nonempty subsets of its generators; index sets made lazily."""

    def __init__(
        self,
        base: Language,
        generators: list[frozenset[str]],
        strings: list[str],
        members: list[Language],
    ):
        self.base = base
        self.generators: tuple[frozenset[str], ...] = tuple(generators)
        self.members: tuple[Language, ...] = tuple(members)  # canonical order
        self._strings = tuple(strings)
        self._concat_pairs: list[tuple[Language, Language]] | None = None
        self._union_pairs: list[tuple[Language, Language]] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, lang: Language) -> bool:
        return self._within(lang._set)

    def __repr__(self) -> str:
        return f"Closure(base={self.base.serialize()}, members={len(self.members)})"

    def _within(self, strings: frozenset[str]) -> bool:
        """Whether a nonempty string set is a member: within a generator."""
        return any(strings <= g for g in self.generators)

    def strings(self) -> tuple[str, ...]:
        """C0(L): the strings whose singleton language is a member."""
        return self._strings

    def concat_pairs(self) -> list[tuple[Language, Language]]:
        """C_c(L): ordered member pairs whose concatenation is a member, in
        canonical order.  Two (min_len, max_len) buckets are joined only
        when (lo1 + lo2, hi1 + hi2), the signature of their products, is
        some member's."""
        if self._concat_pairs is None:
            members = self.members
            buckets: dict[tuple[int, int], list[int]] = {}
            for i, k in enumerate(members):
                buckets.setdefault((k.min_len(), k.max_len()), []).append(i)
            found = []
            for (lo1, hi1), group1 in buckets.items():
                for (lo2, hi2), group2 in buckets.items():
                    if (lo1 + lo2, hi1 + hi2) not in buckets:
                        continue
                    for i in group1:
                        for j in group2:
                            if self._within(_concat_set(members[i], members[j])):
                                found.append((i, j))
            found.sort()
            self._concat_pairs = [(members[i], members[j]) for i, j in found]
        return self._concat_pairs

    def union_pairs(self) -> list[tuple[Language, Language]]:
        """C_u(L): the pairs of incomparable members whose union is a
        member, each once as (K1, K2) with K1 first in ``members``.  Only
        these give the strong program a new row: (K2, K1) repeats (K1, K2),
        and with one member within the other the row nets to -X[K] <= 0."""
        if self._union_pairs is None:
            members = self.members
            sets = [k._set for k in members]
            # K1 + K2 is within a generator exactly when K1 and K2 both
            # are: bit j of holders[i] says generator j holds member i
            gens = self.generators
            holders = [sum(1 << j for j, g in enumerate(gens) if a <= g) for a in sets]
            pairs = []
            for i, (k1, a, ha) in enumerate(zip(members, sets, holders)):
                for k2, b, hb in zip(members[i + 1 :], sets[i + 1 :], holders[i + 1 :]):
                    if ha & hb and not (a <= b or b <= a):
                        pairs.append((k1, k2))
            self._union_pairs = pairs
        return self._union_pairs


def compute_closure(
    base: Language, max_members: int = DEFAULT_CONFIG.closure_max_members
) -> Closure:
    """Materialize C(base) as the nonempty subsets of its generators.

    Each generator M not within an earlier one adds both sides of the
    maximal rectangles of its pair relation: every nonempty intersection
    Y of its left quotients, and X = {u : Y within u^{-1}M}.  Members are
    listed as tuples of string ranks, whose native order is canonical.

    Raises ResourceCapError exactly when C(base) has more than
    max_members members, checked while listing and up front against a
    generator's 2^|M| - 1 subsets and its intents (each a member).
    """
    def too_many() -> ResourceCapError:
        return ResourceCapError(f"closure of {base!r} exceeds {max_members} members")

    gens: list[frozenset[str]] = []
    queue = [base._set]
    while queue:
        m = queue.pop()
        if any(m <= g for g in gens):
            continue
        if (1 << len(m)) - 1 > max_members:
            raise too_many()
        gens.append(m)
        quots: dict[str, set[str]] = {}  # u -> u^{-1}M
        for s in m:
            for i in range(1, len(s)):
                quots.setdefault(s[:i], set()).add(s[i:])
        intents: set[frozenset[str]] = set()
        for q in map(frozenset, quots.values()):
            intents |= {q & y for y in intents} | {q}
            intents.discard(frozenset())
            if len(intents) > max_members:
                raise too_many()
        for y in intents:
            queue.append(frozenset(u for u, q in quots.items() if y <= q))
            queue.append(y)
    gens = [g for g in gens if not any(g < h for h in gens)]  # the maximal members

    strings = sorted(set().union(*gens), key=canon_key)
    rank = {s: i for i, s in enumerate(strings)}
    listed: set[tuple[int, ...]] = set()
    for g in gens:
        ranks = sorted(rank[s] for s in g)
        for r in range(1, len(ranks) + 1):
            listed.update(combinations(ranks, r))
            if len(listed) > max_members:
                raise too_many()
    members = [Language._from_canonical(tuple([strings[i] for i in t])) for t in sorted(listed)]
    return Closure(base, gens, strings, members)


# -- implicit closure of the block languages B(n,k) --------------------------


@dataclass(frozen=True)
class BinomialIndex:
    """Index sets of C(B(n,k)) in block form, without listing subsets.

    blocks are the fitted (m,l) -- 0 < m <= n, 0 <= l <= min(m,k) and
    k - l <= n - m, decided by ``fits`` alone -- so ``strings()`` is
    exactly C0(B(n,k)).  quadruples are the (n1,k1,n2,k2) whose product
    block (n1+n2, k1+k2) fits; both halves then fit too, since a factor
    of a fitted block leaves room for the product's missing ones.  One LP
    row per quadruple replaces the per-subset rows of the full program.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    def fits(self, m: int, l: int) -> bool:
        """Whether block (m, l) is in C(B(n,k)): it fits the length and
        weight, and leaves room for the ones it is missing."""
        return 1 <= m <= self.n and 0 <= l <= min(m, self.k) and self.k - l <= self.n - m

    def blocks(self) -> list[tuple[int, int]]:
        return [
            (m, l) for m in range(1, self.n + 1) for l in range(self.k + 1) if self.fits(m, l)
        ]

    def quadruples(self) -> list[tuple[int, int, int, int]]:
        quads = []
        for n1 in range(1, self.n):
            for n2 in range(1, self.n - n1 + 1):
                for k1 in range(0, min(n1, self.k) + 1):
                    for k2 in range(0, min(n2, self.k - k1) + 1):
                        if self.fits(n1 + n2, k1 + k2):
                            quads.append((n1, k1, n2, k2))
        quads.sort()
        return quads

    def strings(self) -> tuple[str, ...]:
        """C0(B(n,k)): the strings of every fitted block."""
        out = [s for m, l in self.blocks() for s in binomial(m, l).members]
        return tuple(sorted(out, key=canon_key))


def product_block(n1: int, k1: int, n2: int, k2: int) -> list[str]:
    """B(n1,k1)·B(n2,k2): length n1+n2, k1 ones in the first n1 positions."""
    right = binomial(n2, k2).members
    return [u + v for u in binomial(n1, k1).members for v in right]


def block_spans(m: int, l: int) -> dict[int, int]:
    """Span -> count over B(m, l), l >= 2: (m - p + 1) * C(p - 2, l - 2)
    strings have span p."""
    return {p: (m - p + 1) * comb(p - 2, l - 2) for p in range(l, m + 1)}


def product_spans(n1: int, k1: int, n2: int, k2: int) -> dict[int, int]:
    """Span -> count over B(n1,k1)·B(n2,k2), k1 + k2 >= 2.

    With ones on both sides the span is d + t, where the first one of u
    sits d places from u's end (C(d - 1, k1 - 1) strings u) and the last
    one of v sits t places from v's start (C(t - 1, k2 - 1) strings v).
    With all ones on one side the product has that side's spans.
    """
    if k2 == 0:
        return block_spans(n1, k1)
    if k1 == 0:
        return block_spans(n2, k2)
    right = [(t, comb(t - 1, k2 - 1)) for t in range(k2, n2 + 1)]
    counts: dict[int, int] = {}
    for d in range(k1, n1 + 1):
        left = comb(d - 1, k1 - 1)
        for t, c in right:
            counts[d + t] = counts.get(d + t, 0) + left * c
    return counts
