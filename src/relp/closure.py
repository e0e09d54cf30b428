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

A ``Closure`` is its generators, the inclusion-maximal members, and
their rectangles; it lists no member until ``members`` is read.  A
language is a member exactly when it lies within some generator.  The
member count is |P(G_1) ∪ ... ∪ P(G_r)| - 1 over the power sets of the
generators, by inclusion-exclusion: P(G) ∩ P(H) = P(G ∩ H), so each
term is 2^|I| for an intersection I, and terms with the same I merge.
The member cap refuses a closure of more than max_members members.

Derived index sets used by the linear programs:

* strings: C0(L), the s with {s} in C(L), which is the union of the
  generators (one LP variable per string);
* concat_pairs: ordered member pairs (K1,K2) with K1·K2 in C(L).  That
  is K1 × K2 within a generator's pair relation, so within one of its
  maximal rectangles X × Y: the pairs are the nonempty K1 within X with
  the nonempty K2 within Y, over the generators' rectangles;
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
from heapq import heappop, heappush
from itertools import chain, combinations, count, product
from math import comb

from .config import DEFAULT_CONFIG, ResourceCapError
from .lang import Language, binomial, canon_key

Rectangle = tuple[frozenset[str], frozenset[str]]


def _concat_set(k1: Language, k2: Language) -> frozenset[str]:
    """The strings of K1·K2, without building its Language."""
    return frozenset([u + v for u in k1.members for v in k2.members])


def _subsets(ranks: tuple[int, ...]) -> chain[tuple[int, ...]]:
    """The nonempty subsets of sorted ranks, each a sorted tuple."""
    return chain.from_iterable(combinations(ranks, r) for r in range(1, len(ranks) + 1))


def _member_count(gens: list[frozenset[str]]) -> int:
    """|P(G_1) ∪ ... ∪ P(G_r)| - 1 by inclusion-exclusion, each term
    c · 2^|I| kept once per intersection I as the coefficient c."""
    terms: dict[frozenset[str], int] = {}
    for g in gens:
        # 1[A ∪ P(g)] = 1[A] + 1[P(g)] - sum of c · 1[P(I ∩ g)]
        step = {g: 1}
        for i, c in terms.items():
            step[i & g] = step.get(i & g, 0) - c
        for i, c in step.items():
            terms[i] = terms.get(i, 0) + c
        terms = {i: c for i, c in terms.items() if c}
    return sum(c << len(i) for i, c in terms.items()) - 1


class Closure:
    """C(L), the nonempty subsets of its generators; members and index
    sets made lazily, each member's Language built once."""

    def __init__(
        self,
        base: Language,
        generators: list[frozenset[str]],
        rectangles: list[Rectangle],
        size: int,
    ):
        self.base = base
        self.generators: tuple[frozenset[str], ...] = tuple(generators)
        self._rectangles = rectangles
        self._size = size
        self._strings = tuple(sorted(set().union(*generators), key=canon_key))
        self._rank = {s: i for i, s in enumerate(self._strings)}
        self._langs: dict[tuple[int, ...], Language] = {}  # rank tuple -> member
        self._members: tuple[Language, ...] | None = None
        self._concat_pairs: list[tuple[Language, Language]] | None = None
        self._union_pairs: list[tuple[Language, Language]] | None = None

    def __len__(self) -> int:
        return self._size

    def __contains__(self, lang: Language) -> bool:
        return any(lang._set <= g for g in self.generators)

    def __repr__(self) -> str:
        return f"Closure(base={self.base.serialize()}, members={len(self)})"

    def _ranks(self, strings: frozenset[str]) -> tuple[int, ...]:
        return tuple(sorted(map(self._rank.__getitem__, strings)))

    def _lang(self, ranks: tuple[int, ...]) -> Language:
        """The member with these string ranks, built once; ranks sort
        canonically."""
        lang = self._langs.get(ranks)
        if lang is None:
            lang = Language._from_canonical(tuple([self._strings[i] for i in ranks]))
            self._langs[ranks] = lang
        return lang

    @property
    def members(self) -> tuple[Language, ...]:
        """Every member in canonical order (by rank tuple), listed as the
        subsets of the generators on the first read."""
        if self._members is None:
            listed: set[tuple[int, ...]] = set()
            for g in self.generators:
                listed.update(_subsets(self._ranks(g)))
            self._members = tuple(map(self._lang, sorted(listed)))
        return self._members

    def strings(self) -> tuple[str, ...]:
        """C0(L): the strings whose singleton language is a member."""
        return self._strings

    def concat_pairs(self) -> list[tuple[Language, Language]]:
        """C_c(L): ordered member pairs whose concatenation is a member, in
        canonical order: the nonempty subsets of a rectangle's X paired
        with those of its Y, over every generator's rectangles."""
        if self._concat_pairs is None:
            found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
            for x, y in self._rectangles:
                found.update(product(_subsets(self._ranks(x)), _subsets(self._ranks(y))))
            lang = self._lang
            self._concat_pairs = [(lang(a), lang(b)) for a, b in sorted(found)]
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
    """C(base) as its generators and their rectangles, listing no member.

    Sets are popped largest first, and each one not within a generator
    becomes one and adds both sides of the maximal rectangles of its pair
    relation: every nonempty intersection Y of its left quotients, and
    X = {u : Y within u^{-1}M}.  A side is no larger than its generator
    (u·y is within M for each u of X and one y of Y), so no set popped
    later holds an earlier generator: every generator is maximal, and
    its rectangles are kept for ``concat_pairs``.

    Raises ResourceCapError exactly when C(base) has more than
    max_members members, counted by inclusion-exclusion at the end and
    checked up front against a generator's 2^|M| - 1 subsets and its
    intents (each a member).
    """
    def too_many() -> ResourceCapError:
        return ResourceCapError(f"closure of {base!r} exceeds {max_members} members")

    gens: list[frozenset[str]] = []
    rectangles: list[Rectangle] = []
    ties = count()  # equal sizes pop in push order; sets are never compared
    queue = [(-len(base), next(ties), base._set)]
    while queue:
        m = heappop(queue)[2]
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
            x = frozenset(u for u, q in quots.items() if y <= q)
            rectangles.append((x, y))
            heappush(queue, (-len(x), next(ties), x))
            heappush(queue, (-len(y), next(ties), y))
    size = _member_count(gens)
    if size > max_members:
        raise too_many()
    return Closure(base, gens, rectangles, size)


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
        """The quadruples in sorted order.  The product fits exactly when
        k2 leaves room for the ones it is missing, so the fit rule is the
        lower end of k2's range."""
        n, k = self.n, self.k
        return [
            (n1, k1, n2, k2)
            for n1 in range(1, n)
            for k1 in range(min(n1, k) + 1)
            for n2 in range(1, n - n1 + 1)
            for k2 in range(max(0, k - k1 - (n - n1 - n2)), min(n2, k - k1) + 1)
        ]

    def strings(self) -> tuple[str, ...]:
        """C0(B(n,k)): the strings of every fitted block."""
        return tuple(canonical_order({b: binomial(*b).members for b in self.blocks()}))


def canonical_order(members: dict[tuple[int, int], tuple[str, ...]]) -> list[str]:
    """The members of the blocks (m, l) in canonical order: by length m,
    then one plain sort of the strings of that length."""
    lengths: dict[int, list[str]] = {}
    for (m, _), strings in members.items():
        lengths.setdefault(m, []).extend(strings)
    return [s for m in sorted(lengths) for s in sorted(lengths[m])]


def product_block(n1: int, k1: int, n2: int, k2: int) -> list[str]:
    """B(n1,k1)·B(n2,k2): length n1+n2, k1 ones in the first n1 positions."""
    right = binomial(n2, k2).members
    return [u + v for u in binomial(n1, k1).members for v in right]


def block_spans(m: int, l: int) -> dict[int, int]:
    """Span -> count over B(m, l), the span running from the first one to
    the last: (m - p + 1) * C(p - 2, l - 2) strings have span p when
    l >= 2; below weight two all C(m, l) strings are one class, span l."""
    if l < 2:
        return {l: comb(m, l)}
    return {p: (m - p + 1) * comb(p - 2, l - 2) for p in range(l, m + 1)}


def product_spans(n1: int, k1: int, n2: int, k2: int) -> dict[int, int]:
    """Span -> count over B(n1,k1)·B(n2,k2), at every weight.

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
