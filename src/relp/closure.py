"""Decomposition closure of a finite language.

The closure C(L) is the smallest family of languages that contains L and,
for every member K and every way of writing K as a concatenation K1·K2 or
a union K1+K2 of nonempty languages, contains K1 and K2 as well.

Because K = K1 + K with any nonempty K1 subset of K, the union rule is
equivalent to: every nonempty subset of a member is a member.  A family
that contains every one-element deletion K minus {s} of each member K
with |K| > 1 has that property too, since any nonempty subset of K is
reached from K by deleting one string at a time.  So we compute C(L) as
the fixpoint of one-element deletions plus exact concatenation
factorizations: |K| new languages per member instead of 2^|K| - 2.
The fixpoint runs on canonical member tuples; a deletion keeps the
order, so no member is re-sorted, and each member's Language is built
once.

The factorization search is anchored on the canonically first member
of K: every factorization K1·K2 splits it as u0·v0 with u0 in K1, so at
each cut of it only left sets holding u0 inside the prefix pool
{u : u v0 in K} are tried.  They are enumerated depth first with the
running intersection of their left quotients, which prunes every
superset of a set whose quotients share nothing, and a cut at which
some member has no proper prefix in the pool is skipped outright.

Derived index sets used by the linear programs:

* strings: C0(L), the s with {s} in C(L) (one LP variable per string);
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


def _factor_pairs(
    lang: Language, max_prefix_pool: int
) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The exact factorizations of lang as pairs of canonical member tuples.

    At a cut u0·v0 of the first member, the prefix pool {u : u v0 in K}
    comes out in canonical order with u0 first: u0 is the shortest, and
    a u of the same length has u v0 after u0 v0.  So the left sets that
    hold u0 are u0 plus subsets of the rest of the pool, each one built
    in canonical order.
    """
    members = lang.members
    first = members[0]
    quots: dict[str, set[str]] = {}  # u -> u^{-1}K, filled as pools need it
    found: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()

    for cut in range(1, len(first)):
        v0 = first[cut:]
        lv = len(v0)
        # canonical order, since every u v0 shares the suffix v0
        pool = [s[:-lv] for s in members if len(s) > lv and s.endswith(v0)]
        if len(pool) > max_prefix_pool:
            raise ResourceCapError(
                f"factorization prefix pool has {len(pool)} candidates "
                f"(cap {max_prefix_pool}) for {lang!r}"
            )
        in_pool = set(pool)
        started = {
            s for n in {len(u) for u in pool} for s in members if len(s) > n and s[:n] in in_pool
        }
        if len(started) < len(members):
            continue  # some member cannot start with a left factor
        for u in pool:
            if u not in quots:
                lu = len(u)
                quots[u] = {s[lu:] for s in members if len(s) > lu and s.startswith(u)}
        rest = pool[1:]
        stack = [(0, (pool[0],), quots[pool[0]])]
        while stack:
            nxt, left, right_max = stack.pop()
            for j in range(nxt, len(rest)):
                shared = right_max & quots[rest[j]]
                if shared:
                    stack.append((j + 1, left + (rest[j],), shared))
            if len(left) * len(right_max) < len(members):
                continue  # too few products to cover K
            # every u v with u in left, v in right_max is a member; ways[s]
            # lists the v that produce member s
            ways: dict[str, list[str]] = {}
            for u in left:
                for v in right_max:
                    ways.setdefault(u + v, []).append(v)
            if len(ways) < len(members):
                continue  # even the maximal right factor cannot cover K
            forced = {vs[0] for vs in ways.values() if len(vs) == 1}
            open_ways = [vs for vs in ways.values() if forced.isdisjoint(vs)]
            optional = sorted(right_max - forced, key=canon_key)
            for r in range(len(optional) + 1):
                for extra in combinations(optional, r):
                    right = forced.union(extra)
                    if right and all(not right.isdisjoint(vs) for vs in open_ways):
                        found.add((left, tuple(sorted(right, key=canon_key))))
    return found


def factorizations(
    lang: Language, max_prefix_pool: int = DEFAULT_CONFIG.factor_pool_cap
) -> list[tuple[Language, Language]]:
    """All ordered pairs (K1, K2) of languages with K1·K2 == lang, exactly,
    sorted by (K1, K2) in canonical order.

    At each cut u0·v0 of the canonically first member, the left factors
    tried are the sets holding u0 within the prefix pool {u : u v0 in K},
    enumerated depth first and dropped, with all their supersets, once
    their left quotients share no suffix; a cut is skipped when some
    member has no proper prefix in the pool.  For each left set K1 the
    inclusion-maximal right factor is that intersection; the suffixes in
    it that are the only way to produce some string of K are forced, and
    every superset of the forced ones within it whose product covers K
    is a valid K2.

    The prefix pool per cut is at most |K| strings; if it exceeds
    max_prefix_pool the search is refused as a resource cap, before the
    cut is checked for cover.
    """
    out = [
        (Language._from_canonical(left), Language._from_canonical(right))
        for left, right in _factor_pairs(lang, max_prefix_pool)
    ]
    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return out


def _concat_set(k1: Language, k2: Language) -> frozenset[str]:
    """The strings of K1·K2, without building its Language."""
    return frozenset([u + v for u in k1.members for v in k2.members])


class Closure:
    """The materialized closure C(L), with its index sets computed lazily."""

    def __init__(self, base: Language, members: list[Language]):
        self.base = base
        self.members: tuple[Language, ...] = tuple(sorted(members, key=Language.sort_key))
        # each member's set of strings: membership and the pair joins
        # test a string set against these, without building a Language
        self._member_sets = frozenset(k._set for k in self.members)
        self._strings: tuple[str, ...] | None = None
        self._concat_pairs: list[tuple[Language, Language]] | None = None
        self._union_pairs: list[tuple[Language, Language]] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, lang: Language) -> bool:
        return lang._set in self._member_sets

    def __repr__(self) -> str:
        return f"Closure(base={self.base.serialize()}, members={len(self.members)})"

    def strings(self) -> tuple[str, ...]:
        """C0(L): the strings whose singleton language is a member."""
        if self._strings is None:
            self._strings = tuple(
                sorted((k.only for k in self.members if k.is_singleton), key=canon_key)
            )
        return self._strings

    def concat_pairs(self) -> list[tuple[Language, Language]]:
        """C_c(L): ordered member pairs whose concatenation is a member, in
        canonical order.  Two (min_len, max_len) buckets are joined only
        when (lo1 + lo2, hi1 + hi2), the signature of their products, is
        some member's."""
        if self._concat_pairs is None:
            members = self.members
            is_member = self._member_sets.__contains__
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
                            if is_member(_concat_set(members[i], members[j])):
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
            is_member = self._member_sets.__contains__
            pairs = []
            for i, (k1, a) in enumerate(zip(members, sets)):
                for k2, b in zip(members[i + 1 :], sets[i + 1 :]):
                    ab = a | b
                    if is_member(ab) and ab not in (a, b):
                        pairs.append((k1, k2))
            self._union_pairs = pairs
        return self._union_pairs


def compute_closure(
    base: Language,
    max_members: int = DEFAULT_CONFIG.closure_max_members,
    factor_pool_cap: int = DEFAULT_CONFIG.factor_pool_cap,
) -> Closure:
    """Materialize C(base) by fixpoint iteration.

    Each member K contributes its one-element deletions (when |K| > 1)
    and the factors of its exact factorizations.  The deletions reach
    every nonempty proper subset of K through a chain of members, so the
    fixpoint equals the definition's closure under all unions.  The
    fixpoint works on canonical member tuples: deleting one string keeps
    canonical order, so a deletion needs no sort, and each new member's
    Language is built once, straight from its tuple.

    Raises ResourceCapError as soon as the member count exceeds
    max_members; the block-language closures grow like 2^n, so the cap
    matters.
    """
    seen: dict[tuple[str, ...], Language] = {}
    queue: list[Language] = []

    def add(members: tuple[str, ...]) -> None:
        if members in seen:
            return
        lang = Language._from_canonical(members)
        seen[members] = lang
        if len(seen) > max_members:
            raise ResourceCapError(
                f"closure of {base!r} exceeds {max_members} members"
            )
        queue.append(lang)

    add(base.members)
    while queue:
        lang = queue.pop()
        members = lang.members
        if len(members) > 1:
            for i in range(len(members)):
                add(members[:i] + members[i + 1 :])
        for left, right in _factor_pairs(lang, factor_pool_cap):
            add(left)
            add(right)
    return Closure(base, list(seen.values()))


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
