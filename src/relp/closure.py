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

Derived index sets used by the linear programs:

* strings: C0(L), the s with {s} in C(L) (one LP variable per string);
* concat_pairs: ordered member pairs (K1,K2) with K1·K2 in C(L);
* union_pairs: ordered member pairs (K1,K2) with K1+K2 in C(L).

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

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

from .config import ResourceCapError
from .lang import Language, binomial, canon_key


def _quotients(u: str, lang: Language) -> frozenset[str]:
    """The left quotient u^{-1}K: suffixes v with u+v a member."""
    lu = len(u)
    return frozenset(s[lu:] for s in lang.members if len(s) > lu and s.startswith(u))


def factorizations(
    lang: Language, max_prefix_pool: int = 20
) -> list[tuple[Language, Language]]:
    """All ordered pairs (K1, K2) of languages with K1·K2 == lang, exactly.

    Every valid right factor K2 contains at least one proper suffix of the
    canonically first member, so we anchor the search there: for each such
    suffix v0, candidate left factors are subsets of {u : u v0 in K}.  For
    each candidate K1 the inclusion-maximal right factor is the
    intersection of left quotients; any subset of it whose product still
    covers K is a valid K2.

    The candidate pool per anchor is at most |K| strings; if it exceeds
    max_prefix_pool the subset enumeration is refused as a resource cap.
    """
    members = lang.members
    first = members[0]
    member_set = set(members)
    found: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    out: list[tuple[Language, Language]] = []

    for cut in range(1, len(first)):
        v0 = first[cut:]
        lv = len(v0)
        pool = sorted(
            {s[:-lv] for s in members if len(s) > lv and s.endswith(v0)},
            key=canon_key,
        )
        if not pool:
            continue
        if len(pool) > max_prefix_pool:
            raise ResourceCapError(
                f"factorization prefix pool has {len(pool)} candidates "
                f"(cap {max_prefix_pool}) for {lang!r}"
            )
        quots = {u: _quotients(u, lang) for u in pool}
        for r in range(1, len(pool) + 1):
            for left in combinations(pool, r):
                right_max = frozenset.intersection(*(quots[u] for u in left))
                if not right_max:
                    continue
                produced = {u + v for u in left for v in right_max}
                if not member_set <= produced:
                    continue  # even the maximal right factor cannot cover K
                # forced suffixes: members writable in only one way over left
                ways: dict[str, set[str]] = {s: set() for s in members}
                for u in left:
                    for v in right_max:
                        ways[u + v].add(v)
                forced: set[str] = set()
                for s in members:
                    if len(ways[s]) == 1:
                        forced |= ways[s]
                optional = sorted(right_max - forced, key=canon_key)
                for r2 in range(len(optional) + 1):
                    for extra in combinations(optional, r2):
                        right = forced | set(extra)
                        if not right:
                            continue
                        covered = {u + v for u in left for v in right}
                        if covered != member_set:
                            continue
                        key = (tuple(left), tuple(sorted(right, key=canon_key)))
                        if key not in found:
                            found.add(key)
                            out.append((Language(left), Language(right)))

    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return out


class Closure:
    """The materialized closure C(L), with its index sets computed lazily."""

    def __init__(self, base: Language, members: list[Language]):
        self.base = base
        self.members: tuple[Language, ...] = tuple(sorted(members, key=Language.sort_key))
        self._member_set = frozenset(self.members)
        self._strings: tuple[str, ...] | None = None
        self._concat_pairs: list[tuple[Language, Language]] | None = None
        self._union_pairs: list[tuple[Language, Language]] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, lang: Language) -> bool:
        return lang in self._member_set

    def __repr__(self) -> str:
        return f"Closure(base={self.base.serialize()}, members={len(self.members)})"

    def strings(self) -> tuple[str, ...]:
        """C0(L): the strings whose singleton language is a member."""
        if self._strings is None:
            self._strings = tuple(
                sorted((k.only for k in self.members if k.is_singleton), key=canon_key)
            )
        return self._strings

    def _pair_join(
        self,
        combine: Callable[[Language, Language], Language],
        signature: Callable[[int, int, int, int], tuple[int, int]],
    ) -> list[tuple[Language, Language]]:
        """Ordered member pairs whose combination is a member.

        Members are bucketed by (min_len, max_len); two buckets are joined
        only when ``signature(lo1, hi1, lo2, hi2)``, the signature every
        combination of their members has, is some member's.
        """
        buckets: dict[tuple[int, int], list[Language]] = {}
        for k in self.members:
            buckets.setdefault((k.min_len(), k.max_len()), []).append(k)
        pairs = []
        for (lo1, hi1), group1 in buckets.items():
            for (lo2, hi2), group2 in buckets.items():
                if signature(lo1, hi1, lo2, hi2) not in buckets:
                    continue
                for k1 in group1:
                    for k2 in group2:
                        if combine(k1, k2) in self._member_set:
                            pairs.append((k1, k2))
        pairs.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
        return pairs

    def concat_pairs(self) -> list[tuple[Language, Language]]:
        """C_c(L): ordered member pairs whose concatenation is a member."""
        if self._concat_pairs is None:
            self._concat_pairs = self._pair_join(
                Language.concat, lambda lo1, hi1, lo2, hi2: (lo1 + lo2, hi1 + hi2)
            )
        return self._concat_pairs

    def union_pairs(self) -> list[tuple[Language, Language]]:
        """C_u(L): ordered member pairs whose union is a member."""
        if self._union_pairs is None:
            self._union_pairs = self._pair_join(
                Language.union,
                lambda lo1, hi1, lo2, hi2: (min(lo1, lo2), max(hi1, hi2)),
            )
        return self._union_pairs


def compute_closure(
    base: Language, max_members: int = 100_000, factor_pool_cap: int = 20
) -> Closure:
    """Materialize C(base) by fixpoint iteration.

    Each member K contributes its one-element deletions (when |K| > 1)
    and the factors of its exact factorizations.  The deletions reach
    every nonempty proper subset of K through a chain of members, so the
    fixpoint equals the definition's closure under all unions.

    Raises ResourceCapError as soon as the member count exceeds
    max_members; the block-language closures grow like 2^n, so the cap
    matters.
    """
    seen: dict[Language, None] = {}
    queue: list[Language] = []

    def add(lang: Language) -> None:
        if lang in seen:
            return
        seen[lang] = None
        if len(seen) > max_members:
            raise ResourceCapError(
                f"closure of {base!r} exceeds {max_members} members"
            )
        queue.append(lang)

    add(base)
    while queue:
        lang = queue.pop()
        members = lang.members
        if len(members) > 1:
            for i in range(len(members)):
                add(Language(members[:i] + members[i + 1 :]))
        for k1, k2 in factorizations(lang, max_prefix_pool=factor_pool_cap):
            add(k1)
            add(k2)
    return Closure(base, list(seen))


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
