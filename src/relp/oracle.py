"""Exhaustive optimal-regex search by dynamic programming.

In the plus/concat grammar the top of a shortest expression for a
finite language takes one of three shapes: the language is a single
string spelled out symbol by symbol, or an exact product K1*K2, or a
union of two proper sublanguages whose members jointly cover it (the
two sides may overlap).  The search recurses through every shape and
memoizes the optimal length of each language it reaches; the witness is
rebuilt from the recorded argmin choices on an explicit stack.
The languages it memoizes are then exactly the closure C(L), so it
refuses, with ``compute_closure``'s message, once it memoizes more than
closure_max_members languages: exactly when the closure is refused.

The exact products come from ``factorizations``, a search over the cuts
u0·v0 of the canonically first member.

The covers are read over bitmasks of the t members.  The best length of
every proper nonempty subset is looked up in the memo by its member
tuple, one pass over the bits gives each subset S its best proper
superset, and one min over K1 pairs it with the best K2 that holds
the rest of K.  So a memoized language costs 2^t memo lookups and
O(t·2^t) comparisons on top of its factorization search, rather than
a ``Language`` for each of its 3^t cover pairs.

``oracle_vs_lp`` cross-checks the search against the linear programs:
the strong program over the closure must reach exactly the optimal
length, and the weak program stays at or below it.

The memo table is private to each call and written single-threaded;
concurrent searches must not share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .builders import build_strong_primal, build_weak_primal
from .closure import compute_closure
from .config import DEFAULT_CONFIG, ResourceCapError, RunConfig
from .lang import Language, canon_key
from .regex import Concat, Regex, Union, language_of, render, word
from .solver import SolverError, solve

__all__ = [
    "OracleResult",
    "OracleLpReport",
    "factorizations",
    "optimal_regex",
    "oracle_vs_lp",
]


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Optimal length, a witness expression reaching it, and search size."""

    length: int
    witness: Regex
    explored: int  # distinct languages memoized during the search

    @property
    def pattern(self) -> str:
        return render(self.witness)


# A memo entry records the optimal length and how it was achieved:
# None for a spelled-out single string, otherwise ("cat" | "alt", K1, K2)
# with each operand as its canonical member tuple, the memo's key.
_Choice = tuple[str, tuple[str, ...], tuple[str, ...]] | None


@dataclass(frozen=True, slots=True)
class _Entry:
    length: int
    choice: _Choice


def _factor_pairs(lang: Language) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
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


def factorizations(lang: Language) -> list[tuple[Language, Language]]:
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
    """
    out = [
        (Language._from_canonical(left), Language._from_canonical(right))
        for left, right in _factor_pairs(lang)
    ]
    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return out


def _ser(members: tuple[str, ...]) -> str:
    """``Language.serialize`` of a canonical member tuple."""
    return "{" + ",".join(members) + "}"


def _length(members: tuple[str, ...], memo: dict[tuple[str, ...], _Entry], cap: int) -> int:
    """The optimal length of the language with these canonical members;
    a ``Language`` is built only when the memo misses."""
    hit = memo.get(members)
    if hit is None:
        hit = _best_for(Language._from_canonical(members), memo, cap)
    return hit.length


def _best_cover(members: tuple[str, ...], memo: dict[tuple[str, ...], _Entry], cap: int) -> tuple:
    """The best union of two proper sublanguages that cover the language,
    as the candidate (total, 2, ser K1, ser K2, ("alt", K1, K2)).

    Bit i of a mask stands for members[i].  K2 must hold everything K1
    misses and may repeat any proper part of K1, so for each K1 the best
    K2 is the best proper superset B of its complement S.  One pass over
    the bits carries the minimal (length, ser) down from every B to each
    S within it; the full mask never enters, as K2 == K never improves.
    """
    full = (1 << len(members)) - 1
    subs: list[tuple[str, ...]] = [()] * full
    keys: list = [None] * (full + 1)  # (length, ser, mask); None at the full mask
    for mask in range(1, full):
        low = mask & -mask
        sub = subs[mask] = (members[low.bit_length() - 1],) + subs[mask ^ low]
        keys[mask] = (_length(sub, memo, cap), _ser(sub), mask)
    up = keys[:]  # up[S]: the minimal key over S <= B < full
    bit = 1
    while bit < full:
        for s in range(1, full):
            if not s & bit:
                b = up[s | bit]
                if b is not None and b < up[s]:
                    up[s] = b
        bit <<= 1
    total, ser1, ser2, k1, k2 = min(
        (length + up[full ^ k1][0], ser1, up[full ^ k1][1], k1, up[full ^ k1][2])
        for length, ser1, k1 in keys[1:full]
    )
    return total, 2, ser1, ser2, ("alt", subs[k1], subs[k2])


def _best_for(lang: Language, memo: dict[tuple[str, ...], _Entry], cap: int) -> _Entry:
    """Search lang, which is not in the memo yet, and memoize its entry;
    a bare ResourceCapError once the memo holds more than cap entries."""
    members = lang.members
    # Candidates compare as (length, shape, left, right) with the operands
    # serialized: concatenation (shape 1) beats union (shape 2) at equal
    # length, then the lexicographically smaller left operand wins, so
    # witnesses never depend on enumeration order.  No two candidates tie
    # before their choice.
    if len(members) == 1:
        # A single string is its own spelling (shape 0): its only
        # factorizations are its cuts, which can only tie, and the search
        # through them reaches exactly its substrings, each spelled out
        # the same way.
        w = members[0]
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                memo[(w[i:j],)] = _Entry(j - i, None)
                if len(memo) > cap:
                    raise ResourceCapError
        return memo[members]
    best = _best_cover(members, memo, cap)
    for left, right in _factor_pairs(lang):
        total = _length(left, memo, cap) + _length(right, memo, cap)
        if total <= best[0]:
            best = min(best, (total, 1, _ser(left), _ser(right), ("cat", left, right)))
    entry = memo[members] = _Entry(best[0], best[4])
    if len(memo) > cap:
        raise ResourceCapError
    return entry


def _rebuild(members: tuple[str, ...], memo: dict[tuple[str, ...], _Entry]) -> Regex:
    """The witness read off the recorded choices, with an explicit stack:
    each language it reaches is built once, and shared by every parent."""
    built: dict[tuple[str, ...], Regex] = {}
    stack = [members]
    while stack:
        key = stack.pop()
        if key in built:
            continue
        choice = memo[key].choice
        if choice is None:
            built[key] = word(key[0])
        elif choice[1] in built and choice[2] in built:
            shape, left, right = choice
            built[key] = (Concat if shape == "cat" else Union)(built[left], built[right])
        else:
            stack += (key, choice[2], choice[1])
    return built[members]


def optimal_regex(lang: Language, config: RunConfig | None = None) -> OracleResult:
    """Shortest expression for ``lang`` with a witness, by exhaustive search.

    Every language is reduced through all exact factorizations and all
    two-sided covers, so the reported length is the true optimum within
    the grammar.  A memoized language of t strings costs 2^t memo
    lookups and O(t·2^t) comparisons for its covers, plus its
    factorization search.  The caps on input strings and closure
    members keep calls at desk scale; a search nested past the recursion
    limit is refused as a resource cap too; the witness may nest deeper.
    """
    cfg = config or DEFAULT_CONFIG
    if len(lang) > cfg.oracle_max_strings:
        raise ResourceCapError(
            f"oracle input has {len(lang)} strings (cap {cfg.oracle_max_strings})"
        )
    cap = cfg.closure_max_members
    memo: dict[tuple[str, ...], _Entry] = {}
    try:
        entry = _best_for(lang, memo, cap)
        witness = _rebuild(lang.members, memo)
        expands = language_of(witness)
    except ResourceCapError:
        raise ResourceCapError(f"closure of {lang!r} exceeds {cap} members") from None
    except RecursionError:
        raise ResourceCapError(f"search of {lang!r} nests past the recursion limit") from None
    if expands != lang:  # pure composition should make this impossible
        raise SolverError(f"oracle witness expands to the wrong language for {lang!r}")
    return OracleResult(length=entry.length, witness=witness, explored=len(memo))


@dataclass(frozen=True, slots=True)
class OracleLpReport:
    """Search optimum next to the strong and weak LP optima for one language."""

    language: Language
    oracle: OracleResult
    strong_objective: Fraction
    weak_objective: Fraction

    @property
    def strong_matches(self) -> bool:
        return self.strong_objective == self.oracle.length

    @property
    def weak_bounded(self) -> bool:
        return self.weak_objective <= self.oracle.length

    @property
    def ok(self) -> bool:
        return self.strong_matches and self.weak_bounded


def oracle_vs_lp(lang: Language, config: RunConfig | None = None) -> OracleLpReport:
    """Solve both programs for ``lang`` and compare against the search.

    The strong optimum must equal the optimal length exactly; the weak
    optimum must not exceed it.  Cap and solver errors propagate.
    """
    cfg = config or DEFAULT_CONFIG
    result = optimal_regex(lang, cfg)
    closure = compute_closure(lang, cfg.closure_max_members)
    strong = solve(build_strong_primal(closure), cfg)
    weak = solve(build_weak_primal(closure), cfg)
    if strong.status != "optimal" or weak.status != "optimal":
        raise SolverError(
            f"expected optimal solves for {lang!r}: "
            f"strong={strong.status}, weak={weak.status}"
        )
    return OracleLpReport(
        language=lang,
        oracle=result,
        strong_objective=strong.objective,
        weak_objective=weak.objective,
    )
