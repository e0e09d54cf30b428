"""Exhaustive optimal-regex search by dynamic programming.

In the plus/concat grammar the top of a shortest expression for a
finite language takes one of three shapes: the language is a single
string spelled out symbol by symbol, or an exact product K1*K2, or a
union of two proper sublanguages whose members jointly cover it (the
two sides may overlap).  The search recurses through every shape,
memoizes the optimal length of each language it reaches, and
reconstructs a witness expression from the recorded argmin choices.

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
from .closure import compute_closure, factorizations
from .config import DEFAULT_CONFIG, ResourceCapError, RunConfig
from .lang import Language
from .regex import Concat, Regex, Union, language_of, render, word
from .solver import SolverError, solve

__all__ = [
    "OracleResult",
    "OracleLpReport",
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
# None for a spelled-out single string, otherwise ("cat" | "alt", K1, K2).
_Choice = tuple[str, Language, Language] | None


@dataclass(frozen=True, slots=True)
class _Entry:
    length: int
    choice: _Choice


def _covers(lang: Language):
    """Ordered pairs (K1, K2) of proper nonempty sublanguages with K1 + K2 = lang.

    K2 is forced to contain everything K1 misses and may additionally
    repeat any proper portion of K1, so overlapping covers are included;
    K2 == lang would pair the whole language with itself and never
    improves, so it is skipped.
    """
    members = lang.members
    for k1 in lang.subsets(proper=True):
        inside = k1.members
        rest = tuple(m for m in members if m not in k1)
        for r in range(len(inside)):
            for extra in combinations(inside, r):
                yield k1, Language(rest + extra)


def _best_for(
    lang: Language,
    memo: dict[tuple[str, ...], _Entry],
    pool_cap: int,
) -> _Entry:
    hit = memo.get(lang.members)
    if hit is not None:
        return hit

    # Candidates compare as (length, shape, left, right): concatenation
    # (shape 1) beats union (shape 2) at equal length, then the
    # lexicographically smaller left operand wins, so witnesses never
    # depend on enumeration order.  A single string is its own spelling
    # (shape 0); splits of it are still searched but can only tie.  The
    # operands are serialized only to break a (length, shape) tie.
    best: tuple[int, int] | None = None
    choice: _Choice = None
    if lang.is_singleton:
        best = (len(lang.only), 0)

    for k1, k2 in factorizations(lang, pool_cap):
        total = (
            _best_for(k1, memo, pool_cap).length + _best_for(k2, memo, pool_cap).length
        )
        if _beats((total, 1), k1, k2, best, choice):
            best, choice = (total, 1), ("cat", k1, k2)

    for k1, k2 in _covers(lang):
        total = (
            _best_for(k1, memo, pool_cap).length + _best_for(k2, memo, pool_cap).length
        )
        if _beats((total, 2), k1, k2, best, choice):
            best, choice = (total, 2), ("alt", k1, k2)

    entry = _Entry(best[0], choice)
    memo[lang.members] = entry
    return entry


def _beats(key, k1: Language, k2: Language, best, choice: _Choice) -> bool:
    """Whether (key, K1, K2) comes before the best so far; a (length,
    shape) tie has shape >= 1, so choice holds the tied operands."""
    if key != best:
        return best is None or key < best
    return (k1.serialize(), k2.serialize()) < (choice[1].serialize(), choice[2].serialize())


def _rebuild(lang: Language, memo: dict[tuple[str, ...], _Entry]) -> Regex:
    entry = memo[lang.members]
    if entry.choice is None:
        return word(lang.only)
    shape, k1, k2 = entry.choice
    left = _rebuild(k1, memo)
    right = _rebuild(k2, memo)
    return Concat(left, right) if shape == "cat" else Union(left, right)


def optimal_regex(lang: Language, config: RunConfig | None = None) -> OracleResult:
    """Shortest expression for ``lang`` with a witness, by exhaustive search.

    Every language is reduced through all exact factorizations and all
    two-sided covers, so the reported length is the true optimum within
    the grammar.  Cost grows roughly as 3^|lang| per memoized language;
    the configured caps keep calls at desk scale.
    """
    cfg = config or DEFAULT_CONFIG
    if len(lang) > cfg.oracle_max_strings:
        raise ResourceCapError(
            f"oracle input has {len(lang)} strings (cap {cfg.oracle_max_strings})"
        )
    if lang.max_len() > cfg.oracle_max_len:
        raise ResourceCapError(
            f"oracle input has a string of length {lang.max_len()} "
            f"(cap {cfg.oracle_max_len})"
        )
    memo: dict[tuple[str, ...], _Entry] = {}
    entry = _best_for(lang, memo, cfg.factor_pool_cap)
    witness = _rebuild(lang, memo)
    if language_of(witness) != lang:  # pure composition should make this impossible
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
    closure = compute_closure(lang, cfg.closure_max_members, cfg.factor_pool_cap)
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
