"""Shared strategies and independent oracles for the test suite.

The oracles here deliberately avoid the library's own search code:
``reference_language_of``, ``reference_flip``, ``reference_render``
and ``reference_walk`` are the expression walks as they recursed once
per tree level, the last one the certificate walk that rebuilt and
re-split every concatenation chain, and ``nodes`` lists every node
reachable from an expression;
``naive_closure`` runs the definitional fixpoint with a brute-force
product scan, ``reference_closure`` is the closure fixpoint of
one-element deletions and factorization searches that the generator
fixpoint replaced, ``brute_factorizations`` enumerates subset pairs of
prefixes and suffixes, ``reference_optimal_regex`` is the search
oracle with the union step that listed all 3^t cover pairs of a
t-string language, and ``vertex_optimum`` maximizes over the
vertices of a fully bounded polytope by exact Gaussian elimination.
``negate_one_multiplier`` corrupts both solver routes' candidate optima,
so tests can check that ``solve`` refuses them.  ``reference_check``
recomputes ``check_feasible``'s exact verdict in plain ``Fraction``
arithmetic, one row at a time, without the common denominator, and
``reference_certify`` does the same for ``certify_optimal``.
``named_check_feasible`` and ``named_certify_optimal`` are the check and
the gate as they were when rows were dicts keyed by variable name.
``reference_strong_primal`` is the strong program as it was built over
``reference_union_pairs``, every ordered member pair whose union is a
member, comparable and repeated pairs included.  ``reference_concat_pairs``
is the bucket join that listed the concatenation pairs from the listed
members.  ``reference_quadruples`` and ``reference_strings`` are the
block index's tables as they were built candidate by candidate and
string by string.  ``reference_calibrate_alphas`` is the calibration
as it was when g was written per string, per block sum and per affine
row form.  ``ReferenceTableau`` and ``reference_solve_direct``
are the exact tableau as it was when its basic values were
``Fraction``s, with their own copies of the row kernels, for
differential tests of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, repeat
from math import comb, floor, gcd, lcm, log, log2
from operator import mul

from hypothesis import strategies as st

from relp import Concat, Language, LinearProgram, OracleResult, Union, Word, certificates, solver
from relp.builders import _net_row
from relp.certificates import AlphaTable, CalibrationError
from relp.closure import BinomialIndex, Closure, _concat_set, block_spans, product_spans
from relp.config import DEFAULT_CONFIG, ResourceCapError, RunConfig
from relp.lang import binomial, canon_key, ones
from relp.lp import (
    LE,
    Assignment,
    FeasibilityReport,
    Violation,
    _normal,
    check_feasible,
    objective_value,
    row_quad,
)
from relp.oracle import _factor_pairs, factorizations
from relp.regex import Regex, alt, cat, language_of
from relp.solver import (
    _STALL_PIVOTS,
    AT_LO,
    AT_UP,
    BASIC,
    SolveResult,
    SolverError,
)

# -- hypothesis strategies --------------------------------------------------

# coprime and mixed denominators for program data and points
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 12)


def rationals(bound: int = 4):
    return st.builds(
        Fraction, st.integers(-12 * bound, 12 * bound), st.sampled_from(DENOMINATORS)
    )



def binary_strings(max_len: int = 3):
    return st.text(alphabet="01", min_size=1, max_size=max_len)


def languages(max_strings: int = 4, max_len: int = 3):
    return st.sets(
        binary_strings(max_len), min_size=1, max_size=max_strings
    ).map(Language)


def _chains(inner):
    parts = st.lists(inner, min_size=2, max_size=3)
    return parts.map(cat) | parts.map(alt)


def regexes(max_leaves: int = 8, alphabet: str = "01"):
    """Expressions built by ``cat`` and ``alt`` from two or three smaller
    ones, over words of one or two symbols."""
    leaves = st.text(alphabet=alphabet, min_size=1, max_size=2).map(Word)
    return st.recursive(leaves, _chains, max_leaves=max_leaves)


def alternating_tree(depth: int) -> Regex:
    """A tree of ``depth`` symbols whose levels alternate concatenation and
    union along its left spine: each union adds the string 1.  The first
    concatenation is the word 00, so the tree is one level shallower."""
    node: Regex = Word("0")
    for i in range(depth - 1):
        node = cat([node, Word("0")]) if i % 2 == 0 else alt([node, Word("1")])
    return node


# -- expression walks as they recursed once per tree level --------------------


def reference_language_of(r: Regex) -> Language:
    if isinstance(r, Word):
        return Language([r.s])
    langs = [reference_language_of(part) for part in r.parts]
    return reduce(Language.concat if isinstance(r, Concat) else Language.union, langs)


def reference_flip(r: Regex) -> Regex:
    swap = {"0": "1", "1": "0"}
    if isinstance(r, Word):
        return Word("".join(swap.get(ch, ch) for ch in r.s))
    return type(r)(tuple(reference_flip(part) for part in r.parts))


def reference_render(r: Regex) -> str:
    if isinstance(r, Word):
        return r.s
    if isinstance(r, Union):
        return "(" + "+".join(reference_render(b) for b in r.parts) + ")"
    return "".join(reference_render(f) for f in r.parts)


def nodes(r: Regex) -> list[Regex]:
    """Every node reachable from r, each once, walked on an explicit stack."""
    seen: dict[int, Regex] = {}
    stack = [r]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += getattr(node, "parts", ())
    return list(seen.values())


def _reference_split_concat(node: Concat) -> tuple[Regex, Regex]:
    """Split a concatenation before the last part of its factor chain,
    adjacent words merged into terms, rebuilding the rest as a chain."""
    parts: list[Regex] = []
    for factor in node.parts:
        if isinstance(factor, Word) and parts and isinstance(parts[-1], Word):
            parts[-1] = Word(parts[-1].s + factor.s)
        else:
            parts.append(factor)
    left = parts[0] if len(parts) == 2 else Concat(tuple(parts[:-1]))
    return left, parts[-1]


def reference_walk(
    r: Regex,
) -> tuple[Language, dict[str, Fraction], list[tuple[Language, Language]]]:
    """``certificates._walk`` as it re-split every rebuilt chain and read
    node languages through a recursive memo keyed by node id."""
    memo: dict[int, tuple[Regex, Language]] = {}

    def lang_of(node: Regex) -> Language:
        if id(node) not in memo:
            if isinstance(node, Word):
                memo[id(node)] = (node, Language([node.s]))
            else:
                op = Language.concat if isinstance(node, Concat) else Language.union
                memo[id(node)] = (node, reduce(op, map(lang_of, node.parts)))
        return memo[id(node)][1]

    terms: dict[str, Fraction] = {}
    splits: list[tuple[Language, Language]] = []
    stack: list[Regex] = [r]
    while stack:
        node = stack.pop()
        if isinstance(node, Word):
            terms[node.s] = terms.get(node.s, Fraction(0)) + 1
        elif isinstance(node, Union):
            stack += node.parts
        else:
            left, right = _reference_split_concat(node)
            splits.append((lang_of(left), lang_of(right)))
            stack.append(left)
            stack.append(right)
    return lang_of(r), terms, splits


# -- closure oracle ---------------------------------------------------------


def brute_factorizations(lang: Language) -> set[tuple[Language, Language]]:
    """All (K1, K2) with K1*K2 == lang.

    K1 ranges over every nonempty subset of the proper prefixes; for each, the
    candidate right sides are confined to strings every chosen prefix accepts,
    so the inner enumeration stays small even when the prefix pool is large.
    """
    prefixes = sorted({s[:i] for s in lang.members for i in range(1, len(s))})
    if 2 ** len(prefixes) > 2**14:
        raise AssertionError(f"brute factorization oracle too big for {lang!r}")
    target = set(lang.members)
    found = set()
    for pr in range(1, len(prefixes) + 1):
        for pick1 in combinations(prefixes, pr):
            allowed = sorted(
                {
                    s[len(p):]
                    for s in target
                    for p in pick1
                    if s.startswith(p) and len(s) > len(p)
                    if all(q + s[len(p):] in target for q in pick1)
                }
            )
            if not allowed or 2 ** len(allowed) > 2**14:
                if allowed:
                    raise AssertionError(
                        f"brute factorization oracle too big for {lang!r}"
                    )
                continue
            for sr in range(1, len(allowed) + 1):
                for pick2 in combinations(allowed, sr):
                    product = {u + v for u in pick1 for v in pick2}
                    if product == target:
                        found.add((Language(pick1), Language(pick2)))
    return found


def naive_closure(lang: Language) -> set[Language]:
    """Definitional fixpoint: all subsets of members, both exact factors."""
    members = {lang}
    queue = [lang]
    while queue:
        current = queue.pop()
        fresh = set()
        if len(current) > 1:
            fresh.update(current.subsets(proper=True))
        if current.max_len() > 1:
            fresh.update(k for pair in brute_factorizations(current) for k in pair)
        for k in fresh:
            if k not in members:
                members.add(k)
                queue.append(k)
    return members


def reference_closure(
    base: Language,
    max_members: int = DEFAULT_CONFIG.closure_max_members,
) -> tuple[Language, ...]:
    """The members of C(base) in canonical order, from the fixpoint of
    one-element deletions and exact factorizations.  The body is the
    deleted ``compute_closure``'s; the sort at the end is the one its
    ``Closure`` applied."""
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
        for left, right in _factor_pairs(lang):
            add(left)
            add(right)
    return tuple(sorted(seen.values(), key=Language.sort_key))


# -- the search oracle over listed cover pairs ---------------------------------

# The bodies below are the search as it was when the union step listed
# every cover pair (K1, K2) and built a ``Language`` for each, 3^t pairs
# for a language of t strings; only the names changed.


@dataclass(frozen=True, slots=True)
class _ReferenceEntry:
    length: int
    choice: tuple[str, Language, Language] | None


def _reference_covers(lang: Language):
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


class _CappedMemo(dict):
    """A memo that refuses to hold more than max_members entries, with
    the refusal ``compute_closure`` gives the base language."""

    def __init__(self, base: Language, max_members: int):
        super().__init__()
        self.base = base
        self.max_members = max_members

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        if len(self) > self.max_members:
            raise ResourceCapError(
                f"closure of {self.base!r} exceeds {self.max_members} members"
            )


def _reference_best_for(
    lang: Language, memo: dict[tuple[str, ...], _ReferenceEntry]
) -> _ReferenceEntry:
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
    choice = None
    if lang.is_singleton:
        best = (len(lang.only), 0)

    for k1, k2 in factorizations(lang):
        total = (
            _reference_best_for(k1, memo).length
            + _reference_best_for(k2, memo).length
        )
        if _reference_beats((total, 1), k1, k2, best, choice):
            best, choice = (total, 1), ("cat", k1, k2)

    for k1, k2 in _reference_covers(lang):
        total = (
            _reference_best_for(k1, memo).length
            + _reference_best_for(k2, memo).length
        )
        if _reference_beats((total, 2), k1, k2, best, choice):
            best, choice = (total, 2), ("alt", k1, k2)

    entry = _ReferenceEntry(best[0], choice)
    memo[lang.members] = entry
    return entry


def _reference_beats(key, k1: Language, k2: Language, best, choice) -> bool:
    """Whether (key, K1, K2) comes before the best so far; a (length,
    shape) tie has shape >= 1, so choice holds the tied operands."""
    if key != best:
        return best is None or key < best
    return (k1.serialize(), k2.serialize()) < (choice[1].serialize(), choice[2].serialize())


def _reference_rebuild(lang: Language, memo: dict[tuple[str, ...], _ReferenceEntry]) -> Regex:
    entry = memo[lang.members]
    if entry.choice is None:
        return Word(lang.only)
    shape, k1, k2 = entry.choice
    left = _reference_rebuild(k1, memo)
    right = _reference_rebuild(k2, memo)
    return (cat if shape == "cat" else alt)([left, right])


def reference_optimal_regex(lang: Language, config: RunConfig | None = None) -> OracleResult:
    """``optimal_regex`` with the union step that listed every cover pair:
    the same caps, memo, witness check and result."""
    cfg = config or DEFAULT_CONFIG
    if len(lang) > cfg.oracle_max_strings:
        raise ResourceCapError(
            f"oracle input has {len(lang)} strings (cap {cfg.oracle_max_strings})"
        )
    memo = _CappedMemo(lang, cfg.closure_max_members)
    entry = _reference_best_for(lang, memo)
    witness = _reference_rebuild(lang, memo)
    if language_of(witness) != lang:  # pure composition should make this impossible
        raise SolverError(f"oracle witness expands to the wrong language for {lang!r}")
    return OracleResult(length=entry.length, witness=witness, explored=len(memo))


# -- exact vertex-enumeration LP oracle --------------------------------------


def _solve_square(rows: list[tuple[list[Fraction], Fraction]]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system is singular."""
    n = len(rows)
    a = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def vertex_optimum(lp) -> tuple[str, Fraction | None]:
    """(status, objective) by enumerating vertices of a bounded polytope.

    Every variable must carry finite bounds so the feasible region is a
    polytope; then the optimum (if the region is nonempty) is attained
    at a vertex, i.e. at n linearly independent tight constraints.
    """
    names = list(lp.variables)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    sign = 1 if lp.sense == "max" else -1

    constraints: list[tuple[list[Fraction], Fraction]] = []  # c.x <= b form
    for name in names:
        lo, hi = lp.bounds[name]
        assert hi is not None, "vertex oracle needs finite bounds"
        unit = [Fraction(0)] * n
        unit[index[name]] = Fraction(-1)
        constraints.append((unit, Fraction(-lo)))
        unit = [Fraction(0)] * n
        unit[index[name]] = Fraction(1)
        constraints.append((unit, Fraction(hi)))
    for row in lp.rows:
        coeffs = [Fraction(0)] * n
        for name, c in row.coeffs.items():
            coeffs[index[name]] += c
        if row.rel == "<=":
            constraints.append((coeffs, row.rhs))
        else:
            constraints.append(([-c for c in coeffs], -row.rhs))

    objective = [Fraction(0)] * n
    for name, c in lp.objective.items():
        objective[index[name]] += sign * c

    best: Fraction | None = None
    for picked in combinations(range(len(constraints)), n):
        point = _solve_square([constraints[i] for i in picked])
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= rhs
            for coeffs, rhs in constraints
        ):
            value = sum(c * x for c, x in zip(objective, point))
            if best is None or value > best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", sign * best


# -- Fraction reference for the exact feasibility check ---------------------


def reference_check(lp, assignment, tolerance=None):
    """(feasible, objective, [(kind, where, amount)]) of an exact assignment.

    Every value, coefficient and amount is a Fraction; violations come in
    check_feasible's order: bounds in variable order, then rows.
    """
    tol = Fraction(tolerance or 0)

    def value(name: str) -> Fraction:
        return Fraction(assignment.values.get(name, 0))

    def dot(coeffs) -> Fraction:
        return sum((Fraction(c) * value(n) for n, c in coeffs.items()), Fraction(0))

    found = []
    for name in lp.variables:
        lo, hi = lp.bounds[name]
        v = value(name)
        if v < lo - tol:
            found.append(("lower", name, Fraction(lo) - v))
        if hi is not None and v > hi + tol:
            found.append(("upper", name, v - Fraction(hi)))
    for row in lp.rows:
        lhs = dot(row.coeffs)
        slack = row.rhs - lhs if row.rel == "<=" else lhs - row.rhs
        if slack < -tol:
            found.append(("row", row.label, Fraction(-slack)))
    return not found, dot(lp.objective), found


# -- Fraction reference for the certificate gate ----------------------------


def reference_certify(lp, assignment, duals) -> tuple[bool, str]:
    """certify_optimal as it was written in Fraction arithmetic: every row
    visited, one Fraction per multiplier and per coefficient product."""
    if not assignment.exact:
        return False, "assignment is not exact"
    rep = check_feasible(lp, assignment, tolerance=0)
    if not rep.feasible:
        v = rep.violations[0]
        return False, f"primal infeasible ({v.kind} {v.where} by {v.amount})"
    known = {row.label for row in lp.rows}
    for label, y in duals.items():
        if label not in known and y:
            return False, f"multiplier for unknown row {label}"
    sgn = 1 if lp.sense == "max" else -1
    reduced: dict[str, Fraction] = {
        name: sgn * coef for name, coef in lp.objective.items()
    }
    dual_obj = Fraction(0)
    for row in lp.rows:
        y = Fraction(duals.get(row.label, 0))
        srel = 1 if row.rel == LE else -1
        yhat = sgn * srel * y
        if yhat < 0:
            return False, f"multiplier for row {row.label} has the wrong sign"
        if yhat:
            dual_obj += yhat * srel * row.rhs
            for name, coef in row.coeffs.items():
                reduced[name] = reduced.get(name, Fraction(0)) - yhat * srel * coef
    for name in lp.variables:
        rj = reduced.get(name, Fraction(0))
        lo, hi = lp.bounds[name]
        if rj > 0:
            if hi is None:
                return False, f"positive reduced cost on unbounded variable {name}"
            dual_obj += rj * hi
        elif rj < 0:
            dual_obj += rj * lo
    primal_obj = sgn * objective_value(lp, assignment)
    if dual_obj != primal_obj:
        return False, f"duality gap {dual_obj - primal_obj}"
    return True, "ok"


# -- the name-keyed feasibility check and gate ------------------------------

# ``check_feasible`` and ``certify_optimal`` as they were when rows were
# dicts keyed by variable name: verbatim, renamed, reading each row through
# ``Row.coeffs``; the gate calls the name-keyed check.


def named_check_feasible(
    lp: LinearProgram, assignment: Assignment, tolerance: float | None = None
) -> FeasibilityReport:
    if tolerance is None:
        tolerance = 0.0 if assignment.exact else 1e-9
    exact = assignment.exact
    if exact:
        values = assignment.values
        scale = lcm(*(v.denominator for v in values.values()))
        scaled = {n: v.numerator * (scale // v.denominator) for n, v in values.items()}
        zero = 0
        tol = _normal(Fraction(tolerance) * scale)
        objective = Fraction(_scaled_sum(lp.objective, scaled, zero), scale)
    else:
        # scale 1.0 reads every bound and rhs as a float
        scaled, scale, zero, tol = assignment.values, 1.0, 0.0, tolerance
        objective = objective_value(lp, assignment)
    get = scaled.get
    violations: list[Violation] = []

    def amount(excess):
        return Fraction(excess, scale) if exact else excess

    for name in lp.variables:
        lo, hi = lp.bounds[name]
        v = get(name, zero)
        lo_s = lo * scale
        if v < lo_s - tol:
            violations.append(Violation("lower", name, amount(lo_s - v)))
        if hi is not None:
            hi_s = hi * scale
            if v > hi_s + tol:
                violations.append(Violation("upper", name, amount(v - hi_s)))

    for row in lp.rows:
        lhs = _scaled_sum(row.coeffs, scaled, zero)
        rhs = row.rhs * scale
        slack = rhs - lhs if row.rel == LE else lhs - rhs
        if slack < -tol:
            violations.append(Violation("row", row.label, amount(-slack)))

    unknown = tuple(sorted(set(assignment.values) - set(lp.bounds)))
    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        objective=objective,
        unknown_names=unknown,
    )


def _scaled_sum(coeffs, values, zero):
    """sum of c * values[name] over coeffs, absent names counting as zero."""
    return sum(map(mul, coeffs.values(), map(values.get, coeffs, repeat(zero))))


def named_certify_optimal(lp, assignment, duals) -> tuple[bool, str]:
    if not assignment.exact:
        return False, "assignment is not exact"
    rep = named_check_feasible(lp, assignment, tolerance=0)
    if not rep.feasible:
        v = rep.violations[0]
        return False, f"primal infeasible ({v.kind} {v.where} by {v.amount})"
    known = {row.label for row in lp.rows}
    for label, y in duals.items():
        if label not in known and y:
            return False, f"multiplier for unknown row {label}"
    sgn = 1 if lp.sense == "max" else -1
    # (row, sgn * y) per nonzero multiplier y, in row order: the weight
    # of the row's coefficients and rhs in the reduced costs and dual objective
    active = []
    get = duals.get
    for row in lp.rows:
        y = get(row.label)
        if not y:
            continue
        if type(y) is not int:
            y = Fraction(y)
        srel = 1 if row.rel == LE else -1
        if sgn * srel * y < 0:
            return False, f"multiplier for row {row.label} has the wrong sign"
        active.append((row, sgn * y))
    scale = lcm(*(y.denominator for _, y in active))
    reduced = {name: sgn * coef * scale for name, coef in lp.objective.items()}
    dual_obj = 0
    for row, y in active:
        w = y.numerator * (scale // y.denominator)
        dual_obj += w * row.rhs
        for name, coef in row.coeffs.items():
            reduced[name] = reduced.get(name, 0) - w * coef
    for name in lp.variables:
        rj = reduced.get(name, 0)
        lo, hi = lp.bounds[name]
        if rj > 0:
            if hi is None:
                return False, f"positive reduced cost on unbounded variable {name}"
            dual_obj += rj * hi
        elif rj < 0:
            dual_obj += rj * lo
    gap = Fraction(dual_obj, scale) - sgn * rep.objective
    if gap:
        return False, f"duality gap {gap}"
    return True, "ok"


# -- the strong program over ordered union pairs ---------------------------


def reference_union_pairs(closure: Closure) -> list[tuple[Language, Language]]:
    """Ordered member pairs whose union is a member, as the closure once
    listed them: (K1, K2) and (K2, K1), K1 = K2 and K1 within K2 kept."""
    buckets: dict[tuple[int, int], list[Language]] = {}
    for k in closure.members:
        buckets.setdefault((k.min_len(), k.max_len()), []).append(k)
    pairs = []
    for (lo1, hi1), group1 in buckets.items():
        for (lo2, hi2), group2 in buckets.items():
            if (min(lo1, lo2), max(hi1, hi2)) not in buckets:
                continue
            for k1 in group1:
                for k2 in group2:
                    if Language(k1.members + k2.members) in closure:
                        pairs.append((k1, k2))
    pairs.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return pairs


def reference_concat_pairs(closure: Closure) -> list[tuple[Language, Language]]:
    """Ordered member pairs whose concatenation is a member, in canonical
    order, by the join the closure once ran over its listed members: two
    (min_len, max_len) buckets are joined only when (lo1 + lo2, hi1 + hi2),
    the signature of their products, is some member's, and a product is
    looked up among the listed members' string sets."""
    members = closure.members
    listed = {k._set for k in members}
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
                    if _concat_set(members[i], members[j]) in listed:
                        found.append((i, j))
    found.sort()
    return [(members[i], members[j]) for i, j in found]


def reference_strong_primal(closure: Closure) -> LinearProgram:
    """build_strong_primal with one row per ordered union pair."""
    lp = LinearProgram(sense="max")
    text: dict[frozenset[str], str] = {}
    name: dict[frozenset[str], str] = {}
    for k in closure.members:
        text[k._set] = k.serialize()
        hi = len(k.only) if k.is_singleton else None
        name[k._set] = lp.add_variable(f"X[{text[k._set]}]", 0, hi)
    lp.set_objective({name[closure.base._set]: 1})
    for k1, k2 in closure.concat_pairs():
        a, b = k1._set, k2._set
        acc = _net_row((name[_concat_set(k1, k2)],), (name[a], name[b]))
        lp.add_row(f"c[{text[a]},{text[b]}]", acc, LE, 0)
    for k1, k2 in reference_union_pairs(closure):
        a, b = k1._set, k2._set
        acc = _net_row((name[a | b],), (name[a], name[b]))
        lp.add_row(f"u[{text[a]},{text[b]}]", acc, LE, 0)
    return lp


# -- the block index, candidate by candidate --------------------------------------


def reference_quadruples(index: BinomialIndex) -> list[tuple[int, int, int, int]]:
    """BinomialIndex.quadruples as it was: every candidate tested with
    ``fits``, then sorted."""
    quads = []
    for n1 in range(1, index.n):
        for n2 in range(1, index.n - n1 + 1):
            for k1 in range(0, min(n1, index.k) + 1):
                for k2 in range(0, min(n2, index.k - k1) + 1):
                    if index.fits(n1 + n2, k1 + k2):
                        quads.append((n1, k1, n2, k2))
    quads.sort()
    return quads


def reference_strings(index: BinomialIndex) -> tuple[str, ...]:
    """BinomialIndex.strings as it was: sorted by ``canon_key``."""
    out = [s for m, l in index.blocks() for s in binomial(m, l).members]
    return tuple(sorted(out, key=canon_key))


# -- the weight-k point g and its calibration, string by string ------------------

# The g and calibration section of ``relp.certificates`` as it was when
# g's formula was written per string, per block sum and per affine row
# form: ``_alpha``, ``_unit``, ``_unit_sum``, ``g_value``, ``g_objective``,
# ``_product_g_sum``, ``_row_affine`` and ``calibrate_alphas`` verbatim,
# renamed, beside the unchanged span tables of ``relp.closure`` (called
# at weight two and up only, as then).  The slack and the exponent range
# are read off the module at call time, so a test that monkeypatches them
# reaches both sides.


def _reference_alpha(alphas, j: int) -> float:
    if isinstance(alphas, AlphaTable):
        return alphas.alpha(j)
    try:
        return alphas[j - 1]
    except IndexError:
        raise ValueError(f"alpha_{j} is not available") from None


def _reference_unit(span: int, power: int) -> float:
    return (log(span) / span) ** power


def _reference_unit_sum(spans: dict[int, int], power: int) -> float:
    return sum(count * _reference_unit(p, power) for p, count in spans.items())


def _reference_g_value(s: str, alphas) -> float:
    k = ones(s)
    if k == 0:
        return float(len(s))
    if k == 1:
        return 1.0 + log(len(s))
    span = s.rindex("1") - s.index("1") + 1
    return _reference_alpha(alphas, k - 1) * _reference_unit(span, k - 1)


def _reference_g_objective(n: int, k: int, alphas) -> float:
    if k < 2:
        return comb(n, k) * _reference_g_value("1" * k + "0" * (n - k), alphas)
    return sum(
        count * _reference_g_value("1" * (k - 1) + "0" * (p - k) + "1", alphas)
        for p, count in block_spans(n, k).items()
    )


def _reference_product_g_sum(quad, alphas) -> float:
    n1, k1, n2, k2 = quad
    k = k1 + k2
    if k < 2:
        return comb(n1, k1) * comb(n2, k2) * _reference_g_value(
            "1" * k + "0" * (n1 + n2 - k), alphas
        )
    return _reference_alpha(alphas, k - 1) * _reference_unit_sum(product_spans(*quad), k - 1)


def _reference_row_affine(quad, fixed, j: int) -> tuple[float, float]:
    n1, k1, n2, k2 = quad
    top = j + 1
    scaled = _reference_unit_sum(product_spans(*quad), j)
    fixed_part = 0.0
    for side_n, side_k in ((n1, k1), (n2, k2)):
        if side_k == top:
            scaled -= _reference_unit_sum(block_spans(side_n, side_k), j)
        else:
            fixed_part += _reference_g_objective(side_n, side_k, fixed)
    return fixed_part, scaled


def reference_calibrate_alphas(kmax: int, nmax: int, *, grid_max: int = 64) -> AlphaTable:
    """calibrate_alphas as it was, with its floor(log2) rounding and its
    re-verification over the sorted union of the length-nmax programs."""
    slack = certificates._SLACK
    max_exponent, min_exponent = certificates._MAX_EXPONENT, certificates._MIN_EXPONENT
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if nmax < max(2, kmax):
        raise ValueError(f"nmax={nmax} is too small to calibrate up to weight {kmax}")
    alphas: list[float] = []
    for j in range(1, kmax):
        k = j + 1
        cap = float(2**max_exponent)
        binding = f"the exponent ceiling 2^{max_exponent}"
        for m in range(k, nmax + 1):
            for span in block_spans(m, k):
                allowed = (m + slack) / _reference_unit(span, j)
                if allowed < cap:
                    cap, binding = allowed, f"bound g <= {m} at span {span} of B({m},{k})"
        for quad in BinomialIndex(nmax, k).quadruples():
            if quad[1] + quad[3] != k:
                continue
            fixed_part, scaled = _reference_row_affine(quad, alphas, j)
            if scaled > 0:
                allowed = (fixed_part + slack) / scaled
                if allowed < cap:
                    cap, binding = allowed, f"row {row_quad(*quad)}"
            elif fixed_part < -slack:
                raise CalibrationError(
                    f"row {row_quad(*quad)} is infeasible for every alpha_{j}"
                )
        if cap <= 0:
            raise CalibrationError(f"no positive alpha_{j} passes {binding}")
        exponent = min(max_exponent, floor(log2(cap)))
        while 2.0**exponent > cap:
            exponent -= 1
        while 2.0 ** (exponent + 1) <= cap and exponent + 1 <= max_exponent:
            exponent += 1
        if exponent < min_exponent:
            raise CalibrationError(
                f"alpha_{j} would need 2^{exponent} < 2^{min_exponent}; binding: {binding}"
            )
        alphas.append(2.0**exponent)
    table = tuple(alphas)
    indexes = [BinomialIndex(nmax, top) for top in range(kmax + 1)]
    blocks = sorted({block for index in indexes for block in index.blocks()})
    for m, l in blocks:
        if l < 2:
            continue
        for span in block_spans(m, l):
            v = _reference_alpha(table, l - 1) * _reference_unit(span, l - 1)
            if v > m + slack:
                raise CalibrationError(
                    f"bound g <= {m} fails at span {span} of B({m},{l}): g = {v}"
                )
    block_sums = {block: _reference_g_objective(*block, table) for block in blocks}
    for quad in sorted({quad for index in indexes for quad in index.quadruples()}):
        n1, k1, n2, k2 = quad
        margin = block_sums[n1, k1] + block_sums[n2, k2] - _reference_product_g_sum(quad, table)
        if margin < -slack:
            raise CalibrationError(f"row {row_quad(*quad)} fails by {-margin}")
    grid_hi = max(grid_max, nmax)
    ratios: dict[int, tuple[float, float]] = {}
    for k in range(1, kmax + 1):
        lo = hi = None
        for n in range(max(2, k), grid_hi + 1):
            ratio = _reference_g_objective(n, k, table) / (n * log(n) ** k)
            lo = ratio if lo is None else min(lo, ratio)
            hi = ratio if hi is None else max(hi, ratio)
        assert lo is not None and hi is not None
        ratios[k] = (lo, hi)
    return AlphaTable(
        alphas=table,
        kmax=kmax,
        nmax=nmax,
        ratio_intervals=ratios,
        grid_max=grid_hi,
    )


# -- the Fraction-valued tableau ------------------------------------------------

# The exact tableau as it was when its basic values were Fractions:
# ``_Tableau`` and ``_solve_direct`` verbatim, renamed, beside the
# unchanged constants of ``relp.solver``.  Its row kernels ``_reduce``
# and ``_eliminate`` are copies too, so a fault in the solver's own
# kernels shows up as a difference and not on both sides.  They keep the
# eager rule, which reduces every row ``_eliminate`` rescales; the
# solver's lazy rule, which reduces it only past ``_REDUCE_BITS``, is
# held to them.


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den with the gcd of den and every entry divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(
    row: list[int], den: int, f: int, pden: int, pnz: list
) -> tuple[list[int], int]:
    """row/den minus (f/den) times the pivot row, when pden does not divide f.

    f is row's numerator in the entering variable's slot, and the caller
    has zeroed that slot; pnz lists the nonzeros (slot, value) of the new
    pivot row, over pden.  The row moves to a larger denominator, takes
    the update, and is reduced.  When pden divides f, the common case,
    callers instead update the row sparsely in place, keeping den.
    """
    g = gcd(f, pden)
    a, b = pden // g, f // g
    row = [a * x for x in row]
    for jj, v in pnz:
        row[jj] -= b * v
    return _reduce(row, den * a)


class ReferenceTableau:
    """Internal canonical form: max c.x, Ax <= b, 0 <= x <= u.

    Variables are numbered structural first (0..n-1), then one slack per
    row (n..n+m-1), then the artificials.  The tableau is condensed: its
    columns are the nonbasic variables only.  Slot s of every row belongs
    to variable nonbasic[s], and row i reads
    x[basis[i]] = beta[i] - sum over s of (T[i][s] / den[i]) x[nonbasic[s]]
    in shifted coordinates, so each row holds n ints plus one per
    artificial, however many rows there are.  A pivot swaps the entering
    and leaving variables between basis and nonbasic, and the leaving
    variable takes the entering one's slot.

    Row i holds int numerators over one positive int denominator den[i].
    A row is divided by the gcd of its entries whenever its denominator
    grows; an update that keeps the denominator skips that step, so den[i]
    is always a denominator the row once had in lowest terms and cannot
    grow without bound.  The reduced-cost row is d / dden in the same way,
    one entry per slot.  Basic values beta, bounds and ratios are
    Fractions.  The tableau only pivots; it keeps no objective value.
    """

    def __init__(self, lp: LinearProgram):
        self.sgn = 1 if lp.sense == "max" else -1
        self.bland = False  # set for good once the pivots stall
        self.iterations = 0

        n = len(lp.variables)
        m = len(lp.rows)
        self.n, self.m = n, m
        self.col_of = {name: j for j, name in enumerate(lp.variables)}
        self.lo: list[Fraction] = []
        self.u: list = []  # shifted upper bounds; None = unbounded
        for name in lp.variables:
            lo, hi = lp.bounds[name]
            self.lo.append(lo)
            self.u.append(None if hi is None else hi - lo)
        self.u.extend([None] * m)  # slacks

        # c in internal (max) sign, over structural columns only
        self.c: list = [0] * n
        for name, coef in lp.objective.items():
            self.c[self.col_of[name]] = coef * self.sgn

        self.row_sign = []
        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.beta: list[Fraction] = []
        for row in lp.rows:
            srel = 1 if row.rel == LE else -1
            self.row_sign.append(srel)
            # scaled by the lcm of its denominators, the row is all ints;
            # the slack's coefficient, scale / scale, is implicit
            scale = lcm(*(coef.denominator for coef in row.coeffs.values()))
            arr = [0] * n
            rhs = row.rhs * srel
            for name, coef in row.coeffs.items():
                j = self.col_of[name]
                arr[j] = srel * coef.numerator * (scale // coef.denominator)
                if self.lo[j]:
                    rhs -= srel * coef * self.lo[j]
            self.T.append(arr)
            self.den.append(scale)
            self.beta.append(rhs)

        self.basis = [n + i for i in range(m)]
        self.nonbasic = list(range(n))
        self.status = [AT_LO] * n + [BASIC] * m
        self.frozen = [False] * (n + m)
        self.d: list[int] = []
        self.dden = 1
        self.stall = 0

    # -- phase handling -----------------------------------------------------

    def add_artificials(self) -> list[int]:
        """Negate infeasible rows and make a +1 artificial basic in each.

        The row's slack leaves the basis and takes a new slot.
        """
        bad = [i for i in range(self.m) if self.beta[i] < 0]
        zeros = [0] * len(bad)
        for row in self.T:
            row.extend(zeros)
        arts = []
        for i in bad:
            self.T[i] = [-v for v in self.T[i]]
            self.T[i][len(self.nonbasic)] = -self.den[i]
            self.beta[i] = -self.beta[i]
            slack, art = self.n + i, len(self.status)
            self.nonbasic.append(slack)
            self.status[slack] = AT_LO
            self.basis[i] = art
            self.status.append(BASIC)
            self.u.append(None)
            self.frozen.append(False)
            arts.append(art)
        return arts

    def set_costs(self, c_full: list) -> None:
        """Recompute the reduced-cost row for new costs."""
        costs = [Fraction(v) for v in c_full]
        costs += [Fraction(0)] * (len(self.status) - len(costs))
        cn = [costs[j] for j in self.nonbasic]
        dden = lcm(*(v.denominator for v in cn))
        d = [v.numerator * (dden // v.denominator) for v in cn]
        for i in range(self.m):
            cb = costs[self.basis[i]]
            if cb:
                # d/dden - cb * T_i/den_i over the denominator dden * q * den_i
                a, b = cb.denominator * self.den[i], cb.numerator * dden
                g = gcd(a, b)
                a, b = a // g, b // g
                d, dden = _reduce(
                    [a * x - b * y for x, y in zip(d, self.T[i])], dden * a
                )
        self.d, self.dden = d, dden

    # -- pivoting -------------------------------------------------------------

    def _choose_entering(self):
        """The entering slot and its direction, or None at an optimum.

        Dantzig's ties and Bland's choice both go to the lowest variable
        index, whichever slot it sits in.
        """
        # d shares one positive denominator, so its numerators compare as d
        d, status, frozen, bland = self.d, self.status, self.frozen, self.bland
        best = None
        best_j = best_score = 0
        for s, j in enumerate(self.nonbasic):
            if frozen[j]:
                continue
            dj = d[s]
            if status[j] == AT_LO:
                if dj <= 0:
                    continue
                score, sigma = dj, 1
            else:
                if dj >= 0:
                    continue
                score, sigma = -dj, -1
            if bland:
                score = 1
            if score > best_score or (score == best_score and j < best_j):
                best, best_j, best_score = (s, sigma), j, score
        return best

    def _step(self) -> str | None:
        pick = self._choose_entering()
        if pick is None:
            return "optimal"
        s, sigma = pick
        j = self.nonbasic[s]
        T, den, beta, u, basis = self.T, self.den, self.beta, self.u, self.basis
        bland = self.bland
        # the entering slot's nonzeros, read once for the ratio test, the
        # basic-value update and the elimination
        col = [(i, row[s]) for i, row in enumerate(T) if row[s]]

        # ratio test on exact ints: the limit of row i is b * den[i] / |a|,
        # kept as the pair (t_num, t_den) and compared by cross-multiplying
        t_num, t_den = (None, 1) if u[j] is None else (u[j].numerator, u[j].denominator)
        leave_row = -1
        leave_to = AT_LO
        for i, a in col:
            if (a > 0) == (sigma > 0):
                b = beta[i]
                to = AT_LO
            else:
                ub = u[basis[i]]
                if ub is None:
                    continue
                b = ub - beta[i]
                to = AT_UP
            ln, ld = b.numerator * den[i], b.denominator * abs(a)
            if t_num is None or ln * t_den < t_num * ld:
                t_num, t_den, leave_row, leave_to = ln, ld, i, to
            elif leave_row >= 0 and ln * t_den == t_num * ld:
                if bland and basis[i] < basis[leave_row]:
                    leave_row, leave_to = i, to
        if t_num is None:
            self.unbounded_slot = (s, sigma)
            return "unbounded"
        t = Fraction(t_num, t_den)

        self.iterations += 1
        move = t if sigma > 0 else -t
        if move:
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= _STALL_PIVOTS:
                self.bland = True
        flip = leave_row < 0
        if flip:
            # bound flip: the entering variable crosses to its other bound
            self.status[j] = AT_UP if sigma > 0 else AT_LO
        else:
            # the pivot row solved for the entering variable: T_r / T_r[s],
            # with den_r / T_r[s] in slot s for the leaving variable
            prow = T[leave_row]
            p = prow[s]
            prow[s] = den[leave_row]
            if p < 0:
                prow, p = [-v for v in prow], -p
            prow, pden = _reduce(prow, p)
            T[leave_row], den[leave_row] = prow, pden
            beta[leave_row] = t if sigma > 0 else u[j] - t
            leaving = basis[leave_row]
            self.status[leaving] = leave_to
            basis[leave_row] = j
            self.nonbasic[s] = leaving
            self.status[j] = BASIC
            pnz = [(jj, v) for jj, v in enumerate(prow) if v]

        # every other row with a nonzero in slot s: beta -= move * a / den,
        # cross-multiplied in ints, then (on a pivot) eliminate the slot
        mn, md = move.numerator, move.denominator
        for i, a in col:
            if i == leave_row:
                continue
            if mn:
                b = beta[i]
                q = md * den[i]
                beta[i] = Fraction(
                    b.numerator * q - mn * a * b.denominator, b.denominator * q
                )
            if not flip:
                row = T[i]
                row[s] = 0
                if a % pden:
                    T[i], den[i] = _eliminate(row, den[i], a, pden, pnz)
                else:
                    b = a // pden
                    for jj, v in pnz:
                        row[jj] -= b * v
        if not flip:
            d = self.d
            f = d[s]
            if f:
                d[s] = 0
                if f % pden:
                    self.d, self.dden = _eliminate(d, self.dden, f, pden, pnz)
                else:
                    b = f // pden
                    for jj, v in pnz:
                        d[jj] -= b * v
        return None

    def run(self, budget: int) -> str:
        while True:
            if self.iterations >= budget:
                return "resource"
            out = self._step()
            if out is not None:
                return out


def reference_solve_direct(lp: LinearProgram, budget: int) -> SolveResult:
    """One tableau solve; an "optimal" result is an uncertified candidate."""
    tab = ReferenceTableau(lp)
    n, m = tab.n, tab.m

    if any(b < 0 for b in tab.beta):
        arts = tab.add_artificials()
        c1 = [0] * len(tab.status)
        for col in arts:
            c1[col] = -1
        tab.set_costs(c1)
        out = tab.run(budget)
        if out == "resource":
            return SolveResult("resource", iterations=tab.iterations)
        if out == "unbounded":
            raise SolverError("phase 1 reported unbounded; its objective is capped")
        # artificials are unbounded above in phase 1, so a nonbasic one
        # sits at 0, and the phase-1 optimum is 0 unless a basic one is not
        if any(tab.beta[i] for i, b in enumerate(tab.basis) if b >= n + m):
            return SolveResult("infeasible", iterations=tab.iterations)
        for col in arts:
            tab.frozen[col] = True
            tab.u[col] = Fraction(0)

    tab.set_costs(tab.c)
    tab.stall = 0
    out = tab.run(budget)
    if out == "resource":
        return SolveResult("resource", iterations=tab.iterations)
    if out == "unbounded":
        # recover the improving ray: the entering variable's direction in x-space
        s, sigma = tab.unbounded_slot
        j = tab.nonbasic[s]
        ray: dict[str, Fraction] = {}
        if j < n:
            ray[lp.variables[j]] = Fraction(sigma)
        for i in range(m):
            b = tab.basis[i]
            if b < n:
                a = tab.T[i][s]
                if a:
                    ray[lp.variables[b]] = Fraction(-sigma * a, tab.den[i])
        return SolveResult("unbounded", iterations=tab.iterations, ray=ray)

    # extract primal values (unshifted) and row multipliers
    values: dict[str, Fraction] = {}
    row_of = {tab.basis[i]: i for i in range(m)}
    for name, j in tab.col_of.items():
        st = tab.status[j]
        if st == BASIC:
            shifted = tab.beta[row_of[j]]
        elif st == AT_UP:
            shifted = tab.u[j]
        else:
            shifted = 0
        values[name] = shifted + tab.lo[j]
    # a row's multiplier is minus its slack's reduced cost: 0 while the
    # slack is basic, read off its slot otherwise
    slot_of = {j: s for s, j in enumerate(tab.nonbasic)}
    duals: dict[str, Fraction] = {}
    for i, row in enumerate(lp.rows):
        s = slot_of.get(n + i)
        if s is not None and tab.d[s]:
            duals[row.label] = Fraction(-tab.sgn * tab.row_sign[i] * tab.d[s], tab.dden)
    assignment = Assignment.from_rationals(values)
    return SolveResult(
        "optimal",
        objective=objective_value(lp, assignment),
        assignment=assignment,
        duals=duals,
        iterations=tab.iterations,
    )


# -- fault injection ----------------------------------------------------------


def negate_one_multiplier(monkeypatch) -> None:
    """Make every candidate optimum, from the tableau and from the
    min-plus route alike, return one nonzero multiplier negated.

    The point stays intact and is still optimal; only the pair is wrong,
    so the certificate gate in ``solve`` is the one thing that can refuse it.
    """
    for route in ("_solve_direct", "_solve_min_plus"):
        real = getattr(solver, route)

        def corrupted(*args, real=real):
            res = real(*args)
            if res.status == "optimal" and res.duals:
                label = min(res.duals)
                res.duals[label] = -res.duals[label]
            return res

        monkeypatch.setattr(solver, route, corrupted)
