"""Shared strategies and independent oracles for the test suite.

The oracles here deliberately avoid the library's own search code:
``naive_closure`` runs the definitional fixpoint with a brute-force
product scan, ``brute_factorizations`` enumerates subset pairs of
prefixes and suffixes, and ``vertex_optimum`` maximizes over the
vertices of a fully bounded polytope by exact Gaussian elimination.
``negate_one_multiplier`` corrupts the solver's candidate optima, so
tests can check that ``solve`` refuses them.  ``reference_check``
recomputes ``check_feasible``'s exact verdict in plain ``Fraction``
arithmetic, one row at a time, without the common denominator, and
``reference_certify`` does the same for ``certify_optimal``.
``reference_strong_primal`` is the strong program as it was built over
``reference_union_pairs``, every ordered member pair whose union is a
member, comparable and repeated pairs included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from relp import Concat, Language, LinearProgram, Symbol, Union, solver
from relp.builders import _net_row
from relp.closure import Closure, _concat_set
from relp.lp import LE, check_feasible, objective_value

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


def regexes(max_leaves: int = 8, alphabet: str = "01"):
    leaves = st.sampled_from([Symbol(c) for c in alphabet])
    return st.recursive(
        leaves,
        lambda inner: st.builds(Concat, inner, inner) | st.builds(Union, inner, inner),
        max_leaves=max_leaves,
    )


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
                    if k1._set | k2._set in closure._member_sets:
                        pairs.append((k1, k2))
    pairs.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return pairs


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


# -- fault injection ----------------------------------------------------------


def negate_one_multiplier(monkeypatch) -> None:
    """Make every tableau solve return one nonzero multiplier negated.

    The point stays intact and is still optimal; only the pair is wrong,
    so the certificate gate in ``solve`` is the one thing that can refuse it.
    """
    real = solver._solve_direct

    def corrupted(*args):
        res = real(*args)
        if res.status == "optimal" and res.duals:
            label = min(res.duals)
            res.duals[label] = -res.duals[label]
        return res

    monkeypatch.setattr(solver, "_solve_direct", corrupted)
