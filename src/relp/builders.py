"""Constructors for the bounding programs and their duals.

Three program shapes:

* the string program: one variable per string, bounded by the string's
  length, and one row per (product, left, right) triple of string sets:
  the weak program over a closure or, for its dual, over a certificate's
  support (a row per concatenation-compatible pair), and the relaxed
  program over the weight-block index (n, k) (a row per block quadruple);
* strong primal over a closure: one variable per closure member, rows for
  both concatenation- and union-compatible pairs;
* a reduced formulation of the weak primal for single-1 blocks, which
  collapses the exponentially many subset rows into max-envelope
  variables without moving the optimum.

Each family writes its rows once, in a generator of (name, columns,
values) that takes the naming: a primal appends the rows under row
names, and its dual gathers the same rows into columns, under multiplier
names, through one transpose core.  No dual builds its primal.
``transpose_lp`` is that core over a built program, and the tests hold
every dual builder's text to it.

Variables are declared in one step per program and rows appended by
position (``LinearProgram._add_index_row``); names are made once per
variable and never looked up per nonzero.  The exception is
``build_reduced_weak_primal_b_n1``, which declares each variable with
``add_variable`` and appends rows by name with ``add_row``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .closure import BinomialIndex, Closure, _concat_set, canonical_order
from .lang import Language, binomial, canon_key
from .lp import (
    GE,
    LE,
    LinearProgram,
    row_concat,
    row_quad,
    row_string,
    var_d,
    var_w,
    var_x,
    var_y_pair,
    var_y_quad,
)

# a row as (name, columns, values), named as the primal's row or the dual's multiplier
IndexRow = tuple[str, list[int], list[int]]


def _net_row(plus: Iterable[int], minus: Iterable[int]) -> dict[int, int]:
    """+1 per column in plus, which are distinct, then -1 per column in minus.

    A column whose coefficient nets to 0 leaves the row, and enters again
    at the end if it comes back; write_lp's term order follows this.
    """
    acc = dict.fromkeys(plus, 1)
    for j in minus:
        c = acc.get(j, 0) - 1
        if c:
            acc[j] = c
        else:
            del acc[j]
    return acc


# -- the transpose ----------------------------------------------------------------


def _transpose(
    rows: Iterable[IndexRow],
    caps: Iterable[tuple[str, Fraction | int] | None],
    cons: Sequence[tuple[str, Fraction | int]],
    costs: dict[str, Fraction | int] | None = None,
) -> LinearProgram:
    """The dual of max c.x s.t. A x <= b, 0 <= x <= u, from A's rows:
    min b.y + u.v  s.t.  sum_i A_ij y_i + v_j >= c_j  per column j.

    rows give each row's multiplier y_i >= 0 by name, with the row's
    columns and values; costs holds b's nonzero entries by multiplier.
    Per column j, caps give v_j >= 0 by name with u_j, or None when x_j
    is unbounded, and cons give the dual row's name and c_j.  Variables
    are the y_i in row order, then the v_j.  One pass over the rows
    gathers each column's terms (row-major to column-major), so dual row
    j holds them in row order, v_j last.
    """
    pos: list[list[int]] = [[] for _ in cons]
    val: list[list[Fraction | int]] = [[] for _ in cons]
    names: list[str] = []
    for i, (y, cols, vals) in enumerate(rows):
        names.append(y)
        for j, c in zip(cols, vals):
            pos[j].append(i)
            val[j].append(c)
    objective = dict(costs or {})
    for j, cap in enumerate(caps):
        if cap is not None:
            v, hi = cap
            pos[j].append(len(names))
            val[j].append(1)
            names.append(v)
            if hi:
                objective[v] = hi
    dual = LinearProgram(sense="min")
    dual._add_variables(names, repeat((0, None)))
    dual.set_objective(objective)
    for (name, c), p, v in zip(cons, pos, val):
        dual._add_index_row(name, p, v, GE, c)
    return dual


def transpose_lp(
    lp: LinearProgram,
    row_var: Callable[[str], str],
    bound_var: Callable[[str], str],
    dual_row: Callable[[str], str],
) -> LinearProgram:
    """The dual of a (max, all-<=, lower-bounds-0) program, as ``_transpose``
    gives it.  The three callbacks choose the dual names: row_var maps a
    row label to its multiplier's name, bound_var maps a bounded variable
    to its bound multiplier's name, dual_row labels the row transposed
    from a variable.
    """
    if lp.sense != "max":
        raise ValueError("transpose_lp expects a max program")
    # each multiplier is named after its row's label, so labels must differ
    labels: set[str] = set()
    for row in lp.rows:
        if row.rel != LE:
            raise ValueError(f"transpose_lp expects <= rows, got {row.rel} in {row.label}")
        if row.label in labels:
            raise ValueError(f"transpose_lp expects distinct row labels, got {row.label} twice")
        labels.add(row.label)
    caps = []
    for name in lp.variables:
        lo, hi = lp.bounds[name]
        if lo != 0:
            raise ValueError(f"transpose_lp expects lower bounds 0, got {lo} on {name}")
        caps.append(None if hi is None else (bound_var(name), hi))
    ys = [row_var(row.label) for row in lp.rows]
    return _transpose(
        ((y, row.cols, row.vals) for y, row in zip(ys, lp.rows)),
        caps,
        [(dual_row(n), lp.objective.get(n, 0)) for n in lp.variables],
        {y: row.rhs for y, row in zip(ys, lp.rows) if row.rhs},
    )


# -- the string program ----------------------------------------------------------


def _string_program(
    strings: Sequence[str], objective: Iterable[str], rows: Iterable[IndexRow]
) -> LinearProgram:
    """Max the mass on the objective strings over 0 <= x_s <= |s|, one
    variable per string in order, each row reading  A x <= 0."""
    lp = LinearProgram(sense="max")
    lp._add_variables([*map(var_x, strings)], [(0, len(s)) for s in strings])
    lp.set_objective({var_x(s): 1 for s in objective})
    for label, cols, vals in rows:
        lp._add_index_row(label, cols, vals, LE, 0)
    return lp


def _string_dual(
    strings: Sequence[str], objective: Iterable[str], rows: Iterable[IndexRow]
) -> LinearProgram:
    """The transpose of ``_string_program`` over the same rows:
    min sum |s| w_s  s.t. per string s:  sum_rows A y + w_s >= [s in objective]."""
    top = set(objective)
    return _transpose(
        rows,
        [(var_w(s), len(s)) for s in strings],
        [(row_string(s), int(s in top)) for s in strings],
    )


def _pair_rows(
    pairs: Iterable[tuple[Language, Language]],
    strings: Sequence[str],
    name: Callable[[Language, Language], str],
) -> Iterator[IndexRow]:
    """Per pair (K1, K2), named by name:  sum_{K1K2} x - sum_{K1} x -
    sum_{K2} x, over one column per string in canonical order.
    Coefficients accumulate, so a string on both sides nets out."""
    at = {s: j for j, s in enumerate(strings)}.__getitem__
    for k1, k2 in pairs:
        # columns are in canonical order: sorted, they list K1K2 in order
        product = sorted(map(at, _concat_set(k1, k2)))
        acc = _net_row(product, map(at, chain(k1.members, k2.members)))
        yield name(k1, k2), [*acc], [*acc.values()]


def _weak_program(closure: Closure, name: Callable[[Language, Language], str]) -> tuple:
    strings = closure.strings()
    return strings, closure.base.members, _pair_rows(closure.concat_pairs(), strings, name)


def build_weak_primal(closure: Closure) -> LinearProgram:
    """Per-string program: max the mass on the base language's strings.

    One row per concatenation-compatible pair (K1, K2) of the closure,
    comparing the mass on K1K2 against the mass on K1 and on K2.
    """
    return _string_program(*_weak_program(closure, row_concat))


def build_weak_dual(closure: Closure) -> LinearProgram:
    """min sum |s| w_s  s.t.  per string s:  w_s + sum_pairs A y >= [s in base]."""
    return _string_dual(*_weak_program(closure, var_y_pair))


def build_weak_support_dual(
    base: Language, pairs: Iterable[tuple[Language, Language]], strings: Iterable[str]
) -> LinearProgram:
    """The weak dual over the support of a dual point only.

    Its strings are the base's, the given ones, and those of K1, K2 and
    K1K2 for each given pair (K1, K2); its pair multipliers are the given
    pairs.  Names match ``build_weak_dual``, and a point that is zero
    off this support gets the same row sums as there.
    """
    pairs = list(pairs)
    support = set(base.members).union(strings)
    for k1, k2 in pairs:
        support.update(k1.members, k2.members, _concat_set(k1, k2))
    columns = sorted(support, key=canon_key)
    return _string_dual(columns, base.members, _pair_rows(pairs, columns, var_y_pair))


def _block_rows(
    index: BinomialIndex,
    members: dict[tuple[int, int], tuple[str, ...]],
    strings: Sequence[str],
    name: Callable[[int, int, int, int], str],
) -> Iterator[IndexRow]:
    """Per quadruple, named by name: the product block's columns at +1,
    then the factor blocks' at -1, from each fitted block's members.  The
    product is longer than a factor and shares no column with it; a block
    that is both factors has coefficient -2."""
    col = {s: j for j, s in enumerate(strings)}
    block = {b: [*map(col.__getitem__, m)] for b, m in members.items()}
    place = {s: i for m in members.values() for i, s in enumerate(m)}  # in its own block
    for n1, k1, n2, k2 in index.quadruples():
        # the members of B(n1+n2, k1+k2) that start with a given u of
        # B(n1, k1) are one run of it, from u + first on, ending in every
        # v of B(n2, k2) in order; a run of one member is read, not sliced
        top, first, width = block[n1 + n2, k1 + k2], members[n2, k2][0], comb(n2, k2)
        if width == 1:
            product = [top[place[u + first]] for u in members[n1, k1]]
        else:
            product = []
            for u in members[n1, k1]:
                at = place[u + first]
                product += top[at : at + width]
        if (n1, k1) == (n2, k2):
            minus, c = block[n1, k1], -2
        else:
            minus, c = block[n1, k1] + block[n2, k2], -1
        yield name(n1, k1, n2, k2), product + minus, [1] * len(product) + [c] * len(minus)


def _block_program(n: int, k: int, name: Callable[[int, int, int, int], str]) -> tuple:
    index = BinomialIndex(n, k)
    members = {b: binomial(*b).members for b in index.blocks()}
    # index.strings(), from the blocks at hand rather than built again
    strings = canonical_order(members)
    return strings, members[n, k], _block_rows(index, members, strings, name)


def build_relaxed_binomial(n: int, k: int) -> LinearProgram:
    """The block-indexed relaxation: rows only for full block products.

    Variables are the strings of every fitted block B(m, l) of
    ``BinomialIndex(n, k)``, which is C0(B(n, k)); for each quadruple
    (n1, k1, n2, k2) the row compares the product block's mass against
    its two factor blocks.  Objective: total mass on the top block B(n, k).

    The rows are the string program's over the same triples, term for
    term: the product block, then the left and the right factor.
    """
    return _string_program(*_block_program(n, k, row_quad))


def build_relaxed_binomial_dual(n: int, k: int) -> LinearProgram:
    """min sum |s| w_s with one y per block quadruple: the transpose of
    ``build_relaxed_binomial(n, k)`` under the weak names, without building it."""
    return _string_dual(*_block_program(n, k, var_y_quad))


# -- strong program -------------------------------------------------------------


def _strong_rows(closure: Closure, text: dict, concat: str, union: str) -> Iterator[IndexRow]:
    """Per concatenation-compatible pair (K1, K2), tagged concat, then per
    union pair, tagged union:  X[K1 op K2] - X[K1] - X[K2].  text maps each
    member's string set to its serialization, in column order; a pair's
    product and union are found by their string sets."""
    col = {a: j for j, a in enumerate(text)}
    for tag, joined, pairs in (
        (concat, _concat_set, closure.concat_pairs()),
        (union, lambda k1, k2: k1._set | k2._set, closure.union_pairs()),
    ):
        for k1, k2 in pairs:
            a, b = k1._set, k2._set
            acc = _net_row((col[joined(k1, k2)],), (col[a], col[b]))
            yield f"{tag}[{text[a]},{text[b]}]", [*acc], [*acc.values()]


def build_strong_primal(closure: Closure) -> LinearProgram:
    """Per-language program whose optimum is the exact minimal size.

    One variable per closure member; singletons are capped by their
    string's length, composite members are unbounded above.  Every
    concatenation- and union-compatible pair contributes a row.
    """
    lp = LinearProgram(sense="max")
    # each member serialized once, named as var_big_x names it; rows
    # named as row_concat and row_union name them
    text = {k._set: k.serialize() for k in closure.members}
    lp._add_variables(
        [f"X[{t}]" for t in text.values()],
        [(0, len(k.only) if k.is_singleton else None) for k in closure.members],
    )
    lp.set_objective({f"X[{text[closure.base._set]}]": 1})
    for label, cols, vals in _strong_rows(closure, text, "c", "u"):
        lp._add_index_row(label, cols, vals, LE, 0)
    return lp


def build_strong_dual(closure: Closure) -> LinearProgram:
    """min sum |s| W_s over concat (Y) and union (Z) multipliers, with one
    row m[K] per member K: the transpose of ``build_strong_primal``."""
    text = {k._set: k.serialize() for k in closure.members}
    base = closure.base._set
    return _transpose(
        _strong_rows(closure, text, "Y", "Z"),
        [(f"W[{k.only}]", len(k.only)) if k.is_singleton else None for k in closure.members],
        [(f"m[{t}]", int(a == base)) for a, t in text.items()],
    )


# -- reduced weak program for single-1 blocks -------------------------------------


def build_reduced_weak_primal_b_n1(n: int) -> LinearProgram:
    """An equivalent, polynomial-size stand-in for the weak program on B(n, 1).

    The weak program's rows range over every nonempty subset of a weight-1
    block paired with a run of 0s.  For a fixed split (a, b) those rows say
    exactly: for every subset S, sum_{s in S} (x_{s0^b} - x_s) <= x_{0^b}.
    That family is equivalent to introducing d_s >= max(0, x_{s0^b} - x_s)
    and capping sum_s d_s <= x_{0^b} — the binding subset is the one
    collecting the positive differences.  Mirrored for 0-runs on the left,
    plus the plain 0-run x 0-run rows.  The x-optimum (and value) matches
    the full program's.
    """
    if n < 1:
        raise ValueError("n must be positive")
    lp = LinearProgram(sense="max")
    zeros = ["0" * j for j in range(n + 1)]  # zeros[j] = 0^j
    for j in range(1, n + 1):
        lp.add_variable(var_x(zeros[j]), 0, j)
    weight1: dict[int, tuple[str, ...]] = {
        m: binomial(m, 1).members for m in range(1, n + 1)
    }
    for m in range(1, n + 1):
        for s in weight1[m]:
            lp.add_variable(var_x(s), 0, m)
    # max-envelope variables, declared per split family
    for a in range(1, n):
        for b in range(1, n - a + 1):
            for s in weight1[a]:
                lp.add_variable(var_d("r", a, b, s), 0, None)
            for s in weight1[b]:
                lp.add_variable(var_d("l", a, b, s), 0, None)
    lp.set_objective({var_x(s): 1 for s in weight1[n]})

    for a in range(1, n):
        for b in range(a, n - a + 1):  # unordered: (a,b) and (b,a) rows coincide
            lp.add_row(
                row_concat(Language([zeros[a]]), Language([zeros[b]])),
                {
                    var_x(zeros[a + b]): 1,
                    var_x(zeros[a]): -1 if a != b else -2,
                    **({var_x(zeros[b]): -1} if a != b else {}),
                },
                LE,
                0,
            )
    for a in range(1, n):
        for b in range(1, n - a + 1):
            cap_r: dict[str, int] = {var_x(zeros[b]): -1}
            for s in weight1[a]:
                d = var_d("r", a, b, s)
                lp.add_row(
                    f"split[r,{a},{b},{s}]",
                    {var_x(s + zeros[b]): 1, var_x(s): -1, d: -1},
                    LE,
                    0,
                )
                cap_r[d] = 1
            lp.add_row(f"cap[r,{a},{b}]", cap_r, LE, 0)
            cap_l: dict[str, int] = {var_x(zeros[a]): -1}
            for s in weight1[b]:
                d = var_d("l", a, b, s)
                lp.add_row(
                    f"split[l,{a},{b},{s}]",
                    {var_x(zeros[a] + s): 1, var_x(s): -1, d: -1},
                    LE,
                    0,
                )
                cap_l[d] = 1
            lp.add_row(f"cap[l,{a},{b}]", cap_l, LE, 0)
    return lp
