"""Constructors for the bounding programs and their duals.

Three program shapes:

* the string program: one variable per string, bounded by the string's
  length, and one row per (product, left, right) triple of string sets.
  One builder serves the weak primal over a closure (a row per
  concatenation-compatible pair) and the weak dual over a certificate's
  support, which is how expression certificates are checked; the
  relaxed program over the weight-block index (n, k) (a row per block
  quadruple) writes the same rows from block positions;
* strong primal over a closure: one variable per closure member, rows for
  both concatenation- and union-compatible pairs;
* a reduced formulation of the weak primal for single-1 blocks, which
  collapses the exponentially many subset rows into max-envelope
  variables without moving the optimum.

Every dual is produced by ``transpose_lp`` — a mechanical transpose of the
built primal — so primal and dual can only disagree if the transpose
itself is wrong, which the tests pin down separately.

Variables are declared in one step per program and rows appended by
position (``LinearProgram._add_index_row``); names are made once per
variable and never looked up per nonzero.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, repeat
from math import comb
from typing import Callable, Iterable, Iterator

from .closure import BinomialIndex, Closure, _concat_set
from .lang import Language, binomial, canon_key
from .lp import (
    GE,
    LE,
    LinearProgram,
    row_concat,
    row_quad,
    var_d,
    var_x,
)


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


# -- the string program ----------------------------------------------------------


StringRow = tuple[str, Iterable[str], Iterable[str], Iterable[str]]


def _string_variables(
    strings: Iterable[str], objective: Iterable[str]
) -> tuple[LinearProgram, dict[str, int]]:
    """A max program over 0 <= x_s <= |s|, one variable per string in
    order, maximizing the mass on the objective strings; and the column
    of each string."""
    lp = LinearProgram(sense="max")
    strings = list(strings)
    lp._add_variables([*map(var_x, strings)], [(0, len(s)) for s in strings])
    col = {s: j for j, s in enumerate(strings)}
    lp.set_objective({lp.variables[col[s]]: 1 for s in objective})
    return lp, col


def _string_program(
    strings: Iterable[str], objective: Iterable[str], rows: Iterable[StringRow]
) -> LinearProgram:
    """Max the mass on the objective strings over one variable per string.

    Each row (label, product, left, right) reads
    sum_{product} x - sum_{left} x - sum_{right} x <= 0, with
    0 <= x_s <= |s|.  Coefficients accumulate, so a string appearing on
    both sides nets out.
    """
    lp, col = _string_variables(strings, objective)
    at = col.__getitem__
    for label, product, left, right in rows:
        acc = _net_row(map(at, product), map(at, chain(left, right)))
        lp._add_index_row(label, [*acc], [*acc.values()], LE, 0)
    return lp


def _pair_rows(pairs: Iterable[tuple[Language, Language]]) -> Iterator[StringRow]:
    for k1, k2 in pairs:
        yield row_concat(k1, k2), k1.concat(k2).members, k1.members, k2.members


def build_weak_primal(closure: Closure) -> LinearProgram:
    """Per-string program: max the mass on the base language's strings.

    One row per concatenation-compatible pair (K1, K2) of the closure,
    comparing the mass on K1K2 against the mass on K1 and on K2.
    """
    return _string_program(
        closure.strings(), closure.base.members, _pair_rows(closure.concat_pairs())
    )


# -- strong program -------------------------------------------------------------


def build_strong_primal(closure: Closure) -> LinearProgram:
    """Per-language program whose optimum is the exact minimal size.

    One variable per closure member; singletons are capped by their
    string's length, composite members are unbounded above.  Every
    concatenation- and union-compatible pair contributes a row.
    """
    lp = LinearProgram(sense="max")
    # each member serialized once, named as var_big_x names it; a pair's
    # product and union are found by their string sets, rows named as
    # row_concat and row_union name them
    text = {k._set: k.serialize() for k in closure.members}
    col = {a: j for j, a in enumerate(text)}
    lp._add_variables(
        [f"X[{t}]" for t in text.values()],
        [(0, len(k.only) if k.is_singleton else None) for k in closure.members],
    )
    lp.set_objective({lp.variables[col[closure.base._set]]: 1})
    for k1, k2 in closure.concat_pairs():
        a, b = k1._set, k2._set
        acc = _net_row((col[_concat_set(k1, k2)],), (col[a], col[b]))
        lp._add_index_row(f"c[{text[a]},{text[b]}]", [*acc], [*acc.values()], LE, 0)
    for k1, k2 in closure.union_pairs():
        a, b = k1._set, k2._set
        acc = _net_row((col[a | b],), (col[a], col[b]))
        lp._add_index_row(f"u[{text[a]},{text[b]}]", [*acc], [*acc.values()], LE, 0)
    return lp


# -- relaxed program over weight blocks ------------------------------------------


def build_relaxed_binomial(n: int, k: int) -> LinearProgram:
    """The block-indexed relaxation: rows only for full block products.

    Variables are the strings of every fitted block B(m, l) of
    ``BinomialIndex(n, k)``, which is C0(B(n, k)); for each quadruple
    (n1, k1, n2, k2) the row compares the product block's mass against
    its two factor blocks.  Objective: total mass on the top block B(n, k).

    The rows are those of the string program over the same triples, with
    terms in the same order: the product block, then the left and the
    right factor.  The product is longer than either factor, so only the
    factors can share a column, when they are one block, and then each of
    its strings has coefficient -2.  The product's columns are read off
    as runs of its block's columns rather than spelled out as strings.
    """
    index = BinomialIndex(n, k)
    lp, col = _string_variables(index.strings(), binomial(n, k).members)
    block = {b: [*map(col.__getitem__, binomial(*b).members)] for b in index.blocks()}
    for n1, k1, n2, k2 in index.quadruples():
        # the members of B(n1+n2, k1+k2) that start with a given u of
        # B(n1, k1) are one run of it, ending in every v of B(n2, k2) in order
        whole, top = binomial(n1 + n2, k1 + k2).members, block[n1 + n2, k1 + k2]
        width = comb(n2, k2)
        product: list[int] = []
        for u in binomial(n1, k1).members:
            at = bisect_left(whole, u)
            product += top[at : at + width]
        if (n1, k1) == (n2, k2):
            minus, c = block[n1, k1], -2
        else:
            minus, c = block[n1, k1] + block[n2, k2], -1
        lp._add_index_row(
            row_quad(n1, k1, n2, k2),
            product + minus,
            [1] * len(product) + [c] * len(minus),
            LE,
            0,
        )
    return lp


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


# -- mechanical transpose ---------------------------------------------------------


def transpose_lp(
    lp: LinearProgram,
    row_var: Callable[[str], str],
    bound_var: Callable[[str], str],
    dual_row: Callable[[str], str],
) -> LinearProgram:
    """The dual of a (max, all-<=, lower-bounds-0) program.

    Row i with rhs b_i gets multiplier y_i >= 0; a finite upper bound u_j
    gets multiplier v_j >= 0.  The dual minimizes b.y + u.v subject to,
    for every primal variable j,  sum_i A_ij y_i + v_j >= c_j.  The three
    callbacks choose the dual names: row_var maps a row label to its
    multiplier's name, bound_var maps a bounded variable to its bound
    multiplier's name, dual_row labels the row transposed from a variable.

    The dual's variables are the y_i in row order, then the v_j in
    variable order.  One pass over the primal's rows gathers each
    column's dual positions and values (row-major to column-major), so
    dual row j holds column j's terms in row order, v_j last.
    """
    if lp.sense != "max":
        raise ValueError("transpose_lp expects a max program")
    names: list[str] = []
    objective: dict[str, Fraction | int] = {}
    col_pos: list[list[int]] = [[] for _ in lp.variables]
    col_val: list[list[Fraction | int]] = [[] for _ in lp.variables]
    for i, row in enumerate(lp.rows):
        if row.rel != LE:
            raise ValueError(f"transpose_lp expects <= rows, got {row.rel} in {row.label}")
        y = row_var(row.label)
        names.append(y)
        if row.rhs:
            objective[y] = row.rhs
        for j, c in zip(row.cols, row.vals):
            col_pos[j].append(i)
            col_val[j].append(c)
    for j, name in enumerate(lp.variables):
        lo, hi = lp.bounds[name]
        if lo != 0:
            raise ValueError(f"transpose_lp expects lower bounds 0, got {lo} on {name}")
        if hi is not None:
            v = bound_var(name)
            col_pos[j].append(len(names))
            col_val[j].append(1)
            names.append(v)
            if hi:
                objective[v] = hi
    dual = LinearProgram(sense="min")
    dual._add_variables(names, repeat((0, None)))
    dual.set_objective(objective)
    for name, pos, val in zip(lp.variables, col_pos, col_val):
        dual._add_index_row(dual_row(name), pos, val, GE, lp.objective.get(name, 0))
    return dual


def _strip_tag(tagged: str) -> str:
    return tagged[tagged.index("[") :]


def _weak_row_var(label: str) -> str:
    return "y" + _strip_tag(label)


def _weak_bound_var(name: str) -> str:
    return "w" + _strip_tag(name)


def _weak_dual_row(name: str) -> str:
    return "s" + _strip_tag(name)


def _weak_transpose(primal: LinearProgram) -> LinearProgram:
    return transpose_lp(primal, _weak_row_var, _weak_bound_var, _weak_dual_row)


def build_weak_dual(closure: Closure) -> LinearProgram:
    """min sum |s| w_s  s.t.  per string s:  w_s + sum_pairs A y >= [s in base]."""
    return _weak_transpose(build_weak_primal(closure))


def build_weak_support_dual(
    base: Language, pairs: Iterable[tuple[Language, Language]], strings: Iterable[str]
) -> LinearProgram:
    """The weak dual over the support of a dual point only.

    Its strings are the base's, the given ones, and those of K1, K2 and
    K1K2 for each given pair (K1, K2); its pair multipliers are the given
    pairs.  Names match ``build_weak_dual``, and a point that is zero
    off this support gets the same row sums as there.
    """
    rows = list(_pair_rows(pairs))
    support = set(base.members).union(strings)
    for _, product, left, right in rows:
        support.update(product, left, right)
    primal = _string_program(sorted(support, key=canon_key), base.members, rows)
    return _weak_transpose(primal)


def _strong_row_var(label: str) -> str:
    return ("Y" if label.startswith("c[") else "Z") + _strip_tag(label)


def _strong_bound_var(name: str) -> str:
    # X[{s}] -> W[s]; only singleton members carry a finite bound
    return "W[" + name[3:-2] + "]"


def _strong_dual_row(name: str) -> str:
    return "m" + _strip_tag(name)


def build_strong_dual(closure: Closure) -> LinearProgram:
    """min sum |s| W_s over concat (Y) and union (Z) multipliers."""
    return transpose_lp(
        build_strong_primal(closure), _strong_row_var, _strong_bound_var, _strong_dual_row
    )


def build_relaxed_binomial_dual(n: int, k: int) -> LinearProgram:
    """min sum |s| w_s with one y per block quadruple."""
    return _weak_transpose(build_relaxed_binomial(n, k))
