"""Exact rational simplex with box bounds and built-in certification.

A two-phase, condensed-tableau, bounded-variable primal simplex.  The
tableau's columns are the nonbasic variables only, so a program with far
more rows than variables (the strong program has one row per union or
concatenation pair) costs n ints per row, not n + m: no row carries a
column for its own slack or anyone else's.  A pivot swaps the entering
and leaving variables, and the leaving one takes the entering one's slot.

All arithmetic is exact and fraction-free where it counts: each tableau
row, the reduced-cost row included, is a list of Python int numerators
over one positive int row denominator.  A row with fractional
coefficients is scaled by the lcm of their denominators when the tableau
is built.  A pivot divides the pivot row by its pivot entry and
eliminates the entering slot from every other row in integer
arithmetic.  Where the pivot row's denominator divides the entry to
eliminate (always when it is 1, the common case) the pivot loop updates
the row in place over the pivot row's nonzeros and keeps its
denominator; otherwise ``_eliminate`` moves the row to a larger
denominator, and divides it by the gcd of its entries only once that
denominator passes ``_REDUCE_BITS`` bits.  Pricing compares
numerators over the reduced-cost row's one denominator.  Each basic
value is an int numerator over its own int denominator, reduced by one
gcd when it changes, and the ratio test compares such rationals by
cross-multiplication, so the pivot sequence is that of a plain rational
tableau.  Fractions appear only where values leave the tableau: the
point, multipliers and rays.  The tableau keeps no objective value: the
objective ``solve`` reports is that of the point it certifies,
``objective_value(lp, assignment)``.

So "optimal" here means: the returned point is feasible, the returned
row multipliers are dual-feasible, and the two objective values agree as
rational numbers.  ``solve`` refuses to report an optimum it cannot
certify that way.  The gate is cheap next to the solve: it skips rows
whose multiplier is zero, scales the rest once by the lcm D of their
denominators and sums the reduced costs and the dual objective as D
times their value, in ints when the program's coefficients are ints,
and it takes the primal objective from its feasibility check.

Multiplier convention (what ``SolveResult.duals`` means): the nonzero
multipliers, keyed by row position in ``lp.rows``; row labels are for
text only and may repeat.  For a max program a <= row carries y >= 0 and
a >= row carries y <= 0; for a min program the signs flip.
``certify_optimal`` is the reference implementation of that convention,
and refuses a nonzero multiplier at any key that is not a row position.
The tableau reads a row's multiplier off its slack's slot; a basic slack
has multiplier 0.

There is one path to a candidate optimum, the tableau, and it certifies
nothing itself.  ``solve`` is the one gate: it runs ``certify_optimal``
once, against the original program, and raises ``SolverError`` if it
fails.

There is one pivot rule.  Pricing is Dantzig's rule, ties to the lowest
variable index; after ``_STALL_PIVOTS`` consecutive degenerate steps it
hands over, for the rest of the solve, to Bland's rule (lowest variable
index, and the lowest leaving variable among tied ratios), which cannot
cycle (Bland 1977).  The pivot budget, ``RunConfig.solver_max_pivots``,
bounds the pivots of the whole solve, both phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .config import DEFAULT_CONFIG, RunConfig
from .lp import LE, ZERO, Assignment, LinearProgram, check_feasible, objective_value

AT_LO, AT_UP, BASIC = 0, 1, 2

# consecutive degenerate pivots after which pricing hands over to Bland
_STALL_PIVOTS = 200

# bits a row denominator may reach before ``_eliminate`` divides out the
# row's gcd: one CPython digit
_REDUCE_BITS = 30


class SolverError(RuntimeError):
    """The solver broke one of its own invariants; results were discarded."""


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | resource
    objective: Fraction | None = None
    assignment: Assignment | None = None
    duals: dict[int, Fraction] = field(default_factory=dict)  # nonzero, by row position
    iterations: int = 0
    # always False (solve has no transposed path); perfbench/workloads.py
    # still reads it to count transposed solves
    transposed: bool = False
    ray: dict[str, Fraction] | None = None  # improving direction, if unbounded


# -- certification --------------------------------------------------------------


def certify_optimal(
    lp: LinearProgram,
    assignment: Assignment,
    duals: Mapping[int, Fraction | int],
) -> tuple[bool, str]:
    """Verify a primal/dual pair proves optimality, by exact arithmetic.

    Checks: primal feasibility, multiplier signs, and that the dual
    objective (row multipliers against rhs, plus the bound terms implied
    by the reduced costs) equals the primal objective exactly.  Equality
    of the two objectives pins both points to the optimum; no trust in
    the solver is required.  Sums run over the nonzero multipliers only,
    as D times their value for D the lcm of the multipliers' denominators.
    """
    if not assignment.exact:
        return False, "assignment is not exact"
    rep = check_feasible(lp, assignment, tolerance=0)
    if not rep.feasible:
        v = rep.violations[0]
        return False, f"primal infeasible ({v.kind} {v.where} by {v.amount})"
    nonzero = [i for i, y in duals.items() if y]
    for i in nonzero:
        if type(i) is not int or not 0 <= i < len(lp.rows):
            return False, f"multiplier for unknown row {i!r}"
    sgn = 1 if lp.sense == "max" else -1
    # (row, sgn * y) per nonzero multiplier y, in row order: the weight
    # of the row's coefficients and rhs in the reduced costs and dual objective
    active = []
    for i in sorted(nonzero):
        row, y = lp.rows[i], duals[i]
        if type(y) is not int:
            y = Fraction(y)
        srel = 1 if row.rel == LE else -1
        if sgn * srel * y < 0:
            return False, f"multiplier for row {row.label} has the wrong sign"
        active.append((row, sgn * y))
    scale = lcm(*(y.denominator for _, y in active))
    # the reduced costs, times D, by variable position
    reduced = [0] * len(lp.variables)
    for name, coef in lp.objective.items():
        reduced[lp.position[name]] = sgn * coef * scale
    dual_obj = 0
    for row, y in active:
        w = y.numerator * (scale // y.denominator)
        dual_obj += w * row.rhs
        for j, coef in zip(row.cols, row.vals):
            reduced[j] -= w * coef
    for name, rj in zip(lp.variables, reduced):
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


# -- the tableau ------------------------------------------------------------------


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
    pivot row, over pden.  The row moves to a larger denominator and
    takes the update; it is reduced only once that denominator passes
    ``_REDUCE_BITS`` bits, since below that the gcd pass over the row
    costs more than its smaller ints save.  When pden divides f,
    the common case, callers instead update the row sparsely in place,
    keeping den.
    """
    g = gcd(f, pden)
    a, b = pden // g, f // g
    row = [a * x for x in row]
    for jj, v in pnz:
        row[jj] -= b * v
    den *= a
    if den.bit_length() > _REDUCE_BITS:
        return _reduce(row, den)
    return row, den


class _Tableau:
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

    Row i holds int numerators over one positive int denominator den[i],
    not always in lowest terms.  A row is divided by the gcd of its
    entries when its denominator grows past ``_REDUCE_BITS`` bits; an
    update that keeps the denominator skips that step, so den[i] either
    fits in ``_REDUCE_BITS`` bits or is a denominator the row once had in
    lowest terms.  The reduced-cost row is d / dden in the same way,
    one entry per slot, and beta[i] is bnum[i] / bden[i] in lowest terms,
    bden[i] > 0.  The tableau only pivots; it keeps no objective value.
    """

    def __init__(self, lp: LinearProgram):
        self.sgn = 1 if lp.sense == "max" else -1
        self.bland = False  # set for good once the pivots stall
        self.iterations = 0

        n = len(lp.variables)
        m = len(lp.rows)
        self.n, self.m = n, m
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
            self.c[lp.position[name]] = coef * self.sgn

        self.row_sign = []
        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.bnum: list[int] = []
        self.bden: list[int] = []
        for row in lp.rows:
            srel = 1 if row.rel == LE else -1
            self.row_sign.append(srel)
            # scaled by the lcm of its denominators, the row is all ints;
            # the slack's coefficient, scale / scale, is implicit
            scale = lcm(*(coef.denominator for coef in row.vals))
            arr = [0] * n
            rhs = row.rhs * srel
            for j, coef in zip(row.cols, row.vals):
                arr[j] = srel * coef.numerator * (scale // coef.denominator)
                if self.lo[j]:
                    rhs -= srel * coef * self.lo[j]
            self.T.append(arr)
            self.den.append(scale)
            self.bnum.append(rhs.numerator)
            self.bden.append(rhs.denominator)

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
        bad = [i for i in range(self.m) if self.bnum[i] < 0]
        zeros = [0] * len(bad)
        for row in self.T:
            row.extend(zeros)
        arts = []
        for i in bad:
            self.T[i] = [-v for v in self.T[i]]
            self.T[i][len(self.nonbasic)] = -self.den[i]
            self.bnum[i] = -self.bnum[i]
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
        # ints and Fractions alike carry numerator and denominator
        costs = c_full + [0] * (len(self.status) - len(c_full))
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
        T, den, bnum, bden = self.T, self.den, self.bnum, self.bden
        u, basis, bland = self.u, self.basis, self.bland
        # the entering slot's nonzeros, read once for the ratio test, the
        # basic-value update and the elimination
        col = [(i, row[s]) for i, row in enumerate(T) if row[s]]

        # ratio test on exact ints: the limit of row i is b * den[i] / |a| for
        # b = beta[i] or u - beta[i], kept as a pair and cross-multiplied
        t_num, t_den = (None, 1) if u[j] is None else (u[j].numerator, u[j].denominator)
        leave_row = -1
        leave_to = AT_LO
        for i, a in col:
            if (a > 0) == (sigma > 0):
                ln, ld = bnum[i] * den[i], bden[i] * abs(a)
                to = AT_LO
            else:
                ub = u[basis[i]]
                if ub is None:
                    continue
                ud = ub.denominator
                ln, ld = (ub.numerator * bden[i] - bnum[i] * ud) * den[i], ud * bden[i] * abs(a)
                to = AT_UP
            if t_num is None or ln * t_den < t_num * ld:
                t_num, t_den, leave_row, leave_to = ln, ld, i, to
            elif leave_row >= 0 and ln * t_den == t_num * ld:
                if bland and basis[i] < basis[leave_row]:
                    leave_row, leave_to = i, to
        if t_num is None:
            self.unbounded_slot = (s, sigma)
            return "unbounded"
        g = gcd(t_num, t_den)
        tn, td = t_num // g, t_den // g
        mn = sigma * tn  # the step: the entering variable moves by mn / td

        self.iterations += 1
        if mn:
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
            # the entering variable's new value: from 0 or from u, by mn / td
            un, ud = (0, 1) if sigma > 0 else (u[j].numerator, u[j].denominator)
            x, y = un * td + mn * ud, ud * td
            g = gcd(x, y)
            bnum[leave_row], bden[leave_row] = x // g, y // g
            leaving = basis[leave_row]
            self.status[leaving] = leave_to
            basis[leave_row] = j
            self.nonbasic[s] = leaving
            self.status[j] = BASIC
            pnz = [(jj, v) for jj, v in enumerate(prow) if v]

        # every other row with a nonzero in slot s: beta -= (mn / td) * a / den,
        # cross-multiplied in ints and reduced, then (on a pivot) eliminate the slot
        for i, a in col:
            if i == leave_row:
                continue
            if mn:
                q = td * den[i]
                x, y = bnum[i] * q - mn * a * bden[i], bden[i] * q
                g = gcd(x, y)
                bnum[i], bden[i] = x // g, y // g
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


# -- solve proper -----------------------------------------------------------------


def _solve_direct(lp: LinearProgram, budget: int) -> SolveResult:
    """One tableau solve; an "optimal" result is an uncertified candidate."""
    tab = _Tableau(lp)
    n, m = tab.n, tab.m

    if any(b < 0 for b in tab.bnum):
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
        if any(tab.bnum[i] for i, b in enumerate(tab.basis) if b >= n + m):
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
    for j, name in enumerate(lp.variables):
        st = tab.status[j]
        if st == BASIC:
            i = row_of[j]
            v = Fraction(tab.bnum[i], tab.bden[i])
            if tab.lo[j]:
                v += tab.lo[j]
        else:
            # at a bound: lo, or lo + u, which is the upper bound
            v = tab.lo[j] + tab.u[j] if st == AT_UP else tab.lo[j]
            if type(v) is not Fraction:
                v = Fraction(v) if v else ZERO
        values[name] = v
    # a row's multiplier is minus its slack's reduced cost: 0 while the
    # slack is basic, read off its slot otherwise
    slot_of = {j: s for s, j in enumerate(tab.nonbasic)}
    duals: dict[int, Fraction] = {}
    for i in range(m):
        s = slot_of.get(n + i)
        if s is not None and tab.d[s]:
            duals[i] = Fraction(-tab.sgn * tab.row_sign[i] * tab.d[s], tab.dden)
    assignment = Assignment(values)
    return SolveResult(
        "optimal",
        objective=objective_value(lp, assignment),
        assignment=assignment,
        duals=duals,
        iterations=tab.iterations,
    )


def solve(lp: LinearProgram, config: RunConfig | None = None) -> SolveResult:
    """Solve to a certified optimum (or infeasible/unbounded/resource).

    ``config.solver_max_pivots`` caps the pivots of the whole solve.  An
    optimum is returned only after ``certify_optimal`` accepts it against
    ``lp`` itself; otherwise ``SolverError`` is raised.
    """
    budget = (config or DEFAULT_CONFIG).solver_max_pivots
    res = _solve_direct(lp, budget)
    if res.status == "optimal":
        ok, why = certify_optimal(lp, res.assignment, res.duals)
        if not ok:
            raise SolverError(f"optimum failed certification: {why}")
    return res
