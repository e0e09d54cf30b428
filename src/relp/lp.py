"""Sparse linear programs over exact rationals, plus their text form.

Programs are kept deliberately dumb: a sense, an ordered variable list
with box bounds, a sparse objective, and a list of labeled sparse rows
(<= or >=).  A row stores its nonzeros as two parallel lists, ``cols``
(positions in the variable list) and ``vals``; ``Row.coeffs`` reads
them by name, in stored order, for the text form and for callers that
think in names.  Builders emit rows one-to-one with the defining index
sets; nothing is simplified on the way in, and no reduction is offered.
``add_row`` is the entry point for rows given by name: it checks the
names against the declared variables in one set comparison.  The
builders and the transpose append rows by position, and every row,
however given, is refused if a position is out of range or repeated.
Assignments and the objective are keyed by name, multipliers by row position.

Every coefficient, bound and rhs is stored in one normal form: a plain
``int`` when the value is integral, a ``Fraction`` only when it is not.
The builders' programs are all-integer, so their arithmetic never
touches ``Fraction``.  The exact feasibility check scales an assignment
once by the lcm D of its value denominators and then sums every row in
ints, over a list of values by position, comparing against rhs*D; a
violation is reported as the ``Fraction`` amount/D.

Text formats (both line-oriented, whitespace-separated, rationals as
``p/q``):

LP files::

    relp-lp v1
    sense max
    var x[00] in [0, 2]
    obj 1 x[00] 1 x[000]
    row c[{0},{0}]: 1 x[00] -2 x[0] <= 0

Solution files::

    status optimal
    objective 4
    x[00] = 2

Solution values may also be decimal floats (for the analytic assignments,
which live in float arithmetic); a file mixing the two is read as float.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import ItemsView, Iterable, Mapping, ValuesView
from itertools import count
from math import lcm
from operator import mul

from .lang import Language

ZERO = Fraction(0)

FORMAT_HEADER = "relp-lp v1"

LE = "<="
GE = ">="


# -- variable and row naming --------------------------------------------------
#
# These little formatters are the whole naming contract: solution files,
# certificates and tests all meet through them.

def var_x(s: str) -> str:
    return f"x[{s}]"


def var_big_x(lang: Language) -> str:
    return f"X[{lang.serialize()}]"


def var_w(s: str) -> str:
    return f"w[{s}]"


def var_y_pair(k1: Language, k2: Language) -> str:
    return f"y[{k1.serialize()},{k2.serialize()}]"


def var_y_quad(n1: int, k1: int, n2: int, k2: int) -> str:
    return f"y[{n1},{k1},{n2},{k2}]"


def var_d(side: str, a: int, b: int, s: str) -> str:
    return f"d[{side},{a},{b},{s}]"


def row_concat(k1: Language, k2: Language) -> str:
    return f"c[{k1.serialize()},{k2.serialize()}]"


def row_union(k1: Language, k2: Language) -> str:
    return f"u[{k1.serialize()},{k2.serialize()}]"


def row_quad(n1: int, k1: int, n2: int, k2: int) -> str:
    return f"q[{n1},{k1},{n2},{k2}]"


def row_string(s: str) -> str:
    return f"s[{s}]"


# -- model ---------------------------------------------------------------------


def _normal(value: Fraction | int) -> Fraction | int:
    """The value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


class Row:
    """One sparse row: ``cols`` are positions in the program's variable
    list, ``vals`` their nonzero coefficients in the same order.  Rows
    are made by ``LinearProgram`` and not changed afterwards.

    ``coeffs`` reads the row by variable name.  Two rows are equal when
    their labels, relations, rhs and coefficients by name agree.
    """

    __slots__ = ("label", "cols", "vals", "rel", "rhs", "_names", "_position")

    def __init__(self, label, cols, vals, rel, rhs, names, position):
        self.label = label
        self.cols: list[int] = cols
        self.vals: list[Fraction | int] = vals
        self.rel = rel
        self.rhs = rhs
        self._names: list[str] = names
        self._position: dict[str, int] = position

    @property
    def coeffs(self) -> "RowCoeffs":
        return RowCoeffs(self)

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return (self.label, self.rel, self.rhs) == (
            other.label,
            other.rel,
            other.rhs,
        ) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Row({self.label!r}, {self.coeffs!r}, {self.rel!r}, {self.rhs!r})"


class RowCoeffs(Mapping):
    """A row's coefficients by variable name, read-only, in stored order."""

    __slots__ = ("_row",)

    def __init__(self, row: Row):
        self._row = row

    def __len__(self) -> int:
        return len(self._row.cols)

    def __iter__(self):
        return map(self._row._names.__getitem__, self._row.cols)

    def __getitem__(self, name: str) -> Fraction | int:
        row = self._row
        try:
            return row.vals[row.cols.index(row._position[name])]
        except ValueError:
            raise KeyError(name) from None

    def items(self) -> "_RowItems":
        return _RowItems(self)

    def values(self) -> "_RowValues":
        return _RowValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _RowItems(ItemsView):
    def __iter__(self):
        row = self._mapping._row
        return zip(map(row._names.__getitem__, row.cols), row.vals)


class _RowValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._row.vals)


@dataclass
class LinearProgram:
    sense: str  # "max" or "min"
    variables: list[str] = field(default_factory=list)
    bounds: dict[str, tuple[Fraction | int, Fraction | int | None]] = field(
        default_factory=dict
    )
    objective: dict[str, Fraction | int] = field(default_factory=dict)
    rows: list[Row] = field(default_factory=list)
    # variable name -> its position in ``variables``, and the set of
    # positions, against which an index row's columns are checked
    position: dict[str, int] = field(init=False, repr=False, compare=False)
    _columns: set[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be max or min, got {self.sense!r}")
        self.position = {name: j for j, name in enumerate(self.variables)}
        self._columns = set(range(len(self.variables)))

    def add_variable(
        self, name: str, lo: Fraction | int = 0, hi: Fraction | int | None = None
    ) -> str:
        lo = _normal(lo)
        hi = _normal(hi) if hi is not None else None
        if hi is not None and hi < lo:
            raise ValueError(f"empty bound interval for {name}: [{lo}, {hi}]")
        self._add_variables([name], [(lo, hi)])
        return name

    def _add_variables(
        self,
        names: list[str],
        bounds: Iterable[tuple[Fraction | int, Fraction | int | None]],
    ) -> None:
        """Declare the names in order, each with its (lo, hi) from bounds.

        A name declared twice is refused.  The bounds must be in normal
        form with lo <= hi (or hi None), as ``add_variable``, the builders
        and the transpose give them.
        """
        position = self.position
        if len(dict.fromkeys(names)) != len(names) or not position.keys().isdisjoint(names):
            seen: set[str] = set()
            name = next(n for n in names if n in position or n in seen or seen.add(n))
            raise ValueError(f"variable {name} declared twice")
        start = len(self.variables)
        position.update(zip(names, count(start)))
        self._columns.update(range(start, start + len(names)))
        self.variables.extend(names)
        self.bounds.update(zip(names, bounds))

    def add_row(
        self,
        label: str,
        coeffs: Mapping[str, Fraction | int],
        rel: str,
        rhs: Fraction | int,
    ) -> None:
        """Append a row given by variable name; every name must be declared.

        Coefficients are stored in normal form, zeros dropped.
        """
        if rel not in (LE, GE):
            raise ValueError(f"relation must be {LE} or {GE}, got {rel!r}")
        position = self.position
        if not coeffs.keys() <= position.keys():
            name = next(n for n in coeffs if n not in position)
            raise ValueError(f"row {label} references undeclared variable {name}")
        values = coeffs.values()
        if 0 in values or not {*map(type, values)} <= {int}:
            coeffs = {n: c for n, c in zip(coeffs, map(_normal, values)) if c}
        self._add_index_row(
            label, [*map(position.__getitem__, coeffs)], [*coeffs.values()], rel, rhs
        )

    def _add_index_row(
        self,
        label: str,
        cols: list[int],
        vals: list[Fraction | int],
        rel: str,
        rhs: Fraction | int,
    ) -> None:
        """Append a row given by variable position; the row keeps both lists.

        A position out of range or repeated is refused.  The values must
        be nonzero and in normal form already, as ``add_row``, the
        builders and the transpose give them.
        """
        if rel not in (LE, GE):
            raise ValueError(f"relation must be {LE} or {GE}, got {rel!r}")
        if len(cols) != len(vals):
            raise ValueError(f"row {label} has {len(cols)} columns, {len(vals)} values")
        # one pass: the distinct in-range columns, as many as there are columns
        if len(self._columns.intersection(cols)) != len(cols):
            raise ValueError(f"row {label} has a column out of range or repeated: {cols}")
        row = Row(label, cols, vals, rel, _normal(rhs), self.variables, self.position)
        self.rows.append(row)

    def set_objective(self, coeffs: Mapping[str, Fraction | int]) -> None:
        for name in coeffs:
            if name not in self.bounds:
                raise ValueError(f"objective references undeclared variable {name}")
        self.objective = {n: _normal(c) for n, c in coeffs.items() if c != 0}

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


# -- assignments and feasibility ----------------------------------------------


@dataclass
class Assignment:
    """Variable values, exact (Fraction) or floating point.

    Variables absent from ``values`` count as 0: certificates and
    analytic solutions have sparse support by construction.
    """

    values: Mapping[str, Fraction] | Mapping[str, float]
    exact: bool = True

    @classmethod
    def from_rationals(cls, values: Mapping[str, Fraction | int]) -> "Assignment":
        return cls({k: Fraction(v) for k, v in values.items()}, exact=True)

    @classmethod
    def from_floats(cls, values: Mapping[str, float]) -> "Assignment":
        return cls(dict(values), exact=False)

    def get(self, name: str):
        v = self.values.get(name)
        if v is None:
            return ZERO if self.exact else 0.0
        return v

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Violation:
    kind: str  # "row" | "lower" | "upper"
    where: str  # row label or variable name
    amount: Fraction | float


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list[Violation]
    objective: Fraction | float
    unknown_names: tuple[str, ...] = ()

    def worst(self) -> Fraction | float:
        return max((v.amount for v in self.violations), default=ZERO)


def objective_value(lp: LinearProgram, assignment: Assignment) -> Fraction | float:
    if assignment.exact:
        return sum((c * assignment.get(n) for n, c in lp.objective.items()), ZERO)
    return sum(float(c) * assignment.get(n) for n, c in lp.objective.items())


def check_feasible(
    lp: LinearProgram, assignment: Assignment, tolerance: float | None = None
) -> FeasibilityReport:
    """Check an assignment against rows and bounds.

    tolerance=None means: exact comparison for exact assignments, 1e-9
    for float ones.  A violation is recorded with its (positive) amount.

    An exact assignment is checked in ints: every value is scaled once by
    the lcm D of the value denominators, so each row sum (of an integral
    row) is an int compared against rhs*D, with the tolerance scaled to
    tolerance*D.  Amounts are reported unscaled, as the Fraction
    amount/D.
    """
    if tolerance is None:
        tolerance = 0.0 if assignment.exact else 1e-9
    exact = assignment.exact
    values = assignment.values
    if exact:
        scale = lcm(*(v.denominator for v in values.values()))
        zero = 0
        tol = _normal(Fraction(tolerance) * scale)
    else:
        # scale 1.0 reads every bound and rhs as a float
        scale, zero, tol = 1.0, 0.0, tolerance
    # the (scaled) values by variable position; absent names count as zero
    position = lp.position
    xs = [zero] * len(lp.variables)
    unknown = []
    for name, v in values.items():
        j = position.get(name)
        if j is None:
            unknown.append(name)
        else:
            xs[j] = v.numerator * (scale // v.denominator) if exact else v
    if exact:
        objective = Fraction(
            _dot(map(position.__getitem__, lp.objective), lp.objective.values(), xs), scale
        )
    else:
        objective = objective_value(lp, assignment)
    violations: list[Violation] = []

    def amount(excess):
        return Fraction(excess, scale) if exact else excess

    for name, v in zip(lp.variables, xs):
        lo, hi = lp.bounds[name]
        lo_s = lo * scale
        if v < lo_s - tol:
            violations.append(Violation("lower", name, amount(lo_s - v)))
        if hi is not None:
            hi_s = hi * scale
            if v > hi_s + tol:
                violations.append(Violation("upper", name, amount(v - hi_s)))

    for row in lp.rows:
        lhs = _dot(row.cols, row.vals, xs)
        rhs = row.rhs * scale
        slack = rhs - lhs if row.rel == LE else lhs - rhs
        if slack < -tol:
            violations.append(Violation("row", row.label, amount(-slack)))

    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        objective=objective,
        unknown_names=tuple(sorted(unknown)),
    )


def _dot(cols: Iterable[int], vals: Iterable, xs: list):
    """sum of c * xs[j] over the paired cols and vals, in order."""
    return sum(map(mul, vals, map(xs.__getitem__, cols)))


# -- rational / float token helpers -------------------------------------------


def format_rational(q: Fraction) -> str:
    return str(q)  # Fraction renders as p/q or p


def parse_rational(tok: str) -> Fraction:
    """An integer, p/q or decimal literal.  Exponents are refused before
    any digit is read: ``write_lp`` never writes one, and ``1e10000000``
    alone would build a ten-million-digit integer."""
    if "e" in tok or "E" in tok:
        raise ValueError(f"bad rational literal {tok!r}: exponents are not accepted, write p/q")
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {tok!r}") from exc


_FLOAT_RE = re.compile(r"[.eE]")


def parse_value(tok: str) -> tuple[Fraction | float, bool]:
    """Parse a solution value; returns (value, is_exact)."""
    if _FLOAT_RE.search(tok) and "/" not in tok:
        return float(tok), False
    return parse_rational(tok), True


# -- LP text format -------------------------------------------------------------


def write_lp(lp: LinearProgram) -> str:
    lines = [FORMAT_HEADER, f"sense {lp.sense}"]
    for name in lp.variables:
        lo, hi = lp.bounds[name]
        hi_txt = "inf" if hi is None else format_rational(hi)
        lines.append(f"var {name} in [{format_rational(lo)}, {hi_txt}]")
    obj_parts = [f"{format_rational(c)} {n}" for n, c in lp.objective.items()]
    lines.append("obj " + " ".join(obj_parts) if obj_parts else "obj")
    for row in lp.rows:
        parts = [f"{format_rational(c)} {n}" for n, c in row.coeffs.items()]
        body = " ".join(parts) if parts else "0"
        lines.append(f"row {row.label}: {body} {row.rel} {format_rational(row.rhs)}")
    return "\n".join(lines) + "\n"


def _terms(toks: list[str], ln: str) -> dict[str, Fraction]:
    """Coefficient-name pairs as one map, a repeated name's terms summed."""
    if len(toks) % 2:
        raise ValueError(f"dangling token in {ln!r}")
    coeffs: dict[str, Fraction] = {}
    for coeff, name in zip(toks[::2], toks[1::2]):
        coeffs[name] = coeffs.get(name, ZERO) + parse_rational(coeff)
    return coeffs


def _content_lines(text: str) -> list[str]:
    """The lines of a text file, stripped, with blanks and ``#`` comments dropped."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def read_lp(text: str) -> LinearProgram:
    lines = _content_lines(text)
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"expected header {FORMAT_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("sense "):
        raise ValueError("expected a sense line after the header")
    sense = lines[1].split(maxsplit=1)[1]
    lp = LinearProgram(sense=sense)
    saw_obj = False
    for ln in lines[2:]:
        if ln.startswith("var "):
            m = re.fullmatch(r"var (\S+) in \[([^,\]]+), ([^\]]+)\]", ln)
            if not m:
                raise ValueError(f"bad var line: {ln!r}")
            name, lo_txt, hi_txt = m.group(1), m.group(2).strip(), m.group(3).strip()
            hi = None if hi_txt == "inf" else parse_rational(hi_txt)
            lp.add_variable(name, parse_rational(lo_txt), hi)
        elif ln == "obj" or ln.startswith("obj "):
            if saw_obj:
                raise ValueError("duplicate obj line")
            saw_obj = True
            lp.set_objective(_terms(ln.split()[1:], ln))
        elif ln.startswith("row "):
            head, sep, body = ln[4:].partition(": ")
            if not sep:
                raise ValueError(f"bad row line (missing label): {ln!r}")
            toks = body.split()
            if len(toks) < 2 or toks[-2] not in (LE, GE):
                raise ValueError(f"bad row line (missing relation): {ln!r}")
            rel, rhs = toks[-2], parse_rational(toks[-1])
            toks = toks[:-2]
            lp.add_row(head, _terms([] if toks == ["0"] else toks, ln), rel, rhs)
        else:
            raise ValueError(f"unrecognized line: {ln!r}")
    if not saw_obj:
        raise ValueError("missing obj line")
    return lp


# -- solution text format --------------------------------------------------------


@dataclass
class SolutionFile:
    status: str  # optimal | infeasible | unbounded | resource | feasible
    objective: Fraction | float | None
    assignment: Assignment | None


def write_solution(sol: SolutionFile) -> str:
    lines = [f"status {sol.status}"]
    if sol.objective is not None:
        obj = sol.objective
        lines.append(
            f"objective {format_rational(obj) if isinstance(obj, Fraction) else repr(obj)}"
        )
    if sol.assignment is not None:
        exact = sol.assignment.exact
        for name, v in sol.assignment.values.items():
            txt = format_rational(v) if exact else repr(float(v))
            lines.append(f"{name} = {txt}")
    return "\n".join(lines) + "\n"


def _finite_value(tok: str, ln: str) -> tuple[Fraction | float, bool]:
    """``parse_value`` refusing a float that overflows to inf."""
    value, is_exact = parse_value(tok)
    if not abs(value) < float("inf"):
        raise ValueError(f"non-finite value in {ln!r}")
    return value, is_exact


def read_solution(text: str) -> SolutionFile:
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("status "):
        raise ValueError("expected a status line first")
    status = lines[0].split(maxsplit=1)[1]
    objective: Fraction | float | None = None
    values: dict[str, Fraction | float] = {}
    exact = True
    rest = lines[1:]
    if rest and rest[0].startswith("objective "):
        objective, obj_exact = _finite_value(rest[0].split(maxsplit=1)[1], rest[0])
        exact = exact and obj_exact
        rest = rest[1:]
    for ln in rest:
        name, sep, val_txt = ln.partition(" = ")
        if not sep:
            raise ValueError(f"bad solution line: {ln!r}")
        name = name.strip()
        if name in values:
            raise ValueError(f"{name} is set on two lines")
        value, is_exact = _finite_value(val_txt.strip(), ln)
        exact = exact and is_exact
        values[name] = value
    assignment: Assignment | None = None
    if values or status in ("optimal", "feasible"):
        if not exact:
            values = {k: float(v) for k, v in values.items()}
            if objective is not None:
                objective = float(objective)
        assignment = Assignment(values, exact=exact)
    return SolutionFile(status=status, objective=objective, assignment=assignment)
