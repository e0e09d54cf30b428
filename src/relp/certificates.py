"""Dual certificates read off expressions, and closed-form primal points.

The certificate half turns a regular expression into explicit dual
multipliers whose objective is exactly the expression's length, one
construction per program family:

* ``certify_weak_dual`` charges every concatenation split of the
  expression to its factor-language pair and every term occurrence to a
  string bound, giving a feasible point of the transposed
  string-variable program.  ``check_weak_dual_support`` checks it with
  ``check_feasible`` on the weak dual built over the certificate's own
  support, so the surrounding closure never has to be materialized.
* ``certify_relaxed_dual`` does the same for the block-indexed program
  over weight-limited binary strings, charging each split to its block
  quadruple.

Both read the expression through one walk (``_walk``), which gives L(r),
its terms and its term-safe concatenation splits; each keeps only its
own charging rule and checks.

The primal half collects hand-derived feasible assignments whose
objectives bound optima from below: ``analytic_sigma_primal`` for the
full language of one length, ``analytic_binomial1_primal`` for
single-one strings (with ``reduced_b1_assignment`` extending it to the
reduced program's split variables), ``analytic_threshold_strong`` for
the at-least-one-one language, and ``analytic_g`` for higher weights,
whose leading constants are fixed empirically by ``calibrate_alphas``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, isfinite, log, log1p, log2

from .builders import build_weak_support_dual
from .closure import (
    BinomialIndex,
    Closure,
    block_spans,
    compute_closure,
    product_block,
    product_spans,
)
from .lang import Language, all_strings, binomial, ones, threshold
from .lp import (
    Assignment,
    FeasibilityReport,
    check_feasible,
    row_quad,
    var_big_x,
    var_d,
    var_w,
    var_x,
    var_y_pair,
    var_y_quad,
)
from .regex import Concat, Regex, Symbol, Union, as_word, cat, concat_factors, parse, word

_ZERO = Fraction(0)

Quad = tuple[int, int, int, int]


class CalibrationError(RuntimeError):
    """No admissible constant was found for some weight level."""


# -- splitting concatenations -------------------------------------------------


def _split_concat(node: Concat) -> tuple[Regex, Regex]:
    """Split a concatenation at its rightmost term-safe boundary.

    The factor chain is flattened and maximal symbol runs are merged
    back into single terms, so no remaining boundary cuts a term in
    half; the split then falls before the last chain element.  Every
    term of the node ends up as a term of exactly one side, which keeps
    the objective bookkeeping exact.
    """
    parts: list[Regex] = []
    run: list[str] = []
    for factor in concat_factors(node):
        piece = as_word(factor)
        if piece is None:
            if run:
                parts.append(word("".join(run)))
                run.clear()
            parts.append(factor)
        else:
            run.append(piece)
    if run:
        parts.append(word("".join(run)))
    if len(parts) < 2:
        raise ValueError("cannot split a bare term")
    return cat(parts[:-1]), parts[-1]


Split = tuple[Language, Language]


def _walk(r: Regex) -> tuple[Language, list[str | Split]]:
    """L(r), and every term occurrence of r and the factor languages of every split.

    Union branches are walked in turn; a concatenation is split by
    ``_split_concat`` and both sides are walked.  Each term of r is
    listed exactly once, so charging |s| per listed term s sums to the
    length of r.  Node languages are memoized for the one walk.
    """
    # id(node) -> (node, L(node)); holding the node keeps its id from reuse
    memo: dict[int, tuple[Regex, Language]] = {}

    def lang_of(node: Regex) -> Language:
        if id(node) not in memo:
            if isinstance(node, Symbol):
                memo[id(node)] = (node, Language([node.ch]))
            else:
                a, b = lang_of(node.left), lang_of(node.right)
                memo[id(node)] = (node, a.concat(b) if isinstance(node, Concat) else a.union(b))
        return memo[id(node)][1]

    steps: list[str | Split] = []
    stack: list[Regex] = [r]
    while stack:
        node = stack.pop()
        term = as_word(node)
        if term is not None:
            steps.append(term)
        elif isinstance(node, Union):
            stack.append(node.left)
            stack.append(node.right)
        else:
            assert isinstance(node, Concat)
            left, right = _split_concat(node)
            steps.append((lang_of(left), lang_of(right)))
            stack.append(left)
            stack.append(right)
    return lang_of(r), steps


# -- weak dual certificates ---------------------------------------------------


@dataclass(frozen=True)
class WeakDualCert:
    """Dual multipliers read off an expression denoting ``target``.

    ``w[s]`` counts occurrences of s as a term of the expression;
    ``y[(K1, K2)]`` counts concatenation splits whose factor languages
    are (K1, K2).  The objective sum(|s| * w[s]) equals the expression's
    length, and the multipliers satisfy every string row of the
    transposed string-variable program for ``target``.
    """

    target: Language
    w: dict[str, Fraction]
    y: dict[Split, Fraction]

    def objective(self) -> Fraction:
        return sum((len(s) * c for s, c in self.w.items()), _ZERO)

    def as_assignment(self) -> Assignment:
        values: dict[str, Fraction] = {var_w(s): c for s, c in self.w.items()}
        for (k1, k2), c in self.y.items():
            values[var_y_pair(k1, k2)] = c
        return Assignment.from_rationals(values)


def certify_weak_dual(r: Regex | str, target: Language | None = None) -> WeakDualCert:
    """Read weak dual multipliers for L(r) off the expression r.

    Terms contribute to w, concatenation splits to y, and union
    branches simply add.  The result has objective exactly the length
    of r and is feasible at zero tolerance.  If ``target`` is given it
    must equal L(r); this guards call sites that pair an expression
    with an independently constructed language.
    """
    if isinstance(r, str):
        r = parse(r)
    lang, steps = _walk(r)
    if target is not None and target != lang:
        raise ValueError(
            f"expression denotes {lang.serialize()}, not {target.serialize()}"
        )
    w: dict[str, Fraction] = {}
    y: dict[Split, Fraction] = {}
    for step in steps:
        if isinstance(step, str):
            w[step] = w.get(step, _ZERO) + 1
        else:
            y[step] = y.get(step, _ZERO) + 1
    return WeakDualCert(target=lang, w=w, y=y)


def check_weak_dual_support(
    cert: WeakDualCert, tolerance: float | None = None
) -> FeasibilityReport:
    """Verify a weak dual certificate from its own support.

    The transposed program has one row per string of the (typically
    huge) closure universe, but a string outside the certificate's
    support and the target has the all-zero row 0 >= 0.  Checking the
    weak dual built over the target's strings, the strings of w and
    the strings of K1, K2 and K1K2 for each pair in y therefore
    verifies the whole program.  Comparisons are exact unless a
    tolerance is given.
    """
    dual = build_weak_support_dual(cert.target, cert.y, cert.w)
    return check_feasible(dual, cert.as_assignment(), tolerance)


# -- relaxed (block program) dual certificates --------------------------------


def _block_of(lang: Language, index: BinomialIndex) -> tuple[int, int]:
    m = lang.uniform_length()
    weights = {ones(s) for s in lang}
    if m is None or len(weights) != 1:
        raise ValueError(f"{lang.serialize()} is not a uniform block subset")
    l = weights.pop()
    if not index.fits(m, l):
        raise ValueError(
            f"block ({m},{l}) of {lang.serialize()} does not fit inside B({index.n},{index.k})"
        )
    return m, l


@dataclass(frozen=True)
class RelaxedDualCert:
    """Block-program dual multipliers read off an expression for B(n, k).

    ``w[s]`` counts occurrences of s as a term of the expression and
    ``y[(n1, l1, n2, l2)]`` is the mass charged to the block quadruple
    of a concatenation split: |L1||L2| / (|block1| * |block2|), which
    is exactly 1 when both factor languages fill their blocks.  The
    objective sum(|s| * w[s]) equals the expression's length.
    """

    n: int
    k: int
    w: dict[str, Fraction]
    y: dict[Quad, Fraction]

    def objective(self) -> Fraction:
        return sum((len(s) * c for s, c in self.w.items()), _ZERO)

    def as_assignment(self) -> Assignment:
        values: dict[str, Fraction] = {var_w(s): c for s, c in self.w.items()}
        for quad, c in self.y.items():
            values[var_y_quad(*quad)] = c
        return Assignment.from_rationals(values)


def certify_relaxed_dual(r: Regex | str, n: int, k: int) -> RelaxedDualCert:
    """Read block-program dual multipliers off an expression for B(n, k).

    Terms charge their own string bound, exactly as in the weak
    procedure; each concatenation split charges
    |L1||L2| / (|block1| * |block2|) to its block quadruple.  Requires
    L(r) = B(n, k), and every sublanguage the recursion touches, and
    every split's product, must sit inside a block of
    ``BinomialIndex(n, k)``.  The objective is always exactly the length of r.

    Feasibility in the transposed block program (at zero tolerance) is
    guaranteed when every split's factor languages fill their blocks —
    true of the recursive balanced construction and any expression
    built from whole-block pieces.  The block rows only see a factor
    language through its block, so a split with a partial side drags
    the whole block down and the result can fail elsewhere; the
    feasibility report says so, honestly.
    """
    if isinstance(r, str):
        r = parse(r)
    lang, steps = _walk(r)
    if lang != binomial(n, k):
        raise ValueError(f"expression denotes {lang.serialize()}, not B({n},{k})")
    index = BinomialIndex(n, k)
    w: dict[str, Fraction] = {}
    y: dict[Quad, Fraction] = {}
    for step in steps:
        if isinstance(step, str):
            if not index.fits(len(step), ones(step)):
                raise ValueError(
                    f"term {step!r} lies outside the universe of B({n},{k})"
                )
            w[step] = w.get(step, _ZERO) + 1
            continue
        lang1, lang2 = step
        m1, l1 = _block_of(lang1, index)
        m2, l2 = _block_of(lang2, index)
        if not index.fits(m1 + m2, l1 + l2):
            raise ValueError(
                f"product block ({m1 + m2},{l1 + l2}) does not fit inside B({n},{k})"
            )
        quad = (m1, l1, m2, l2)
        mass = Fraction(len(lang1) * len(lang2), comb(m1, l1) * comb(m2, l2))
        y[quad] = y.get(quad, _ZERO) + mass
    return RelaxedDualCert(n=n, k=k, w=w, y=y)


# -- closed-form primal points ------------------------------------------------


def analytic_sigma_primal(n: int, alphabet: str = "01") -> Assignment:
    """The exact point x_s = |s| / |A|^(|s|-1) on strings of length 1..n.

    Feasible in the string-variable program of the full length-n
    language over alphabet A, with objective n|A| there — matching the
    split certificate of the n-fold alphabet union, so the two pin the
    optimum without touching the closure.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values: dict[str, Fraction] = {}
    base = len(alphabet)
    for m in range(1, n + 1):
        x = Fraction(m, base ** (m - 1))
        for s in all_strings(m, alphabet):
            values[var_x(s)] = x
    return Assignment.from_rationals(values)


def analytic_binomial1_primal(n: int) -> Assignment:
    """Closed-form feasible point of the block program at weight one:
    x = m on the all-zero string of length m and 1 + ln m on each
    single-one string.  Objective over B(n, 1): n(1 + ln n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values: dict[str, float] = {var_x("0" * m): float(m) for m in range(1, n + 1)}
    for m in range(1, n + 1):
        x = 1.0 + log(m)
        for s in binomial(m, 1):
            values[var_x(s)] = x
    return Assignment.from_floats(values)


def reduced_b1_assignment(n: int) -> Assignment:
    """The weight-one point extended to the reduced program's split
    variables.

    Each d soaks up exactly the growth ln((a+b)/a) of the single-one
    value when b zeros are appended (or prepended), making the split
    rows tight; the cap rows then reduce to a ln(1 + b/a) <= b, which
    holds for all positive a, b.
    """
    values = dict(analytic_binomial1_primal(n).values)
    for a in range(1, n):
        for b in range(1, n - a + 1):
            grow_r = log1p(b / a)
            for s in binomial(a, 1):
                values[var_d("r", a, b, s)] = grow_r
            grow_l = log1p(a / b)
            for s in binomial(b, 1):
                values[var_d("l", a, b, s)] = grow_l
    return Assignment.from_floats(values)


def analytic_threshold_strong(n: int, closure: Closure | None = None) -> Assignment:
    """Feasible point of the member-variable program for the
    at-least-one-one language of length n.

    A member containing the all-zero string of its length n' is worth
    n' (charged to that string's bound); any other member is worth
    1 + ln n' per single-one string it contains.  The base language is
    then worth n(1 + ln n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if closure is None:
        closure = compute_closure(threshold(n, 1))
    values: dict[str, float] = {}
    for member in closure.members:
        width = member.uniform_length()
        if width is None:
            raise ValueError(f"{member.serialize()} is not length-uniform")
        if "0" * width in member:
            values[var_big_x(member)] = float(width)
        else:
            singles = sum(1 for s in member if ones(s) == 1)
            values[var_big_x(member)] = singles * (1.0 + log(width))
    return Assignment.from_floats(values)


# -- the weight-k point g and its calibration ---------------------------------

ALPHA_HEADER = "relp-alphas v1"

# calibration's float slack on every row and bound, and the range of
# exponents an alpha_j = 2^e may take
_SLACK = 1e-9
_MAX_EXPONENT = 6
_MIN_EXPONENT = -20


@dataclass(frozen=True)
class AlphaTable:
    """Calibrated constants for the weight-k point g.

    ``alphas[j-1]`` is the weight-(j+1) constant alpha_j: the largest
    power of two passing every block row and variable bound of the
    programs up to length ``nmax``.  ``ratio_intervals[k]`` is the
    observed range of (sum of g over B(n, k)) / (n ln^k n) for n from
    max(2, k) to ``grid_max`` — the yardstick for how the objective
    grows.  Feasibility is only claimed up to nmax; the ratio grid may
    extend beyond it.
    """

    alphas: tuple[float, ...]
    kmax: int
    nmax: int
    ratio_intervals: dict[int, tuple[float, float]]
    grid_max: int = 64

    def alpha(self, j: int) -> float:
        if not 1 <= j <= len(self.alphas):
            raise ValueError(
                f"alpha_{j} was not calibrated (table holds 1..{len(self.alphas)})"
            )
        return self.alphas[j - 1]


def _alpha(alphas: AlphaTable | Sequence[float], j: int) -> float:
    if isinstance(alphas, AlphaTable):
        return alphas.alpha(j)
    try:
        return alphas[j - 1]
    except IndexError:
        raise ValueError(f"alpha_{j} is not available") from None


def _unit(span: int, power: int) -> float:
    return (log(span) / span) ** power


def _unit_sum(spans: dict[int, int], power: int) -> float:
    return sum(count * _unit(p, power) for p, count in spans.items())


def g_value(s: str, alphas: AlphaTable | Sequence[float]) -> float:
    """The closed-form block-program value of one string: |s| at weight
    zero, 1 + ln|s| at weight one, and alpha_{k-1} (ln p / p)^(k-1) at
    weight k >= 2, where p is the inclusive span from the first one to
    the last."""
    k = ones(s)
    if k == 0:
        return float(len(s))
    if k == 1:
        return 1.0 + log(len(s))
    return _alpha(alphas, k - 1) * _unit(s.rindex("1") - s.index("1") + 1, k - 1)


def analytic_g(n: int, k: int, alphas: AlphaTable | Sequence[float]) -> Assignment:
    """g on every variable of the block program for B(n, k)."""
    index = BinomialIndex(n, k)
    return Assignment.from_floats({var_x(s): g_value(s, alphas) for s in index.strings()})


def g_objective(n: int, k: int, alphas: AlphaTable | Sequence[float]) -> float:
    """Sum of g over B(n, k): the block-program objective of analytic_g.

    g depends only on a string's weight and span (its length below weight
    two), and for k >= 2 B(n, k) holds (n - p + 1) * C(p - 2, k - 2)
    strings of span p, so the sum runs over spans instead of strings.
    """
    if k < 2:
        return comb(n, k) * g_value("1" * k + "0" * (n - k), alphas)
    return sum(
        count * g_value("1" * (k - 1) + "0" * (p - k) + "1", alphas)
        for p, count in block_spans(n, k).items()
    )


def relaxed_row_margin(quad: Quad, g: Callable[[str], float]) -> float:
    """Slack of one block row under a string-value map: the two
    factor-block sums minus the product-block sum.  Nonnegative means
    the row is satisfied."""
    n1, k1, n2, k2 = quad
    lhs = sum(g(u) for u in product_block(n1, k1, n2, k2))
    rhs = sum(g(s) for s in binomial(n1, k1)) + sum(g(s) for s in binomial(n2, k2))
    return rhs - lhs


def _product_g_sum(quad: Quad, alphas: AlphaTable | Sequence[float]) -> float:
    """Sum of g over the product block of one row, through its spans."""
    n1, k1, n2, k2 = quad
    k = k1 + k2
    if k < 2:
        return comb(n1, k1) * comb(n2, k2) * g_value("1" * k + "0" * (n1 + n2 - k), alphas)
    return _alpha(alphas, k - 1) * _unit_sum(product_spans(*quad), k - 1)


def _row_affine(quad: Quad, fixed: Sequence[float], j: int) -> tuple[float, float]:
    """Margin of a product-weight-(j+1) row as A - B * alpha_j.

    The product block has weight j+1, so its whole sum scales with the
    candidate; a factor block scales too when it carries all the
    weight, and otherwise contributes a fixed amount through the
    already-calibrated values.  Every sum runs over spans.
    """
    n1, k1, n2, k2 = quad
    top = j + 1
    scaled = _unit_sum(product_spans(*quad), j)
    fixed_part = 0.0
    for side_n, side_k in ((n1, k1), (n2, k2)):
        if side_k == top:
            scaled -= _unit_sum(block_spans(side_n, side_k), j)
        else:
            fixed_part += g_objective(side_n, side_k, fixed)
    return fixed_part, scaled


def calibrate_alphas(kmax: int, nmax: int, *, grid_max: int = 64) -> AlphaTable:
    """Fix alpha_1 .. alpha_(kmax-1) to the largest feasible powers of two.

    alpha_j scales g on weight-(j+1) strings only, so with the earlier
    constants fixed it is pinned by the bounds g(s) <= |s| at weight
    j+1 and by the block rows whose product weight is j+1.  Both are
    affine in the candidate, so one sweep collects the tightest
    admissible value, which is then rounded down to a power of two.
    Scanning length nmax covers every shorter program: a block row only
    constrains its lengths to sum to at most the program length, and
    raising an earlier constant never hurts a later row (it only
    enlarges right-hand sides).  A final pass re-verifies every row and
    bound of the full length-nmax programs and records the
    objective-growth intervals on the ratio grid.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if nmax < max(2, kmax):
        raise ValueError(f"nmax={nmax} is too small to calibrate up to weight {kmax}")
    alphas: list[float] = []
    for j in range(1, kmax):
        k = j + 1
        cap = float(2**_MAX_EXPONENT)
        binding = f"the exponent ceiling 2^{_MAX_EXPONENT}"
        # g depends on a string's span only, so the bounds g(s) <= |s| are
        # checked once per span of each block B(m, k)
        for m in range(k, nmax + 1):
            for span in block_spans(m, k):
                allowed = (m + _SLACK) / _unit(span, j)
                if allowed < cap:
                    cap, binding = allowed, f"bound g <= {m} at span {span} of B({m},{k})"
        for quad in BinomialIndex(nmax, k).quadruples():
            if quad[1] + quad[3] != k:
                continue
            fixed_part, scaled = _row_affine(quad, alphas, j)
            if scaled > 0:
                allowed = (fixed_part + _SLACK) / scaled
                if allowed < cap:
                    cap, binding = allowed, f"row {row_quad(*quad)}"
            elif fixed_part < -_SLACK:
                raise CalibrationError(
                    f"row {row_quad(*quad)} is infeasible for every alpha_{j}"
                )
        if cap <= 0:
            raise CalibrationError(f"no positive alpha_{j} passes {binding}")
        exponent = min(_MAX_EXPONENT, floor(log2(cap)))
        while 2.0**exponent > cap:
            exponent -= 1
        while 2.0 ** (exponent + 1) <= cap and exponent + 1 <= _MAX_EXPONENT:
            exponent += 1
        if exponent < _MIN_EXPONENT:
            raise CalibrationError(
                f"alpha_{j} would need 2^{exponent} < 2^{_MIN_EXPONENT}; binding: {binding}"
            )
        alphas.append(2.0**exponent)
    table = tuple(alphas)
    # belt and braces: re-verify everything the staged sweep reasoned about,
    # over the union of the length-nmax programs of every weight up to kmax
    indexes = [BinomialIndex(nmax, top) for top in range(kmax + 1)]
    blocks = sorted({block for index in indexes for block in index.blocks()})
    for m, l in blocks:
        if l < 2:
            continue
        for span in block_spans(m, l):
            v = _alpha(table, l - 1) * _unit(span, l - 1)
            if v > m + _SLACK:
                raise CalibrationError(
                    f"bound g <= {m} fails at span {span} of B({m},{l}): g = {v}"
                )
    # a row's margin is two factor-block sums less its product-block sum;
    # each block is summed once, each product block over its spans
    block_sums = {block: g_objective(*block, table) for block in blocks}
    for quad in sorted({quad for index in indexes for quad in index.quadruples()}):
        n1, k1, n2, k2 = quad
        margin = block_sums[n1, k1] + block_sums[n2, k2] - _product_g_sum(quad, table)
        if margin < -_SLACK:
            raise CalibrationError(f"row {row_quad(*quad)} fails by {-margin}")
    grid_hi = max(grid_max, nmax)
    ratios: dict[int, tuple[float, float]] = {}
    for k in range(1, kmax + 1):
        lo = hi = None
        for n in range(max(2, k), grid_hi + 1):
            ratio = g_objective(n, k, table) / (n * log(n) ** k)
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


def write_alpha_table(table: AlphaTable) -> str:
    lines = [
        ALPHA_HEADER,
        f"kmax {table.kmax}",
        f"nmax {table.nmax}",
        f"grid {table.grid_max}",
    ]
    for j, a in enumerate(table.alphas, start=1):
        lines.append(f"alpha {j} {a!r}")
    for k in sorted(table.ratio_intervals):
        lo, hi = table.ratio_intervals[k]
        lines.append(f"ratio {k} {lo!r} {hi!r}")
    return "\n".join(lines) + "\n"


def read_alpha_table(text: str) -> AlphaTable:
    """Parse a table written by ``write_alpha_table``.

    Refuses (ValueError) a table whose dimensions, alphas or ratio lines
    could not have come from ``calibrate_alphas``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != ALPHA_HEADER:
        raise ValueError(f"expected header {ALPHA_HEADER!r}")
    dims: dict[str, int] = {}
    alphas: dict[int, float] = {}
    ratios: dict[int, tuple[float, float]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] in ("kmax", "nmax", "grid") and len(parts) == 2 and parts[0] not in dims:
            dims[parts[0]] = int(parts[1])
        elif parts[0] == "alpha" and len(parts) == 3 and int(parts[1]) not in alphas:
            alphas[int(parts[1])] = float(parts[2])
        elif parts[0] == "ratio" and len(parts) == 4 and int(parts[1]) not in ratios:
            ratios[int(parts[1])] = (float(parts[2]), float(parts[3]))
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    if len(dims) < 3:
        raise ValueError("missing kmax/nmax/grid lines")
    kmax, nmax, grid = dims["kmax"], dims["nmax"], dims["grid"]
    try:
        ordered = tuple(alphas[j] for j in range(1, len(alphas) + 1))
    except KeyError as exc:
        raise ValueError(f"alpha indices are not contiguous: missing {exc}") from None
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if nmax < max(2, kmax):
        raise ValueError(f"nmax must be >= max(2, kmax) = {max(2, kmax)}, got {nmax}")
    if len(ordered) != kmax - 1:
        raise ValueError(f"kmax {kmax} needs {kmax - 1} alphas, got {len(ordered)}")
    for j, a in enumerate(ordered, start=1):
        if not (isfinite(a) and a > 0):
            raise ValueError(f"alpha {j} must be finite and positive, got {a!r}")
    if sorted(ratios) != list(range(1, kmax + 1)):
        raise ValueError(f"ratio lines must be k = 1..{kmax}, got {sorted(ratios)}")
    for k, (lo, hi) in sorted(ratios.items()):
        if not (isfinite(lo) and isfinite(hi) and lo <= hi):
            raise ValueError(f"ratio {k} must be finite with low <= high, got {lo!r} {hi!r}")
    return AlphaTable(
        alphas=ordered,
        kmax=kmax,
        nmax=nmax,
        ratio_intervals=ratios,
        grid_max=grid,
    )
