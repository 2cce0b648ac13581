"""Linear-system encoding and exact elimination to reduced row echelon form.

A one-in-three clause {p, p', p''} becomes the equation
p + p' + p'' = 1; bottom contributes nothing, and a negated literal ~p
stands for 1 - p, so it adds -1 at p and lowers the right-hand side by 1:
{~p, q, ~s} reads -p + q - s = -1.  A 3-CNF clause j becomes one carry
row, l1 + l2 + l3 = 1 + a_j + 2*b_j over two fresh 0/1 carries: each
true-literal count from 1 to 3 has exactly one (a_j, b_j), and a count of
0 has none.  So a carry row is the clause's XSAT row negated, beside its
carries, and one loop writes both.  The carries a_1..a_m come first, so
each row's leftmost column is its own a_j, which no other row holds: both
methods return the carry rows as encoded.  The 0/1 solutions of the
resulting system are in one-to-one correspondence with the models of the
formula, so the reduced row echelon form exposes how many variables are
genuinely free.

Nothing is ever rounded, and the route from clauses to the RREF is integer
throughout.  Each equation is a sparse integer row, a dict of its nonzero
coefficients (three per clause plus fill-in), and elimination never forms
a fraction (fraction-free elimination, Bareiss, Math. Comp. 1968).
Elimination copies the input rows once, updates the copies in place, and
makes each row primitive once, at the end; an update divides out a common
factor only when it has scaled the row.  A forward sweep takes the columns
left to right and clears each pivot's column below it; of the rows that
hold a column, the one with the fewest entries is its pivot row, which
keeps fill-in low, and of those tied for fewest the last.  Clauses come in
ascending canonical order, so the last tied row's other entries lie
furthest right, and its fill lands on columns the sweep reaches later.
Then :func:`back_substitute`, the pass the substitution method runs too,
clears every pivot column above its pivot row, last row first.  The RREF of a
consistent system is unique, so this order keeps the rows any other order
with the same pivots would, and each kept pivot row divided by its pivot
entry is the row a rational Gauss-Jordan elimination would give.  An
inconsistent system's right-hand sides depend on the pivot rows, so it is
reduced again with the first row holding each column as the pivot row.
Columns are never physically permuted: pivot and free columns are reported
as index lists instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .formula import CnfFormula, XsatFormula


@dataclass(frozen=True)
class LinearSystem:
    """Augmented k x (r+1) system, one sparse row per equation.

    Row i is a ``{col: int}`` dict of equation i's nonzero coefficients.
    Column c < ``num_vars`` is variable c + 1, and column ``num_vars`` is
    the right-hand side.  :func:`encode_sys` builds every row primitive
    (the gcd of its coefficients is 1); elimination makes any other row so.
    """

    rows: tuple[dict[int, int], ...]
    num_vars: int


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form with zero rows dropped.

    ``rows`` holds the kept pivot rows in order, as ``{col: int}`` dicts
    like :class:`LinearSystem` rows.  Row i is primitive with a positive
    entry at ``pivot_cols[i]``; that entry is the row's D, the least common
    denominator of the rational row.  Besides its own pivot column, no
    row holds a pivot column.  ``pivot_cols`` are 0-based column indices
    into the original variable order, and column ``num_vars`` is the
    augmented one.  ``inconsistent`` is set when elimination produced a
    row that is zero on every variable column but nonzero in the augmented
    column.  ``free_cols``, the variable columns that are no pivot, is set
    from the two, and ``rank`` and ``nullity`` are read off it.

    :func:`xsat.substitution.substitute` returns the same type with every
    D equal to 1, and there ``pivot_cols`` can repeat: two rows solved for
    the same variable.  ``rank`` counts the distinct pivots.
    """

    rows: tuple[dict[int, int], ...]
    pivot_cols: tuple[int, ...]
    num_vars: int
    inconsistent: bool
    free_cols: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        pivots = set(self.pivot_cols)
        object.__setattr__(self, "free_cols", tuple(
            c for c in range(self.num_vars) if c not in pivots))

    @property
    def rank(self) -> int:
        return self.num_vars - len(self.free_cols)

    @property
    def nullity(self) -> int:
        return len(self.free_cols)


def encode_sys(f: XsatFormula | CnfFormula) -> LinearSystem:
    """One equation per clause: for XSAT the sum of its literals equals 1,
    and for 3-CNF the carry row ``a_j + 2*b_j - (l1 + l2 + l3) = -1``, with
    each negated literal ~p read as 1 - p.

    A CNF over n variables and m clauses gives n + 2m columns: a_1..a_m,
    then x_1..x_n, then b_1..b_m.  Clause j's carry row is its XSAT row
    with the variable columns shifted by m and every entry and the
    right-hand side negated, plus 1 at a_j and 2 at b_j.  So it is
    primitive and solved for a_j by either method.

    A variable's entry is its plain occurrences less its negated ones, and
    the right-hand side falls by one per negated occurrence (both negated
    in a carry row); a zero entry or right-hand side is not stored.  An
    XSAT clause row is primitive as built: over two or three variables it
    has an entry of 1 or -1, over one variable its entry and right-hand
    side have no common factor, and {v, ~v, B} gives the empty row.
    """
    n = f.num_vars
    m = f.num_clauses if isinstance(f, CnfFormula) else 0
    width = n + 2 * m
    # variable v is column v - 1, or m + v - 1 in a carry row, which is negated
    shift, sign = m - 1, -1 if m else 1
    rows: list[dict[int, int]] = []
    for clause in f.clauses:  # clause j becomes row j = len(rows)
        row = {len(rows): 1, m + n + len(rows): 2} if m else {}
        rhs = sign
        for lit in clause:
            if lit > 0:
                row[shift + lit] = row.get(shift + lit, 0) + sign
            elif lit < 0:
                row[shift - lit] = row.get(shift - lit, 0) - sign
                rhs -= sign
        row[width] = rhs
        # only a negated literal can leave a zero entry or right-hand side
        rows.append(row if rhs == sign else {c: v for c, v in row.items() if v})
    return LinearSystem(tuple(rows), width)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its values."""
    common = math.gcd(*row.values())
    if common > 1:
        return {c: v // common for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int):
    """In place: ``row <- p*row - g*pivot``, cancelling ``row[col]``.
    ``pivot[col]`` must be positive.

    p and g are ``pivot[col]`` and ``row[col]`` divided by their gcd, which
    is not taken when ``pivot[col]`` is 1.  Only a row scaled by p > 1 is
    divided by the gcd of its values afterwards: an unscaled update can
    leave a common factor (x + y = 1 less x - y = 1 is 2y = 0), which
    :func:`_reduce` divides out once, at its end.  Under substitution every
    pivot entry is 1 and every row keeps its own pivot entry of 1, so no
    row there is scaled or left with a common factor.  Either way the row
    is a positive multiple of the one a division after every update would
    give."""
    g = row[col]
    p = pivot[col]
    if p != 1:
        d = math.gcd(p, g)
        p, g = p // d, g // d
        if p != 1:
            for c in row:
                row[c] *= p
    for c, v in pivot.items():
        x = row.get(c, 0) - g * v
        if x:
            row[c] = x
        else:
            del row[c]
    if p != 1:
        # divided in place, where _primitive would build a new dict
        common = math.gcd(*row.values())
        if common > 1:
            for c in row:
                row[c] //= common


def back_substitute(rows: list[dict[int, int]], pivot_cols: list[int]):
    """In place: clear from each row every pivot column but its own.

    ``rows[i]`` is solved for ``pivot_cols[i]`` and has a positive entry
    there; rows past the pivots are left alone, and pivots may repeat.  No
    row may hold the pivot column of a row above it, unless that column is
    its own pivot.  The rows are taken last first, and each pivot column a
    row holds is eliminated with the last row solved for that column, one
    :func:`_eliminate` step.  That row lies below, so it already holds no
    pivot column but its own, and the step brings none in: one pass reaches
    the fixpoint.  A step scales the row by a positive factor only, so its
    pivot entry keeps its sign.
    """
    last: dict[int, dict[int, int]] = {}
    for i in range(len(pivot_cols) - 1, -1, -1):
        row, pivot = rows[i], pivot_cols[i]
        for col in [c for c in row if c != pivot and c in last]:
            _eliminate(row, last[col], col)
        last.setdefault(pivot, row)


def _reduce(system: LinearSystem,
            sparsest: bool) -> tuple[list[dict[int, int]], list[int]]:
    """The sweeps of :func:`gauss_jordan`: (rows, pivot columns), with the
    sparsest holder of each column as its pivot row when ``sparsest`` is
    set, else the first.  The first ``len(pivot_cols)`` rows are the pivot
    rows in order, each with a positive pivot entry; the rest are zero on
    every variable column.

    Of the sparsest holders, the last is taken.  Clauses come in ascending
    canonical order, so the last one's other entries lie furthest right,
    and the fill it brings lands on columns the sweep reaches later (at
    seed 5, elim-large systems take 414 row updates on average where the
    first sparsest holder took 486).  :func:`_eliminate` leaves common
    factors in rows it does not scale, so every row is made primitive
    once, at the end; the copies are taken as they come."""
    rows = [dict(row) for row in system.rows]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        holders = [i for i in range(cur, n_rows) if col in rows[i]]
        if not holders:
            continue
        p = (min(reversed(holders), key=lambda i: len(rows[i])) if sparsest
             else holders[0])
        pivot = rows[p]
        others = [rows[i] for i in holders if i != p]
        if pivot[col] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
        rows[p] = rows[cur]
        rows[cur] = pivot
        for row in others:
            _eliminate(row, pivot, col)
        pivot_cols.append(col)
        cur += 1
    back_substitute(rows, pivot_cols)
    return [_primitive(row) for row in rows], pivot_cols


def gauss_jordan(system: LinearSystem) -> RrefResult:
    """Reduced row echelon form by sparse fraction-free reduction, with the
    all-zero rows dropped.  Inconsistency is a flag, never an exception.

    Reads the system's ``rows`` and never modifies them: each is copied once,
    every update after that rewrites a copy in place as
    ``row = p*row - g*pivot_row`` (see :func:`_eliminate`), and the rows are
    divided by the gcd of their values once, when the sweeps end.

    A forward sweep, then :func:`back_substitute`.  The forward sweep takes
    the columns left to right.  It finds the rows at or below the current
    one that hold the column, makes the one with the fewest entries the
    pivot row (the largest row index on ties, whose fill lands furthest
    right; Markowitz, Management Science 1957, applied to the row choice
    only), negates it when its pivot entry is negative, moves it to the
    current row and eliminates the column from the other holders only.  No
    pivot row then holds an earlier pivot column, so one back-substitution
    pass over the pivot rows, last first, clears every pivot column above
    its pivot.

    The choice of pivot row changes neither the pivot columns, which the
    leftmost-column order fixes, nor the rows of a consistent system: its
    RREF is unique, and a primitive integer row with a positive pivot entry
    is the only one with that rational row.  The zero rows are then empty.
    The augmented column of an inconsistent system is not unique, since
    a zero row with a right-hand side can be added to any row; so when the
    result has one, the reduction runs again with the first holder as each
    pivot row, the rule the printed kernels and the rational reference use.
    """
    rows, pivot_cols = _reduce(system, sparsest=True)
    rank = len(pivot_cols)
    inconsistent = any(rows[rank:])
    if inconsistent:
        rows, pivot_cols = _reduce(system, sparsest=False)
    return RrefResult(tuple(rows[:rank]), tuple(pivot_cols), system.num_vars,
                      inconsistent)
