"""Linear-system encoding and exact elimination to reduced row echelon form.

A positive one-in-three clause {p, p', p''} becomes the equation
p + p' + p'' = 1; bottom contributes nothing.  The 0/1 solutions of the
resulting system are exactly the models of the formula, so the reduced
row echelon form exposes how many variables are genuinely free.

Nothing is ever rounded, and the route from clauses to the RREF is integer
throughout.  Each equation is a sparse primitive integer row, a dict of its
nonzero coefficients (three per clause plus fill-in), and elimination never
forms a fraction (fraction-free elimination, Bareiss, Math. Comp. 1968).
Elimination copies the input rows once and then updates the copies in
place, in two sweeps: forward, clearing each pivot's column below it, then
backward, from the last pivot to the second, clearing it above.  The
columns are taken left to right, and of the rows that hold a column the
one with the fewest entries is its pivot row, which keeps fill-in low.
The RREF of a consistent system is unique, so this order keeps the rows
any other order with the same pivots would, and each kept pivot row
divided by its pivot entry is the row a rational Gauss-Jordan elimination
would give.  An inconsistent system's right-hand sides depend on the
pivot rows, so it is reduced again with the first row holding each column
as the pivot row.  Columns are never physically permuted: pivot and free
columns are reported as index lists instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formula import BOTTOM, XsatError, XsatFormula


class EncodingError(XsatError):
    """Formula cannot be encoded (negated literal in the linear encoding)."""


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
    row holds a pivot column.  ``pivot_cols`` and ``free_cols`` are 0-based column indices
    into the original variable order; ``rank + nullity`` is the number of
    variables, and ``inconsistent`` is set when elimination produced a row
    that is zero on every variable column but nonzero in the augmented
    column.

    :func:`xsat.substitution.substitute` returns the same type with every
    D equal to 1, and there ``pivot_cols`` can repeat: two rows solved for
    the same variable.  ``rank`` counts the distinct pivots, and
    ``free_cols`` are the columns that are no pivot.
    """

    rows: tuple[dict[int, int], ...]
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    rank: int
    nullity: int
    inconsistent: bool


def encode_sys(f: XsatFormula) -> LinearSystem:
    """One equation per clause: sum of the clause's variables equals 1.

    A clause row is primitive as built, since its right-hand side is 1.
    """
    n_vars = f.num_vars
    rows = []
    for clause in f.clauses:
        row: dict[int, int] = {}
        for lit in clause:
            if lit == BOTTOM:
                continue
            if lit < 0:
                raise EncodingError(
                    f"negated literal {lit} cannot be encoded; "
                    "apply the positivity reduction first")
            row[lit - 1] = row.get(lit - 1, 0) + 1
        row[n_vars] = 1
        rows.append(row)
    return LinearSystem(tuple(rows), n_vars)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its values."""
    common = math.gcd(*row.values())
    if common > 1:
        return {c: v // common for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int):
    """In place: ``row <- p*row - g*pivot``, cancelling ``row[col]``, then
    divided by the gcd of its values.  ``pivot[col]`` must be positive."""
    d = math.gcd(pivot[col], row[col])
    p, g = pivot[col] // d, row[col] // d
    if p != 1:
        for c in row:
            row[c] *= p
    for c, v in pivot.items():
        x = row.get(c, 0) - g * v
        if x:
            row[c] = x
        else:
            del row[c]
    # divided in place, where _primitive would build a new dict
    common = math.gcd(*row.values())
    if common > 1:
        for c in row:
            row[c] //= common


def _reduce(system: LinearSystem,
            sparsest: bool) -> tuple[list[dict[int, int]], list[int]]:
    """Both sweeps of :func:`integer_rref`, with the sparsest holder of each
    column as its pivot row when ``sparsest`` is set, else the first."""
    rows = [dict(_primitive(row)) for row in system.rows]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        holders = [i for i in range(cur, n_rows) if col in rows[i]]
        if not holders:
            continue
        p = min(holders, key=lambda i: len(rows[i])) if sparsest else holders[0]
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
    for j in range(len(pivot_cols) - 1, 0, -1):
        col, pivot = pivot_cols[j], rows[j]
        for i in range(j):
            if col in rows[i]:
                _eliminate(rows[i], pivot, col)
    return rows, pivot_cols


def integer_rref(system: LinearSystem) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free reduction: (rows, pivot columns).

    Reads the system's ``rows`` and never modifies them: each is copied once,
    divided by the gcd of its values, and every update after that rewrites
    a copy in place as ``row = p*row - g*pivot_row``, kept primitive.  The
    first ``len(pivot_cols)`` rows are the pivot rows in order, each with a
    positive pivot entry; the rest are zero on every variable column.

    Two sweeps.  The forward sweep takes the columns left to right.  It
    finds the rows at or below the current one that hold the column, makes
    the one with the fewest entries the pivot row (smallest row index on
    ties; Markowitz, Management Science 1957, applied to the row choice
    only), negates it when its pivot entry is negative, moves it to the
    current row and eliminates the column from the other holders only.
    The backward sweep goes from the last pivot to the second and
    eliminates each pivot's column from the pivot rows above it; a pivot
    row is already free of every later pivot column when its turn comes.

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
    if any(rows[i] for i in range(len(pivot_cols), len(rows))):
        rows, pivot_cols = _reduce(system, sparsest=False)
    return rows, pivot_cols


def gauss_jordan(system: LinearSystem) -> RrefResult:
    """Reduced row echelon form, pivot rule as in :func:`integer_rref`.

    Keeps the pivot rows of the integer reduction and drops the all-zero
    rows.  Inconsistency is a flag, never an exception.
    """
    rows, pivot_cols = integer_rref(system)
    n_vars = system.num_vars
    rank = len(pivot_cols)
    pivots = set(pivot_cols)
    return RrefResult(
        rows=tuple(rows[:rank]),
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n_vars) if c not in pivots),
        rank=rank,
        nullity=n_vars - rank,
        inconsistent=any(n_vars in row for row in rows[rank:]),
    )
