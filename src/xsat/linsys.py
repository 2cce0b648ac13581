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
backward, from the last pivot to the second, clearing it above.  The RREF
is unique, so this order keeps the rows any other order with the same
pivots would, and each kept pivot row divided by its pivot entry is the
row a rational Gauss-Jordan elimination would give.  Columns are never
physically permuted: pivot and free columns are reported as index lists
instead.
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


def integer_rref(system: LinearSystem) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free reduction: (rows, pivot columns).

    Reads the system's ``rows`` and never modifies them: each is copied once,
    divided by the gcd of its values, and every update after that rewrites
    a copy in place as ``row = p*row - g*pivot_row``, kept primitive.  The
    first ``len(pivot_cols)`` rows are the pivot rows in order, each with a
    positive pivot entry; the rest are zero on every variable column.

    Two sweeps.  The forward sweep places the pivots: leftmost column
    holding a nonzero entry at or below the current row, smallest row index
    on ties, the pivot row negated when its pivot entry is negative, and
    the column eliminated from the rows below it only.  The backward sweep
    goes from the last pivot to the second and eliminates each pivot's
    column from the pivot rows above it; a pivot row is already free of
    every later pivot column when its turn comes.  Each row below the
    current one stays a positive multiple of the row a rational
    elimination with the same rule would hold, so the pivots and the row
    order are the same, and the RREF is unique, so the kept rows are too.
    """
    rows = [dict(_primitive(row)) for row in system.rows]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        pivot_row = next((i for i in range(cur, n_rows) if col in rows[i]), None)
        if pivot_row is None:
            continue
        pivot = rows[pivot_row]
        if pivot[col] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
        rows[pivot_row] = rows[cur]
        rows[cur] = pivot
        for i in range(cur + 1, n_rows):
            if col in rows[i]:
                _eliminate(rows[i], pivot, col)
        pivot_cols.append(col)
        cur += 1
    for j in range(len(pivot_cols) - 1, 0, -1):
        col, pivot = pivot_cols[j], rows[j]
        for i in range(j):
            if col in rows[i]:
                _eliminate(rows[i], pivot, col)
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
