"""Linear-system encoding and exact Gauss-Jordan elimination.

A positive one-in-three clause {p, p', p''} becomes the equation
p + p' + p'' = 1; bottom contributes nothing.  The 0/1 solutions of the
resulting system are exactly the models of the formula, so the reduced
row echelon form exposes how many variables are genuinely free.

Nothing is ever rounded.  Elimination runs on sparse integer rows, each a
dict of its nonzero entries (three per clause plus fill-in), and never
forms a fraction (fraction-free elimination, Bareiss, Math. Comp. 1968).
Only the result is rational: the RREF is unique, so dividing each pivot
row by its pivot entry gives the same ``Fraction`` matrix a rational
elimination would.  Columns are never physically permuted: pivot and free
columns are reported as index lists instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formula import BOTTOM, XsatError, XsatFormula

Rational = Fraction


class EncodingError(XsatError):
    """Formula cannot be encoded (negated literal in the linear encoding)."""


@dataclass(frozen=True)
class LinearSystem:
    """Augmented k x (r+1) matrix; the last column is the right-hand side."""

    entries: tuple[tuple[Fraction, ...], ...]
    var_of_col: tuple[int, ...]  # column index -> 1-based variable

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_vars(self) -> int:
        return len(self.var_of_col)


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form with zero rows dropped.

    ``pivot_cols`` and ``free_cols`` are 0-based column indices into the
    original variable order; ``rank + nullity == num_vars`` always, and
    ``inconsistent`` is set when elimination produced a row that is zero on
    every variable column but nonzero in the augmented column.
    """

    matrix: LinearSystem
    pivot_cols: tuple[int, ...]
    free_cols: tuple[int, ...]
    rank: int
    nullity: int
    inconsistent: bool


def encode_sys(f: XsatFormula) -> LinearSystem:
    """One equation per clause: sum of the clause's variables equals 1."""
    rows = []
    for clause in f.clauses:
        row = [Fraction(0)] * (f.num_vars + 1)
        for lit in clause:
            if lit == BOTTOM:
                continue
            if lit < 0:
                raise EncodingError(
                    f"negated literal {lit} cannot be encoded; "
                    "apply the positivity reduction first")
            row[lit - 1] += 1
        row[f.num_vars] = Fraction(1)
        rows.append(tuple(row))
    return LinearSystem(tuple(rows), tuple(range(1, f.num_vars + 1)))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    common = math.gcd(*row.values())
    if common > 1:
        return {c: v // common for c, v in row.items()}
    return row


def _integer_row(row) -> dict[int, int]:
    """A rational row as a primitive integer row of its nonzero entries."""
    scale = math.lcm(*(x.denominator for x in row))
    return _primitive({c: x.numerator * (scale // x.denominator)
                       for c, x in enumerate(row) if x})


def integer_rref(system: LinearSystem) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free reduction: (rows, pivot columns).

    Each row is a ``{col: int}`` dict of its nonzero entries, the augmented
    column included.  Input rows are scaled to integers by the LCM of their
    denominators, and an update is ``row = p*row - g*pivot_row``.  Every row
    is kept primitive: divided by the gcd of its entries.  The first ``len(pivot_cols)`` rows are the pivot rows in
    order; the rest are zero on every variable column.

    Pivot selection: leftmost column holding a nonzero entry at or below the
    current row, smallest row index on ties.  Every row stays a nonzero
    multiple of the row a rational elimination with the same rule would
    hold, so the zero pattern, the pivots and the row order are the same.
    """
    rows = [_integer_row(row) for row in system.entries]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        pivot_row = next((i for i in range(cur, n_rows) if col in rows[i]), None)
        if pivot_row is None:
            continue
        rows[cur], rows[pivot_row] = rows[pivot_row], rows[cur]
        pivot = rows[cur]
        for i in range(n_rows):
            row = rows[i]
            if i == cur or col not in row:
                continue
            d = math.gcd(pivot[col], row[col])
            p, g = pivot[col] // d, row[col] // d
            new = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                x = new.get(c, 0) - g * v
                if x:
                    new[c] = x
                else:
                    del new[c]
            rows[i] = _primitive(new)
        pivot_cols.append(col)
        cur += 1
    return rows, pivot_cols


def gauss_jordan(system: LinearSystem) -> RrefResult:
    """Reduced row echelon form, pivot rule as in :func:`integer_rref`.

    Each pivot row of the integer reduction, divided by its pivot entry,
    is the row of the rational RREF; all-zero rows are dropped.
    Inconsistency is a flag, never an exception.
    """
    rows, pivot_cols = integer_rref(system)
    n_vars = system.num_vars
    rank = len(pivot_cols)
    inconsistent = any(n_vars in row for row in rows[rank:])
    zero = Fraction(0)
    kept = []
    for row, col in zip(rows, pivot_cols):
        dense = [zero] * (n_vars + 1)
        for c, v in row.items():
            dense[c] = Fraction(v, row[col])
        kept.append(tuple(dense))
    pivots = set(pivot_cols)
    return RrefResult(
        matrix=LinearSystem(tuple(kept), system.var_of_col),
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n_vars) if c not in pivots),
        rank=rank,
        nullity=n_vars - rank,
        inconsistent=inconsistent,
    )


def rank_of(f: XsatFormula) -> tuple[int, int]:
    """(rank, nullity) of the clause equation system."""
    res = gauss_jordan(encode_sys(f))
    return res.rank, res.nullity
