"""Linear-system encoding and exact Gauss-Jordan elimination.

A positive one-in-three clause {p, p', p''} becomes the equation
p + p' + p'' = 1; bottom contributes nothing.  The 0/1 solutions of the
resulting system are exactly the models of the formula, so the reduced
row echelon form exposes how many variables are genuinely free.

Nothing is ever rounded, and the route from clauses to the RREF is integer
throughout.  Each equation is a sparse primitive integer row, a dict of its
nonzero entries (three per clause plus fill-in), and elimination never
forms a fraction (fraction-free elimination, Bareiss, Math. Comp. 1968).
The RREF is unique, so each kept pivot row divided by its pivot entry is
the row a rational elimination would give; that dense ``Fraction`` matrix
is derived only when a reader asks for ``entries``.  Columns are never
physically permuted: pivot and free columns are reported as index lists
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formula import BOTTOM, XsatError, XsatFormula


class EncodingError(XsatError):
    """Formula cannot be encoded (negated literal in the linear encoding)."""


class LinearSystem:
    """Augmented k x (r+1) system; the last column is the right-hand side.

    The equations come in two forms, and the one a system was not built
    from is derived when first read.  ``rows`` gives each equation as a
    primitive ``{col: int}`` dict of its nonzero entries, augmented column
    included (divided by the gcd of its entries); :func:`encode_sys` builds
    this form and elimination reads it.  ``entries`` is the dense matrix of
    ``Fraction`` tuples, the form a system is built from by hand; from rows,
    equation i is ``rows[i]`` divided by ``scales[i]``.
    """

    __slots__ = ("var_of_col", "_entries", "_rows", "_scales")

    def __init__(self, entries, var_of_col):
        self.var_of_col = tuple(var_of_col)  # column index -> 1-based variable
        self._entries = tuple(entries)
        self._rows = self._scales = None

    @classmethod
    def from_rows(cls, rows, var_of_col, scales=None) -> LinearSystem:
        """A system whose equation i is ``rows[i] / scales[i]`` (default 1)."""
        system = cls.__new__(cls)
        system.var_of_col = tuple(var_of_col)
        system._entries = None
        system._rows = tuple(rows)
        system._scales = scales
        return system

    @property
    def rows(self) -> tuple[dict[int, int], ...]:
        if self._rows is None:
            rows = []
            for row in self._entries:
                scale = math.lcm(*(x.denominator for x in row))
                rows.append(_primitive({c: x.numerator * (scale // x.denominator)
                                        for c, x in enumerate(row) if x}))
            self._rows = tuple(rows)
        return self._rows

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._entries is None:
            zero = Fraction(0)
            scales = self._scales or (1,) * len(self._rows)
            dense = []
            for row, scale in zip(self._rows, scales):
                line = [zero] * (self.num_vars + 1)
                for c, v in row.items():
                    line[c] = Fraction(v, scale)
                dense.append(tuple(line))
            self._entries = tuple(dense)
        return self._entries

    @property
    def num_rows(self) -> int:
        return len(self._rows if self._entries is None else self._entries)

    @property
    def num_vars(self) -> int:
        return len(self.var_of_col)

    def __eq__(self, other):
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return (self.var_of_col, self.entries) == (other.var_of_col, other.entries)

    def __hash__(self):
        return hash((self.var_of_col, self.entries))

    def __repr__(self):
        return f"LinearSystem(entries={self.entries!r}, var_of_col={self.var_of_col!r})"


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form with zero rows dropped.

    ``pivot_cols`` and ``free_cols`` are 0-based column indices into the
    original variable order; ``rank + nullity == num_vars`` always, and
    ``inconsistent`` is set when elimination produced a row that is zero on
    every variable column but nonzero in the augmented column.  Row i of
    ``matrix.rows`` is primitive with a positive entry at ``pivot_cols[i]``,
    so that entry is the least common denominator of the rational row.
    """

    matrix: LinearSystem
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
    return LinearSystem.from_rows(rows, range(1, n_vars + 1))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    common = math.gcd(*row.values())
    if common > 1:
        return {c: v // common for c, v in row.items()}
    return row


def integer_rref(system: LinearSystem) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free reduction: (rows, pivot columns).

    Reads the system's primitive ``rows`` and never modifies them.  An
    update is ``row = p*row - g*pivot_row``, and every row is kept
    primitive: divided by the gcd of its entries.  A pivot row is negated
    when its pivot entry is negative, so every pivot entry ends positive.
    The first ``len(pivot_cols)`` rows are the pivot rows in order; the rest
    are zero on every variable column.

    Pivot selection: leftmost column holding a nonzero entry at or below the
    current row, smallest row index on ties.  Every row stays a nonzero
    multiple of the row a rational elimination with the same rule would
    hold, so the zero pattern, the pivots and the row order are the same.
    """
    rows = list(system.rows)
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        pivot_row = next((i for i in range(cur, n_rows) if col in rows[i]), None)
        if pivot_row is None:
            continue
        pivot = rows[pivot_row]
        if pivot[col] < 0:
            pivot = {c: -v for c, v in pivot.items()}
        rows[pivot_row] = rows[cur]
        rows[cur] = pivot
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

    Keeps the pivot rows of the integer reduction, each scaled by its pivot
    entry, and drops the all-zero rows.  Inconsistency is a flag, never an
    exception.
    """
    rows, pivot_cols = integer_rref(system)
    n_vars = system.num_vars
    rank = len(pivot_cols)
    kept = rows[:rank]
    pivots = set(pivot_cols)
    return RrefResult(
        matrix=LinearSystem.from_rows(
            kept, system.var_of_col,
            tuple(row[col] for row, col in zip(kept, pivot_cols))),
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n_vars) if c not in pivots),
        rank=rank,
        nullity=n_vars - rank,
        inconsistent=any(n_vars in row for row in rows[rank:]),
    )


def rank_of(f: XsatFormula) -> tuple[int, int]:
    """(rank, nullity) of the clause equation system."""
    res = gauss_jordan(encode_sys(f))
    return res.rank, res.nullity
