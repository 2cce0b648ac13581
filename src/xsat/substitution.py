"""Equation rewriting: the substitution method, on linear-system rows.

Substitution works on the same equations as elimination, the sparse
integer rows of :func:`xsat.linsys.encode_sys`.  Each row is solved for its
lowest variable, so the clause {p2, p5, p6} reads p2 = 1 - p5 - p6; a row
whose entry there is -1 is negated first, so {~p2, p5, p6}, the row
-p2 + p5 + p6 = 0, reads p2 = p5 + p6.  The rows are sorted ascending by
the solved variable, ties in clause order.  Every
body variable then lies above its row's solved variable, so no row holds
the solved variable of a row above it, and
:func:`xsat.linsys.back_substitute`, the pass elimination ends with, takes
the rows last first and replaces each occurrence of a solved variable in a
row's body by the last row solved for it.  Each step is against a pivot
entry of 1, so no row is ever scaled or divided, and one pass reaches the
fixpoint.  Chains of rewrites produce coefficients other than 1, including
cancellations.

The solved variables are the pivots and the rest are free; enumeration
only ever searches the free side.  Two rows may share a solved variable
(the rewrite keeps both), so a pivot can repeat; the extra row acts as a
consistency filter when the kernel is enumerated.  The rank is the number
of distinct pivots, at most the elimination rank.

The expansion size of a row, the cost measure behind the reported
representation size, counts the occurrences its body would hold if every
substitution were spliced in without sign cancellation.  It depends on the
formula alone, so :func:`expansion_profile` reads it off the clauses in
one pass, without rewriting.  On adversarial chains it grows like a
Fibonacci sequence even though the signed bodies collapse.  A 3-CNF carry
row is solved for its own carry a_j, which no other row holds, so nothing
is ever spliced into it.
"""

from __future__ import annotations

from .formula import BOTTOM, CnfFormula, XsatFormula
from .linsys import LinearSystem, RrefResult, back_substitute


def substitute(system: LinearSystem) -> RrefResult:
    """Rewrite to a fixpoint in one back-substitution pass; idempotent.

    Reads the system's rows and never modifies them.  Each row must hold an
    entry of 1 or -1 at its lowest variable column, as every row of this
    function's result does, and every row :func:`xsat.linsys.encode_sys`
    builds from a formula with no repeated variable in a clause; a row
    with -1 there is negated first.  Every step after that subtracts a
    multiple of one row from another, so the integer solution set never
    changes.  A row with no variable column is dropped, and
    ``inconsistent`` is set when it has a right-hand side: the one rule of
    :func:`xsat.linsys.gauss_jordan` too.  A contradiction among the kept
    rows, such as two rows with the same variable entries and another
    right-hand side, is left to the counters, which count 0 on it.
    """
    n_vars = system.num_vars
    rows: list[dict[int, int]] = []
    inconsistent = False
    for row in system.rows:
        low = min(row, default=n_vars)
        if low < n_vars:
            rows.append({c: -v for c, v in row.items()} if row[low] < 0
                        else dict(row))
        elif row:
            inconsistent = True
    rows.sort(key=min)  # by the lowest variable; stable: ties keep row order
    pivot_cols = [min(row) for row in rows]
    back_substitute(rows, pivot_cols)
    return RrefResult(tuple(rows), tuple(pivot_cols), n_vars, inconsistent)


def expansion_profile(f: XsatFormula | CnfFormula) -> list[int]:
    """Expansion size of each row :func:`substitute` solves, in its order.

    A 3-CNF carry row has size 4, its three literal occurrences and b_j,
    since no other row is solved for any of them.

    Each clause is solved for its lowest variable, and the rows are sorted
    stably by it.  A canonical formula already lists its clauses that way:
    each triple ascends by variable, ``|literal|``, with bottom last, and
    the triples ascend by their first variable.  So one pass reads
    ``f.clauses`` from the last clause to the first, with no sort: a
    clause's size sums, over its other variables, the size of the last
    clause solved for the variable, or 1 when none is, and 0 for bottom.
    That clause lies later in the order, so its size is already known.
    Sizes count occurrences, not signs, so they are keyed on the variable.
    """
    if isinstance(f, CnfFormula):
        return [4] * f.num_clauses
    sizes = []
    last = {BOTTOM: 0}  # solved variable -> size of its last clause
    for solved, b, c in reversed(f.clauses):
        size = last.get(abs(b), 1) + last.get(abs(c), 1)
        sizes.append(size)
        last.setdefault(abs(solved), size)
    sizes.reverse()
    return sizes
