"""Ground truth by exhaustive enumeration over all 2^r assignments.

This module is the arbiter of correctness for the algebraic pipeline, so it
must stay trivially auditable.  Assignment ``m`` gives variable ``i + 1``
the value of bit ``i`` of ``m``.  One truth-table core backs every fast
counter: it walks the assignments in blocks of 2^LOW_BITS, and inside a
block each literal is a Python int whose bit j is its value under
assignment ``first + j``, so a clause is evaluated over the whole block in
a few big-int operations.  The tests check the core against a plain double
loop over assignments and clauses that shares no code with it, so the
oracle itself has an oracle.
"""

from __future__ import annotations

from .formula import (
    Assignment,
    CapacityError,
    CnfFormula,
    XsatFormula,
)

ORACLE_CAP = 24

# Tables over whole blocks, not over all 2^r assignments at once: a block
# of 2^12 bits is 512 bytes, where a full table at r = 24 is 2 MiB.
LOW_BITS = 12


def _check_cap(num_vars: int, cap: int):
    if num_vars > cap:
        raise CapacityError(
            f"{num_vars} variables exceed enumeration cap {cap}")


def _exactly_one(x: int, y: int, z: int) -> int:
    # parity is odd at one or three true literals; the AND removes three
    return (x ^ y ^ z) & ~(x & y & z)


def _any_of(x: int, y: int, z: int) -> int:
    return x | y | z


def _truth_tables(num_vars: int, clauses, clause_table):
    """Yield ``(first, table)`` for each block of 2^LOW_BITS assignments.

    Bit j of ``table`` is set iff assignment ``first + j`` satisfies every
    clause under ``clause_table``.  Blocks ascend in ``first``.
    """
    low = min(num_vars, LOW_BITS)
    full = (1 << (1 << low)) - 1
    # variable v < low alternates runs of 2^v zeros and 2^v ones
    cols = [(((1 << (1 << v)) - 1) << (1 << v))
            * (full // ((1 << (2 << v)) - 1)) for v in range(low)]
    for block in range(1 << (num_vars - low)):
        vals = cols + [full if block >> i & 1 else 0
                       for i in range(num_vars - low)]
        # indexed by literal: [B, x1..xr, ~xr..~x1], so lit -v lands on ~xv
        lit = [0, *vals, *(full ^ t for t in reversed(vals))]
        table = full
        for a, b, c in clauses:
            table &= clause_table(lit[a], lit[b], lit[c])
        yield block << low, table


def naive_count(f: XsatFormula, cap: int = ORACLE_CAP) -> int:
    """Exact one-in-three model count over all 2^r assignments.

    Works on negation-bearing formulas as well as positive ones.
    """
    _check_cap(f.num_vars, cap)
    return sum(table.bit_count() for _, table in
               _truth_tables(f.num_vars, f.clauses, _exactly_one))


def naive_models(f: XsatFormula, cap: int = 20) -> list[Assignment]:
    """All satisfying assignments, ascending in m = sum of a[i] * 2^i."""
    _check_cap(f.num_vars, cap)
    r = f.num_vars
    out = []
    for first, table in _truth_tables(r, f.clauses, _exactly_one):
        while table:
            m = first + (table & -table).bit_length() - 1
            out.append(tuple((m >> i) & 1 for i in range(r)))
            table &= table - 1
    return out


def naive_count_cnf(f: CnfFormula, cap: int = ORACLE_CAP) -> int:
    """Satisfying-assignment count under ordinary disjunctive semantics."""
    _check_cap(f.num_vars, cap)
    return sum(table.bit_count() for _, table in
               _truth_tables(f.num_vars, f.clauses, _any_of))
