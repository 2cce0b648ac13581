"""Ground truth by exhaustive enumeration over all 2^r assignments.

This module is the arbiter of correctness for the algebraic pipeline, so it
must stay trivially auditable.  Assignment ``m`` gives variable ``i + 1``
the value of bit ``i`` of ``m``.  One truth-table core backs every fast
counter: it covers the assignments in blocks of 2^LOW_BITS, and inside a
block each literal is a Python int whose bit j is its value under
assignment ``first + j``, so a clause is evaluated over the whole block in
a few big-int operations.  The variables above the block are set depth
first, and a partial assignment that already violates a clause is cut with
every block below it, so empty blocks are never built and never yielded.
The tests check the core against a plain double loop over assignments and
clauses that shares no code with it, so the oracle itself has an oracle.
"""

from __future__ import annotations

from functools import cache

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


@cache
def _columns(low: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``full`` and the tables of ``x1..x_low`` and of ``~x_low..~x1`` over
    a block of 2^low assignments."""
    full = (1 << (1 << low)) - 1
    # variable v < low alternates runs of 2^v zeros and 2^v ones
    cols = tuple((((1 << (1 << v)) - 1) << (1 << v))
                 * (full // ((1 << (2 << v)) - 1)) for v in range(low))
    return full, cols, tuple(full ^ t for t in reversed(cols))


def _truth_tables(num_vars: int, clauses, clause_table):
    """Yield ``(first, table)`` for each nonempty block of 2^LOW_BITS
    assignments.

    Bit j of ``table`` is set iff assignment ``first + j`` satisfies every
    clause under ``clause_table``.  Blocks ascend in ``first``.

    The variables above the block are set depth first, top variable first,
    0 before 1.  A clause is ANDed in once at the node that sets the lowest
    of its variables above the block, or once at the root when it has none.
    A node stops at the first clause that empties its table, and its
    subtree, every block in which those variables take the node's values,
    is cut.  So a block is yielded only when its table is nonzero.
    """
    low = min(num_vars, LOW_BITS)
    full, cols, negs = _columns(low)
    # indexed by literal: [B, x1..xr, ~xr..~x1], so lit -v lands on ~xv;
    # the entries of the variables above the block are set by the walk
    lit = [0, *cols, *[0] * (2 * (num_vars - low)), *negs]
    buckets: list[list] = [[] for _ in range(num_vars + 1)]
    for clause in clauses:
        above = [abs(l) for l in clause if abs(l) > low]
        buckets[min(above, default=0)].append(clause)

    def and_in(table: int, bucket) -> int:
        for a, b, c in bucket:
            table &= clause_table(lit[a], lit[b], lit[c])
            if not table:
                break
        return table

    def walk(v: int, first: int, table: int):
        if v == low:
            yield first, table
            return
        for value, negation, first in ((0, full, first),
                                       (full, 0, first | 1 << (v - 1))):
            lit[v], lit[-v] = value, negation
            below = and_in(table, buckets[v])
            if below:
                yield from walk(v - 1, first, below)

    table = and_in(full, buckets[0])
    if table:
        yield from walk(num_vars, 0, table)
    # walk refers to itself through its closure; breaking that cycle frees
    # the literal list on return rather than at the next garbage collection
    del walk


def naive_count(f: XsatFormula, cap: int = ORACLE_CAP) -> int:
    """Exact one-in-three model count over all 2^r assignments.

    Works on negation-bearing formulas as well as positive ones.
    """
    _check_cap(f.num_vars, cap)
    return sum(table.bit_count() for _, table in
               _truth_tables(f.num_vars, f.clauses, _exactly_one))


def naive_models(f: XsatFormula, cap: int = ORACLE_CAP) -> list[Assignment]:
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
