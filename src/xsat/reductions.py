"""Count-preserving reductions: 3-CNF to one-in-three, and removal of
negations.

Both reductions are parsimonious, meaning the number of satisfying
assignments is exactly preserved.  The first makes the solver a usable
3-CNF model counter end to end: its output, negations and all, is encoded
as it is by :func:`xsat.linsys.encode_sys`.  The second is applied only by
``xsat reduce``, which prints positive XSAT.  The tests verify both
against the exhaustive oracle rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import BOTTOM, CnfFormula, Triple, XsatFormula


@dataclass(frozen=True)
class ReductionTrace:
    """Bookkeeping: fresh indices allocated per source clause, size deltas."""

    fresh_map: tuple[tuple[int, tuple[int, ...]], ...]
    size_before: tuple[int, int]  # (vars, clauses)
    size_after: tuple[int, int]


def _traced(f, out: XsatFormula, fresh_map) -> tuple[XsatFormula, ReductionTrace]:
    """``out`` with the trace of its reduction from ``f``."""
    return out, ReductionTrace(tuple(fresh_map), (f.num_vars, f.num_clauses),
                               (out.num_vars, out.num_clauses))


def reduce_cnf_to_xsat(f: CnfFormula) -> tuple[XsatFormula, ReductionTrace]:
    """Turn each 3-CNF disjunction into four exactly-one triples.

    For a clause with literals (l1, l2, l3) and fresh variables a..e the
    triples are {~l1, a, b}, {l2, b, c}, {~l3, c, d}, {a, c, e}.  The first
    three alone admit two fresh extensions when l1 and l3 are true and l2
    is false; the fourth triple forces a + c + e = 1, which pins that case
    to a single extension and leaves every other satisfying case untouched,
    so the model count is preserved exactly (and zero maps to zero).

    Output size: 5 fresh variables and 4 clauses per source clause.
    """
    clauses: list[Triple] = []
    fresh_map = []
    nxt = f.num_vars + 1
    for idx, (l1, l2, l3) in enumerate(f.clauses):
        a, b, c, d, e = range(nxt, nxt + 5)
        nxt += 5
        fresh_map.append((idx, (a, b, c, d, e)))
        clauses.append((-l1, a, b))
        clauses.append((l2, b, c))
        clauses.append((-l3, c, d))
        clauses.append((a, c, e))
    return _traced(f, XsatFormula(nxt - 1, tuple(clauses), positive=False),
                   fresh_map)


def reduce_xsat_to_positive(f: XsatFormula) -> tuple[XsatFormula, ReductionTrace]:
    """Eliminate negated literals with one fresh complement variable each.

    Negation-free clauses are copied unchanged (bottom may appear in them).
    A clause with negated literals ~p, ~p', ... gets fresh variables
    q, q', ...; the head clause keeps the positive part with each ~p
    replaced by its q, and every pair adds a binding clause {q, p, bottom}
    forcing q = 1 - p.  One negation yields 2 clauses and 1 fresh variable,
    two yield 3 and 2, three yield 4 and 3.  Each fresh variable's value is
    forced, so the map is a bijection on models.
    """
    clauses: list[Triple] = []
    fresh_map = []
    nxt = f.num_vars + 1
    for idx, clause in enumerate(f.clauses):
        negs = [l for l in clause if l < 0]
        rest = [l for l in clause if l >= 0]
        if not negs:
            clauses.append(clause)
            fresh_map.append((idx, ()))
            continue
        hats = list(range(nxt, nxt + len(negs)))
        nxt += len(negs)
        fresh_map.append((idx, tuple(hats)))
        clauses.append(tuple(hats + rest))  # type: ignore[arg-type]
        for hat, lit in zip(hats, negs):
            clauses.append((hat, -lit, BOTTOM))
    return _traced(f, XsatFormula(nxt - 1, tuple(clauses), positive=True),
                   fresh_map)
