"""Count-preserving reductions: 3-CNF to one-in-three, and removal of
negations.

Both reductions are parsimonious, meaning the number of satisfying
assignments is exactly preserved.  Together they are the paper's chain,
which only ``xsat reduce`` applies, to print positive XSAT; the solver
counts a 3-CNF on its own carry rows (:func:`xsat.linsys.encode_sys`).
The tests verify both reductions against the exhaustive oracle, and the
carry rows against the chain, rather than assuming either.

Each reduction returns the output formula alone.  The step's sizes are
the sizes of its input and its output, and the fresh variables follow the
source ones, numbered in the order of the source clauses that need them.
"""

from __future__ import annotations

from .formula import BOTTOM, CnfFormula, Triple, XsatFormula


def reduce_cnf_to_xsat(f: CnfFormula) -> XsatFormula:
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
    nxt = f.num_vars + 1
    for l1, l2, l3 in f.clauses:
        a, b, c, d, e = range(nxt, nxt + 5)
        nxt += 5
        clauses.append((-l1, a, b))
        clauses.append((l2, b, c))
        clauses.append((-l3, c, d))
        clauses.append((a, c, e))
    return XsatFormula(nxt - 1, tuple(clauses), positive=False)


def reduce_xsat_to_positive(f: XsatFormula) -> XsatFormula:
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
    nxt = f.num_vars + 1
    for clause in f.clauses:
        negs = [l for l in clause if l < 0]
        rest = [l for l in clause if l >= 0]
        if not negs:
            clauses.append(clause)
            continue
        hats = list(range(nxt, nxt + len(negs)))
        nxt += len(negs)
        clauses.append(tuple(hats + rest))  # type: ignore[arg-type]
        for hat, lit in zip(hats, negs):
            clauses.append((hat, -lit, BOTTOM))
    return XsatFormula(nxt - 1, tuple(clauses), positive=True)
