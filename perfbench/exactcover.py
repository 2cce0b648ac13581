"""Independent model counter for positive one-in-three instances.

A positive instance is an exact-cover problem: variable v covers the set of
clauses that contain it, and a model is a set of true variables whose clause
sets partition the clauses.  This counter branches on the uncovered clause
with the fewest variables that still fit, memoised on the set of clauses
left uncovered, and multiplies the counts of connected components.  It
shares no code with the solver's elimination, substitution or Gray walk,
so it can confirm expected counts past the reach of the 2^r oracle.
"""

from __future__ import annotations


def _components(covers: list[int]) -> list[list[int]]:
    """Group variable clause-masks into connected components."""
    groups: list[tuple[int, list[int]]] = []
    for s in covers:
        span, members = s, [s]
        rest = []
        for g_span, g_members in groups:
            if g_span & span:
                span |= g_span
                members += g_members
            else:
                rest.append((g_span, g_members))
        groups = rest + [(span, members)]
    return [members for _, members in groups]


def _count_component(covers: list[int]) -> int:
    by_clause: dict[int, list[int]] = {}
    for s in covers:
        m = s
        while m:
            low = m & -m
            by_clause.setdefault(low, []).append(s)
            m ^= low
    memo: dict[int, int] = {}

    def count(open_: int) -> int:
        if not open_:
            return 1
        hit = memo.get(open_)
        if hit is not None:
            return hit
        best = None
        m = open_
        while m:
            low = m & -m
            m ^= low
            fits = [s for s in by_clause[low] if s & open_ == s]
            if best is None or len(fits) < len(best):
                best = fits
                if len(fits) <= 1:
                    break
        total = sum(count(open_ & ~s) for s in best)
        memo[open_] = total
        return total

    full = 0
    for s in covers:
        full |= s
    return count(full)


def count_models(num_vars: int, clauses) -> int:
    """Model count of a positive instance given as triples (0 is bottom)."""
    covers = [0] * (num_vars + 1)
    for i, clause in enumerate(clauses):
        for lit in clause:
            if lit < 0:
                raise ValueError(f"negated literal {lit}: instance is not positive")
            if lit:
                covers[lit] |= 1 << i
    total = 1
    for comp in _components([s for s in covers[1:] if s]):
        total *= _count_component(comp)
        if not total:
            break
    return total
