"""Domain model for exact one-in-three satisfiability.

Literals are plain integers: a positive integer is a variable, a negative
integer is that variable negated, and 0 is the constant-false literal
(written ``B`` in the text format, rendered here as "bottom").  A clause is
a triple of literals and is satisfied when exactly one of them is true.
A clause's literals, and an XSAT formula's clauses, are stored in the
order of :func:`literal_sort_key`: ``v`` ranks ``2v``, ``~v`` ranks
``2v + 1`` and bottom ranks last.

Formulas come in two flavours: :class:`XsatFormula` (one-in-three clauses,
optionally restricted to the negation-free "positive" fragment where only
plain variables and bottom appear) and :class:`CnfFormula` (ordinary 3-CNF
disjunctions, the input of the reduction chain).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

BOTTOM = 0

Triple = tuple[int, int, int]
Assignment = tuple[int, ...]


class XsatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(XsatError):
    """Assignment length does not match the formula's variable count."""


class EmptyFormulaError(XsatError):
    """Operation requires at least one variable."""


class CapacityError(XsatError):
    """Instance exceeds an enumeration cap."""


VIOLATIONS_SHOWN = 5


def describe_violations(violations: Sequence[str]) -> str:
    """The violation count and the first ``VIOLATIONS_SHOWN`` violations."""
    shown = "; ".join(violations[:VIOLATIONS_SHOWN])
    hidden = len(violations) - VIOLATIONS_SHOWN
    more = f"; {hidden} more" if hidden > 0 else ""
    return f"{len(violations)} violation(s): {shown}{more}"


class ValidationError(XsatError):
    """Formula violates a structural invariant.

    Carries the full violation list produced by :func:`validate`; the
    message names only the count and the first few.
    """

    def __init__(self, violations: list[str]):
        super().__init__(describe_violations(violations))
        self.violations = violations


def literal_sort_key(lit: int) -> int | float:
    """The canonical literal order as one number: ``v`` ranks ``2v``, ``~v``
    ranks ``2v + 1`` and bottom ranks after every literal.

    So variables ascend by index, each before its negation, and bottom
    comes last.  Any fixed total order works; this one keeps serialized
    clauses readable.
    """
    return 2 * abs(lit) + (lit < 0) or math.inf


def canonical_triple(lits) -> Triple:
    """Sort a clause's three literals into canonical storage order."""
    t = tuple(int(x) for x in lits)
    if len(t) != 3:
        raise ValueError(f"clause must have exactly 3 literals, got {len(t)}")
    return tuple(sorted(t, key=literal_sort_key))  # type: ignore[return-value]


def _canonical(clauses, sort: bool) -> tuple[Triple, ...]:
    """Each clause's literals in canonical order, and the clauses in
    canonical order too when ``sort``; a clause of another width than 3
    raises ``ValueError``, as :func:`canonical_triple` does.

    Literals and clauses are sorted by :func:`literal_sort_key`.  Literals
    that are not ints, such as bools, are made ints first.  Clauses of plain
    variables (ints above 0) are sorted on the literals themselves, which
    order as their keys do.
    """
    if set(map(len, clauses)) - {3}:  # canonical_triple raises the error
        canonical_triple(next(c for c in clauses if len(c) != 3))
    if set(map(type, chain.from_iterable(clauses))) - {int}:
        clauses = [tuple(map(int, c)) for c in clauses]
    if min(chain.from_iterable(clauses), default=0) > 0:
        keys = map(tuple, map(sorted, clauses))
        return tuple(sorted(keys) if sort else keys)
    key = literal_sort_key
    canon = [tuple(sorted(c, key=key)) for c in clauses]
    if sort:
        canon.sort(key=lambda t: (key(t[0]), key(t[1]), key(t[2])))
    return tuple(canon)


@dataclass(frozen=True)
class XsatFormula:
    """A one-in-three instance: ``num_vars`` variables, unique triples.

    Clauses are canonicalized (literal order within each triple, then triple
    order across the formula) at construction, so structural equality is
    content equality and duplicate detection is syntactic.  Instances are
    immutable and safe to share across workers.  A clause of another width
    than 3 raises ``ValueError``.  The order is :func:`literal_sort_key`'s.
    ``violations`` is :func:`validate`'s result, worked out on first use
    and kept: the formula cannot change under it.
    """

    num_vars: int
    clauses: tuple[Triple, ...]
    positive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "clauses", _canonical(self.clauses, sort=True))
        object.__setattr__(self, "num_vars", int(self.num_vars))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def variables_used(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c if l != BOTTOM}

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate(self))


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF instance: clauses are ordinary disjunctions of 3 literals."""

    num_vars: int
    clauses: tuple[Triple, ...]

    def __post_init__(self):
        canon = _canonical(self.clauses, sort=False)
        for t in canon:  # t[2] is bottom if any literal is, else the largest
            if t[2] == BOTTOM:
                raise ValidationError([f"cnf clause {t}: bottom literal not allowed"])
            if abs(t[2]) > self.num_vars:
                raise ValidationError([f"cnf clause {t}: literal index out of range"])
        object.__setattr__(self, "clauses", canon)
        object.__setattr__(self, "num_vars", int(self.num_vars))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def literal_value(lit: int, a: Assignment) -> int:
    """Truth value (0/1) of a literal under an assignment; bottom is always 0."""
    if lit == BOTTOM:
        return 0
    v = a[abs(lit) - 1]
    return v if lit > 0 else 1 - v


def eval_xsat(f: XsatFormula, a: Assignment) -> bool:
    """True iff every clause has exactly one true literal under ``a``."""
    if len(a) != f.num_vars:
        raise DimensionError(
            f"assignment length {len(a)} != num_vars {f.num_vars}")
    return all(sum(literal_value(l, a) for l in c) == 1 for c in f.clauses)


def kappa(f: XsatFormula) -> Fraction:
    """Clause density k/r as an exact rational."""
    if f.num_vars == 0:
        raise EmptyFormulaError("kappa undefined for a formula with no variables")
    return Fraction(f.num_clauses, f.num_vars)


def _well_formed(f: XsatFormula) -> bool:
    """True when :func:`validate` finds nothing, decided on whole sets;
    False when some check may fail.

    A canonical triple holds no repeated literal and no complementary pair
    exactly when its variables, ``|literal|``, strictly increase and bottom,
    if present, comes once and last.  k triples cover at most 3k variables,
    so a formula that covers all of its variables meets the density bound.
    A formula of plain variables is checked on the literals themselves; the
    ``abs`` pass runs only when some literal is negated and ``f.positive``
    is not set.
    """
    clauses = f.clauses
    if all(0 < a < b and (b < c or c == BOTTOM) for a, b, c in clauses):
        variables = set(chain.from_iterable(clauses))
    elif f.positive or not all(
            0 < abs(a) < abs(b) and (abs(b) < abs(c) or c == BOTTOM)
            for a, b, c in clauses):
        return False
    else:
        variables = set(map(abs, chain.from_iterable(clauses)))
    variables.discard(BOTTOM)
    n = f.num_vars
    return (len(variables) == n and (n == 0 or max(variables) == n)
            and len(set(clauses)) == len(clauses))


def validate(f: XsatFormula) -> list[str]:
    """Return all invariant violations, empty when the formula is well formed.

    Checked: literal index range, no repeated literal inside a clause, no
    complementary pair inside a clause, positivity when flagged, pairwise
    distinct clauses, every variable covered by some clause, and for positive
    formulas the minimum clause count ceil(r/3).  A formula is accepted on
    set-level checks: range, strictly increasing variables in each triple,
    positivity when flagged, distinct clauses, and coverage, which implies
    the density.  The clauses are walked one by one only when a check
    fails, to word each violation in clause order.  The uncovered
    variables make one violation, which gives their count and the first
    ``VIOLATIONS_SHOWN`` of them, so its size does not grow with
    ``num_vars``.
    """
    if _well_formed(f):
        return []
    out: list[str] = []
    seen: dict[Triple, int] = {}
    for i, c in enumerate(f.clauses):
        names = [abs(l) for l in c if l != BOTTOM]
        if any(v < 1 or v > f.num_vars for v in names):
            out.append(f"index-out-of-range: clause {i} {c}")
        if len(set(c)) != 3:
            out.append(f"repeated-literal: clause {i} {c}")
        elif len(names) != len(set(names)):
            out.append(f"complementary-literals: clause {i} {c}")
        if f.positive and any(l < 0 for l in c):
            out.append(f"negative-in-positive: clause {i} {c}")
        if c in seen:
            out.append(f"duplicate-clause: clauses {seen[c]} and {i} {c}")
        else:
            seen[c] = i
    covered = f.variables_used()
    n = f.num_vars
    uncovered = n - sum(1 for v in covered if v <= n)
    if uncovered:
        first = islice((v for v in range(1, n + 1) if v not in covered),
                       VIOLATIONS_SHOWN)
        names = ", ".join(map(str, first))
        if uncovered > 1:
            more = ", ..." if uncovered > VIOLATIONS_SHOWN else ""
            names = f"{uncovered} variables: {names}{more}"
        out.append(f"uncovered-variable: {names}")
    if f.positive and 3 * f.num_clauses < f.num_vars:
        need = math.ceil(f.num_vars / 3)
        out.append(
            f"density-below-one-third: {f.num_clauses} clauses < minimum {need}")
    return out


def check_valid(f: XsatFormula) -> XsatFormula:
    """Raise :class:`ValidationError` unless ``f.violations`` is empty."""
    if f.violations:
        raise ValidationError(list(f.violations))
    return f
