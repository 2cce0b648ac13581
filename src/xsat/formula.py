"""Domain model for exact one-in-three satisfiability.

Literals are plain integers: a positive integer is a variable, a negative
integer is that variable negated, and 0 is the constant-false literal
(written ``B`` in the text format, rendered here as "bottom").  A clause is
a triple of literals and is satisfied when exactly one of them is true.

Formulas come in two flavours: :class:`XsatFormula` (one-in-three clauses,
optionally restricted to the negation-free "positive" fragment where only
plain variables and bottom appear) and :class:`CnfFormula` (ordinary 3-CNF
disjunctions, the input of the reduction chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

BOTTOM = 0

Literal = int
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


def describe_violations(violations: list[str]) -> str:
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


def negate(lit: int) -> int:
    if lit == BOTTOM:
        raise ValueError("bottom has no negation")
    return -lit


def literal_sort_key(lit: int) -> tuple[int, int, int]:
    # Plain/negated variables ascending by index, positive before negative,
    # bottom last.  Any fixed total order works; this one keeps serialized
    # clauses readable.
    if lit == BOTTOM:
        return (1, 0, 0)
    return (0, abs(lit), 0 if lit > 0 else 1)


def canonical_triple(lits) -> Triple:
    """Sort a clause's three literals into canonical storage order."""
    t = tuple(int(x) for x in lits)
    if len(t) != 3:
        raise ValueError(f"clause must have exactly 3 literals, got {len(t)}")
    return tuple(sorted(t, key=literal_sort_key))  # type: ignore[return-value]


@dataclass(frozen=True)
class XsatFormula:
    """A one-in-three instance: ``num_vars`` variables, unique triples.

    Clauses are canonicalized (literal order within each triple, then triple
    order across the formula) at construction, so structural equality is
    content equality and duplicate detection is syntactic.  Instances are
    immutable and safe to share across workers.  When every literal is a
    plain variable (an int above 0, as in every generated instance), the
    :func:`literal_sort_key` order is the int order, so the triples are
    sorted as plain int tuples; any other clause set takes the keyed sort.
    """

    num_vars: int
    clauses: tuple[Triple, ...]
    positive: bool = True

    def __post_init__(self):
        triples = sorted(map(tuple, map(sorted, self.clauses)))
        # the smallest literal leads the first triple; when it is a
        # variable, every literal is, and their int order is the canonical
        if not (set(map(len, triples)) == {3} and triples[0][0] > 0
                and set(map(type, chain.from_iterable(triples))) == {int}):
            triples = sorted(map(canonical_triple, triples),
                             key=lambda t: tuple(literal_sort_key(l) for l in t))
        object.__setattr__(self, "clauses", tuple(triples))
        object.__setattr__(self, "num_vars", int(self.num_vars))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def variables_used(self) -> set[int]:
        return {abs(l) for c in self.clauses for l in c if l != BOTTOM}


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF instance: clauses are ordinary disjunctions of 3 literals."""

    num_vars: int
    clauses: tuple[Triple, ...]

    def __post_init__(self):
        canon = []
        for c in self.clauses:
            t = canonical_triple(c)
            if any(l == BOTTOM for l in t):
                raise ValidationError([f"cnf clause {t}: bottom literal not allowed"])
            if any(abs(l) > self.num_vars for l in t):
                raise ValidationError([f"cnf clause {t}: literal index out of range"])
            canon.append(t)
        object.__setattr__(self, "clauses", tuple(canon))
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
    """True when no literal is negated and :func:`validate` finds nothing,
    decided on whole sets; False when some check may fail.

    A canonical triple of variables and bottom holds no repeated literal
    exactly when its variables strictly increase and bottom, if present,
    comes once and last.  k triples cover at most 3k variables, so a
    formula that covers all of its variables meets the density bound.
    """
    clauses = f.clauses
    if not all(0 < a < b and (b < c or c == BOTTOM) for a, b, c in clauses):
        return False
    variables = set(chain.from_iterable(clauses))
    variables.discard(BOTTOM)
    n = f.num_vars
    return (len(variables) == n and (n == 0 or max(variables) == n)
            and len(set(clauses)) == len(clauses))


def validate(f: XsatFormula) -> list[str]:
    """Return all invariant violations, empty when the formula is well formed.

    Checked: literal index range, no repeated literal inside a clause, no
    complementary pair inside a clause, positivity when flagged, pairwise
    distinct clauses, every variable covered by some clause, and for positive
    formulas the minimum clause count ceil(r/3).  A formula without negated
    literals is accepted on set-level checks: range, strictly increasing
    triples, distinct clauses, and coverage, which implies the density.
    The clauses are walked one by one only when a check fails or a literal
    is negated, to word each violation in clause order.
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
    for v in range(1, f.num_vars + 1):
        if v not in covered:
            out.append(f"uncovered-variable: {v}")
    if f.positive and 3 * f.num_clauses < f.num_vars:
        need = math.ceil(f.num_vars / 3)
        out.append(
            f"density-below-one-third: {f.num_clauses} clauses < minimum {need}")
    return out


def check_valid(f: XsatFormula) -> XsatFormula:
    """Raise :class:`ValidationError` unless ``validate`` returns no violations."""
    violations = validate(f)
    if violations:
        raise ValidationError(violations)
    return f
