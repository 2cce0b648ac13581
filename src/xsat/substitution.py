"""Constraint-rewriting preprocessor: the substitution method.

Each positive clause is first put in normal form: solve for its lowest
variable, so {p2, p5, p6} reads p2 = 1 - p5 - p6.  Constraints are sorted
ascending by their solved variable, then rewritten to a fixpoint by one
back-substitution pass from the last constraint to the first: each
occurrence of a solved variable in a constraint's body is replaced by the
right-hand side of the last constraint solved for it, and the result is
normalized (like terms combined, constants folded, zero coefficients
dropped).  Every body variable lies above its constraint's solved variable,
so that source sits later in the order and has already been rewritten: its
body holds no solved variable, a replacement never brings one in, and one
pass reaches the fixpoint.  Body coefficients are signed integers; chains
of rewrites produce coefficients other than -1, including cancellations.

At the fixpoint the solved variables form the independent set N and the
remaining variables the dependent set; enumeration only ever needs to
search the dependent side.  Two constraints may share a solved variable
(the rewrite keeps both); the extra one acts as a consistency filter when
the kernel is enumerated.

The expansion size of a constraint, the cost measure behind the reported
representation size, counts the occurrences its body would hold if every
substitution were spliced in without sign cancellation.  It depends on the
formula alone, so :func:`expansion_profile` reads it off the clauses in
one pass, without rewriting.  On adversarial chains it grows like a
Fibonacci sequence even though the signed bodies collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import BOTTOM, Assignment, Triple, XsatError, XsatFormula
from .linsys import EncodingError


class DegenerateClauseError(XsatError):
    """Clause has no variable to solve for (all literals are bottom)."""


class ContractError(XsatError):
    """A state is not a fixpoint, or not in the order an operation needs."""


@dataclass(frozen=True)
class LinearConstraint:
    """``lhs = const + sum(coeff * var)``.

    ``coeffs`` maps body variables to signed nonzero integer coefficients
    (lhs never among them).
    """

    lhs: int
    const: int
    coeffs: tuple[tuple[int, int], ...]

    @property
    def body(self) -> dict[int, int]:
        return dict(self.coeffs)

    def satisfied_by(self, a: Assignment) -> bool:
        """Exact integer identity check against a full 0/1 assignment."""
        rhs = self.const + sum(c * a[v - 1] for v, c in self.coeffs)
        return a[self.lhs - 1] == rhs


def _freeze(d: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(d.items()))


@dataclass(frozen=True)
class SubstitutionState:
    """Ordered constraints plus the independent/dependent variable split."""

    num_vars: int
    constraints: tuple[LinearConstraint, ...]
    independent: frozenset[int]
    dependent: frozenset[int]
    fixpoint: bool
    inconsistent: bool


def normalize_clause(t: Triple) -> LinearConstraint:
    """Solve a positive clause for its lowest variable; bottom is dropped."""
    vs = sorted(l for l in t if l != BOTTOM)
    if not vs:
        raise DegenerateClauseError(f"clause {t} has no variable to solve for")
    if vs[0] < 0:
        raise EncodingError(f"negated literal in clause {t}")
    lhs, rest = vs[0], vs[1:]
    return LinearConstraint(lhs, 1, tuple((v, -1) for v in rest))


def _make_state(num_vars: int, cons: list[LinearConstraint]) -> SubstitutionState:
    independent = frozenset(c.lhs for c in cons)
    dependent = frozenset(range(1, num_vars + 1)) - independent
    fixpoint = all(v not in independent for c in cons for v, _ in c.coeffs)
    # some two constraints share solved variable and body but not constant
    inconsistent = (len({(c.lhs, c.coeffs, c.const) for c in cons})
                    > len({(c.lhs, c.coeffs) for c in cons}))
    return SubstitutionState(num_vars, tuple(cons), independent, dependent,
                             fixpoint, inconsistent)


def initial_state(f: XsatFormula) -> SubstitutionState:
    """Normalize every clause and sort ascending by solved variable."""
    cons = [normalize_clause(t) for t in f.clauses]
    cons.sort(key=lambda c: c.lhs)  # stable: ties keep clause order
    return _make_state(f.num_vars, cons)


def substitute(state: SubstitutionState) -> SubstitutionState:
    """Rewrite to a fixpoint in one back-substitution pass; idempotent.

    Every elementary step subtracts one constraint from another, so the
    integer solution set never changes.  Requires constraints sorted
    ascending by solved variable and every body variable above its
    constraint's solved variable (``ContractError`` otherwise): then the
    last constraint solved for a body variable sits later in the order and
    is already rewritten when it is read, so one pass is exact.
    """
    cons = state.constraints
    lhss = [c.lhs for c in cons]
    if lhss != sorted(lhss):
        raise ContractError("constraints must be sorted ascending by solved variable")
    if any(v <= c.lhs for c in cons for v, _ in c.coeffs):
        raise ContractError("every body variable must lie above its solved variable")
    last: dict[int, LinearConstraint] = {}  # solved variable -> its last constraint
    out = list(cons)
    for j in range(len(out) - 1, -1, -1):
        c = out[j]
        const, coeffs = c.const, dict(c.coeffs)
        for v, g in c.coeffs:
            src = last.get(v)
            if src is None:
                continue
            del coeffs[v]
            const += g * src.const
            for w, a in src.coeffs:
                nw = coeffs.pop(w, 0) + g * a
                if nw:
                    coeffs[w] = nw
        c = out[j] = LinearConstraint(c.lhs, const, _freeze(coeffs))
        last.setdefault(c.lhs, c)
    result = _make_state(state.num_vars, out)
    if not result.fixpoint:
        raise AssertionError("substitution failed to reach a fixpoint")
    return result


def rank_of_subst(state: SubstitutionState) -> tuple[int, int]:
    """(|independent set|, |dependent set|) of a fixpoint state."""
    if not state.fixpoint:
        raise ContractError("state is not a substitution fixpoint")
    return len(state.independent), state.num_vars - len(state.independent)


def expansion_profile(f: XsatFormula) -> list[int]:
    """Expansion size of each constraint of ``initial_state(f)``, in order.

    One pass from the last constraint to the first: a constraint's size sums,
    over its body variables, the size of the last constraint solved for the
    variable, or 1 when none is.  That constraint lies later in the order,
    so its size is already known.
    """
    cons = initial_state(f).constraints
    sizes = [0] * len(cons)
    last: dict[int, int] = {}  # solved variable -> size of its last constraint
    for j in range(len(cons) - 1, -1, -1):
        c = cons[j]
        sizes[j] = sum(last.get(v, 1) for v, _ in c.coeffs)
        last.setdefault(c.lhs, sizes[j])
    return sizes
