"""Residual 0/1 integer program: extraction, enumeration, full pipeline.

After elimination (or substitution) every pivot variable is an affine
function of the free variables.  A free assignment s extends to a model
exactly when every row's residual ``rhs - sum(coeff * s)`` lands in {0, 1};
the residual then IS the pivot variable's value, so counting admissible
free assignments counts models, with no separate back-substitution pass.

Enumeration walks {0,1}^d in Gray-code order: one bit flips per step, so
each row's running sum is updated with a single addition.  Rows are scaled
to integers beforehand (residual test becomes membership in {0, D}) to
keep the hot loop on machine integers.  The walk may be partitioned by
fixing a prefix of the free bits; per-partition counts add up to the
unpartitioned count bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .formula import Assignment, CapacityError, XsatFormula, check_valid
from .linsys import RrefResult, encode_sys, gauss_jordan
from .substitution import SubstitutionState, initial_state, rank_of_subst, substitute

DEFAULT_MAX_FREE = 30
DEFAULT_WITNESS_CAP = 1000


@dataclass(frozen=True)
class KernelRow:
    coeffs: tuple[Fraction, ...]
    rhs: Fraction
    pivot_var: int


@dataclass(frozen=True)
class KernelInstance:
    """Rows over the free variables; one row per retained constraint.

    For the elimination path pivot variables are pairwise distinct.  The
    substitution path may repeat a pivot (two constraints solved for the
    same variable); the duplicates act as consistency filters during
    enumeration and never contribute extra variables.
    """

    free_vars: tuple[int, ...]
    rows: tuple[KernelRow, ...]
    origin_vars: int

    @property
    def width(self) -> int:
        return len(self.free_vars)


@dataclass(frozen=True)
class SolveReport:
    sat: bool
    count: int
    rank: int
    nullity: int
    kernel_vars: int
    kernel_clauses: int
    repr_size_bits: float
    method: str
    elapsed_ms: int
    phase_us: tuple[int, int, int] = (0, 0, 0)  # encode, eliminate, enumerate
    witnesses: tuple[Assignment, ...] | None = None


def extract_kernel(rref: RrefResult) -> KernelInstance:
    """Free-column entries of each pivot row, rhs from the augmented column."""
    free_cols = rref.free_cols
    var_of_col = rref.matrix.var_of_col
    n_vars = rref.matrix.num_vars
    rows = []
    for row, pivot_col in zip(rref.matrix.entries, rref.pivot_cols):
        rows.append(KernelRow(
            coeffs=tuple(row[c] for c in free_cols),
            rhs=row[n_vars],
            pivot_var=var_of_col[pivot_col],
        ))
    return KernelInstance(
        free_vars=tuple(var_of_col[c] for c in free_cols),
        rows=tuple(rows),
        origin_vars=n_vars,
    )


def kernel_from_substitution(state: SubstitutionState) -> KernelInstance:
    """Rewrite fixpoint constraints into kernel rows.

    A constraint lhs = const + sum(c * v) becomes a row with pivot lhs,
    coefficients -c on the free side and rhs const, matching the residual
    convention above.
    """
    free_vars = tuple(sorted(state.dependent))
    col_of = {v: i for i, v in enumerate(free_vars)}
    rows = []
    for con in state.constraints:
        coeffs = [Fraction(0)] * len(free_vars)
        for v, c in con.coeffs:
            coeffs[col_of[v]] = Fraction(-c)
        rows.append(KernelRow(tuple(coeffs), Fraction(con.const), con.lhs))
    return KernelInstance(free_vars, tuple(rows), state.num_vars)


def _scaled_rows(kern: KernelInstance) -> tuple[list[list[int]], list[int], list[int]]:
    """Clear denominators row by row; residual test becomes v in {0, D}."""
    coeffs, rhs, dens = [], [], []
    for row in kern.rows:
        den = row.rhs.denominator
        for c in row.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        coeffs.append([int(c * den) for c in row.coeffs])
        rhs.append(int(row.rhs * den))
        dens.append(den)
    return coeffs, rhs, dens


def count_kernel(
    kern: KernelInstance,
    max_free: int = DEFAULT_MAX_FREE,
    want_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    prefix: tuple[int, ...] = (),
) -> tuple[int, tuple[Assignment, ...] | None]:
    """Count admissible free assignments; optionally collect the models.

    ``prefix`` pins the first free variables to fixed bits, which is the
    partitioning hook: summing counts over all prefixes of a given length
    reproduces the full count exactly.  Witnesses are returned only when
    requested and the final count does not exceed ``witness_cap``.
    """
    d = kern.width
    if d > max_free:
        raise CapacityError(
            f"kernel has {d} free variables, cap is {max_free}; "
            "raise the cap or sample through the bench harness")
    if len(prefix) > d:
        raise ValueError("prefix longer than the free variable list")

    coeffs, rhs, dens = _scaled_rows(kern)
    n_rows = len(kern.rows)

    # rows grouped by pivot variable; groups of size > 1 are filters
    group_of: dict[int, list[int]] = {}
    for i, row in enumerate(kern.rows):
        group_of.setdefault(row.pivot_var, []).append(i)
    multi_groups = [g for g in group_of.values() if len(g) > 1]

    acc = [0] * n_rows
    bits = 0
    for pos, b in enumerate(prefix):
        if b:
            bits |= 1 << pos
            for i in range(n_rows):
                acc[i] += coeffs[i][pos]

    # sparse per-position update lists for the Gray walk
    tail = range(len(prefix), d)
    flips = [[(i, coeffs[i][pos]) for i in range(n_rows) if coeffs[i][pos]]
             for pos in tail]

    ok = [0] * n_rows
    bad = 0
    for i in range(n_rows):
        v = rhs[i] - acc[i]
        ok[i] = 1 if (v == 0 or v == dens[i]) else 0
        bad += 1 - ok[i]

    def consistent() -> bool:
        for g in multi_groups:
            first = rhs[g[0]] - acc[g[0]] != 0
            for i in g[1:]:
                if (rhs[i] - acc[i] != 0) != first:
                    return False
        return True

    def witness() -> Assignment:
        a = [0] * kern.origin_vars
        for pos, v in enumerate(kern.free_vars):
            a[v - 1] = (bits >> pos) & 1
        for pivot, g in group_of.items():
            i = g[0]
            a[pivot - 1] = 1 if rhs[i] - acc[i] else 0
        return tuple(a)

    count = 0
    witnesses: list[Assignment] = []
    overflow = False

    def record():
        nonlocal count, overflow
        count += 1
        if want_witnesses and not overflow:
            if len(witnesses) < witness_cap:
                witnesses.append(witness())
            else:
                overflow = True

    if bad == 0 and consistent():
        record()
    steps = 1 << (d - len(prefix))
    for step in range(1, steps):
        pos = (step & -step).bit_length() - 1
        mask = 1 << (len(prefix) + pos)
        bits ^= mask
        rising = bits & mask
        for i, delta in flips[pos]:
            if rising:
                acc[i] += delta
            else:
                acc[i] -= delta
            v = rhs[i] - acc[i]
            now = 1 if (v == 0 or v == dens[i]) else 0
            if now != ok[i]:
                bad += ok[i] - now
                ok[i] = now
        if bad == 0 and consistent():
            record()

    if want_witnesses and not overflow and count <= witness_cap:
        return count, tuple(witnesses)
    return count, None


def repr_size(kern: KernelInstance, profile: list[int]) -> float:
    """Representation size in bits: r * log2(total expansion occurrences)."""
    total = sum(profile)
    if total <= 0:
        return 0.0
    return kern.origin_vars * math.log2(total)


def size_bounds(num_vars: int) -> tuple[float, float]:
    """Reporting band (lo, hi) = (r*log2(2r/3), r^2*log2(1.62))."""
    r = num_vars
    lo = r * math.log2(2 * r / 3) if r > 0 else 0.0
    return lo, r * r * math.log2(1.62)


def profile_total_within_bounds(num_vars: int, total: int) -> tuple[bool, bool]:
    """Exact band membership test, monotone form (no floating point).

    r*log2(total) >= r*log2(2r/3)  iff  3*total >= 2r, and
    r*log2(total) <= r^2*log2(1.62) iff total <= (81/50)^r.
    """
    lo_ok = 3 * total >= 2 * num_vars
    hi_ok = Fraction(total) <= Fraction(81, 50) ** num_vars
    return lo_ok, hi_ok


@dataclass(frozen=True)
class KernelBuild:
    """A kernel with the rank, nullity and consistency of its system.

    ``state`` is the substitution fixpoint under ``method="subst"`` and None
    under ``"gauss"``; ``encode_s`` is the time spent encoding the clauses.
    """

    kernel: KernelInstance
    rank: int
    nullity: int
    inconsistent: bool
    state: SubstitutionState | None
    encode_s: float


def build_kernel(f: XsatFormula, method: str) -> KernelBuild:
    """Encode and eliminate (``"gauss"``) or rewrite (``"subst"``) to a kernel.

    Under ``"subst"`` the encoding is the initial substitution state.
    """
    t0 = time.perf_counter()
    if method == "gauss":
        system = encode_sys(f)
        t1 = time.perf_counter()
        rref = gauss_jordan(system)
        return KernelBuild(extract_kernel(rref), rref.rank, rref.nullity,
                           rref.inconsistent, None, t1 - t0)
    if method == "subst":
        start = initial_state(f)
        t1 = time.perf_counter()
        state = substitute(start)
        rank, nullity = rank_of_subst(state)
        return KernelBuild(kernel_from_substitution(state), rank, nullity,
                           state.inconsistent, state, t1 - t0)
    raise ValueError(f"unknown method {method!r}")


def solve(
    f: XsatFormula,
    method: str = "gauss",
    max_free: int = DEFAULT_MAX_FREE,
    want_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> SolveReport:
    """Full pipeline: encode, eliminate (or substitute), extract, count."""
    check_valid(f)
    t0 = time.perf_counter()
    built = build_kernel(f, method)
    kern = built.kernel
    t1 = time.perf_counter()

    if built.inconsistent:
        count, wit = 0, None
    else:
        count, wit = count_kernel(kern, max_free=max_free,
                                  want_witnesses=want_witnesses,
                                  witness_cap=witness_cap)
    t2 = time.perf_counter()

    # representation size is always measured on the substitution fixpoint
    state = built.state
    if state is None:
        state = substitute(initial_state(f))
    profile = [c.expansion_size for c in state.constraints]
    bits = repr_size(kern, profile)
    t3 = time.perf_counter()

    encode_us = round(built.encode_s * 1e6)
    return SolveReport(
        sat=count > 0,
        count=count,
        rank=built.rank,
        nullity=built.nullity,
        kernel_vars=kern.width,
        kernel_clauses=len(kern.rows),
        repr_size_bits=bits,
        method=method,
        elapsed_ms=round((t3 - t0) * 1000),
        phase_us=(encode_us, round((t1 - t0) * 1e6) - encode_us,
                  round((t2 - t1) * 1e6)),
        witnesses=wit,
    )
