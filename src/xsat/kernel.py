"""Residual 0/1 integer program: extraction, enumeration, full pipeline.

After elimination (or substitution) every pivot variable is an affine
function of the free variables.  A free assignment s extends to a model
exactly when every row's residual lands in {0, 1}; the residual then IS
the pivot variable's value, so counting admissible free assignments counts
models, with no separate back-substitution pass.

Kernel rows are integer: coefficients, a rhs and one positive denominator
D per row, and the residual test is ``rhs - sum(coeff * s)`` in {0, D}.
An RREF row is primitive, so its D is its pivot entry; a substitution row
has D = 1.  Two counters apply the same rule to the rows as they are and
give the same count.  ``count_kernel`` is the flat walk: it visits
{0,1}^d in Gray-code order, one bit flip and one addition per touched row
per step.  It alone lists witnesses and takes a ``prefix`` of fixed free
bits (per-prefix counts add up to the full count bit for bit), and it is
the walk that criterion 8 and ``xsat bench`` time.  ``count_blocks``
Gray-walks only the free bits above BLOCK_BITS and accepts all
2^BLOCK_BITS low assignments of a step at once, as bits of one Python int
per row; ``solve`` counts with it whenever no witnesses are wanted.
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
    """``den * pivot_var = rhs - sum(coeffs * s)`` over the free variables s.

    A free assignment suits the row when the residual is 0 or ``den``.
    """

    coeffs: tuple[int, ...]
    rhs: int
    pivot_var: int
    den: int = 1


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
    """Free-column entries of each pivot row, rhs from the augmented column,
    and the pivot entry as the row's denominator."""
    free_cols = rref.free_cols
    var_of_col = rref.matrix.var_of_col
    n_vars = rref.matrix.num_vars
    rows = []
    for row, pivot_col in zip(rref.matrix.rows, rref.pivot_cols):
        rows.append(KernelRow(
            coeffs=tuple(row.get(c, 0) for c in free_cols),
            rhs=row.get(n_vars, 0),
            pivot_var=var_of_col[pivot_col],
            den=row[pivot_col],
        ))
    return KernelInstance(
        free_vars=tuple(var_of_col[c] for c in free_cols),
        rows=tuple(rows),
        origin_vars=n_vars,
    )


def kernel_from_substitution(state: SubstitutionState) -> KernelInstance:
    """Rewrite fixpoint constraints into kernel rows.

    A constraint lhs = const + sum(c * v) becomes a row with pivot lhs,
    coefficients -c on the free side, rhs const and denominator 1, matching
    the residual convention above.
    """
    free_vars = tuple(sorted(state.dependent))
    col_of = {v: i for i, v in enumerate(free_vars)}
    rows = []
    for con in state.constraints:
        coeffs = [0] * len(free_vars)
        for v, c in con.coeffs:
            coeffs[col_of[v]] = -c
        rows.append(KernelRow(tuple(coeffs), con.const, con.lhs))
    return KernelInstance(free_vars, tuple(rows), state.num_vars)


def _check_width(d: int, max_free: int):
    if d > max_free:
        raise CapacityError(
            f"kernel has {d} free variables, cap is {max_free}; "
            "raise the cap or sample through the bench harness")


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
    _check_width(d, max_free)
    if len(prefix) > d:
        raise ValueError("prefix longer than the free variable list")

    coeffs = [row.coeffs for row in kern.rows]
    rhs = [row.rhs for row in kern.rows]
    dens = [row.den for row in kern.rows]
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


# Free bits below BLOCK_BITS are counted together: each row's acceptance
# over all 2^BLOCK_BITS low assignments is one Python int of 512 bytes.
BLOCK_BITS = 12


def _low_tables(coeffs: list[tuple[int, ...]], low: int) -> tuple[int, list[dict[int, int]]]:
    """Per row, map each sum of its first ``low`` coefficients to its block.

    Bit j of a block stands for the low assignment whose bit p is free bit
    p; it is set in ``table[s]`` iff that assignment's partial sum is s.
    """
    full = (1 << (1 << low)) - 1
    # free bit p alternates runs of 2^p zeros and 2^p ones over the block
    cols = [(((1 << (1 << p)) - 1) << (1 << p))
            * (full // ((1 << (2 << p)) - 1)) for p in range(low)]
    tables = []
    for row in coeffs:
        table = {0: full}
        for c, col in zip(row, cols):
            if not c:
                continue
            split: dict[int, int] = {}
            for s, block in table.items():
                on = block & col
                if block ^ on:
                    split[s] = split.get(s, 0) | (block ^ on)
                if on:
                    split[s + c] = split.get(s + c, 0) | on
            table = split
        tables.append(table)
    return full, tables


def count_blocks(kern: KernelInstance, max_free: int = DEFAULT_MAX_FREE) -> int:
    """Count admissible free assignments 2^BLOCK_BITS at a time.

    Same rows, acceptance rule and count as :func:`count_kernel`.
    The low ``min(d, BLOCK_BITS)`` free bits form one block, tabulated per
    row by :func:`_low_tables`; the high bits are Gray-walked, keeping each
    row's residual ``t`` after the high part.  A row accepts the block
    ``table[t]`` (residual 0) or ``table[t - D]`` (residual D); a group of
    rows sharing a pivot accepts where all of them are 0 or all are D.
    """
    d = kern.width
    _check_width(d, max_free)
    coeffs = [row.coeffs for row in kern.rows]
    res = [row.rhs for row in kern.rows]
    dens = [row.den for row in kern.rows]
    low = min(d, BLOCK_BITS)
    full, tables = _low_tables(coeffs, low)
    by_pivot: dict[int, list[int]] = {}
    for i, row in enumerate(kern.rows):
        by_pivot.setdefault(row.pivot_var, []).append(i)
    groups = list(by_pivot.values())
    flips = [[(i, row[pos]) for i, row in enumerate(coeffs) if row[pos]]
             for pos in range(low, d)]

    count = 0
    high = 0
    for step in range(1 << (d - low)):
        if step:
            pos = (step & -step).bit_length() - 1
            high ^= 1 << pos
            rising = high >> pos & 1
            for i, delta in flips[pos]:
                res[i] += -delta if rising else delta
        block = full
        for g in groups:
            zero = one = full
            for i in g:
                table = tables[i]
                zero &= table.get(res[i], 0)
                one &= table.get(res[i] - dens[i], 0)
            block &= zero | one
            if not block:
                break
        count += block.bit_count()
    return count


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
    under ``"gauss"``.  ``encode_s`` is the time spent encoding the clauses
    and ``eliminate_s`` the rest of the build: elimination or rewriting,
    then extraction.
    """

    kernel: KernelInstance
    rank: int
    nullity: int
    inconsistent: bool
    state: SubstitutionState | None
    encode_s: float
    eliminate_s: float


def build_kernel(f: XsatFormula, method: str) -> KernelBuild:
    """Encode and eliminate (``"gauss"``) or rewrite (``"subst"``) to a kernel.

    Under ``"subst"`` the encoding is the initial substitution state.
    """
    t0 = time.perf_counter()
    if method == "gauss":
        system = encode_sys(f)
        t1 = time.perf_counter()
        rref = gauss_jordan(system)
        kern = extract_kernel(rref)
        return KernelBuild(kern, rref.rank, rref.nullity, rref.inconsistent,
                           None, t1 - t0, time.perf_counter() - t1)
    if method == "subst":
        start = initial_state(f)
        t1 = time.perf_counter()
        state = substitute(start)
        rank, nullity = rank_of_subst(state)
        kern = kernel_from_substitution(state)
        return KernelBuild(kern, rank, nullity, state.inconsistent, state,
                           t1 - t0, time.perf_counter() - t1)
    raise ValueError(f"unknown method {method!r}")


def solve(
    f: XsatFormula,
    method: str = "gauss",
    max_free: int = DEFAULT_MAX_FREE,
    want_witnesses: bool = False,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    built: KernelBuild | None = None,
) -> SolveReport:
    """Full pipeline: encode, eliminate (or substitute), extract, count.

    ``built``, when given, is ``build_kernel(f, method)`` already done; its
    recorded build times stand in for building again.
    """
    check_valid(f)
    if built is None:
        built = build_kernel(f, method)
    kern = built.kernel
    t1 = time.perf_counter()

    if built.inconsistent:
        count, wit = 0, None
    elif want_witnesses:
        count, wit = count_kernel(kern, max_free=max_free,
                                  want_witnesses=True,
                                  witness_cap=witness_cap)
    else:
        count, wit = count_blocks(kern, max_free=max_free), None
    t2 = time.perf_counter()

    # representation size is always measured on the substitution fixpoint
    state = built.state
    if state is None:
        state = substitute(initial_state(f))
    profile = [c.expansion_size for c in state.constraints]
    bits = repr_size(kern, profile)
    t3 = time.perf_counter()

    build_s = built.encode_s + built.eliminate_s
    return SolveReport(
        sat=count > 0,
        count=count,
        rank=built.rank,
        nullity=built.nullity,
        kernel_vars=kern.width,
        kernel_clauses=len(kern.rows),
        repr_size_bits=bits,
        method=method,
        elapsed_ms=round((build_s + t3 - t1) * 1000),
        phase_us=(round(built.encode_s * 1e6), round(built.eliminate_s * 1e6),
                  round((t2 - t1) * 1e6)),
        witnesses=wit,
    )
