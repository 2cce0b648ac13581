"""Residual 0/1 integer program: counting, witnesses, full pipeline.

There is one route from a formula to a kernel: ``encode_sys``, then
``build_kernel`` on the encoded rows, which runs ``gauss_jordan`` or
``substitute``.  The ``RrefResult`` either one returns is the kernel: its
sparse integer rows, pivot columns, variable count and consistency flag,
from which its free columns, rank and nullity follow, with no second copy
of the rows.  A 3-CNF takes the same route on its carry rows, one per
clause, which both methods return as encoded: rank m and width n + m.
Every pivot variable is then an affine function of the free variables.
A free assignment s extends to a model exactly when every row's residual
lands in {0, 1}; the residual then IS the pivot variable's value, so
counting admissible free assignments counts models, with no separate
back-substitution pass.

A row's D is its pivot entry, and the residual test is
``rhs - sum(coeff * s)`` in {0, D} over the free columns s.  An RREF row
is primitive, so its D is the least common denominator of the rational
row; a substitution row has a pivot entry of 1, so D = 1.  Substitution
may solve two rows for one pivot.  ``_read_rows`` is the one reader of
the rows, for both counters and the witnesses: in one pass it keys each
row's free entries by the column's position among the free columns,
splits them into a sorted low part and one flip list per higher bit, and
turns each repeat into an exact row, one whose residual must be 0 (its D
is 0), so both counters apply the one rule to every row.  The counters
check the width cap on the nullity before they read a row.
``count_blocks`` accepts all 2^BLOCK_BITS assignments of the low free
bits at once, as bits of one Python int.  It builds one bare table
per distinct low part, the blocks of low assignments per sum, on the
column masks the oracle caches, and shares it whatever the row's D.  A row
that reads no higher bit is checked once, at the root, on the table of its
low part less its top entry, at residuals r and r - D.  It walks the free
bits above BLOCK_BITS depth first, the bit most rows read first, checks
each other row, through the map ``t -> table[t] | table[t - D]`` derived
from its table, as soon as the bits it reads are set, and cuts a subtree
whose block is empty; a kernel at most BLOCK_BITS wide is not walked.
``solve`` counts with it, and the witnesses are the
words of free bits it accepts, sorted by Gray rank: the flat walk visits
free bits g at step ``_gray_rank(g)``.  ``count_kernel`` is the flat walk:
it visits {0,1}^d in Gray-code order, one bit flip and one addition per
touched row per step.  It only counts; it is the walk that criterion 8
and ``xsat bench`` time, and ``xsat verify`` checks the two counters
against each other.

The reported representation size, ``repr_size(f)``, is r * log2 of the
summed expansion sizes, which ``expansion_profile`` reads off the
formula's clauses under either method, and r the encoded system's
variables; no kernel or rewrite is needed for it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .formula import Assignment, CapacityError, CnfFormula, XsatFormula, check_valid
from .linsys import LinearSystem, RrefResult, encode_sys, gauss_jordan
from .oracle import _columns
from .substitution import expansion_profile, substitute

DEFAULT_MAX_FREE = 30
METHODS = ("gauss", "subst")


@dataclass(frozen=True)
class SolveReport:
    """The count of ``solve`` and the kernel it counted; the satisfiability,
    rank and sizes on the report line are read off the two."""

    count: int
    repr_size_bits: float
    method: str
    elapsed_ms: int
    kernel: RrefResult  # the kernel counted; not a report field
    phase_us: tuple[int, int, int] = (0, 0, 0)  # encode, eliminate, enumerate
    witnesses: tuple[Assignment, ...] | None = None

    @property
    def sat(self) -> bool:
        return self.count > 0

    @property
    def rank(self) -> int:
        return self.kernel.rank

    @property
    def nullity(self) -> int:
        return self.kernel.nullity

    @property
    def kernel_vars(self) -> int:
        return self.kernel.nullity

    @property
    def kernel_clauses(self) -> int:
        return len(self.kernel.rows)


def _check_width(d: int, max_free: int):
    if d > max_free:
        raise CapacityError(
            f"kernel has {d} free variables, cap is {max_free}; "
            "raise the cap or sample through the bench harness")


def _read_rows(
    rref: RrefResult, low: int,
) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]],
           list[int], list[int]]:
    """The rows of ``rref`` in one pass, in the counters' form: per row,
    its low part, the entries ``(p, c)`` with p < ``low`` in ascending p;
    per free bit ``low + k``, the rows i that read it and their entries c
    there, as ``(i, c)`` in row order; and per row, its rhs and its D, the
    pivot entry.  Bit p is the column ``free_cols[p]``; zero entries and
    the pivot and rhs columns are skipped.  Each row that repeats a pivot
    is replaced by an exact row: every row then accepts a residual
    ``rhs - sum(c * s)`` in {0, D}, and an exact row's D is 0.

    Rows sharing a pivot accept where their residuals are all 0 or all D.
    Let row0 be the first of them, residual e0 and D0 > 0, and take another
    row, residual e.  Its exact row ``D0*row - D*row0`` has residual
    ``D0*e - D*e0``.  With e0 = 0 that is 0 iff e = 0, and with e0 = D0 it
    is 0 iff e = D.  So the rows are all 0 or all D exactly when row0's
    residual is in {0, D0} and every exact row's residual is 0.
    """
    pos: list[int | None] = [None] * (rref.num_vars + 1)
    for p, c in enumerate(rref.free_cols):
        pos[c] = p
    rhs_col = rref.num_vars
    first: dict[int, dict[int, int]] = {}
    parts: list[list[tuple[int, int]]] = []
    flips: list[list[tuple[int, int]]] = [[] for _ in range(rref.nullity - low)]
    rhs, dens = [], []
    for i, (row, pivot) in enumerate(zip(rref.rows, rref.pivot_cols)):
        row0 = first.get(pivot)
        if row0 is None:
            first[pivot] = row
            den = row[pivot]
        else:
            a, b = row0[pivot], row[pivot]
            row = {c: a * row.get(c, 0) - b * row0.get(c, 0)
                   for c in row.keys() | row0.keys()}
            den = 0
        part = []
        for c, v in row.items():
            p = pos[c]
            if p is None or not v:
                continue
            if p < low:
                part.append((p, v))
            else:
                flips[p - low].append((i, v))
        part.sort()
        parts.append(part)
        rhs.append(row.get(rhs_col, 0))
        dens.append(den)
    return parts, flips, rhs, dens


def count_kernel(rref: RrefResult, max_free: int = DEFAULT_MAX_FREE) -> int:
    """Count admissible free assignments, one Gray-code step at a time.

    Each step flips one free bit and updates the residual of every row that
    reads it; ``bad`` counts the rows whose residual is neither 0 nor D.
    """
    d = rref.nullity
    _check_width(d, max_free)
    _, flips, res, dens = _read_rows(rref, 0)
    ok = [1 if v == 0 or v == den else 0 for v, den in zip(res, dens)]
    bad = len(ok) - sum(ok)
    count = 1 if bad == 0 else 0
    bits = 0
    for step in range(1, 1 << d):
        pos = (step & -step).bit_length() - 1
        bits ^= 1 << pos
        rising = bits >> pos & 1
        for i, delta in flips[pos]:
            v = res[i] = res[i] - delta if rising else res[i] + delta
            now = 1 if v == 0 or v == dens[i] else 0
            if now != ok[i]:
                bad += ok[i] - now
                ok[i] = now
        if bad == 0:
            count += 1
    return count


# Free bits below BLOCK_BITS are counted together: each row's acceptance
# over all 2^BLOCK_BITS low assignments is one Python int of 512 bytes.
BLOCK_BITS = 12
# count_blocks recurses once per free bit above the block; the ceiling
# keeps that well under Python's default recursion limit of 1000.
MAX_WALK_DEPTH = 512


def _bare_table(tables: dict[tuple[tuple[int, int], ...], dict[int, int]],
                part: tuple[tuple[int, int], ...], low: int) -> dict[int, int]:
    """``tables[part]``, built first if it is missing: the bare table of
    the entries ``(p, c)`` of ``part``, all below ``low``.

    It maps each sum s to the block of the low assignments j whose sum
    ``sum(c * j_p)`` is s; bit j of a block stands for the low assignment
    whose bit p is free bit p.  It is built from ``{0: full}`` one entry
    at a time on the oracle's cached ``_columns(low)`` masks, each block
    split by its bit p.  The key has no D, so every row with this part
    shares the table whatever its D.
    """
    table = tables.get(part)
    if table is None:
        full, cols, _ = _columns(low)
        table = {0: full}
        for p, c in part:
            col = cols[p]
            split: dict[int, int] = {}
            for s, block in table.items():
                on = block & col
                if on != block:
                    off = block ^ on
                    split[s] = split[s] | off if s in split else off
                if on:
                    t = s + c
                    split[t] = split[t] | on if t in split else on
            table = split
        tables[part] = table
    return table


def _walk_map(table: dict[int, int], den: int) -> dict[int, int]:
    """The map ``t -> table[t] | table[t - den]`` of a row checked in the
    walk: the low assignments that leave residual 0 or ``den`` once its
    high part has left t.  When ``den`` is 0 it is the table itself."""
    if not den:
        return table
    m = dict(table)
    for s, block in table.items():
        t = s + den
        m[t] = m[t] | block if t in m else block
    return m


def _root_block(table: dict[int, int], col: int, c: int, r: int, den: int) -> int:
    """The low assignments that a row checked at the root accepts at
    residual r: ``table`` is the bare table of its low part less its top
    entry ``(p, c)``, and ``col`` is the block where bit p is set.

    The row accepts the low assignments whose sum over its low part is r,
    or r - den when den is not 0.  That sum is r where bit p is clear and
    the table's sum is r, or where bit p is set and the table's sum is
    r - c: ``(T[r] & ~col) | (T[r - c] & col)``, with the same term at
    r - den, is ``off ^ ((off ^ on) & col)``.
    """
    get = table.get
    off, on = get(r, 0), get(r - c, 0)
    if den:
        off |= get(r - den, 0)
        on |= get(r - den - c, 0)
    return off ^ ((off ^ on) & col)


def _gray_rank(g: int) -> int:
    """The s with s ^ (s >> 1) == g: where the Gray walk visits g."""
    s = 0
    while g:
        s ^= g
        g >>= 1
    return s


def _models(rref: RrefResult, words: list[int]):
    """Yield the models whose free bits are the given words, in the flat
    walk's order.

    Bit p of a word is free bit p, column ``free_cols[p]``.  The flat walk
    visits the word g at step ``_gray_rank(g)``, so the words are taken in
    that order.  The rows are read by :func:`_read_rows`, and a pivot is 1
    exactly where its row's residual, the rhs less the row's entries at the
    set bits of the word, is nonzero; at a model, the rows that share a
    pivot agree on that, so the first one, the one whose D is not 0, stands
    for them all.
    """
    _, flips, rhs, dens = _read_rows(rref, 0)
    for g in sorted(words, key=_gray_rank):
        a = [0] * rref.num_vars
        res = list(rhs)
        for p, col in enumerate(rref.free_cols):
            if g >> p & 1:
                a[col] = 1
                for i, c in flips[p]:
                    res[i] -= c
        for col, r, den in zip(rref.pivot_cols, res, dens):
            if den:
                a[col] = 1 if r else 0
        yield tuple(a)


def count_blocks(
    rref: RrefResult,
    max_free: int = DEFAULT_MAX_FREE,
    witness_cap: int | None = None,
) -> tuple[int, tuple[Assignment, ...] | None]:
    """Count admissible free assignments 2^BLOCK_BITS at a time; with a
    ``witness_cap``, also list the models when there are at most that many.

    Same rows, acceptance rule and count as :func:`count_kernel`.  The low
    ``min(d, BLOCK_BITS)`` free bits form one block.  Each distinct low part
    has one bare table from :func:`_bare_table`, whatever the D of its
    rows.  A root row, one that reads no high bit, is checked on the table
    of its low part less its top entry by :func:`_root_block`, at its rhs
    and its rhs less D, and is never made a map; a row with no free entry
    accepts the full block or none.  Every other row has the map of
    :func:`_walk_map` on its part's table, shared by the rows with the same
    part and D, and one whose high part leaves residual ``t`` accepts the
    block its map gives for ``t``.  The rows are read in order, and once
    the root block is empty no more are read and the count is 0.  When
    ``d <= BLOCK_BITS`` every row is a root row and nothing is walked: the
    root is the one leaf, and its block holds the admissible assignments.

    The high bits are walked depth first, densest first: the bit that the
    most rows read is set at the root, so rows complete, and prune, near
    it; ties keep the top bit first.  The walk keeps each row's residual.
    Each row is checked once, at the node that sets the last high bit it
    reads (at the root when it reads none), and the node ANDs its accepted
    block into the one inherited from its parent.  A node whose block is 0
    is cut with its subtree; each leaf that is left adds its block's size.
    While the count is within the cap, a leaf also lists the word
    ``high << low | j`` of free bits for each accepted low assignment j,
    and :func:`_models` sorts the words by Gray rank, the flat walk's
    order, and extends them to models.

    The walk recurses once per high bit, so a kernel more than
    ``MAX_WALK_DEPTH`` bits wider than the block raises ``CapacityError``.
    Both caps are checked on the nullity, before any row is read.
    """
    d = rref.nullity
    _check_width(d, max_free)
    low = min(d, BLOCK_BITS)
    if d - low > MAX_WALK_DEPTH:
        raise CapacityError(
            f"kernel has {d} free variables, the block walk takes at most "
            f"{BLOCK_BITS + MAX_WALK_DEPTH} (a {BLOCK_BITS}-bit block and "
            f"{MAX_WALK_DEPTH} levels of recursion)")
    parts, flips, res, dens = _read_rows(rref, low)
    # the walk sets flips[order[-1]] first, the most-read high bit
    order = sorted(range(d - low), key=lambda k: len(flips[k]))
    flips = [flips[k] for k in order]
    # where[i]: the k of row i's last-set high bit; the flip lists are
    # scanned last-set first, so a row lands where it is first seen, and
    # the rows left over read no high bit
    where: dict[int, int] = {}
    for k, flip in enumerate(flips):
        for i, _ in flip:
            where.setdefault(i, k)
    checks: list[list[tuple[int, dict[int, int]]]] = [[] for _ in flips]
    full, cols, _ = _columns(low)
    tables: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
    maps: dict[tuple[tuple[tuple[int, int], ...], int], dict[int, int]] = {}
    block = full
    for i, part in enumerate(parts):
        den = dens[i]
        k = where.get(i)
        if k is not None:
            key = tuple(part)
            m = maps.get((key, den))
            if m is None:
                m = maps[key, den] = _walk_map(_bare_table(tables, key, low), den)
            checks[k].append((i, m))
        elif part:
            p, c = part.pop()
            block &= _root_block(_bare_table(tables, tuple(part), low),
                                 cols[p], c, res[i], den)
            if not block:
                break
        elif res[i] != 0 and res[i] != den:
            block = 0
            break

    def accept(block: int, rows: list[tuple[int, dict[int, int]]]) -> int:
        for i, m in rows:
            block &= m.get(res[i], 0)
            if not block:
                break
        return block

    count = 0
    words = []  # the models' free bits, while there are at most the cap

    def walk(k: int, high: int, block: int) -> None:
        nonlocal count
        if k < 0:
            count += block.bit_count()
            if witness_cap is not None and count <= witness_cap:
                high <<= low
                while block:
                    bit = block & -block
                    words.append(high | bit.bit_length() - 1)
                    block ^= bit
            return
        rows = checks[k]
        below = accept(block, rows) if rows else block
        if below:
            walk(k - 1, high, below)
        flip = flips[k]
        for i, delta in flip:
            res[i] -= delta
        below = accept(block, rows) if rows else block
        if below:
            walk(k - 1, high | 1 << order[k], below)
        for i, delta in flip:
            res[i] += delta

    if block:
        walk(d - low - 1, 0, block)
    # walk refers to itself through its closure; breaking that cycle frees
    # the maps on return rather than at the next garbage collection
    del walk
    if witness_cap is None or count > witness_cap:
        return count, None
    return count, tuple(_models(rref, words))


def repr_size(f: XsatFormula | CnfFormula) -> float:
    """Representation size in bits: r * log2(sum of the expansion sizes),
    with r the columns ``encode_sys`` gives: n + 2m for a 3-CNF."""
    total = sum(expansion_profile(f))
    if total <= 0:
        return 0.0
    r = f.num_vars + 2 * f.num_clauses if isinstance(f, CnfFormula) else f.num_vars
    return r * math.log2(total)


def size_bounds(num_vars: int) -> tuple[float, float]:
    """Reporting band (lo, hi) = (r*log2(2r/3), r^2*log2(1.62))."""
    r = num_vars
    lo = r * math.log2(2 * r / 3) if r > 0 else 0.0
    return lo, r * r * math.log2(1.62)


def profile_total_within_bounds(num_vars: int, total: int) -> tuple[bool, bool]:
    """Exact band membership test, monotone form (no floating point).

    r*log2(total) >= r*log2(2r/3)  iff  3*total >= 2r, and
    r*log2(total) <= r^2*log2(1.62) iff total * 50^r <= 81^r.
    """
    lo_ok = 3 * total >= 2 * num_vars
    hi_ok = total * 50 ** num_vars <= 81 ** num_vars
    return lo_ok, hi_ok


def build_kernel(system: LinearSystem, method: str) -> RrefResult:
    """The kernel of the encoded rows of ``system``: their elimination
    (``"gauss"``) or their rewrite (``"subst"``)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return gauss_jordan(system) if method == "gauss" else substitute(system)


def solve(
    f: XsatFormula | CnfFormula,
    method: str = "gauss",
    max_free: int = DEFAULT_MAX_FREE,
    witness_cap: int | None = None,
) -> SolveReport:
    """Full pipeline: ``encode_sys``, then ``build_kernel``, then count.

    ``witness_cap`` is passed to :func:`count_blocks`: None lists nothing;
    for a 3-CNF the witnesses hold the carries too, and a model is bits
    m+1..m+n of its witness.  A malformed XSAT ``f`` raises
    ``ValidationError``; ``check_valid`` reads the formula's ``violations``,
    so a formula is validated once however often it is parsed or solved.
    A ``CnfFormula`` validates itself when it is constructed.  An
    inconsistent kernel counts 0 with no walk.  The report carries the
    kernel it counted, and its rank and nullity are the kernel's.
    """
    if not isinstance(f, CnfFormula):
        check_valid(f)
    t0 = time.perf_counter()
    system = encode_sys(f)
    t1 = time.perf_counter()
    kern = build_kernel(system, method)
    t2 = time.perf_counter()

    count, wit = ((0, None) if kern.inconsistent
                  else count_blocks(kern, max_free, witness_cap))
    t3 = time.perf_counter()

    bits = repr_size(f)
    t4 = time.perf_counter()

    return SolveReport(
        count=count,
        repr_size_bits=bits,
        method=method,
        elapsed_ms=round((t4 - t0) * 1000),
        kernel=kern,
        phase_us=(round((t1 - t0) * 1e6), round((t2 - t1) * 1e6),
                  round((t3 - t2) * 1e6)),
        witnesses=wit,
    )
