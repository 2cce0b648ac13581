"""Seeded workload instances and their expected model counts.

Every workload is a fixed list of slots.  A slot pins the parameters that
set an op's cost (r, k, kernel width); the workload seed only picks which
instance of that shape is drawn.  One pass holds one instance per slot, and
a workload draws a fresh instance for every slot of each of its passes, so
a run's medians rest on many instances rather than on the few of one pass.
That keeps one seed's figures close to another's, so runs on different
seeds can be compared.

Expected counts come from code that shares nothing with the timed path:
the exact-cover counter in ``exactcover.py`` for positive instances and
the CNF truth table (``naive_count_cnf``) for the DIMACS inputs.  The
oracle-check workload needs no expected count: its op is the agreement of
two solver methods with the 2^r oracle.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from xsat.formula import CnfFormula, XsatFormula
from xsat.generator import GenSpec, gen_fixed_rank, gen_random
from xsat.io import serialize_cnf, serialize_xsat
from xsat.oracle import naive_count, naive_count_cnf

import exactcover

# Each workload has one main cost class that holds both the median and the
# tail op, with several instances in it so that neither percentile rests on
# one instance, plus one cheaper first slot that widens the shapes covered
# and is the warm-up op.  With one cheap slot in seven the median falls near
# the middle of the main class; with more, it falls near the class's lower
# edge, where it rests on its few cheapest instances and moves from seed to
# seed.  Main-class ops cost 0.2-0.3 s, so a run makes 70-90 of them.

# elim-large: planted (r, k), all under --method gauss; main class r=60-66
# at k/r 4/3 and 1, which cost the same.
ELIM_SLOTS = ((48, 64), (66, 66), (60, 80), (66, 66), (60, 80), (66, 66), (60, 80))

# walk-deep: (kind, a, b, kernel width).  fixed: gen_fixed_rank with nullity
# a on rank 11; gauss: planted (a, b) of full row rank; subst: planted (a, b)
# drawn until the substitution kernel has the given width.  Main class:
# width 19.
WALK_SLOTS = (("fixed", 17, 0, 17),
              ("gauss", 39, 20, 19), ("subst", 30, 15, 19), ("gauss", 39, 20, 19),
              ("fixed", 19, 0, 19), ("gauss", 39, 20, 19), ("subst", 30, 15, 19))

# cnf-chain: (n, m) of the source 3-CNF; the Gauss kernel is n + m wide.
# Main class: width 18.
CNF_SLOTS = ((6, 8), (8, 10), (9, 9), (8, 10), (9, 9), (8, 10), (9, 9))

# oracle-check: gen_random (r, k) at kappa 1/2 and 2/3, which cost the same
# at r=19.  Main class: r=19.
ORACLE_SLOTS = ((16, 8), (19, 10), (19, 12), (19, 10), (19, 12), (19, 10), (19, 12))

# Passes drawn per workload: a little more than a 25-second run makes on a
# 2-vCPU Xeon host.  A run that makes more passes starts over.
ELIM_PASSES = 12
WALK_PASSES = 13
CNF_PASSES = 12
ORACLE_PASSES = 15

FIXED_RANK = 11
MAX_WALK_LOAD = 1.5
EXACTCOVER_CHECKS = 6
_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class Instance:
    """One op's input: the text written to disk and the parsed source."""

    name: str
    method: str  # solver method for CLI ops; empty for oracle-check
    data: bytes
    formula: XsatFormula | CnfFormula


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # op is `xsat solve --count` on a file, else the oracle triple
    build: Callable[[int], list[Instance]]  # seed -> all passes, pass by pass
    pass_len: int  # slots per pass


def _rng(seed: int, slot: int, tag: str) -> random.Random:
    return random.Random(f"{tag}/{seed}/{slot}")


def _slots(slots: tuple, passes: int):
    """(index, slot) for every slot of every pass, pass by pass."""
    for p in range(passes):
        for i, slot in enumerate(slots):
            yield p * len(slots) + i, slot


def planted(r: int, k: int, rng: random.Random) -> XsatFormula:
    """Positive instance with at least one known model; k > r is allowed.

    A shuffled partition of the r variables into r/3 triples covers every
    variable, and one variable of each triple is planted true.  Each of the
    k - r/3 extra triples holds exactly one planted-true variable, so the
    planted assignment satisfies every clause.
    """
    if r % 3 or not r // 3 <= k:
        raise ValueError(f"planted instance needs 3 | r and k >= r/3, got r={r} k={k}")
    order = list(range(1, r + 1))
    rng.shuffle(order)
    parts = [tuple(sorted(order[i:i + 3])) for i in range(0, r, 3)]
    true = [rng.choice(p) for p in parts]
    chosen = set(true)
    false = [v for v in range(1, r + 1) if v not in chosen]
    if k - len(parts) > len(true) * len(false) * (len(false) - 1) // 2:
        raise ValueError(f"not enough distinct planted triples for r={r} k={k}")
    clauses = set(parts)
    while len(clauses) < k:
        a, b = rng.sample(false, 2)
        clauses.add(tuple(sorted((rng.choice(true), a, b))))
    return XsatFormula(r, tuple(clauses))


def random_cnf(n: int, m: int, rng: random.Random) -> CnfFormula:
    """m distinct 3-clauses over n variables, every variable used."""
    while True:
        clauses = set()
        while len(clauses) < m:
            vs = rng.sample(range(1, n + 1), 3)
            clauses.add(tuple(sorted(v if rng.random() < 0.5 else -v for v in vs)))
        if len({abs(l) for c in clauses for l in c}) == n:
            return CnfFormula(n, tuple(clauses))


def rref_mod_p(f: XsatFormula) -> tuple[int, list[int]]:
    """Rank of the clause equations modulo a large prime, and the nonzero
    count of each free column of the reduced echelon form, leftmost free
    column first.

    Pivoting follows the solver's rule (leftmost column, first row), so the
    free columns are the solver's.  The rank never exceeds the rank over
    the rationals; when it equals the clause count it proves full row rank,
    and the nonzero pattern is the solver's kernel pattern.
    """
    rows = []
    for c in f.clauses:
        row = [0] * f.num_vars
        for v in c:
            if v:
                row[v - 1] += 1
        rows.append(row)
    pivots = []
    for col in range(f.num_vars):
        cur = len(pivots)
        pivot = next((i for i in range(cur, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[cur], rows[pivot] = rows[pivot], rows[cur]
        inv = pow(rows[cur][col], _PRIME - 2, _PRIME)
        rows[cur] = [x * inv % _PRIME for x in rows[cur]]
        for i, row in enumerate(rows):
            if i != cur and row[col]:
                g = row[col]
                rows[i] = [(a - g * b) % _PRIME for a, b in zip(row, rows[cur])]
        pivots.append(col)
    free = [c for c in range(f.num_vars) if c not in set(pivots)]
    return len(pivots), [sum(1 for row in rows[:len(pivots)] if row[c]) for c in free]


def walk_load(free_nnz: list[int]) -> float:
    """Rows updated per Gray step: free column j flips on 1/2^(j+1) of steps."""
    return sum(n / 2 ** (j + 1) for j, n in enumerate(free_nnz))


def subst_width(f: XsatFormula) -> int:
    """Substitution kernel width: variables that solve no clause."""
    return f.num_vars - len({min(v for v in c if v) for c in f.clauses})


def _xsat(name: str, method: str, f: XsatFormula) -> Instance:
    return Instance(name, method, serialize_xsat(f), f)


def build_elim(seed: int) -> list[Instance]:
    out = []
    for i, (r, k) in _slots(ELIM_SLOTS, ELIM_PASSES):
        f = planted(r, k, _rng(seed, i, "elim"))
        out.append(_xsat(f"elim{i}-planted-r{r}-k{k}", "gauss", f))
    return out


def build_walk(seed: int) -> list[Instance]:
    out = []
    for i, (kind, a, b, width) in _slots(WALK_SLOTS, WALK_PASSES):
        if kind == "fixed":
            f = gen_fixed_rank(FIXED_RANK + a, FIXED_RANK)
            out.append(_xsat(f"walk{i}-fixed-rank-null{a}", "gauss", f))
            continue
        rng = _rng(seed, i, "walk")
        while True:
            f = planted(a, b, rng)
            if kind == "gauss":
                rank, free_nnz = rref_mod_p(f)
                # drop the rare kernels whose first free columns are dense:
                # they cost up to 1.5x the walk of the same width
                if rank == b == a - width and walk_load(free_nnz) <= MAX_WALK_LOAD:
                    break
            if kind == "subst" and subst_width(f) == width:
                break
        out.append(_xsat(f"walk{i}-{kind}-r{a}-k{b}-w{width}", kind, f))
    return out


def build_cnf(seed: int) -> list[Instance]:
    out = []
    for i, (n, m) in _slots(CNF_SLOTS, CNF_PASSES):
        f = random_cnf(n, m, _rng(seed, i, "cnf"))
        out.append(Instance(f"cnf{i}-n{n}-m{m}", "gauss", serialize_cnf(f), f))
    return out


def build_oracle(seed: int) -> list[Instance]:
    out = []
    for i, (r, k) in _slots(ORACLE_SLOTS, ORACLE_PASSES):
        gen_seed = _rng(seed, i, "oracle").getrandbits(63)
        f = gen_random(GenSpec(r=r, k=k, seed=gen_seed))
        out.append(Instance(f"oracle{i}-random-r{r}-k{k}", "", b"", f))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("elim-large", True, build_elim, len(ELIM_SLOTS)),
    Workload("walk-deep", True, build_walk, len(WALK_SLOTS)),
    Workload("cnf-chain", True, build_cnf, len(CNF_SLOTS)),
    Workload("oracle-check", False, build_oracle, len(ORACLE_SLOTS)),
)}


def expected_count(inst: Instance) -> int:
    """Model count from code independent of the solver."""
    f = inst.formula
    if isinstance(f, CnfFormula):
        return naive_count_cnf(f)
    return exactcover.count_models(f.num_vars, f.clauses)


def check_exactcover() -> None:
    """Confirm the exact-cover counter against the 2^r oracle on small
    instances before trusting it on large ones."""
    for i in range(EXACTCOVER_CHECKS):
        r = 9 + i % 4
        f = gen_random(GenSpec(r=r, k=r // 3 + 1 + i % (r - r // 3), seed=1000 + i))
        got = exactcover.count_models(f.num_vars, f.clauses)
        want = naive_count(f)
        if got != want:
            raise RuntimeError(
                f"exact-cover counter gives {got}, oracle {want} on r={r} seed={1000 + i}")
