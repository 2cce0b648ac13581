"""Seeded random and adversarial instance generation.

Randomness comes from a self-contained splitmix generator (64-bit state,
golden-ratio increment, two xor-shift-multiply finalization rounds) so the
same seed produces the same instance on every platform and Python version;
nothing here touches the stdlib random module.  Batch generation derives
per-instance seeds as ``seed ^ index``.

``gen_random`` draws the same stream in blocks: the state after i steps is
seed + i*gamma mod 2^64, so 256 outputs are computed at once as 64-bit lanes
of one Python int.  The lanes sit 128 bits apart, so a lane's product with
a 64-bit multiplier stays below 2^128 and never carries into the next lane;
masking back to each lane's low 64 bits after every step keeps the
arithmetic modulo 2^64.  The scalar ``SplitMix64`` is the reference.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count

from .formula import XsatError, XsatFormula

FAMILIES = ("random", "partition", "fib-chain", "fixed-rank")
RETRY_CAP = 1_000_000


class SpecError(XsatError):
    """Generation parameters are infeasible or inconsistent."""


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_SHIFT1, _SHIFT2, _SHIFT3 = 30, 27, 31


class SplitMix64:
    """Deterministic 64-bit stream: state += 0x9E3779B97F4A7C15, output is
    the state scrambled by (x ^= x>>30) * 0xBF58476D1CE4E5B9,
    (x ^= x>>27) * 0x94D049BB133111EB, x ^= x>>31, all modulo 2^64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> _SHIFT1)) * _MUL1) & _MASK
        z = ((z ^ (z >> _SHIFT2)) * _MUL2) & _MASK
        return z ^ (z >> _SHIFT3)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = _MASK + 1 - (_MASK + 1) % n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randbelow(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


# The block stream's lane constants: LANES holds 1 in every lane, STEPS
# holds (j+1)*gamma in lane j and LOW masks every lane to its low 64 bits.
_BLOCK = 256
LANES = sum(1 << (128 * j) for j in range(_BLOCK))
LOW = LANES * _MASK
STEPS = sum(((j + 1) * _GAMMA & _MASK) << (128 * j) for j in range(_BLOCK))
# memoryview's "Q" is native-endian: the low half of lane j is item 2j on a
# little-endian host and item 2*_BLOCK - 1 - 2j on a big-endian one
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _block(state: int) -> memoryview:
    """The _BLOCK outputs that follow ``state``, as native 64-bit items."""
    z = (state * LANES + STEPS) & LOW
    z = ((z ^ (z >> _SHIFT1)) & LOW) * _MUL1 & LOW
    z = ((z ^ (z >> _SHIFT2)) & LOW) * _MUL2 & LOW
    z ^= z >> _SHIFT3  # leaves garbage in the high halves, which are not read
    return memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")[_LOW_HALVES]


def _below(seed: int, n: int) -> Iterator[int]:
    """Endless iterator equal, value for value, to repeated
    ``SplitMix64(seed).randbelow(n)``."""
    limit = _MASK + 1 - (_MASK + 1) % n
    stride = _BLOCK * _GAMMA
    return chain.from_iterable(
        [v % n for v in _block((seed + i * stride) & _MASK) if v < limit]
        for i in count())


@dataclass(frozen=True)
class GenSpec:
    r: int
    k: int
    seed: int = 0
    family: str = "random"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}")
        if self.r < 0 or self.k < 0:
            raise SpecError("r and k must be non-negative")


def gen_random(spec: GenSpec) -> XsatFormula:
    """k distinct positive triples over r variables, uniform over valid
    clause sets conditioned on full variable coverage.

    Sampling draws distinct triples uniformly and rejects draws that leave
    a variable uncovered.  At the density floor k = r/3 only perfect
    partitions are valid, so a random partition is drawn directly (same
    conditional distribution, no rejection storm).  Deterministic per seed.

    The draws are ``SplitMix64(seed).randbelow(r)`` read in blocks of 256
    (see the module docstring), and each triple is held as the bitmask of
    its three variables until a clause set is accepted; the formula is the
    one the scalar stream gives when each triple takes ``randbelow(r) + 1``
    until it has three distinct variables.
    """
    r, k = spec.r, spec.k
    if r < 3:
        raise SpecError("need at least 3 variables")
    if 3 * k < r:
        raise SpecError(
            f"k={k} cannot cover r={r} variables (need k >= ceil(r/3))")
    if k > r:
        raise SpecError(f"k={k} exceeds r={r}; only instances with r >= k")
    if k > math.comb(r, 3):
        raise SpecError(f"k={k} exceeds the number of distinct triples")
    if 3 * k == r:
        order = list(range(1, r + 1))
        SplitMix64(spec.seed).shuffle(order)
        triples = [tuple(sorted(order[3 * i:3 * i + 3])) for i in range(k)]
        return XsatFormula(r, tuple(triples))  # type: ignore[arg-type]

    bits = [1 << v for v in range(r)]
    draw = map(bits.__getitem__, _below(spec.seed, r)).__next__
    full = (1 << r) - 1
    for _ in range(RETRY_CAP):
        seen: set[int] = set()
        covered = 0
        while len(seen) < k:
            a = draw()
            b = draw()
            while b == a:
                b = draw()
            ab = a | b
            c = draw()
            while c & ab:
                c = draw()
            t = ab | c
            seen.add(t)
            covered |= t
        if covered == full:
            return XsatFormula(r, tuple(
                tuple(v + 1 for v in range(r) if t >> v & 1) for t in seen))
    raise SpecError(f"no covering clause set found in {RETRY_CAP} attempts")


def gen_partition(r: int) -> XsatFormula:
    """The r/3 disjoint consecutive triples; rank r/3, model count 3^(r/3)."""
    if r <= 0 or r % 3:
        raise SpecError(f"partition family needs r divisible by 3, got {r}")
    triples = tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(r // 3))
    return XsatFormula(r, triples)


def gen_fib_chain(k: int) -> XsatFormula:
    """Adversarial substitution chain: clauses {i, i+1, i+2} for i = 1..k.

    Clause i's two higher variables are the solved variables of clauses
    i+1 and i+2, so each rewrite splices two already-expanded bodies and
    the expansion sizes follow the Fibonacci recurrence: the constraint
    solved for variable i ends with expansion size Fib(k - i + 3).
    """
    if k < 2:
        raise SpecError("chain needs k >= 2")
    triples = tuple((i, i + 1, i + 2) for i in range(1, k + 1))
    return XsatFormula(k + 2, triples)


def gen_fixed_rank(r: int, k: int) -> XsatFormula:
    """Full-row-rank family for controlled-nullity timing runs.

    Clause i holds its private variable i plus two pool variables from
    k+1..r assigned round robin; the private column makes the k equation
    rows independent, so rank is exactly k and nullity exactly r - k.
    """
    if k < 1:
        raise SpecError("need k >= 1")
    pool = list(range(k + 1, r + 1))
    if len(pool) < 2:
        raise SpecError("need at least 2 pool variables (r >= k + 2)")
    if r > 3 * k:
        raise SpecError(f"k={k} clauses cannot cover r={r} variables")
    m = len(pool)
    triples = []
    for i in range(k):
        x = pool[(2 * i) % m]
        y = pool[(2 * i + 1) % m]
        triples.append(tuple(sorted((i + 1, x, y))))
    return XsatFormula(r, tuple(triples))  # type: ignore[arg-type]


def generate(spec: GenSpec) -> XsatFormula:
    """Dispatch on the spec's family."""
    if spec.family == "random":
        return gen_random(spec)
    if spec.family == "partition":
        if spec.k and 3 * spec.k != spec.r:
            raise SpecError("partition family fixes k = r/3")
        return gen_partition(spec.r)
    if spec.family == "fib-chain":
        if spec.r and spec.r != spec.k + 2:
            raise SpecError("chain family fixes r = k + 2")
        return gen_fib_chain(spec.k)
    return gen_fixed_rank(spec.r, spec.k)
