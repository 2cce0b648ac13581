from fractions import Fraction
from itertools import islice

import pytest

from xsat import kappa, naive_count, solve, validate
from xsat.generator import (
    RETRY_CAP,
    GenSpec,
    SpecError,
    SplitMix64,
    _below,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
    generate,
)
from xsat.formula import XsatFormula
from xsat.substitution import expansion_profile

from test_linsys import rank_of


def test_splitmix_reference_stream():
    # splitmix with seed 1234567 must yield this fixed stream everywhere
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1, -987654321])
@pytest.mark.parametrize("n", [1, 7, 19, 3**39])
def test_block_stream_matches_randbelow(seed, n):
    # three and a half blocks of 256; seed 2^64-1 wraps the state in the
    # first block, and 3^39 rejects about one output in eight
    rng = SplitMix64(seed)
    count = 900
    assert list(islice(_below(seed, n), count)) == [
        rng.randbelow(n) for _ in range(count)]


def scalar_triple(rng: SplitMix64, r: int) -> tuple[int, int, int]:
    """Three distinct variables from 1..r, sorted: ``randbelow(r) + 1``
    drawn until three values differ."""
    picked: list[int] = []
    while len(picked) < 3:
        v = rng.randbelow(r) + 1
        if v not in picked:
            picked.append(v)
    return tuple(sorted(picked))


def _reference_random(spec: GenSpec) -> XsatFormula:
    # gen_random's rejection loop drawn one scalar triple at a time
    r, k = spec.r, spec.k
    rng = SplitMix64(spec.seed)
    for _ in range(RETRY_CAP):
        seen = set()
        while len(seen) < k:
            seen.add(scalar_triple(rng, r))
        covered = {v for t in seen for v in t}
        if len(covered) == r:
            return XsatFormula(r, tuple(seen))
    raise SpecError("no covering clause set")


@pytest.mark.parametrize("r,k,trials", [
    (16, 8, 4), (19, 10, 3), (19, 12, 3),
    (11, 4, 6), (13, 5, 6), (14, 5, 2),
])
def test_gen_random_matches_scalar_reference(r, k, trials):
    # oracle-check's shapes and near-floor shapes that reject most draws
    for trial in range(trials):
        spec = GenSpec(r=r, k=k, seed=trial * 7919 + 3)
        assert gen_random(spec) == _reference_random(spec)


def test_randbelow_range_and_determinism():
    a = SplitMix64(9)
    b = SplitMix64(9)
    xs = [a.randbelow(7) for _ in range(200)]
    assert xs == [b.randbelow(7) for _ in range(200)]
    assert set(xs) <= set(range(7))
    with pytest.raises(ValueError, match="^randbelow needs n >= 1$"):
        SplitMix64(0).randbelow(0)


def test_gen_random_deterministic():
    spec = GenSpec(r=9, k=5, seed=42)
    assert gen_random(spec) == gen_random(spec)
    other = gen_random(GenSpec(r=9, k=5, seed=43))
    assert other != gen_random(spec)


def test_gen_random_valid_and_dense():
    for seed in range(10):
        f = gen_random(GenSpec(r=10, k=6, seed=seed))
        assert validate(f) == []
        assert kappa(f) >= Fraction(1, 3)


def test_gen_random_density_floor_is_a_partition():
    # with k = r/3 the only way to cover r variables is a perfect partition
    f = gen_random(GenSpec(r=6, k=2, seed=7))
    seen = [v for c in f.clauses for v in c]
    assert sorted(seen) == list(range(1, 7))


def test_gen_random_structure():
    f = gen_random(GenSpec(r=6, k=4, seed=42))
    assert f.num_clauses == 4
    assert len(set(f.clauses)) == 4
    assert validate(f) == []


INFEASIBLE_RANDOM = {
    (9, 2): r"^k=2 cannot cover r=9 variables \(need k >= ceil\(r/3\)\)$",
    (6, 7): r"^k=7 exceeds r=6; only instances with r >= k$",
    (3, 2): r"^k=2 exceeds the number of distinct triples$",
    (2, 1): r"^need at least 3 variables$",
}


@pytest.mark.parametrize("r,k", list(INFEASIBLE_RANDOM))
def test_gen_random_infeasible(r, k):
    with pytest.raises(SpecError, match=INFEASIBLE_RANDOM[r, k]):
        gen_random(GenSpec(r=r, k=k, seed=0))


def test_gen_partition():
    assert gen_partition(3).clauses == ((1, 2, 3),)
    f = gen_partition(6)
    assert naive_count(f) == 9
    assert rank_of(f) == (2, 4)
    assert naive_count(gen_partition(12)) == 81


def test_gen_partition_rejects_indivisible():
    with pytest.raises(SpecError):
        gen_partition(7)


def test_fib_chain_profiles():
    # expansion sizes follow the Fibonacci recurrence: the constraint solved
    # for variable i ends with size Fib(k - i + 3), largest first in state
    # order, so k=2 gives [3, 2] and k=5 gives [13, 8, 5, 3, 2]
    assert expansion_profile(gen_fib_chain(2)) == [3, 2]
    assert expansion_profile(gen_fib_chain(3)) == [5, 3, 2]
    assert expansion_profile(gen_fib_chain(5)) == [13, 8, 5, 3, 2]


def test_fib_chain_valid_and_chain_shaped():
    for k in (2, 4, 7):
        f = gen_fib_chain(k)
        assert f.num_vars == k + 2
        assert validate(f) == []
        assert f.clauses == tuple((i, i + 1, i + 2) for i in range(1, k + 1))


def test_fib_chain_needs_two_clauses():
    with pytest.raises(SpecError):
        gen_fib_chain(1)


def test_fixed_rank_family():
    for k, r in ((5, 11), (8, 20), (11, 23)):
        f = gen_fixed_rank(r, k)
        assert validate(f) == []
        assert rank_of(f) == (k, r - k)


def test_fixed_rank_infeasible():
    with pytest.raises(SpecError):
        gen_fixed_rank(10, 3)  # 3 clauses cannot cover 10 variables
    with pytest.raises(SpecError):
        gen_fixed_rank(4, 3)  # pool too small
    with pytest.raises(SpecError, match="^need k >= 1$"):
        gen_fixed_rank(6, 0)


def test_generate_dispatch():
    assert generate(GenSpec(r=6, k=2, seed=1, family="random")).num_clauses == 2
    assert generate(GenSpec(r=9, k=0, family="partition")) == gen_partition(9)
    assert generate(GenSpec(r=0, k=4, family="fib-chain")) == gen_fib_chain(4)
    assert generate(GenSpec(r=12, k=6, family="fixed-rank")) == gen_fixed_rank(12, 6)
    with pytest.raises(SpecError):
        GenSpec(r=6, k=2, family="strange")
    with pytest.raises(SpecError, match="^r and k must be non-negative$"):
        GenSpec(r=-1, k=0)
    with pytest.raises(SpecError, match=r"^partition family fixes k = r/3$"):
        generate(GenSpec(r=9, k=2, family="partition"))
    with pytest.raises(SpecError, match=r"^chain family fixes r = k \+ 2$"):
        generate(GenSpec(r=7, k=4, family="fib-chain"))


def test_generator_output_counts_cross_checked():
    f = gen_random(GenSpec(r=9, k=4, seed=3))
    assert solve(f).count == naive_count(f)
