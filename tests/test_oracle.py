import pytest

from xsat import CapacityError, CnfFormula, XsatFormula, naive_count, naive_count_cnf
from xsat.formula import BOTTOM, eval_xsat
from xsat.generator import GenSpec, SplitMix64, gen_random
from xsat.oracle import LOW_BITS, naive_count_reference, naive_models
from xsat.reductions import reduce_cnf_to_xsat


def test_count_two_clause(two_clause_sat):
    assert naive_count(two_clause_sat) == 3


def test_count_unsat(dense_unsat):
    assert naive_count(dense_unsat) == 0


def test_count_single_clause():
    assert naive_count(XsatFormula(3, ((1, 2, 3),))) == 3


def test_count_six_var(six_var):
    assert naive_count(six_var) == 3
    assert sorted(naive_models(six_var)) == [
        (0, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1)]


def test_incremental_matches_reference_on_random_instances():
    rng = SplitMix64(97)
    for trial in range(30):
        r = 6 + rng.randbelow(5)
        k = max(2, (r + 2) // 3) + rng.randbelow(3)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial * 31 + 5))
        assert naive_count(f) == naive_count_reference(f)


def test_incremental_matches_reference_with_negations():
    # negation-bearing instances come out of the CNF reduction
    rng = SplitMix64(13)
    for trial in range(10):
        lits = []
        for _ in range(2):
            vs = sorted(rng.randbelow(4) + 1 for _ in range(3))
            if len(set(vs)) != 3:
                continue
            lits.append(tuple(v * (1 if rng.randbelow(2) else -1) for v in vs))
        if not lits:
            continue
        cnf = CnfFormula(4, tuple(lits))
        f, _ = reduce_cnf_to_xsat(cnf)
        assert naive_count(f) == naive_count_reference(f)


def test_monotone_under_clause_addition():
    rng = SplitMix64(41)
    for trial in range(20):
        f = gen_random(GenSpec(r=9, k=5, seed=trial))
        extra = None
        while extra is None or extra in f.clauses:
            extra = rng.triple(9)
        g = XsatFormula(9, f.clauses + (extra,))
        assert naive_count(g) <= naive_count(f)


def test_capacity_cap():
    big = XsatFormula(25, tuple((3 * i + 1, 3 * i + 2, 3 * i + 3)
                                for i in range(8)) + ((25, 1, 2),))
    with pytest.raises(CapacityError):
        naive_count(big)


def test_cnf_count_basic():
    assert naive_count_cnf(CnfFormula(3, ((1, 2, 3),))) == 7


def test_cnf_count_vacuous():
    assert naive_count_cnf(CnfFormula(2, ())) == 4


def test_cnf_count_contradiction_padded():
    f = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    assert naive_count_cnf(f) == 0


def _assignments(r):
    for m in range(1 << r):
        yield tuple((m >> i) & 1 for i in range(r))


def _above_block(r):
    # r > LOW_BITS, so variables LOW_BITS+1..r are fixed within each block;
    # each appears both plain and negated (a variable seen with one sign
    # only would hide a sign slip by symmetry), beside B and repeated.
    # Satisfied by setting variables 1, 3, 4, 7, 8, 9, 10 and 12..r true.
    top, high = r, LOW_BITS + 1
    return XsatFormula(r, (
        (top, -1, 2), (-(top - 1), 3, BOTTOM), (-high, 4, 5),
        (high, 6, BOTTOM), (-high, -7, 8), (-top, -top, 9),
        (10, 11, -12), (2, top, -12), (1, -3, 5), (-7, -9, top - 1),
    ), positive=False)


@pytest.mark.parametrize("r", [13, 14, 15])
def test_count_matches_reference_above_block(r):
    assert r > LOW_BITS
    f = _above_block(r)
    n = naive_count(f)
    assert n == naive_count_reference(f)
    assert n > 0


@pytest.mark.parametrize("r", [13, 14])
def test_models_match_double_loop_above_block(r):
    f = _above_block(r)
    expect = [a for a in _assignments(r) if eval_xsat(f, a)]
    assert expect
    assert naive_models(f) == expect


def _cnf_count_reference(f):
    return sum(
        1 for a in _assignments(f.num_vars)
        if all(any(a[abs(l) - 1] == (l > 0) for l in c) for c in f.clauses))


def test_cnf_count_matches_double_loop():
    rng = SplitMix64(29)
    for trial in range(12):
        above = trial < 4  # n = 13 or 14, above LOW_BITS
        n = 13 + trial % 2 if above else 2 + rng.randbelow(11)
        clauses = []
        for _ in range(2 + rng.randbelow(9)):
            lits = [(rng.randbelow(n) + 1) * (1 if rng.randbelow(2) else -1)
                    for _ in range(3)]
            shape = rng.randbelow(4)
            if shape == 1:
                lits[2] = lits[1]  # padded: two literals, one written twice
            elif shape == 2:
                lits = [lits[0]] * 3  # one literal written three times
            clauses.append(tuple(lits))
        if above:
            # both signs of the top two variables
            clauses += [(n, -(n - 1), 1), (-n, n - 1, 2)]
        f = CnfFormula(n, tuple(clauses))
        assert naive_count_cnf(f) == _cnf_count_reference(f), f
