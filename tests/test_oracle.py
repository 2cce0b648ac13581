import pytest

from xsat import CapacityError, CnfFormula, XsatFormula, naive_count, naive_count_cnf
from xsat.formula import BOTTOM, eval_xsat
from xsat.generator import GenSpec, SplitMix64, gen_random
from xsat.oracle import (
    LOW_BITS,
    _any_of,
    _check_cap,
    _exactly_one,
    _truth_tables,
    naive_models,
)
from xsat.reductions import reduce_cnf_to_xsat


def naive_count_reference(f: XsatFormula, cap: int = 16) -> int:
    """Straightforward double-loop counter; the check on naive_count."""
    _check_cap(f.num_vars, cap)
    r = f.num_vars
    return sum(
        1 for m in range(1 << r)
        if eval_xsat(f, tuple((m >> i) & 1 for i in range(r))))


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
        f = reduce_cnf_to_xsat(cnf)
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


def test_models_take_the_cap_that_the_count_takes():
    # r = 21 is above 20 and within ORACLE_CAP: every oracle entry point
    # enumerates it by default
    f = gen_random(GenSpec(r=21, k=14, seed=3))
    assert len(naive_models(f)) == naive_count(f) == 17


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


def _counting(clause_table):
    """``clause_table`` that also counts its calls, in ``calls[0]``."""
    calls = [0]

    def counted(x, y, z):
        calls[0] += 1
        return clause_table(x, y, z)
    return counted, calls


def _models_per_block(f: XsatFormula) -> dict[int, int]:
    """``{first: models}`` for every block holding a model, by the double
    loop, in ascending ``first``."""
    out: dict[int, int] = {}
    for m, a in enumerate(_assignments(f.num_vars)):
        if eval_xsat(f, a):
            first = m >> LOW_BITS << LOW_BITS
            out[first] = out.get(first, 0) + 1
    return out


@pytest.mark.parametrize("r", [15, 16])
def test_walk_cuts_a_subtree_at_each_depth(r):
    # x1 != x2 and x3 != x4 at the root force top = 1 at depth 1 and
    # top - 1 = 0 at depth 2; then the clause over three variables above the
    # block forces top - 2 = 0 at depth 3.  At r = 16 variable 13 is free.
    top = r
    f = XsatFormula(r, (
        (1, 2, BOTTOM), (3, 4, BOTTOM), (-top, 1, 2), (top - 1, 3, 4),
        (-top, -(top - 1), top - 2),
    ), positive=False)
    counted, calls = _counting(_exactly_one)
    blocks = {first: t.bit_count()
              for first, t in _truth_tables(r, f.clauses, counted)}
    assert list(blocks.items()) == list(_models_per_block(f).items())
    assert list(blocks) == [1 << (top - 1) | low << LOW_BITS
                            for low in range(1 << (r - LOW_BITS - 3))]
    # the two root clauses, then one clause at each of the two children of
    # the root, of top = 1 and of (top, top - 1) = (1, 0); nothing below
    assert calls[0] == 2 + 2 + 2 + 2


@pytest.mark.parametrize("r", [13, 14])
def test_empty_root_table_yields_nothing(r):
    # x1 != x2 and x1 != ~x2 contradict before any variable above the block
    # is set, so no clause over those variables is ever evaluated
    f = XsatFormula(r, (
        (1, 2, BOTTOM), (1, -2, BOTTOM), (r, 3, 4), (-13, 5, 6),
    ), positive=False)
    counted, calls = _counting(_exactly_one)
    assert list(_truth_tables(r, f.clauses, counted)) == []
    assert calls[0] == 2
    assert naive_models(f) == []
    assert naive_count(f) == 0 == naive_count_reference(f)


def test_conflicting_top_clauses_yield_nothing_at_the_cap():
    # x1 = ~x24 and x1 = x24 empty both children of the root, so none of
    # the 2^12 blocks at r = 24 is built.  Each child stops at the second of
    # its three clauses (they are ANDed in canonical order), and the lower
    # clauses are never reached.
    r = 24
    f = XsatFormula(r, (
        (1, 2, 3), (r, 1, BOTTOM), (-r, 1, BOTTOM), (2, 3, r), (13, 14, 15),
        (-20, 2, 3),
    ), positive=False)
    counted, calls = _counting(_exactly_one)
    assert list(_truth_tables(r, f.clauses, counted)) == []
    assert calls[0] == 1 + 2 * 2
    assert naive_count(f) == 0
    assert naive_models(f, r) == []


def test_models_ascend_across_skipped_blocks():
    # x13 = x14 cuts the blocks 1 and 2 of the four at r = 14
    r = 14
    f = XsatFormula(r, (
        (1, 2, 3), (-13, 14, BOTTOM), (13, 4, 5), (-14, -6, 7),
    ), positive=False)
    firsts = [first for first, _ in _truth_tables(r, f.clauses, _exactly_one)]
    assert firsts == list(_models_per_block(f)) == [0, 3 << LOW_BITS]
    expect = [a for a in _assignments(r) if eval_xsat(f, a)]
    assert naive_models(f) == expect


@pytest.mark.parametrize("n", [14, 15])
def test_cnf_clauses_only_above_the_block(n):
    # ~x13 and x13 or x14, written with repeats, leave x13 = 0 and x14 = 1
    f = CnfFormula(n, (
        (-13, -13, -13), (13, 14, 14), (1, -2, 3), (-1, 2, n),
    ))
    blocks = list(_truth_tables(n, f.clauses, _any_of))
    assert [first >> LOW_BITS & 3 for first, _ in blocks] == [2] * len(blocks)
    assert len(blocks) == 1 << (n - 14)
    expect = _cnf_count_reference(f)
    assert sum(t.bit_count() for _, t in blocks) == expect
    assert naive_count_cnf(f) == expect
