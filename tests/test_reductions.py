from xsat import (
    BOTTOM,
    CnfFormula,
    XsatFormula,
    naive_count,
    naive_count_cnf,
    reduce_cnf_to_xsat,
    reduce_xsat_to_positive,
    validate,
)
from xsat.generator import SplitMix64
from xsat.oracle import naive_models


def random_covering_cnf(rng, max_vars=4, max_clauses=3):
    """Random 3-CNF whose variables are exactly the ones that appear.

    Resamples until the full reduction chain stays within the oracle's
    24-variable cap, since the oracle must be able to arbitrate every step;
    the shapes this skips differ only in negation count, and each
    negation-gadget case has its own golden test.
    """
    while True:
        k = 1 + rng.randbelow(max_clauses)
        clauses = []
        while len(clauses) < k:
            vs = []
            while len(vs) < 3:
                v = rng.randbelow(max_vars) + 1
                if v not in vs:
                    vs.append(v)
            clauses.append(tuple(sorted(vs)[i] * (1 if rng.randbelow(2) else -1)
                                 for i in range(3)))
        used = sorted({abs(l) for c in clauses for l in c})
        remap = {v: i + 1 for i, v in enumerate(used)}
        remapped = tuple(
            tuple((1 if l > 0 else -1) * remap[abs(l)] for l in c)
            for c in clauses)
        cnf = CnfFormula(len(used), remapped)
        mid, _ = reduce_cnf_to_xsat(cnf)
        pos, _ = reduce_xsat_to_positive(mid)
        if pos.num_vars <= 24:
            return cnf


def test_single_clause_sizes():
    f, trace = reduce_cnf_to_xsat(CnfFormula(3, ((1, 2, 3),)))
    assert (f.num_vars, f.num_clauses) == (8, 4)
    assert trace.size_before == (3, 1)
    assert trace.size_after == (8, 4)


def test_single_clause_parsimony():
    cnf = CnfFormula(3, ((1, 2, 3),))
    f, _ = reduce_cnf_to_xsat(cnf)
    assert naive_count_cnf(cnf) == 7
    assert naive_count(f) == 7


def test_empty_cnf():
    f, trace = reduce_cnf_to_xsat(CnfFormula(0, ()))
    assert (f.num_vars, f.num_clauses) == (0, 0)
    assert trace.size_before == trace.size_after == (0, 0)


def test_fresh_indices_contiguous():
    cnf = CnfFormula(4, ((1, -2, 3), (2, 3, -4)))
    f, trace = reduce_cnf_to_xsat(cnf)
    allocated = [v for _, fresh in trace.fresh_map for v in fresh]
    assert allocated == list(range(5, 15))
    assert f.num_vars == 14


def test_positivize_single_negation():
    f = XsatFormula(3, ((-1, 2, 3),), positive=False)
    pos, trace = reduce_xsat_to_positive(f)
    assert pos.positive
    assert set(pos.clauses) == {(2, 3, 4), (1, 4, BOTTOM)}
    assert trace.fresh_map == ((0, (4,)),)


def test_positivize_triple_negation():
    f = XsatFormula(3, ((-1, -2, -3),), positive=False)
    pos, _ = reduce_xsat_to_positive(f)
    assert pos.num_clauses == 4
    assert pos.num_vars == 6
    assert set(pos.clauses) == {
        (4, 5, 6), (1, 4, BOTTOM), (2, 5, BOTTOM), (3, 6, BOTTOM)}


def test_positivize_identity_on_positive(two_clause_sat):
    pos, trace = reduce_xsat_to_positive(two_clause_sat)
    assert pos.clauses == two_clause_sat.clauses
    assert pos.num_vars == two_clause_sat.num_vars
    assert all(fresh == () for _, fresh in trace.fresh_map)


def test_positivize_copies_bottom_clauses():
    f = XsatFormula(2, ((1, 2, BOTTOM),), positive=False)
    pos, _ = reduce_xsat_to_positive(f)
    assert pos.clauses == ((1, 2, BOTTOM),)


def test_chain_parsimony_random():
    rng = SplitMix64(2024)
    for _ in range(25):
        cnf = random_covering_cnf(rng)
        src = naive_count_cnf(cnf)
        mid, _ = reduce_cnf_to_xsat(cnf)
        mid_count = naive_count(mid)
        pos, _ = reduce_xsat_to_positive(mid)
        pos_count = naive_count(pos)
        assert src == mid_count == pos_count


def test_chain_margin_identity():
    # vars minus clauses after the chain equals source vars plus clauses
    rng = SplitMix64(77)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid, t1 = reduce_cnf_to_xsat(cnf)
        pos, t2 = reduce_xsat_to_positive(mid)
        assert mid.num_vars - mid.num_clauses == cnf.num_vars + cnf.num_clauses
        assert pos.num_vars - pos.num_clauses == mid.num_vars - mid.num_clauses
        assert t1.size_after == (mid.num_vars, mid.num_clauses)
        assert t2.size_after == (pos.num_vars, pos.num_clauses)


def test_positivize_growth_bounds():
    rng = SplitMix64(88)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid, _ = reduce_cnf_to_xsat(cnf)
        pos, _ = reduce_xsat_to_positive(mid)
        assert pos.num_clauses - mid.num_clauses <= 4 * mid.num_clauses
        assert pos.num_vars - mid.num_vars <= 3 * mid.num_clauses


def test_positivized_output_validates():
    rng = SplitMix64(99)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid, _ = reduce_cnf_to_xsat(cnf)
        pos, _ = reduce_xsat_to_positive(mid)
        assert pos.positive
        assert validate(pos) == []


def test_positivize_preserves_witness_projection():
    # models of the positive formula project onto models of the source
    f = XsatFormula(3, ((-1, 2, 3), (1, 2, 3)), positive=False)
    pos, _ = reduce_xsat_to_positive(f)
    src_models = set(naive_models(f))
    projected = {m[:f.num_vars] for m in naive_models(pos)}
    assert projected == src_models
