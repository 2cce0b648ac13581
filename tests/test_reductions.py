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
        mid = reduce_cnf_to_xsat(cnf)
        pos = reduce_xsat_to_positive(mid)
        if pos.num_vars <= 24:
            return cnf


def test_single_clause_sizes():
    cnf = CnfFormula(3, ((1, 2, 3),))
    f = reduce_cnf_to_xsat(cnf)
    assert (cnf.num_vars, cnf.num_clauses) == (3, 1)
    assert (f.num_vars, f.num_clauses) == (8, 4)


def test_single_clause_parsimony():
    cnf = CnfFormula(3, ((1, 2, 3),))
    f = reduce_cnf_to_xsat(cnf)
    assert naive_count_cnf(cnf) == 7
    assert naive_count(f) == 7


def test_empty_cnf():
    cnf = CnfFormula(0, ())
    f = reduce_cnf_to_xsat(cnf)
    assert (cnf.num_vars, cnf.num_clauses) == (f.num_vars, f.num_clauses) == (0, 0)


def test_fresh_indices_contiguous():
    cnf = CnfFormula(4, ((1, -2, 3), (2, 3, -4)))
    f = reduce_cnf_to_xsat(cnf)
    assert f.num_vars == 14
    used = {abs(l) for c in f.clauses for l in c}
    assert used - set(range(1, 5)) == set(range(5, 15))
    # every output clause reads the block of five of one source clause,
    # and source clause i gets block i: variables 5 + 5i to 9 + 5i
    gadgets: dict[int, list] = {}
    for clause in f.clauses:
        blocks = {(abs(l) - 5) // 5 for l in clause if abs(l) > 4}
        assert len(blocks) == 1, clause
        gadgets.setdefault(blocks.pop(), []).append(clause)
    assert sorted(gadgets) == [0, 1]
    for i, (l1, l2, l3) in enumerate(cnf.clauses):
        clauses = gadgets[i]
        assert len(clauses) == 4
        assert ({abs(l) for c in clauses for l in c if abs(l) > 4}
                == set(range(5 + 5 * i, 10 + 5 * i)))
        assert (sorted(l for c in clauses for l in c if abs(l) <= 4)
                == sorted((-l1, l2, -l3)))


def test_positivize_single_negation():
    f = XsatFormula(3, ((-1, 2, 3),), positive=False)
    pos = reduce_xsat_to_positive(f)
    assert pos.positive
    # the complement of ~1 is the one fresh variable, 4, bound by (1, 4, B)
    assert pos.num_vars == 4
    assert set(pos.clauses) == {(2, 3, 4), (1, 4, BOTTOM)}


def test_positivize_triple_negation():
    f = XsatFormula(3, ((-1, -2, -3),), positive=False)
    pos = reduce_xsat_to_positive(f)
    assert pos.num_clauses == 4
    assert pos.num_vars == 6
    assert set(pos.clauses) == {
        (4, 5, 6), (1, 4, BOTTOM), (2, 5, BOTTOM), (3, 6, BOTTOM)}


def test_positivize_identity_on_positive(two_clause_sat):
    pos = reduce_xsat_to_positive(two_clause_sat)
    assert pos.clauses == two_clause_sat.clauses
    # no variable is added
    assert pos.num_vars == two_clause_sat.num_vars


def test_positivize_copies_bottom_clauses():
    f = XsatFormula(2, ((1, 2, BOTTOM),), positive=False)
    pos = reduce_xsat_to_positive(f)
    assert pos.clauses == ((1, 2, BOTTOM),)


def test_chain_parsimony_random():
    rng = SplitMix64(2024)
    for _ in range(25):
        cnf = random_covering_cnf(rng)
        src = naive_count_cnf(cnf)
        mid = reduce_cnf_to_xsat(cnf)
        mid_count = naive_count(mid)
        pos = reduce_xsat_to_positive(mid)
        pos_count = naive_count(pos)
        assert src == mid_count == pos_count


def test_chain_margin_identity():
    # vars minus clauses after the chain equals source vars plus clauses
    rng = SplitMix64(77)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid = reduce_cnf_to_xsat(cnf)
        pos = reduce_xsat_to_positive(mid)
        assert mid.num_vars - mid.num_clauses == cnf.num_vars + cnf.num_clauses
        assert pos.num_vars - pos.num_clauses == mid.num_vars - mid.num_clauses
        assert (mid.num_vars, mid.num_clauses) == (
            cnf.num_vars + 5 * cnf.num_clauses, 4 * cnf.num_clauses)
        # one fresh variable and one binding clause per negated literal
        negs = sum(l < 0 for c in mid.clauses for l in c)
        assert (pos.num_vars, pos.num_clauses) == (
            mid.num_vars + negs, mid.num_clauses + negs)


def test_positivize_growth_bounds():
    rng = SplitMix64(88)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid = reduce_cnf_to_xsat(cnf)
        pos = reduce_xsat_to_positive(mid)
        assert pos.num_clauses - mid.num_clauses <= 4 * mid.num_clauses
        assert pos.num_vars - mid.num_vars <= 3 * mid.num_clauses


def test_positivized_output_validates():
    rng = SplitMix64(99)
    for _ in range(15):
        cnf = random_covering_cnf(rng)
        mid = reduce_cnf_to_xsat(cnf)
        pos = reduce_xsat_to_positive(mid)
        assert pos.positive
        assert validate(pos) == []


def test_positivize_preserves_witness_projection():
    # models of the positive formula project onto models of the source
    f = XsatFormula(3, ((-1, 2, 3), (1, 2, 3)), positive=False)
    pos = reduce_xsat_to_positive(f)
    src_models = set(naive_models(f))
    projected = {m[:f.num_vars] for m in naive_models(pos)}
    assert projected == src_models
