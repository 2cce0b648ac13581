import copy
import dataclasses
import math
import random
from fractions import Fraction

import pytest

from xsat import (
    BOTTOM,
    EncodingError,
    LinearSystem,
    RrefResult,
    XsatFormula,
    encode_sys,
    gauss_jordan,
    naive_count,
)
from xsat.generator import (
    GenSpec,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
)
from xsat import linsys
from xsat.linsys import integer_rref
from xsat.oracle import naive_models

from test_acceptance import ensemble

F = Fraction


def dense_gauss_jordan(system: LinearSystem) -> RrefResult:
    """Reference: dense Gauss-Jordan over Fraction, same pivot rule.

    Its ``rows`` are dense ``Fraction`` tuples, each with pivot entry 1.
    """
    n_vars = system.num_vars
    rows = [[F(row.get(c, 0)) for c in range(n_vars + 1)] for row in system.rows]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(n_vars):
        pivot_row = None
        for i in range(cur, n_rows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != cur:
            rows[cur], rows[pivot_row] = rows[pivot_row], rows[cur]
        factor = rows[cur][col]
        if factor != 1:
            rows[cur] = [x / factor for x in rows[cur]]
        for i in range(n_rows):
            if i == cur or rows[i][col] == 0:
                continue
            g = rows[i][col]
            rows[i] = [a - g * b for a, b in zip(rows[i], rows[cur])]
        pivot_cols.append(col)
        cur += 1

    inconsistent = any(
        all(x == 0 for x in row[:n_vars]) and row[n_vars] != 0
        for row in rows[cur:])
    kept = tuple(tuple(row) for row in rows[:cur])
    rank = len(pivot_cols)
    free_cols = tuple(c for c in range(n_vars) if c not in set(pivot_cols))
    return RrefResult(
        rows=kept,
        pivot_cols=tuple(pivot_cols),
        free_cols=free_cols,
        rank=rank,
        nullity=n_vars - rank,
        inconsistent=inconsistent,
    )


def first_holder_rref(system: LinearSystem) -> tuple[list[dict[int, int]], list[int]]:
    """Reference: :func:`integer_rref` with the first row holding each column
    at or below the current one as its pivot row, the rule of
    :func:`dense_gauss_jordan`.  Calls ``linsys._eliminate`` through the
    module, so a test can count its row updates."""
    rows = [dict(linsys._primitive(row)) for row in system.rows]
    n_rows = len(rows)
    pivot_cols: list[int] = []
    cur = 0
    for col in range(system.num_vars):
        pivot_row = next((i for i in range(cur, n_rows) if col in rows[i]), None)
        if pivot_row is None:
            continue
        pivot = rows[pivot_row]
        if pivot[col] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
        rows[pivot_row] = rows[cur]
        rows[cur] = pivot
        for i in range(cur + 1, n_rows):
            if col in rows[i]:
                linsys._eliminate(rows[i], pivot, col)
        pivot_cols.append(col)
        cur += 1
    for j in range(len(pivot_cols) - 1, 0, -1):
        col, pivot = pivot_cols[j], rows[j]
        for i in range(j):
            if col in rows[i]:
                linsys._eliminate(rows[i], pivot, col)
    return rows, pivot_cols


def rank_of(f: XsatFormula) -> tuple[int, int]:
    """(rank, nullity) of the clause equation system."""
    res = gauss_jordan(encode_sys(f))
    return res.rank, res.nullity


def rational_rows(res: RrefResult) -> tuple[tuple[Fraction, ...], ...]:
    """Each kept integer row divided by its pivot entry, as dense Fractions."""
    n_vars = res.rank + res.nullity
    return tuple(tuple(F(row.get(c, 0), row[pivot]) for c in range(n_vars + 1))
                 for row, pivot in zip(res.rows, res.pivot_cols))


def assert_matches_dense(res: RrefResult, dense: RrefResult):
    """The integer RREF is the rational one, row by row, and every kept row
    is primitive with a positive pivot entry."""
    assert dataclasses.replace(res, rows=rational_rows(res)) == dense
    for row, pivot in zip(res.rows, res.pivot_cols):
        assert row[pivot] > 0 and math.gcd(*row.values()) == 1, row


def _random_triples(r: int, k: int, seed: int) -> XsatFormula:
    """k distinct triples over r variables, coverage not required."""
    rng = SplitMix64(seed)
    triples: set[tuple[int, int, int]] = set()
    while len(triples) < k:
        vs = set()
        while len(vs) < 3:
            vs.add(1 + rng.randbelow(r))
        triples.add(tuple(sorted(vs)))
    return XsatFormula(r, tuple(triples))


def _random_integer_system(n_rows: int, n_vars: int, seed: int) -> LinearSystem:
    """Values in -6..6, about half of them zero, so that rows can share a
    factor above 1 and lead with a negative value."""
    rng = SplitMix64(seed)
    rows = []
    for _ in range(n_rows):
        values = (0 if rng.randbelow(2) else rng.randbelow(13) - 6
                  for _ in range(n_vars + 1))
        rows.append({c: v for c, v in enumerate(values) if v})
    return LinearSystem(tuple(rows), n_vars)


def _assert_same_rref(system: LinearSystem):
    sparse = gauss_jordan(system)
    assert_matches_dense(sparse, dense_gauss_jordan(system))
    rows, pivot_cols = integer_rref(system)
    assert pivot_cols == list(sparse.pivot_cols)
    for row in rows:
        assert all(isinstance(v, int) and v for v in row.values())
        assert math.gcd(*row.values()) in (0, 1), row


def test_encode_single_clause():
    sys_ = encode_sys(XsatFormula(3, ((1, 2, 3),)))
    assert sys_.rows == ({0: 1, 1: 1, 2: 1, 3: 1},)
    assert sys_.num_vars == 3


def test_encode_bottom_contributes_nothing():
    sys_ = encode_sys(XsatFormula(2, ((1, 2, BOTTOM),)))
    assert sys_.rows == ({0: 1, 1: 1, 2: 1},)


def test_encode_six_var_shape(six_var):
    sys_ = encode_sys(six_var)
    assert len(sys_.rows) == 4
    assert sys_.num_vars == 6
    assert all(row[6] == 1 and max(row) == 6 for row in sys_.rows)


def test_encode_rejects_negation():
    with pytest.raises(EncodingError):
        encode_sys(XsatFormula(3, ((-1, 2, 3),), positive=False))


def test_gauss_partition_already_reduced():
    f = gen_partition(6)
    sys_ = encode_sys(f)
    res = gauss_jordan(sys_)
    assert (res.rank, res.nullity) == (2, 4)
    assert res.rows == sys_.rows
    assert res.pivot_cols == (0, 3)
    assert res.free_cols == (1, 2, 4, 5)
    assert not res.inconsistent


def test_gauss_six_var(six_var):
    # elimination rank of this instance is 4 even though the substitution
    # method solves for only 3 distinct variables; see test_substitution
    res = gauss_jordan(encode_sys(six_var))
    assert (res.rank, res.nullity) == (4, 2)
    assert res.pivot_cols == (0, 1, 2, 3)
    assert res.free_cols == (4, 5)
    assert not res.inconsistent


def test_gauss_dense_unsat_is_rationally_consistent(dense_unsat):
    res = gauss_jordan(encode_sys(dense_unsat))
    assert (res.rank, res.nullity) == (4, 0)
    assert not res.inconsistent
    # unique rational solution has every entry 1/3; exact arithmetic required
    rhs = [row[-1] for row in rational_rows(res)]
    assert rhs == [F(1, 3)] * 4


def test_gauss_detects_rational_inconsistency():
    f = XsatFormula(3, ((1, 2, BOTTOM), (1, 3, BOTTOM), (2, 3, BOTTOM),
                        (1, 2, 3)))
    res = gauss_jordan(encode_sys(f))
    assert res.inconsistent
    assert naive_count(f) == 0


@pytest.mark.parametrize("clauses,r,expect", [
    (((1, 2, 3), (4, 5, 6)), 6, (2, 4)),
    (((1, 2, 3),), 3, (1, 2)),
])
def test_rank_of(clauses, r, expect):
    assert rank_of(XsatFormula(r, clauses)) == expect


def test_rank_of_six_var(six_var):
    assert rank_of(six_var) == (4, 2)


def test_rank_bounds():
    rng = SplitMix64(23)
    for trial in range(30):
        r = 6 + rng.randbelow(6)
        k_lo = -(-r // 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial))
        eta, eta_bar = rank_of(f)
        assert eta <= min(k, r)
        assert eta_bar >= r - k
        assert eta + eta_bar == r


def test_rank_function_axioms():
    def rank_rows(clauses, r):
        if not clauses:
            return 0
        return gauss_jordan(encode_sys(XsatFormula(r, tuple(clauses)))).rank

    rng = SplitMix64(59)
    for trial in range(15):
        r = 9
        f = gen_random(GenSpec(r=r, k=6 + rng.randbelow(3), seed=trial + 100))
        clauses = list(f.clauses)
        assert rank_rows([], r) == 0
        # adding one clause changes rank by 0 or 1, monotonically
        prev = 0
        for i in range(1, len(clauses) + 1):
            cur = rank_rows(clauses[:i], r)
            assert cur in (prev, prev + 1)
            prev = cur
        # subadditivity over a random split
        cut = 1 + rng.randbelow(len(clauses) - 1)
        a, b = clauses[:cut], clauses[cut:]
        assert rank_rows(clauses, r) <= rank_rows(a, r) + rank_rows(b, r)


def test_rref_pivot_columns_are_unit_vectors():
    rng = SplitMix64(61)
    for trial in range(10):
        r = 7 + rng.randbelow(4)
        k = -(-r // 3) + rng.randbelow(4)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 300))
        res = gauss_jordan(encode_sys(f))
        for row_idx, col in enumerate(res.pivot_cols):
            column = [row[col] for row in rational_rows(res)]
            assert column[row_idx] == 1
            assert all(x == 0 for i, x in enumerate(column) if i != row_idx)


def test_rref_preserves_solutions():
    rng = SplitMix64(71)
    for trial in range(10):
        f = gen_random(GenSpec(r=8, k=4 + rng.randbelow(3), seed=trial + 7))
        res = gauss_jordan(encode_sys(f))
        for model in naive_models(f):
            for row in rational_rows(res):
                lhs = sum(c * v for c, v in zip(row[:-1], model))
                assert lhs == row[-1]


def test_sparse_rref_equals_dense_on_criterion2_ensemble():
    for f in ensemble():
        _assert_same_rref(encode_sys(f))


def test_sparse_rref_equals_dense_on_families():
    formulas = [gen_partition(r) for r in (3, 6, 15, 30)]
    formulas += [gen_fib_chain(k) for k in (2, 5, 12, 30)]
    formulas += [gen_fixed_rank(rank + nullity, rank)
                 for rank, nullity in ((7, 12), (11, 14), (11, 22), (20, 20))]
    for f in formulas:
        _assert_same_rref(encode_sys(f))


@pytest.mark.parametrize("r,k,seed", [
    (12, 16, 1), (20, 26, 2), (33, 40, 3), (48, 64, 4), (60, 80, 5), (66, 66, 6),
    (66, 88, 7),
])
def test_sparse_rref_equals_dense_on_random_triples(r, k, seed):
    _assert_same_rref(encode_sys(_random_triples(r, k, seed)))


def test_sparse_rref_equals_dense_on_integer_systems():
    for seed in range(40):
        n_rows = 2 + seed % 7
        n_vars = 3 + (seed * 5) % 8
        _assert_same_rref(_random_integer_system(n_rows, n_vars, seed))
    # a common factor of 2, and a negative leading value in every row
    system = LinearSystem(({0: -2, 1: 4, 3: 6}, {0: -3, 2: 5, 3: 1},
                           {0: -1, 1: 8, 2: 5, 3: -2}), 3)
    _assert_same_rref(system)
    assert rational_rows(gauss_jordan(system))[0][0] == 1
    # -2x + 4y = 6 is kept divided by -2
    single = LinearSystem(({0: -2, 1: 4, 2: 6},), 2)
    _assert_same_rref(single)
    assert gauss_jordan(single).rows == ({0: 1, 1: -2, 2: -3},)


def test_sparse_rref_equals_dense_on_inconsistent_systems():
    # x = 1 and x = 2: the first row is the pivot, so the kept rhs is 1
    system = LinearSystem(({0: 1, 1: 1}, {0: 1, 1: 2}), 1)
    res = gauss_jordan(system)
    assert res.inconsistent and res.rows == ({0: 1, 1: 1},)
    _assert_same_rref(system)
    f = XsatFormula(3, ((1, 2, BOTTOM), (1, 3, BOTTOM), (2, 3, BOTTOM),
                        (1, 2, 3)))
    _assert_same_rref(encode_sys(f))
    assert gauss_jordan(encode_sys(f)).inconsistent


def test_sparse_rref_on_empty_systems():
    for system in (LinearSystem((), 0), LinearSystem((), 2),
                   LinearSystem(({}, {0: 3}), 0)):
        _assert_same_rref(system)


def test_elimination_leaves_its_input_alone(six_var):
    # encode_sys rows are primitive, so they would alias the working rows;
    # the hand-built rows share a factor of 2 or lead with a negative value
    systems = (
        encode_sys(six_var),
        encode_sys(_random_triples(20, 26, 2)),
        LinearSystem(({0: -2, 1: 4, 3: 6}, {0: -3, 2: 5, 3: 1},
                      {0: -1, 1: 8, 2: 5, 3: -2}), 3),
    )
    for system in systems:
        before = copy.deepcopy(system.rows)
        gauss_jordan(system)
        assert system.rows == before
        integer_rref(system)
        assert system.rows == before


def _holders(system: LinearSystem, col: int) -> list[int]:
    return [i for i, row in enumerate(system.rows) if col in row]


# systems whose first holder of column 0 is not its sparsest holder
CONSISTENT_PIVOT_SYSTEMS = (
    # x + y + z = 1 above x + z = 1 and y = 0
    LinearSystem(({0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 2: 1, 3: 1}, {1: 1}), 3),
    # a shared factor of 2 and negative entries, solved by x = 2, y = 1
    # and z = -1; x = 2 is the sparsest
    LinearSystem(({0: 2, 1: -2, 2: 4, 3: -2}, {0: -1, 1: 3, 3: 1},
                  {0: 1, 3: 2}, {1: 1, 2: 1}), 3),
    # two rank-deficient copies of the same equation below a dense row
    LinearSystem(({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, {0: 1, 3: 1, 4: 1},
                  {0: 2, 3: 2, 4: 2}, {1: 1, 2: 1}), 4),
)


@pytest.mark.parametrize("system", CONSISTENT_PIVOT_SYSTEMS)
def test_sparsest_pivot_keeps_a_consistent_rref(system):
    holders = _holders(system, 0)
    sparsest = min(holders, key=lambda i: len(system.rows[i]))
    assert sparsest != holders[0]
    res = gauss_jordan(system)
    assert not res.inconsistent
    _assert_same_rref(system)
    assert integer_rref(system) == first_holder_rref(system)


# inconsistent systems whose right-hand sides differ between the two rules
INCONSISTENT_PIVOT_SYSTEMS = (
    # x = 1, y = 1 and -y = 0: y = 1 is kept, where -y = 0 is the sparsest
    LinearSystem(({0: 1, 2: 1}, {1: 1, 2: 1}, {1: -1}), 2),
    # 2y = 1, 2y = 0 and -y = 0: the kept row is 2y = 1
    LinearSystem(({1: 2, 2: 1}, {1: 2}, {1: -1}), 2),
    # the `xsat kernel` golden whose `0 = 1` row the sparsest rule turns
    # into `0 = 0`
    encode_sys(XsatFormula(5, ((1, 2, BOTTOM), (1, 2, 3), (3, 4, BOTTOM),
                               (4, 5, BOTTOM), (3, 5, BOTTOM)))),
)


@pytest.mark.parametrize("system", INCONSISTENT_PIVOT_SYSTEMS)
def test_inconsistent_systems_keep_the_first_holder_rhs(system):
    reference = first_holder_rref(system)
    assert linsys._reduce(system, sparsest=True) != reference
    assert integer_rref(system) == reference
    assert gauss_jordan(system).inconsistent
    _assert_same_rref(system)


def test_sparsest_pivot_eliminates_less(monkeypatch):
    from test_substitution import planted  # test_substitution imports this module

    system = encode_sys(planted(60, 80, random.Random("sparsest-pivot")))
    calls = 0
    update = linsys._eliminate

    def counted(row, pivot, col):
        nonlocal calls
        calls += 1
        update(row, pivot, col)

    monkeypatch.setattr(linsys, "_eliminate", counted)
    result = integer_rref(system)
    sparsest_calls, calls = calls, 0
    assert result == first_holder_rref(system)
    assert not gauss_jordan(system).inconsistent
    assert 0 < sparsest_calls < calls
