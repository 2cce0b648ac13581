import random

import pytest

from xsat import (
    BOTTOM,
    LinearSystem,
    XsatFormula,
    encode_sys,
    gauss_jordan,
    solve,
)
from xsat.generator import (
    GenSpec,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
)
from xsat.kernel import build_kernel, count_blocks, count_kernel
from xsat.linsys import RrefResult
from xsat.oracle import naive_count, naive_models
from xsat.substitution import expansion_profile, substitute

from test_acceptance import ensemble
from test_linsys import rank_of


def _initial(f: XsatFormula) -> list[dict]:
    """Each clause solved for its lowest variable, ``lhs = 1 - rest``,
    sorted stably by that variable: the rewrite's starting constraints.
    Signs are dropped, so the constants and coefficients are those of a
    positive formula; of a signed one, only the occurrences are right."""
    cons = []
    for t in f.clauses:
        lhs, *rest = sorted(abs(l) for l in t if l != BOTTOM)
        cons.append({"lhs": lhs, "const": 1, "coeffs": {v: -1 for v in rest}})
    cons.sort(key=lambda c: c["lhs"])
    return cons


def _sweep(cons: list[dict]) -> int:
    """One full rewrite pass, highest-index source first; returns the number
    of elementary substitutions performed."""
    performed = 0
    n = len(cons)
    for i in range(n - 1, -1, -1):
        src = cons[i]
        for j in range(n - 1, -1, -1):
            if j == i:
                continue
            tgt = cons[j]
            g = tgt["coeffs"].get(src["lhs"], 0)
            if g == 0:
                continue
            del tgt["coeffs"][src["lhs"]]
            tgt["const"] += g * src["const"]
            for v, c in src["coeffs"].items():
                nv = tgt["coeffs"].get(v, 0) + g * c
                if nv:
                    tgt["coeffs"][v] = nv
                else:
                    tgt["coeffs"].pop(v, None)
            performed += 1
    return performed


def _split(cons: list[tuple], num_vars: int) -> tuple:
    """(constraints, independent set, dependent set, inconsistent) of
    ``(lhs, const, body)`` constraints: the solved variables are the
    independent set.  The flag is set only for a dropped row with no
    variable and a nonzero constant; every constraint has an lhs, so it
    is never set, and contradicting constraints are left to the count."""
    independent = frozenset(lhs for lhs, _, _ in cons)
    return (cons, independent, frozenset(range(1, num_vars + 1)) - independent,
            False)


def sweep_to_fixpoint(f: XsatFormula) -> tuple:
    """Reference rewrite: every constraint against every other, sweeps
    repeated until one changes nothing (the former ``substitute``); the
    result as :func:`_split` gives it."""
    cons = _initial(f)
    for _ in range(len(cons) + 1):
        if _sweep(cons) == 0:
            break
    else:
        raise AssertionError("substitution failed to reach a fixpoint")
    return _split([(c["lhs"], c["const"], c["coeffs"]) for c in cons],
                  f.num_vars)


def constraints(rref) -> list[tuple]:
    """``substitute``'s rows as ``(lhs, const, body)`` constraints: a row
    solved for column p reads ``x_{p+1} = rhs - sum(coef * x)``."""
    n_vars = rref.num_vars
    return [(p + 1, row.get(n_vars, 0),
             {c + 1: -v for c, v in row.items() if c not in (p, n_vars)})
            for row, p in zip(rref.rows, rref.pivot_cols)]


def as_split(rref) -> tuple:
    """``substitute``'s result in the reference's terms."""
    return (constraints(rref), frozenset(p + 1 for p in rref.pivot_cols),
            frozenset(c + 1 for c in rref.free_cols), rref.inconsistent)


def kernel_from_constraints(cons: list[tuple], num_vars: int) -> RrefResult:
    """Reference kernel (the former ``kernel_from_substitution``): the
    constraint lhs = const + sum(c * v) becomes a row with pivot lhs, entry
    1 there, -c at each body variable and rhs const, so its D is 1; the
    flag is :func:`_split`'s."""
    rows = [{lhs - 1: 1, **{v - 1: -c for v, c in body.items()},
             **({num_vars: const} if const else {})} for lhs, const, body in cons]
    return RrefResult(tuple(rows), tuple(lhs - 1 for lhs, _, _ in cons),
                      num_vars, _split(cons, num_vars)[3])


def spliced_profile(f: XsatFormula) -> list[int]:
    """Reference expansion sizes: the occurrence multiset the rewrite used to
    carry beside each constraint (the former ``substitute``'s splice).

    Each constraint starts with one occurrence per body variable.  Visiting
    the constraints last to first, a body variable that some constraint
    solves for is replaced by the multiset of the last constraint solved for
    it, without sign cancellation; a constraint's size is its total.
    """
    cons = _initial(f)
    last: dict[int, dict[int, int]] = {}  # solved var -> multiset
    out = [{}] * len(cons)
    for j in range(len(cons) - 1, -1, -1):
        c = cons[j]
        expansion = dict.fromkeys(c["coeffs"], 1)
        for v in c["coeffs"]:
            src_expansion = last.get(v)
            if src_expansion is None:
                continue
            m = expansion.pop(v, 0)
            if m:
                for w, n in src_expansion.items():
                    expansion[w] = expansion.get(w, 0) + m * n
        out[j] = expansion
        last.setdefault(c["lhs"], out[j])
    return [sum(e.values()) for e in out]


def _subst(f: XsatFormula):
    return substitute(encode_sys(f))


def planted(r: int, k: int, rng: random.Random) -> XsatFormula:
    """A shuffled partition into r/3 triples plus k - r/3 distinct extra
    triples that each hold one planted-true variable; k > r is allowed."""
    order = list(range(1, r + 1))
    rng.shuffle(order)
    parts = [tuple(sorted(order[i:i + 3])) for i in range(0, r, 3)]
    true = [rng.choice(p) for p in parts]
    false = sorted(set(order) - set(true))
    clauses = set(parts)
    while len(clauses) < k:
        a, b = rng.sample(false, 2)
        clauses.add(tuple(sorted((rng.choice(true), a, b))))
    return XsatFormula(r, tuple(sorted(clauses)))


def test_normalize_solves_for_lowest():
    assert constraints(_subst(XsatFormula(6, ((2, 5, 6),)))) == [
        (2, 1, {5: -1, 6: -1})]


def test_normalize_drops_bottom():
    assert constraints(_subst(XsatFormula(2, ((1, 2, BOTTOM),)))) == [
        (1, 1, {2: -1})]


def test_normalize_negates_a_row_that_leads_with_minus_one():
    # {~1, 2, 3} is -x1 + x2 + x3 = 0, solved as x1 = x2 + x3
    f = XsatFormula(3, ((-1, 2, 3),), positive=False)
    res = _subst(f)
    assert res.rows == ({0: 1, 1: -1, 2: -1},)
    assert constraints(res) == [(1, 0, {2: 1, 3: 1})]
    assert encode_sys(f).rows == ({0: -1, 1: 1, 2: 1},)


def test_row_without_a_variable_is_inconsistent_as_under_elimination():
    # an all-bottom clause is the row 0 = 1; substitute drops it and flags
    # the system, and drops an all-zero row without flagging it
    system = LinearSystem(({0: 1, 1: 1, 2: 1, 3: 1}, {3: 1}), 3)
    res = substitute(system)
    assert res.inconsistent and gauss_jordan(system).inconsistent
    assert res.rows == ({0: 1, 1: 1, 2: 1, 3: 1},)
    assert (res.pivot_cols, res.free_cols) == ((0,), (1, 2))
    assert not substitute(LinearSystem(({0: 1, 3: 1}, {}), 3)).inconsistent


def test_six_var_fixpoint_table(six_var):
    res = _subst(six_var)
    assert not res.inconsistent
    assert sorted(set(res.pivot_cols)) == [0, 1, 3]
    assert res.free_cols == (2, 4, 5)
    assert (res.rank, res.nullity) == (3, 3)
    assert constraints(res) == [
        (1, 0, {3: -1, 5: 1, 6: 1}),
        (1, 0, {6: 1}),
        (2, 1, {5: -1, 6: -1}),
        (4, 1, {5: -1, 6: -1}),
    ]
    assert expansion_profile(six_var) == [3, 3, 2, 2]


def test_partition_needs_no_substitution():
    system = encode_sys(gen_partition(6))
    res = substitute(system)
    assert res.rows == system.rows
    assert expansion_profile(gen_partition(6)) == [2, 2]
    assert (res.rank, res.nullity) == (2, 4)


def test_single_clause():
    res = _subst(XsatFormula(3, ((1, 2, 3),)))
    assert (res.rank, res.nullity) == (1, 2)


def test_substitute_never_writes_into_the_system():
    system = encode_sys(gen_fib_chain(8))
    before = [dict(row) for row in system.rows]
    substitute(system)
    assert list(system.rows) == before


def test_idempotence_random():
    rng = SplitMix64(5)
    for trial in range(40):
        r = 6 + rng.randbelow(7)
        k_lo = -(-r // 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial * 13 + 1))
        once = _subst(f)
        assert substitute(LinearSystem(once.rows, r)) == once


def test_solutions_satisfy_fixpoint_constraints():
    rng = SplitMix64(6)
    for trial in range(15):
        r = 6 + rng.randbelow(4)
        k = -(-r // 3) + rng.randbelow(3)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 400))
        cons = constraints(_subst(f))
        for model in naive_models(f):
            for lhs, const, body in cons:
                rhs = const + sum(c * model[v - 1] for v, c in body.items())
                assert model[lhs - 1] == rhs


def test_independent_count_never_exceeds_elimination_rank(six_var):
    rng = SplitMix64(7)
    for trial in range(25):
        r = 6 + rng.randbelow(7)
        k = -(-r // 3) + rng.randbelow(4)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 900))
        subst_rank = _subst(f).rank
        gauss_rank, _ = rank_of(f)
        assert subst_rank <= gauss_rank
    # the two ranks genuinely disagree on this instance: the rewrite keeps
    # two rows solved for variable 1, so it reports 3 against 4
    assert _subst(six_var).rank == 3
    assert rank_of(six_var)[0] == 4


def test_fixpoint_invariant_no_solved_var_in_any_body():
    rng = SplitMix64(8)
    for trial in range(20):
        r = 6 + rng.randbelow(6)
        k = -(-r // 3) + rng.randbelow(4)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 50))
        res = _subst(f)
        solved = set(res.pivot_cols)
        for row, p in zip(res.rows, res.pivot_cols):
            assert all(c not in solved for c in row if c != p)
        assert set(res.free_cols) == set(range(r)) - solved
        assert res.rank == len(solved)


def _assert_matches_reference(f: XsatFormula):
    res = _subst(f)
    ref = sweep_to_fixpoint(f)
    assert as_split(res) == ref
    assert res == kernel_from_constraints(ref[0], f.num_vars)
    assert expansion_profile(f) == spliced_profile(f)


def test_single_pass_matches_sweep_on_criterion2_ensemble():
    for f in ensemble():
        _assert_matches_reference(f)


def test_single_pass_matches_sweep_on_structured_families(six_var):
    for k in range(2, 12):
        _assert_matches_reference(gen_fib_chain(k))
    for r in (3, 6, 12, 30):
        _assert_matches_reference(gen_partition(r))
    for nullity in range(12, 23):
        _assert_matches_reference(gen_fixed_rank(11 + nullity, 11))
    # both of six_var's rewritten rows are solved for variable 1
    _assert_matches_reference(six_var)


def test_single_pass_matches_sweep_on_planted_instances_with_k_above_r():
    rng = random.Random(17)
    for r, k in ((24, 30), (36, 48), (48, 64), (60, 80), (66, 66)):
        for _ in range(3):
            f = planted(r, k, rng)
            assert f.num_clauses >= f.num_vars
            _assert_matches_reference(f)


def test_conflicting_empty_bodies_are_left_to_the_counters():
    # the rewrite keeps both rows and flags nothing; elimination drops the
    # contradiction and flags it; the repeated pivot becomes the exact row
    # 0 = 1, so every counter counts 0
    a = {0: 1, 1: 1}  # x1 = 1
    b = {0: 1}  # x1 = 0
    system = LinearSystem((a, b), 1)
    res = substitute(system)
    assert not res.inconsistent and res.rows == (a, b)
    assert gauss_jordan(system).inconsistent
    assert count_kernel(res) == count_blocks(res)[0] == 0
    same = substitute(LinearSystem((a, a), 1))
    assert not same.inconsistent
    assert count_kernel(same) == count_blocks(same)[0] == 1
    # from a formula: x1 + x2 + x3 = 1 and, from the negated clause, = 2
    f = XsatFormula(3, ((1, 2, 3), (-1, -2, -3)), positive=False)
    kern = substitute(encode_sys(f))
    assert kern.pivot_cols == (0, 0) and not kern.inconsistent
    assert gauss_jordan(encode_sys(f)).inconsistent
    assert count_kernel(kern) == count_blocks(kern)[0] == 0
    assert solve(f, "subst").count == solve(f, "gauss").count == 0


def test_star_subst_kernel_is_wider_than_two_thirds_of_the_variables():
    # a reported fact, not the paper's bound: every clause of the star is
    # solved for variable 1, so the rewrite keeps 6 of the 7 variables
    # free, above 2/3 * 7; elimination keeps 4 free; both count 9
    star = XsatFormula(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7)))
    system = encode_sys(star)
    subst, gauss = build_kernel(system, "subst"), build_kernel(system, "gauss")
    assert (subst.nullity, subst.rank) == (6, 1)
    assert (gauss.nullity, gauss.rank) == (4, 3)
    assert 3 * subst.nullity > 2 * star.num_vars
    assert solve(star, "subst").count == solve(star, "gauss").count == 9
    assert naive_count(star) == 9
