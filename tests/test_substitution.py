import random

import pytest

from xsat import BOTTOM, EncodingError, XsatFormula
from xsat.generator import (
    GenSpec,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
)
from xsat.oracle import naive_models
from xsat.substitution import (
    ContractError,
    DegenerateClauseError,
    LinearConstraint,
    SubstitutionState,
    _freeze,
    _make_state,
    expansion_profile,
    initial_state,
    normalize_clause,
    rank_of_subst,
    substitute,
)

from test_acceptance import ensemble
from test_linsys import rank_of


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


def sweep_to_fixpoint(state: SubstitutionState) -> SubstitutionState:
    """Reference rewrite: every constraint against every other, sweeps
    repeated until one changes nothing (the former ``substitute``)."""
    lhss = [c.lhs for c in state.constraints]
    if lhss != sorted(lhss):
        raise ContractError("constraints must be sorted ascending by solved variable")
    cons = [
        {"lhs": c.lhs, "const": c.const, "coeffs": dict(c.coeffs)}
        for c in state.constraints
    ]
    for _ in range(len(cons) + 1):
        if _sweep(cons) == 0:
            break
    else:
        raise AssertionError("substitution failed to reach a fixpoint")
    out = [
        LinearConstraint(c["lhs"], c["const"], _freeze(c["coeffs"]))
        for c in cons
    ]
    return _make_state(state.num_vars, out)


def spliced_profile(f: XsatFormula) -> list[int]:
    """Reference expansion sizes: the occurrence multiset the rewrite used to
    carry beside each constraint (the former ``substitute``'s splice).

    Each constraint starts with one occurrence per body variable.  Visiting
    the constraints last to first, a body variable that some constraint
    solves for is replaced by the multiset of the last constraint solved for
    it, without sign cancellation; a constraint's size is its total.
    """
    cons = initial_state(f).constraints
    last: dict[int, tuple[tuple[int, int], ...]] = {}  # solved var -> multiset
    out = [()] * len(cons)
    for j in range(len(cons) - 1, -1, -1):
        c = cons[j]
        expansion = {v: 1 for v, _ in c.coeffs}
        for v, _ in c.coeffs:
            src_expansion = last.get(v)
            if src_expansion is None:
                continue
            m = expansion.pop(v, 0)
            if m:
                for w, n in src_expansion:
                    expansion[w] = expansion.get(w, 0) + m * n
        out[j] = _freeze(expansion)
        last.setdefault(c.lhs, out[j])
    return [sum(n for _, n in e) for e in out]


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
    c = normalize_clause((2, 5, 6))
    assert (c.lhs, c.const) == (2, 1)
    assert c.body == {5: -1, 6: -1}


def test_normalize_drops_bottom():
    c = normalize_clause((1, 2, BOTTOM))
    assert (c.lhs, c.const, c.body) == (1, 1, {2: -1})


def test_normalize_degenerate():
    with pytest.raises(DegenerateClauseError):
        normalize_clause((BOTTOM, BOTTOM, BOTTOM))


def test_normalize_rejects_negation():
    with pytest.raises(EncodingError):
        normalize_clause((-1, 2, 3))


def test_six_var_fixpoint_table(six_var):
    st = substitute(initial_state(six_var))
    assert st.fixpoint and not st.inconsistent
    assert sorted(st.independent) == [1, 2, 4]
    assert sorted(st.dependent) == [3, 5, 6]
    assert rank_of_subst(st) == (3, 3)
    table = [(c.lhs, c.const, c.body) for c in st.constraints]
    assert table == [
        (1, 0, {3: -1, 5: 1, 6: 1}),
        (1, 0, {6: 1}),
        (2, 1, {5: -1, 6: -1}),
        (4, 1, {5: -1, 6: -1}),
    ]
    assert expansion_profile(six_var) == [3, 3, 2, 2]


def test_partition_needs_no_substitution():
    st0 = initial_state(gen_partition(6))
    assert st0.fixpoint
    st1 = substitute(st0)
    assert st1 == st0
    assert expansion_profile(gen_partition(6)) == [2, 2]
    assert rank_of_subst(st1) == (2, 4)


def test_single_clause():
    st = substitute(initial_state(XsatFormula(3, ((1, 2, 3),))))
    assert rank_of_subst(st) == (1, 2)


def test_idempotence_random():
    rng = SplitMix64(5)
    for trial in range(40):
        r = 6 + rng.randbelow(7)
        k_lo = -(-r // 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial * 13 + 1))
        once = substitute(initial_state(f))
        assert substitute(once) == once


def test_solutions_satisfy_fixpoint_constraints():
    rng = SplitMix64(6)
    for trial in range(15):
        r = 6 + rng.randbelow(4)
        k = -(-r // 3) + rng.randbelow(3)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 400))
        st = substitute(initial_state(f))
        for model in naive_models(f):
            for con in st.constraints:
                assert con.satisfied_by(model)


def test_independent_count_never_exceeds_elimination_rank(six_var):
    rng = SplitMix64(7)
    for trial in range(25):
        r = 6 + rng.randbelow(7)
        k = -(-r // 3) + rng.randbelow(4)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 900))
        subst_rank, _ = rank_of_subst(substitute(initial_state(f)))
        gauss_rank, _ = rank_of(f)
        assert subst_rank <= gauss_rank
    # the two ranks genuinely disagree on this instance: the rewrite keeps
    # two constraints solved for variable 1, so it reports 3 against 4
    st = substitute(initial_state(six_var))
    assert rank_of_subst(st)[0] == 3
    assert rank_of(six_var)[0] == 4


def test_fixpoint_invariant_no_solved_var_in_any_body():
    rng = SplitMix64(8)
    for trial in range(20):
        r = 6 + rng.randbelow(6)
        k = -(-r // 3) + rng.randbelow(4)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 50))
        st = substitute(initial_state(f))
        solved = st.independent
        for con in st.constraints:
            assert all(v not in solved for v, _ in con.coeffs)
        assert st.dependent == frozenset(range(1, r + 1)) - solved


def _assert_matches_reference(f: XsatFormula):
    st = initial_state(f)
    assert substitute(st) == sweep_to_fixpoint(st)
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
    # both of six_var's rewritten constraints are solved for variable 1
    _assert_matches_reference(six_var)


def test_single_pass_matches_sweep_on_planted_instances_with_k_above_r():
    rng = random.Random(17)
    for r, k in ((24, 30), (36, 48), (48, 64), (60, 80), (66, 66)):
        for _ in range(3):
            f = planted(r, k, rng)
            assert f.num_clauses >= f.num_vars
            _assert_matches_reference(f)


def test_substitute_requires_body_above_solved_variable():
    below = LinearConstraint(3, 1, ((2, -1), (4, -1)))
    level = LinearConstraint(2, 1, ((2, -1), (5, -1)))
    for con in (below, level):
        with pytest.raises(ContractError):
            substitute(_make_state(5, [con]))


def test_substitute_requires_sorted_state(six_var):
    st = initial_state(six_var)
    scrambled = type(st)(st.num_vars, tuple(reversed(st.constraints)),
                         st.independent, st.dependent, st.fixpoint,
                         st.inconsistent)
    with pytest.raises(ContractError):
        substitute(scrambled)


def test_rank_requires_fixpoint():
    f = XsatFormula(4, ((1, 2, 3), (2, 3, 4)))
    st = initial_state(f)
    assert not st.fixpoint
    with pytest.raises(ContractError):
        rank_of_subst(st)


def test_conflicting_empty_bodies_flagged():
    a = LinearConstraint(1, 1, ())
    b = LinearConstraint(1, 0, ())
    assert _make_state(1, [a, b]).inconsistent
    assert not _make_state(1, [a, a]).inconsistent
