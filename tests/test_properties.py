"""Property tests over small formulas with negations and bottom.

Every method and every counter must give the oracle's count on signed
formulas and through the reduction chain, CNF carry rows must count the
CNF's models as the chain does and be the XSAT rows negated beside their
carries, witnesses must come out in the flat walk's order, the text format
must round-trip, the integer elimination must agree with a dense rational
one on clause rows and on arbitrary integer rows, the one-pass rewrite
must agree with the repeated sweep and be idempotent, the one-pass
expansion sizes must equal the spliced occurrence multisets, and the
pruned oracle must equal the double loop on formulas with variables above
its block.  Settings are fixed (derandomized, no deadline, a bounded
number of examples), so the run is the same every time.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from xsat import (
    BOTTOM,
    CnfFormula,
    LinearSystem,
    XsatFormula,
    count_blocks,
    count_kernel,
    encode_sys,
    gauss_jordan,
    naive_count,
    naive_count_cnf,
    parse_xsat,
    reduce_cnf_to_xsat,
    reduce_xsat_to_positive,
    serialize_xsat,
    solve,
)
from xsat.formula import canonical_triple
from xsat.kernel import build_kernel
from xsat.oracle import LOW_BITS
from xsat.substitution import expansion_profile, substitute

from test_kernel import assert_carry_route, gray_order_models
from test_linsys import assert_matches_dense, dense_gauss_jordan
from test_oracle import naive_count_reference
from test_substitution import as_split, spliced_profile, sweep_to_fixpoint

FIXED = settings(derandomize=True, deadline=None, max_examples=120,
                 database=None)


def _compact(clauses) -> tuple[int, tuple]:
    """Renumber the variables the clauses use to 1..n, keeping signs."""
    used = sorted({abs(l) for c in clauses for l in c if l != BOTTOM})
    remap = {v: i + 1 for i, v in enumerate(used)}
    new = tuple(tuple((remap[abs(l)] if l > 0 else -remap[abs(l)]) if l else l
                      for l in c) for c in clauses)
    return len(used), new


@st.composite
def clause(draw, max_var: int, allow_bottom: bool):
    """Three literals over distinct variables, or two plus bottom."""
    width = draw(st.sampled_from((2, 3))) if allow_bottom else 3
    names = draw(st.lists(st.integers(1, max_var), min_size=width,
                          max_size=width, unique=True))
    lits = [v if draw(st.booleans()) else -v for v in names]
    return tuple(lits + [BOTTOM] * (3 - width))


@st.composite
def xsat_formulas(draw) -> XsatFormula:
    clauses = draw(st.lists(clause(7, allow_bottom=True), min_size=1,
                            max_size=6))
    n, clauses = _compact(clauses)
    distinct = dict.fromkeys(canonical_triple(c) for c in clauses)
    return XsatFormula(n, tuple(distinct), positive=False)


@st.composite
def formulas_above_block(draw) -> XsatFormula:
    """Up to 8 clauses over r = 13 to 16 variables, not renumbered, so 1 to
    4 variables lie above the oracle's block."""
    r = draw(st.integers(LOW_BITS + 1, LOW_BITS + 4))
    clauses = draw(st.lists(clause(r, allow_bottom=True), min_size=1,
                            max_size=8))
    distinct = dict.fromkeys(canonical_triple(c) for c in clauses)
    return XsatFormula(r, tuple(distinct), positive=False)


@st.composite
def positive_systems(draw) -> XsatFormula:
    """Positive clauses over 3 to 9 variables, coverage not required, up to
    11 of them (so rank deficits and rational inconsistency occur)."""
    n = draw(st.integers(3, 9))
    clauses = draw(st.lists(clause(n, allow_bottom=True), min_size=1,
                            max_size=11))
    return XsatFormula(n, tuple(tuple(abs(l) for l in c) for c in clauses))


@st.composite
def integer_systems(draw) -> LinearSystem:
    """Integer rows over 1 to 6 variables, values in -6..6 and zero about
    half the time, more rows than columns, with copies of earlier rows and
    all-zero rows among them (so inconsistent systems and several zero rows
    after the pivots occur)."""
    n = draw(st.integers(1, 6))
    value = st.one_of(st.just(0), st.integers(-6, 6))
    row = st.lists(value, min_size=n + 1, max_size=n + 1)
    base = draw(st.lists(row, min_size=n, max_size=n + 2))
    extra = draw(st.lists(st.one_of(st.sampled_from(base),
                                    st.just([0] * (n + 1))),
                          min_size=2, max_size=4))
    rows = draw(st.permutations(base + extra))
    return LinearSystem(
        tuple({c: v for c, v in enumerate(r) if v} for r in rows), n)


@st.composite
def cnf_formulas(draw) -> CnfFormula:
    clauses = draw(st.lists(clause(4, allow_bottom=False), min_size=1,
                            max_size=3))
    n, clauses = _compact(clauses)
    return CnfFormula(n, clauses)


@st.composite
def loose_cnf_formulas(draw) -> CnfFormula:
    """Up to 6 clauses of 3 literals drawn independently over 5 variables,
    renumbered to those used: a variable may repeat within a clause, with
    either sign, clauses may repeat, and the clause list may be empty."""
    lit = st.integers(1, 5).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(lit, lit, lit), max_size=6))
    return CnfFormula(*_compact(clauses))


@st.composite
def signed_triples(draw) -> tuple[int, tuple[int, int, int]]:
    """A variable count n and one triple over 1..n without bottom, drawn
    freely, with a repeated literal, with a complementary pair, or with
    every literal negated, in any order."""
    n = draw(st.integers(1, 5))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    a, b, c = draw(st.tuples(lit, lit, lit))
    triple = draw(st.sampled_from([
        (a, b, c), (a, a, b), (a, -a, b), (-abs(a), -abs(b), -abs(c))]))
    return n, draw(st.permutations(triple))


def _assert_every_counter_counts(f: XsatFormula, expected: int):
    for method in ("gauss", "subst"):
        kern = build_kernel(encode_sys(f), method)
        if kern.inconsistent:
            assert expected == 0
            continue
        assert count_kernel(kern) == expected, method
        assert count_blocks(kern)[0] == expected, method


def _assert_signed_matches_positive(f: XsatFormula, positive: XsatFormula):
    """Through the positive formula, h complement variables and h binding
    rows: the gauss nullity is the signed one and the rank grows by h."""
    h = positive.num_vars - f.num_vars
    signed = build_kernel(encode_sys(f), "gauss")
    pos = build_kernel(encode_sys(positive), "gauss")
    assert pos.nullity == signed.nullity
    assert pos.rank == signed.rank + h
    assert pos.inconsistent == signed.inconsistent


@FIXED
@given(xsat_formulas())
def test_every_method_and_counter_matches_oracle_through_positivize(f):
    positive = reduce_xsat_to_positive(f)
    expected = naive_count(f)
    _assert_every_counter_counts(f, expected)
    _assert_every_counter_counts(positive, expected)
    _assert_signed_matches_positive(f, positive)


@settings(FIXED, max_examples=10)
@given(formulas_above_block())
def test_pruned_oracle_matches_the_double_loop_above_the_block(f):
    assert naive_count(f) == naive_count_reference(f)


@FIXED
@given(cnf_formulas())
def test_every_method_and_counter_matches_oracle_through_cnf_chain(f):
    xsat = reduce_cnf_to_xsat(f)
    positive = reduce_xsat_to_positive(xsat)
    expected = naive_count_cnf(f)
    _assert_every_counter_counts(xsat, expected)
    _assert_every_counter_counts(positive, expected)
    _assert_signed_matches_positive(xsat, positive)


@FIXED
@given(loose_cnf_formulas())
def test_carry_rows_match_the_chain_and_the_models(f):
    assert_carry_route(f)


@FIXED
@given(signed_triples())
def test_carry_row_is_the_xsat_row_negated_beside_its_carries(drawn):
    n, t = drawn
    xsat = encode_sys(XsatFormula(n, (t,), positive=False)).rows[0]
    carry = encode_sys(CnfFormula(n, (t,))).rows[0]
    expected = {0: 1, n + 1: 2}
    expected.update((c + 1, -v) for c, v in xsat.items() if c < n)
    assert {c: v for c, v in carry.items() if c < n + 2} == expected
    assert carry.get(n + 2, 0) == -xsat.get(n, 0)
    assert 0 not in xsat.values() and 0 not in carry.values()


@FIXED
@given(xsat_formulas())
def test_ordered_witnesses_match_the_flat_walk_order(f):
    positive = reduce_xsat_to_positive(f)
    for method in ("gauss", "subst"):
        kern = build_kernel(encode_sys(positive), method)
        if kern.inconsistent:
            continue
        rep = solve(positive, method=method, witness_cap=1000)
        assert rep.witnesses == tuple(gray_order_models(kern)), method


@FIXED
@given(xsat_formulas())
def test_single_pass_rewrite_matches_sweep_and_is_idempotent(f):
    positive = reduce_xsat_to_positive(f)
    once = substitute(encode_sys(positive))
    assert as_split(once) == sweep_to_fixpoint(positive)
    assert substitute(LinearSystem(once.rows, positive.num_vars)) == once


@FIXED
@given(xsat_formulas())
def test_expansion_profile_matches_the_spliced_multisets(f):
    positive = reduce_xsat_to_positive(f)
    assert expansion_profile(positive) == spliced_profile(positive)
    assert expansion_profile(f) == spliced_profile(f)


@FIXED
@given(xsat_formulas())
def test_serialize_parse_round_trip(f):
    assert parse_xsat(serialize_xsat(f)) == f


@FIXED
@given(positive_systems())
def test_integer_elimination_matches_rational_elimination(f):
    system = encode_sys(f)
    rref = gauss_jordan(system)
    dense = dense_gauss_jordan(system)
    assert_matches_dense(rref, dense)
    assert len(rref.rows) == dense.rank
    for row, pivot, rational in zip(rref.rows, rref.pivot_cols, dense.rows):
        # D, the pivot entry, is the least common denominator of the
        # rational row, which holds only its pivot, free columns and rhs
        den, rhs = row[pivot], row.get(f.num_vars, 0)
        coeffs = [row.get(c, 0) for c in rref.free_cols]
        assert den > 0 and math.gcd(den, rhs, *coeffs) == 1
        assert [Fraction(c, den) for c in coeffs] == [
            rational[c] for c in dense.free_cols]
        assert Fraction(rhs, den) == rational[f.num_vars]


@FIXED
@given(integer_systems())
def test_integer_elimination_matches_rational_elimination_on_integer_rows(
        system):
    assert_matches_dense(gauss_jordan(system), dense_gauss_jordan(system))
