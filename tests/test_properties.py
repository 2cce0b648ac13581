"""Property tests over small formulas with negations and bottom.

Every method and every counter must give the oracle's count through the
reduction chain, and the text format must round-trip.  Settings are fixed
(derandomized, no deadline, a bounded number of examples), so the run is
the same every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from xsat import (
    BOTTOM,
    CnfFormula,
    XsatFormula,
    count_blocks,
    count_kernel,
    naive_count,
    naive_count_cnf,
    parse_xsat,
    reduce_cnf_to_xsat,
    reduce_xsat_to_positive,
    serialize_xsat,
)
from xsat.formula import canonical_triple
from xsat.kernel import build_kernel

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
def cnf_formulas(draw) -> CnfFormula:
    clauses = draw(st.lists(clause(4, allow_bottom=False), min_size=1,
                            max_size=3))
    n, clauses = _compact(clauses)
    return CnfFormula(n, clauses)


def _assert_every_counter_counts(positive: XsatFormula, expected: int):
    for method in ("gauss", "subst"):
        built = build_kernel(positive, method)
        if built.inconsistent:
            assert expected == 0
            continue
        assert count_kernel(built.kernel)[0] == expected, method
        assert count_blocks(built.kernel) == expected, method


@FIXED
@given(xsat_formulas())
def test_every_method_and_counter_matches_oracle_through_positivize(f):
    positive, _ = reduce_xsat_to_positive(f)
    _assert_every_counter_counts(positive, naive_count(f))


@FIXED
@given(cnf_formulas())
def test_every_method_and_counter_matches_oracle_through_cnf_chain(f):
    xsat, _ = reduce_cnf_to_xsat(f)
    positive, _ = reduce_xsat_to_positive(xsat)
    _assert_every_counter_counts(positive, naive_count_cnf(f))


@FIXED
@given(xsat_formulas())
def test_serialize_parse_round_trip(f):
    assert parse_xsat(serialize_xsat(f)) == f
