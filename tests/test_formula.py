import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsat import (
    BOTTOM,
    CnfFormula,
    DimensionError,
    EmptyFormulaError,
    ValidationError,
    XsatFormula,
    eval_xsat,
    kappa,
    validate,
)
from xsat.formula import (
    VIOLATIONS_SHOWN,
    _well_formed,
    canonical_triple,
    check_valid,
    literal_sort_key,
    literal_value,
)
from xsat.generator import (
    GenSpec,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
)
from xsat.io import serialize_xsat
from xsat.reductions import reduce_cnf_to_xsat, reduce_xsat_to_positive

from test_acceptance import _random_covering_cnf, ensemble


def test_eval_satisfying_assignment(two_clause_sat):
    assert eval_xsat(two_clause_sat, (0, 1, 0, 0))


def test_eval_zero_true_literals():
    f = XsatFormula(3, ((1, 2, 3),))
    assert not eval_xsat(f, (0, 0, 0))


def test_eval_two_true_literals():
    f = XsatFormula(3, ((1, 2, 3),))
    assert not eval_xsat(f, (1, 1, 0))


def test_eval_bottom_always_false():
    f = XsatFormula(2, ((1, 2, BOTTOM),))
    assert eval_xsat(f, (0, 1))
    assert eval_xsat(f, (1, 0))
    assert not eval_xsat(f, (1, 1))
    assert not eval_xsat(f, (0, 0))


def test_eval_negated_literal():
    f = XsatFormula(3, ((-1, 2, 3),), positive=False)
    assert eval_xsat(f, (0, 0, 0))      # only ~p1 true
    assert not eval_xsat(f, (0, 1, 0))  # ~p1 and p2 both true


def test_eval_dimension_mismatch(two_clause_sat):
    with pytest.raises(DimensionError):
        eval_xsat(two_clause_sat, (0, 1, 0))


def test_eval_is_exactly_one_counting():
    # exactly-one semantics == "sum of literal indicators is 1", per clause
    rng = SplitMix64(11)
    for trial in range(25):
        f = gen_random(GenSpec(r=8, k=4 + rng.randbelow(4), seed=trial))
        bits = tuple(rng.randbelow(2) for _ in range(8))
        expected = all(
            sum(literal_value(l, bits) for l in c) == 1 for c in f.clauses)
        assert eval_xsat(f, bits) == expected


@pytest.mark.parametrize("r,k,expect", [
    (6, 2, Fraction(1, 3)),
    (6, 4, Fraction(2, 3)),
    (3, 1, Fraction(1, 3)),
])
def test_kappa(r, k, expect):
    clauses = [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(r // 3)]
    extra = 0
    while len(clauses) < k:
        clauses.append((1, 2, 4 + extra))
        extra += 1
    f = XsatFormula(r, tuple(clauses[:k]))
    assert kappa(f) == expect


def test_kappa_empty_formula():
    with pytest.raises(EmptyFormulaError):
        kappa(XsatFormula(0, ()))


def test_validate_clean(six_var):
    assert validate(six_var) == []


def test_validate_duplicate_clause():
    f = XsatFormula(3, ((1, 2, 3), (3, 2, 1)))
    assert any(v.startswith("duplicate-clause") for v in validate(f))


def test_validate_density():
    clauses = ((1, 2, 3), (4, 5, 6))
    f = XsatFormula(9, clauses + ((7, 8, 9),))
    assert validate(f) == []
    low = XsatFormula(9, clauses)
    assert any(v.startswith("density-below-one-third") for v in validate(low))


def test_validate_uncovered_variable():
    f = XsatFormula(4, ((1, 2, 3),))
    problems = validate(f)
    assert any(v == "uncovered-variable: 4" for v in problems)
    g = XsatFormula(6, ((1, 3, 5), (1, 3, 6)), positive=False)
    assert validate(g) == ["uncovered-variable: 2 variables: 2, 4"]


def test_uncovered_variables_cost_no_memory_per_variable():
    """A declared variable count far above the clauses' gives one
    uncovered-variable violation, not one per variable."""
    tracemalloc.start()
    try:
        violations = XsatFormula(10**6, ((1, 2, 3),)).violations
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == (
        "uncovered-variable: 999997 variables: 4, 5, 6, 7, 8, ...",
        "density-below-one-third: 1 clauses < minimum 333334")
    assert peak < 8 << 20, peak


def test_validate_repeated_and_complementary():
    f = XsatFormula(3, ((1, 1, 2),))
    assert any(v.startswith("repeated-literal") for v in validate(f))
    g = XsatFormula(3, ((1, -1, 2),), positive=False)
    assert any(v.startswith("complementary-literals") for v in validate(g))


def test_validate_negative_in_positive():
    f = XsatFormula(3, ((-1, 2, 3),), positive=True)
    assert any(v.startswith("negative-in-positive") for v in validate(f))


def test_validate_index_out_of_range():
    f = XsatFormula(2, ((1, 2, 3),))
    assert any(v.startswith("index-out-of-range") for v in validate(f))


def test_validation_error_message_names_count_and_first_few():
    f = XsatFormula(40, ((1, 2, 3),))
    with pytest.raises(ValidationError) as err:
        check_valid(f)
    full = validate(f)
    # 37 uncovered variables in one violation, then the density
    assert full == ["uncovered-variable: 37 variables: 4, 5, 6, 7, 8, ...",
                    "density-below-one-third: 1 clauses < minimum 14"]
    assert err.value.violations == full
    assert str(err.value) == "2 violation(s): " + "; ".join(full)
    with pytest.raises(ValidationError, match=r"^1 violation\(s\): uncovered-variable: 4$"):
        check_valid(XsatFormula(4, ((1, 2, 3), (1, 2, BOTTOM))))


def test_canonicalization_is_content_equality():
    a = XsatFormula(6, ((4, 5, 6), (3, 2, 1)))
    b = XsatFormula(6, ((1, 2, 3), (6, 5, 4)))
    assert a == b
    assert a.clauses == ((1, 2, 3), (4, 5, 6))


def test_canonical_triple_orders_bottom_last():
    assert canonical_triple((BOTTOM, 2, 1)) == (1, 2, BOTTOM)
    with pytest.raises(ValueError):
        canonical_triple((1, 2))


def tuple_sort_key(lit: int) -> tuple[int, int, int]:
    """Reference: the documented literal order as a tuple key, plain and
    negated variables ascending by index, plain first, bottom last."""
    if lit == BOTTOM:
        return (1, 0, 0)
    return (0, abs(lit), 0 if lit > 0 else 1)


def keyed_triple(clause):
    """Reference: the literals sorted on tuple keys."""
    return tuple(sorted(map(int, clause), key=tuple_sort_key))


def keyed_canonical(clauses):
    """Reference: each triple and then the triples sorted on tuple keys."""
    return tuple(sorted(map(keyed_triple, clauses),
                        key=lambda t: tuple(map(tuple_sort_key, t))))


def test_literal_sort_key_is_the_documented_order():
    lits = [*range(-50, 51), 10**18, -10**18]
    for a in lits:
        for b in lits:
            assert ((literal_sort_key(a) < literal_sort_key(b))
                    == (tuple_sort_key(a) < tuple_sort_key(b))), (a, b)
    assert sorted(lits, key=literal_sort_key)[:4] == [1, -1, 2, -2]


@st.composite
def literal_triples(draw):
    """A variable count and triples over it with negations, bottom in any
    position, repeated and complementary literals, literals above the count
    (now and then far above, so the literals are sparse) and bools."""
    n = draw(st.integers(0, 8))
    lit = st.one_of(st.integers(-n - 2, n + 2), st.integers(-60, 60),
                    st.booleans())
    triple = st.one_of(
        st.tuples(lit, lit, lit),
        st.integers(-n - 2, n + 2).map(lambda l: (l, l, -l)),
        st.permutations([BOTTOM, draw(st.integers(1, n + 2)), -(n + 1)]))
    return n, draw(st.lists(triple, max_size=12))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(literal_triples())
def test_rank_order_is_the_keyed_order(drawn):
    n, clauses = drawn
    canon = XsatFormula(n, tuple(clauses)).clauses
    assert canon == keyed_canonical(clauses)
    assert {type(l) for t in canon for l in t} <= {int}
    assert XsatFormula(n, canon).clauses == canon
    cnf = [t for t in clauses if BOTTOM not in t]
    m = max((abs(l) for t in cnf for l in t), default=0)
    assert CnfFormula(m, tuple(cnf)).clauses == tuple(map(keyed_triple, cnf))


def test_sparse_literals_build_no_table_of_their_size():
    """A header may declare far more variables than the clauses use, and
    a formula may hold out-of-range literals for ``validate`` to report;
    neither may make canonical ordering cost memory in proportion to the
    largest literal."""
    tracemalloc.start()
    try:
        cnf = CnfFormula(10**6, ((10**6, -2, 1),))
        f = XsatFormula(3, ((1, 2, 10**6), (-1, 2, 3)), positive=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cnf.clauses == ((1, -2, 10**6),)
    assert f.clauses == ((1, 2, 10**6), (-1, 2, 3))
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("clause", [(1, 2), (1, -2, BOTTOM, 3)],
                         ids=["width-2", "width-4"])
def test_width_error_message(clause):
    for clauses in ((clause,), ((1, 2, 3), clause), ((-1, 2, 3), clause)):
        with pytest.raises(ValueError) as err:
            XsatFormula(3, clauses)
        assert str(err.value) == (
            f"clause must have exactly 3 literals, got {len(clause)}")
        with pytest.raises(ValueError) as err:
            CnfFormula(3, clauses)
        assert str(err.value) == (
            f"clause must have exactly 3 literals, got {len(clause)}")


@pytest.mark.parametrize("clause, message", [
    ((3, BOTTOM, -1), "cnf clause (-1, 3, 0): bottom literal not allowed"),
    ((2, -4, 1), "cnf clause (1, 2, -4): literal index out of range"),
    ((-9, BOTTOM, 2), "cnf clause (2, -9, 0): bottom literal not allowed"),
], ids=["bottom", "out-of-range", "bottom-before-range"])
def test_cnf_validation_error_messages(clause, message):
    with pytest.raises(ValidationError) as err:
        CnfFormula(3, ((1, -2, 3), clause, (1, BOTTOM, 2)))
    assert str(err.value) == f"1 violation(s): {message}"
    assert err.value.violations == [message]


def _canonical_corpus():
    """The criterion-2 ensemble, both reduction steps on the criterion-4a
    CNFs (negated literals and bottom), and members of the fixed families."""
    yield from ensemble()
    rng = SplitMix64(20240)
    for _ in range(50):
        mid = reduce_cnf_to_xsat(_random_covering_cnf(rng))
        yield mid
        yield reduce_xsat_to_positive(mid)
    for r, k in ((12, 6), (20, 11), (31, 11)):
        yield gen_fixed_rank(r, k)
    for r in (3, 12, 30):
        yield gen_partition(r)
    for k in (2, 7, 20):
        yield gen_fib_chain(k)


# sha256 of the concatenated serialized corpus, pinning clause order,
# literal order and the generators' draws
CANONICAL_SHA256 = "eb63c153d6130127d215054102f8ffb0284ff0fc7f9f602bcd5ba443db2e697b"


def test_canonical_form_is_pinned():
    digest = hashlib.sha256()
    for f in _canonical_corpus():
        digest.update(serialize_xsat(f))
    assert digest.hexdigest() == CANONICAL_SHA256


def reference_validate(f: XsatFormula) -> list[str]:
    """Reference: the clause-by-clause walk ``validate`` was before it
    accepted well-formed formulas on set-level checks."""
    out: list[str] = []
    seen: dict = {}
    for i, c in enumerate(f.clauses):
        names = [abs(l) for l in c if l != BOTTOM]
        if any(v < 1 or v > f.num_vars for v in names):
            out.append(f"index-out-of-range: clause {i} {c}")
        if len(set(c)) != 3:
            out.append(f"repeated-literal: clause {i} {c}")
        elif len(names) != len(set(names)):
            out.append(f"complementary-literals: clause {i} {c}")
        if f.positive and any(l < 0 for l in c):
            out.append(f"negative-in-positive: clause {i} {c}")
        if c in seen:
            out.append(f"duplicate-clause: clauses {seen[c]} and {i} {c}")
        else:
            seen[c] = i
    covered = f.variables_used()
    missing = [v for v in range(1, f.num_vars + 1) if v not in covered]
    if len(missing) == 1:
        out.append(f"uncovered-variable: {missing[0]}")
    elif missing:
        shown = ", ".join(map(str, missing[:VIOLATIONS_SHOWN]))
        more = ", ..." if len(missing) > VIOLATIONS_SHOWN else ""
        out.append(f"uncovered-variable: {len(missing)} variables: {shown}{more}")
    if f.positive and 3 * f.num_clauses < f.num_vars:
        need = math.ceil(f.num_vars / 3)
        out.append(
            f"density-below-one-third: {f.num_clauses} clauses < minimum {need}")
    return out


VIOLATION_KINDS = ("none", "out-of-range", "repeated", "complementary",
                   "negative", "duplicate", "uncovered", "density")


@st.composite
def formulas_with_a_violation(draw):
    """A well-formed formula, with bottom in some clauses, negated literals
    when not flagged positive, then one violation kind injected (or none)."""
    n = draw(st.integers(3, 10))
    order = draw(st.permutations(range(1, n + 1)))
    with_bottom = draw(st.booleans())
    clauses = []
    for i in range(0, n, 3):
        chunk = list(order[i:i + 3])
        if len(chunk) == 2 and with_bottom:
            chunk.append(BOTTOM)
        while len(chunk) < 3:
            chunk.append(draw(st.sampled_from(
                [v for v in range(1, n + 1) if v not in chunk])))
        clauses.append(chunk)
    for _ in range(draw(st.integers(0, 4))):
        vs = draw(st.lists(st.integers(1, n), min_size=3, max_size=3,
                           unique=True))
        if with_bottom and draw(st.booleans()):
            vs[2] = BOTTOM
        clauses.append(vs)
    kind = draw(st.sampled_from(VIOLATION_KINDS))
    positive = kind == "negative" or draw(st.booleans())
    if not positive:
        clauses = [[-l if l and draw(st.booleans()) else l for l in c]
                   for c in clauses]
    a = draw(st.integers(1, n))
    if kind == "out-of-range":
        clauses.append([a, n + draw(st.integers(1, 3)), BOTTOM])
    elif kind == "repeated":
        clauses.append([a, a, draw(st.sampled_from([a, BOTTOM, n + 1]))])
    elif kind == "complementary":
        clauses.append([a, -a, BOTTOM])
    elif kind == "negative":
        c = draw(st.sampled_from(clauses))
        j = draw(st.sampled_from([j for j, l in enumerate(c) if l]))
        c[j] = -c[j]
    elif kind == "duplicate":
        clauses.append(list(reversed(draw(st.sampled_from(clauses)))))
    elif kind == "uncovered":
        n += draw(st.integers(1, 3))
    elif kind == "density":
        n = 3 * len(clauses) + draw(st.integers(1, 3))
    # dedupe unless duplicates are the point, keeping the kind's violation
    if kind != "duplicate":
        unique = {canonical_triple(c): c for c in clauses}
        clauses = list(unique.values())
    return kind, XsatFormula(n, tuple(map(tuple, clauses)), positive=positive)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(formulas_with_a_violation())
def test_validate_equals_clause_walk(drawn):
    kind, f = drawn
    found = validate(f)
    assert found == reference_validate(f)
    if kind == "none":
        # accepted on the set-level checks, negated literals or not
        assert found == [] and _well_formed(f)
    else:
        assert found
