from fractions import Fraction

import pytest

from xsat import (
    BOTTOM,
    DimensionError,
    EmptyFormulaError,
    ValidationError,
    XsatFormula,
    eval_xsat,
    kappa,
    validate,
)
from xsat.formula import VIOLATIONS_SHOWN, canonical_triple, check_valid, literal_value
from xsat.generator import SplitMix64, gen_random, GenSpec


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
    assert len(full) == 38  # 37 uncovered variables, density below r/3
    assert err.value.violations == full
    message = str(err.value)
    assert message.startswith("38 violation(s): uncovered-variable: 4; ")
    assert message.count("uncovered-variable") == VIOLATIONS_SHOWN
    assert message.endswith(f"; {38 - VIOLATIONS_SHOWN} more")
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
