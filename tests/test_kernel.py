import dataclasses
import itertools
import math
import time
from fractions import Fraction

import pytest

from xsat import (
    BOTTOM,
    CapacityError,
    CnfFormula,
    RrefResult,
    ValidationError,
    XsatFormula,
    count_blocks,
    count_kernel,
    encode_sys,
    eval_xsat,
    gauss_jordan,
    naive_count,
    naive_count_cnf,
    repr_size,
    solve,
)
from xsat import formula as formula_module
from xsat import kernel as kernel_module
from xsat.generator import (
    GenSpec,
    SplitMix64,
    gen_fib_chain,
    gen_fixed_rank,
    gen_partition,
    gen_random,
)
from xsat.kernel import build_kernel, profile_total_within_bounds, size_bounds
from xsat.oracle import naive_models
from xsat.reductions import reduce_cnf_to_xsat, reduce_xsat_to_positive
from xsat.substitution import expansion_profile, substitute

from test_acceptance import ensemble

F = Fraction


def _gauss_kernel(f):
    return gauss_jordan(encode_sys(f))


def _subst_kernel(f):
    return substitute(encode_sys(f))


def _dens(kern: RrefResult) -> list[int]:
    """Each row's D, its pivot entry."""
    return [row[p] for row, p in zip(kern.rows, kern.pivot_cols)]


def test_gauss_kernel_six_var(six_var):
    kern = _gauss_kernel(six_var)
    assert tuple(c + 1 for c in kern.free_cols) == (5, 6)
    assert [p + 1 for p in kern.pivot_cols] == [1, 2, 3, 4]
    assert [(tuple(F(row.get(c, 0), den) for c in kern.free_cols),
             F(row.get(6, 0), den))
            for row, den in zip(kern.rows, _dens(kern))] == [
        ((F(0), F(-1)), F(0)),
        ((F(1), F(1)), F(1)),
        ((F(-1), F(0)), F(0)),
        ((F(1), F(1)), F(1)),
    ]


def test_subst_kernel_six_var(six_var):
    kern = _subst_kernel(six_var)
    assert tuple(c + 1 for c in kern.free_cols) == (3, 5, 6)
    assert [p + 1 for p in kern.pivot_cols] == [1, 1, 2, 4]


def test_gauss_kernel_partition():
    kern = _gauss_kernel(gen_partition(6))
    assert kern.nullity == 4
    assert len(kern.rows) == 2


def test_count_six_var_both_paths(six_var):
    expected = sorted(naive_models(six_var))
    for kern in (_gauss_kernel(six_var), _subst_kernel(six_var)):
        count, wit = count_blocks(kern, witness_cap=1000)
        assert count == 3 == count_kernel(kern)
        assert sorted(wit) == expected


def test_count_zero_width_sat():
    # full-rank system whose unique rational solution is 0/1 valued
    f = XsatFormula(3, ((1, 2, BOTTOM), (2, 3, BOTTOM), (1, 2, 3)))
    assert naive_count(f) == 1
    kern = _gauss_kernel(f)
    assert kern.nullity == 0
    count, wit = count_blocks(kern, witness_cap=1000)
    assert count == 1 == count_kernel(kern)
    assert wit == ((0, 1, 0),)


def test_count_zero_width_unsat(dense_unsat):
    kern = _gauss_kernel(dense_unsat)
    assert kern.nullity == 0
    assert count_kernel(kern) == 0


def test_count_capacity():
    kern = _gauss_kernel(gen_partition(9))
    with pytest.raises(CapacityError):
        count_kernel(kern, max_free=5)


def test_witnesses_satisfy_formula():
    rng = SplitMix64(3)
    for trial in range(15):
        r = 6 + rng.randbelow(5)
        k = -(-r // 3) + rng.randbelow(3)
        f = gen_random(GenSpec(r=r, k=min(k, r), seed=trial + 60))
        rep = solve(f, method="gauss", witness_cap=1000)
        if rep.witnesses is None:
            continue
        assert len(rep.witnesses) == rep.count
        for w in rep.witnesses:
            assert eval_xsat(f, w)


def test_witness_sets_match_oracle_models_both_methods():
    rng = SplitMix64(14)
    for trial in range(10):
        r = 6 + rng.randbelow(4)
        k_lo = -(-r // 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial + 7100))
        expected = sorted(naive_models(f))
        for method in ("gauss", "subst"):
            rep = solve(f, method=method, witness_cap=1000)
            assert sorted(rep.witnesses) == expected


def test_count_larger_partition():
    # 3^9 models through an 18-bit enumeration, exercising bigger counts
    f = gen_partition(27)
    rep = solve(f, method="gauss")
    assert rep.count == 3 ** 9
    assert (rep.rank, rep.nullity) == (9, 18)


def test_witness_cap_suppresses_listing():
    f = gen_partition(12)  # 81 models
    assert count_blocks(_gauss_kernel(f), witness_cap=10) == (81, None)


# ---------------------------------------------------------------------------
# witness order

def _residuals(row: dict[int, int], kern: RrefResult) -> tuple[int, dict[int, int]]:
    """(mask, table): ``table[bits & mask]`` is the row's residual
    ``rhs - sum(coeff * s)`` at free bits ``bits``, bit p standing for
    ``free_cols[p]``, tabulated over the free bits the row reads."""
    mask, table = 0, {0: row.get(kern.num_vars, 0)}
    for pos, col in enumerate(kern.free_cols):
        if col in row:
            mask |= 1 << pos
            table.update({bits | 1 << pos: r - row[col] for bits, r in table.items()})
    return mask, table


def gray_order_models(kern: RrefResult) -> list[tuple[int, ...]]:
    """Reference: the models in the flat walk's order.

    Visits the free bits gray(s) = s ^ (s >> 1) for s < 2^d and keeps those
    on which every row's residual is 0 or D and the rows sharing a pivot
    agree on which.  Each is extended by pivot = 1 exactly where the
    residual is nonzero; a variable that is neither free nor a pivot is 0.
    """
    walk = [s ^ (s >> 1) for s in range(1 << kern.nullity)]
    first: dict[int, tuple[int, dict[int, int]]] = {}
    for row, pivot in zip(kern.rows, kern.pivot_cols):
        mask, table = _residuals(row, kern)
        accepted = {bits for bits, r in table.items() if r in (0, row[pivot])}
        walk = [bits for bits in walk if bits & mask in accepted]
        if pivot in first:
            mask0, table0 = first[pivot]
            walk = [bits for bits in walk
                    if (table[bits & mask] == 0) == (table0[bits & mask0] == 0)]
        else:
            first[pivot] = mask, table
    # zeros, replaced below
    columns = [[0] * len(walk)] * kern.num_vars
    for pos, col in enumerate(kern.free_cols):
        columns[col] = [bits >> pos & 1 for bits in walk]
    for col, (mask, table) in first.items():
        columns[col] = [1 if table[bits & mask] else 0 for bits in walk]
    return list(zip(*columns)) if columns else [()] * len(walk)


def _order_formulas(width: int) -> list[XsatFormula]:
    """Formulas whose gauss kernel is ``width`` wide: the fixed-rank kernels
    of the block-edge tests, or small full-rank systems at width 0."""
    if width == 0:
        return [XsatFormula(3, ((1, 2, BOTTOM), (2, 3, BOTTOM), (1, 2, 3))),
                XsatFormula(0, ()),
                XsatFormula(4, ((1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4)))]
    formulas = [gen_fixed_rank(width + width, width)]
    if width <= 13:
        rank = -(-width // 2)
        formulas.append(gen_fixed_rank(rank + width, rank))
    return formulas


@pytest.mark.parametrize("width", [0, 11, 12, 13, 20])
@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_solve_lists_witnesses_in_flat_walk_order(method, width):
    for f in _order_formulas(width):
        kern = build_kernel(encode_sys(f), method)
        if method == "gauss":
            assert kern.nullity == width
        expected = [] if kern.inconsistent else gray_order_models(kern)
        count = len(expected)
        for cap in sorted({0, 1, count - 1, count} - {-1}):
            rep = solve(f, method=method, witness_cap=cap)
            assert rep.count == count
            listed = count <= cap and not kern.inconsistent
            assert rep.witnesses == (tuple(expected) if listed else None), cap


def test_models_take_the_flat_walk_order_from_the_free_bits_alone():
    """``_models`` sorts the free-bit words of the models by Gray rank, so
    the words in any order give the flat walk's order."""
    kernels = [build_kernel(encode_sys(f), "gauss")
               for width in (0, 12, 13) for f in _order_formulas(width)]
    subst = build_kernel(encode_sys(gen_random(GenSpec(r=15, k=8, seed=900))),
                         "subst")
    assert _has_filter_group(subst) and not subst.inconsistent
    kernels.append(subst)
    rng = SplitMix64(19)
    sizes = []
    for kern in kernels:
        models = gray_order_models(kern)
        words = [_free_bits(kern, model) for model in models]
        assert len(set(words)) == len(words)
        rng.shuffle(words)
        assert list(kernel_module._models(kern, words)) == models
        sizes.append(len(models))
    assert min(sizes[-5:]) > 20, sizes  # the kernels 12 and 13 wide, and subst


def test_methods_agree_with_oracle_small():
    rng = SplitMix64(4)
    for trial in range(25):
        r = 6 + rng.randbelow(7)
        k_lo = -(-r // 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial + 5000))
        expect = naive_count(f)
        assert solve(f, method="gauss").count == expect
        assert solve(f, method="subst").count == expect


def test_solve_report_invariants(six_var, dense_unsat):
    for f in (six_var, dense_unsat, gen_partition(9)):
        for method in ("gauss", "subst"):
            rep = solve(f, method=method)
            assert rep.sat == (rep.count > 0)
            assert rep.kernel_vars == rep.nullity
            assert rep.method == method
            assert rep.elapsed_ms >= 0


def test_solve_rejects_invalid():
    with pytest.raises(ValidationError):
        solve(XsatFormula(4, ((1, 2, 3),)))  # variable 4 uncovered
    with pytest.raises(ValidationError):
        solve(XsatFormula(3, ()))  # declared variables, no clauses at all


def test_two_solves_validate_a_formula_once(six_var, monkeypatch):
    seen = []
    real = formula_module.validate

    def validate(f):
        seen.append(f)
        return real(f)

    monkeypatch.setattr(formula_module, "validate", validate)
    f = dataclasses.replace(six_var)  # a copy that has not been validated
    assert [solve(f, method).count for method in ("gauss", "subst")] == [3, 3]
    assert seen == [f]


def test_solve_empty_formula_counts_the_empty_assignment():
    rep = solve(XsatFormula(0, ()))
    assert rep.count == 1 and rep.rank == 0 and rep.kernel_vars == 0


def test_repr_size_values(six_var):
    assert repr_size(gen_partition(6)) == pytest.approx(6 * math.log2(4))
    assert repr_size(XsatFormula(3, ((1, 2, 3),))) == pytest.approx(3.0)
    assert repr_size(six_var) == pytest.approx(6 * math.log2(10))
    assert repr_size(XsatFormula(0, ())) == 0.0


def test_size_bounds_partition_sits_on_lower_edge():
    # a partition's profile total is exactly 2r/3: inclusive lower bound
    for r in (6, 9, 12):
        f = gen_partition(r)
        total = sum(expansion_profile(f))
        assert total == 2 * r // 3
        lo_ok, hi_ok = profile_total_within_bounds(r, total)
        assert lo_ok and hi_ok
        lo, hi = size_bounds(r)
        assert lo <= repr_size(f) <= hi + 1e-9


def test_exact_band_rule_settles_what_the_float_test_cannot():
    # r * log2(total) lies 4.5e-11 bits above r^2 * log2(1.62) here, so a
    # float test with a tolerance of 1e-9 calls it inside the band
    r, total = 41, 389148711
    assert profile_total_within_bounds(r, total) == (True, False)
    assert r * math.log2(total) <= size_bounds(r)[1] + 1e-9


def test_solve_report_phase_timings(six_var):
    rep = solve(six_var)
    assert len(rep.phase_us) == 3
    assert all(t >= 0 for t in rep.phase_us)


# elimination finds no rational solution; the rewrite flags no row
GAUSS_ONLY_INCONSISTENT = XsatFormula(5, (
    (1, 2, BOTTOM), (1, 2, 3), (3, 4, BOTTOM), (4, 5, BOTTOM), (3, 5, BOTTOM)))


def test_build_kernel_matches_each_route(six_var, dense_unsat):
    f = gen_random(GenSpec(r=12, k=8, seed=4))
    for g in (six_var, dense_unsat, GAUSS_ONLY_INCONSISTENT, f):
        system = encode_sys(g)
        rref = gauss_jordan(system)
        kern = build_kernel(system, "gauss")
        assert kern == rref
        assert kern.inconsistent == (g is GAUSS_ONLY_INCONSISTENT)
        rref = substitute(system)
        kern = build_kernel(system, "subst")
        assert kern == rref
        assert (kern.rank, kern.nullity) == (len(set(rref.pivot_cols)),
                                             len(rref.free_cols))
        assert not kern.inconsistent
    with pytest.raises(ValueError, match="unknown method"):
        build_kernel(encode_sys(six_var), "simplex")
    with pytest.raises(ValueError, match="unknown method"):
        solve(six_var, method="simplex")


def test_solve_reports_the_kernel_it_counted(six_var, dense_unsat):
    # the gauss kernel of `inconsistent` has no rational solution, and the
    # empty formula gives a kernel with no free variables
    inconsistent = GAUSS_ONLY_INCONSISTENT
    empty = XsatFormula(0, ())
    assert build_kernel(encode_sys(inconsistent), "gauss").inconsistent
    assert build_kernel(encode_sys(empty), "gauss").nullity == 0
    for f in (six_var, dense_unsat, inconsistent, empty):
        for method in ("gauss", "subst"):
            rep = solve(f, method=method)
            assert rep.kernel == build_kernel(encode_sys(f), method), method
            assert rep.kernel_vars == rep.kernel.nullity


SOLVE_STEPS = {
    "gauss": ("check_valid", "encode_sys", "gauss_jordan", "expansion_profile",
              "repr_size"),
    "subst": ("check_valid", "encode_sys", "substitute", "expansion_profile",
              "repr_size"),
}
# every step of either method, and the flat walk, which solve never calls
SPIED = tuple(sorted(set(SOLVE_STEPS["gauss"] + SOLVE_STEPS["subst"]))) + (
    "count_blocks", "count_kernel")


def _spy_on(monkeypatch, names) -> list[str]:
    """Wrap each named global of xsat.kernel; return the list of calls."""
    called = []
    for name in names:
        real = getattr(kernel_module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernel_module, name, spy)
    return called


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_solve_calls_each_step_by_module_global_name(six_var, monkeypatch, method):
    # tracing rebinds these names in xsat.kernel; every call must go through
    # them, a count-only solve counts with the block walk alone, a gauss
    # solve never rewrites and a subst solve never eliminates
    names = SOLVE_STEPS[method] + ("count_blocks",)
    called = _spy_on(monkeypatch, SPIED)
    assert solve(six_var, method=method).count == 3
    assert sorted(set(called)) == sorted(names)


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_solve_with_witnesses_calls_the_block_walk_by_module_global_name(
        six_var, monkeypatch, method):
    # witnesses come from the block walk too; the flat walk is never called
    names = SOLVE_STEPS[method] + ("count_blocks",)
    called = _spy_on(monkeypatch, SPIED)
    rep = solve(six_var, method=method, witness_cap=1000)
    assert rep.count == 3 and sorted(rep.witnesses) == sorted(naive_models(six_var))
    assert sorted(set(called)) == sorted(names)


def test_solve_elapsed_covers_the_repr_size_pass(six_var, monkeypatch):
    # the expansion-size pass runs after the count, outside phase_us
    real = kernel_module.expansion_profile

    def slow_expansion_profile(f):
        time.sleep(0.05)
        return real(f)

    monkeypatch.setattr(kernel_module, "expansion_profile", slow_expansion_profile)
    rep = solve(six_var, method="gauss")
    assert rep.elapsed_ms >= 50
    assert sum(rep.phase_us) < 50_000


@pytest.mark.parametrize("method", ["gauss", "subst"])
@pytest.mark.parametrize("witnesses", [False, True])
def test_solve_constructs_no_fraction(six_var, dense_unsat, monkeypatch,
                                      method, witnesses):
    # the route from clauses to counts is integer from end to end
    halves = XsatFormula(6, ((1, 2, 6), (1, 3, 4), (2, 3, 5)))
    formulas = [six_var, dense_unsat, halves, gen_fib_chain(7),
                gen_random(GenSpec(r=15, k=9, seed=5))]
    expected = [naive_count(f) for f in formulas]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic skips __new__
        real_coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, n, d: made.append((n, d)) or real_coprime(cls, n, d)))
    counts = [solve(f, method=method,
                    witness_cap=1000 if witnesses else None).count
              for f in formulas]
    monkeypatch.undo()
    assert counts == expected
    assert made == []


def test_enumeration_cost_tracks_free_vars_not_total_vars():
    # same nullity, four more total variables: were enumeration exponential
    # in r the ratio would be 16x; tracking only the free side keeps it small
    from xsat.cli import timed_enumeration
    from xsat.generator import gen_fixed_rank

    nullity = 14
    small = _gauss_kernel(gen_fixed_rank(7 + nullity, 7))
    large = _gauss_kernel(gen_fixed_rank(11 + nullity, 11))
    assert small.nullity == large.nullity == nullity
    _, t_small = timed_enumeration(small)
    _, t_large = timed_enumeration(large)
    assert t_large < 6 * t_small


# ---------------------------------------------------------------------------
# count_blocks against the flat walk

def _agreed_count(kern) -> int:
    """The count of both counters, which must agree, and up to 13 free
    bits also agree with the reference, which checks the rows sharing a
    pivot as a group rather than as exact rows."""
    count = count_blocks(kern)[0]
    assert count == count_kernel(kern)
    if kern.nullity <= 13:
        assert count == len(gray_order_models(kern))
    return count


def _has_filter_group(kern) -> bool:
    return len(set(kern.pivot_cols)) < len(kern.pivot_cols)


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_count_blocks_matches_flat_walk_on_criterion2_ensemble(method):
    for f in ensemble():
        _agreed_count(build_kernel(encode_sys(f), method))


def test_count_blocks_matches_flat_walk_on_families():
    formulas = [gen_partition(r) for r in (3, 6, 15, 21, 27)]
    formulas += [gen_fib_chain(k) for k in range(2, 12)]
    formulas += [gen_fixed_rank(rank + eta_bar, rank)
                 for rank, eta_bar in ((4, 2), (6, 11), (7, 12), (9, 13), (11, 17))]
    for f in formulas:
        for method in ("gauss", "subst"):
            _agreed_count(build_kernel(encode_sys(f), method))


def test_count_blocks_matches_flat_walk_on_subst_filter_groups():
    rng = SplitMix64(23)
    seen = 0
    for trial in range(60):
        r = 9 + rng.randbelow(10)
        k = r // 2 + rng.randbelow(r // 2 + 1)
        f = gen_random(GenSpec(r=r, k=k, seed=trial + 900))
        kern = build_kernel(encode_sys(f), "subst")
        if _has_filter_group(kern):
            seen += 1
            _agreed_count(kern)
    assert seen >= 20, seen


# rational coefficients, so rows are scaled by a denominator D > 1
RATIONALS = (F(1, 3), F(-2, 3), F(1, 2), F(-3, 2), F(5, 6), F(-1), F(2))


def _kernel(width: int, rows: list[tuple[tuple[int, ...], int, int, int]]
            ) -> RrefResult:
    """The kernel of rows ``(coeffs, rhs, pivot, D)``, each reading
    ``D * x_pivot = rhs - sum(coeffs * s)`` over the free bits s, which are
    the columns 0..width-1.  The pivots take the columns from ``width`` on,
    in ascending order, so that no other column is free."""
    col = {p: width + i for i, p in enumerate(sorted({row[2] for row in rows}))}
    n_vars = width + len(col)
    return RrefResult(
        tuple({**{pos: c for pos, c in enumerate(coeffs) if c}, col[pivot]: den,
               **({n_vars: rhs} if rhs else {})}
              for coeffs, rhs, pivot, den in rows),
        tuple(col[row[2]] for row in rows), n_vars, False)


def _with_rows(kern: RrefResult, rows: list[dict[int, int]],
               pivot_cols: list[int]) -> RrefResult:
    """``kern`` with ``rows``, solved for ``pivot_cols``, appended."""
    return RrefResult((*kern.rows, *rows), (*kern.pivot_cols, *pivot_cols),
                      kern.num_vars, kern.inconsistent)


def _planted_kernel(rng, width: int, n_rows: int, n_pivots: int,
                    first: int = 0) -> RrefResult:
    """Sparse rational rows, some sharing a pivot, that admit a planted
    assignment; each is scaled to an integer row by the lcm D of its
    denominators.  The rows read only the free bits at or above ``first``.

    Each row's rhs is its planted partial sum plus its pivot's planted
    value, so at the planted assignment every row's residual is its
    pivot's value: 0 on some rows and 1 on others.
    """
    planted = [rng.randbelow(2) for _ in range(width)]
    pivot_value = [rng.randbelow(2) for _ in range(n_pivots)]
    rows = []
    for i in range(n_rows):
        coeffs = [F(0)] * width
        for _ in range(min(width - first, 1 + rng.randbelow(4))):
            coeffs[first + rng.randbelow(width - first)] = \
                RATIONALS[rng.randbelow(len(RATIONALS))]
        pivot = rng.randbelow(n_pivots)
        rhs = sum(c * s for c, s in zip(coeffs, planted)) + pivot_value[pivot]
        den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        rows.append((tuple(int(c * den) for c in coeffs), int(rhs * den),
                     pivot, den))
    return _kernel(width, rows)


@pytest.mark.parametrize("width", [0, 1, 2, 11, 12, 13, 16, 20])
def test_count_blocks_matches_flat_walk_on_rational_rows(width):
    rng = SplitMix64(100 + width)
    denominators = set()
    for _ in range(2 if width >= 16 else 12):
        kern = _planted_kernel(rng, width, n_rows=1 + rng.randbelow(6),
                               n_pivots=1 + rng.randbelow(3))
        denominators.update(_dens(kern))
        assert _agreed_count(kern) > 0
    assert width == 0 or max(denominators) > 1


@pytest.mark.parametrize("width", [0, 1, 11, 12, 13, 20])
def test_count_blocks_matches_flat_walk_at_block_edges(width):
    kernels = [_kernel(width, [])]
    if width >= 2:  # fixed-rank needs nullity in [2, 2 * rank]
        kernels.append(_gauss_kernel(gen_fixed_rank(width + width, width)))
    if 2 <= width <= 13:
        rank = -(-width // 2)
        kernels.append(_gauss_kernel(gen_fixed_rank(rank + width, rank)))
    for kern in kernels:
        assert kern.nullity == width
        _agreed_count(kern)


def test_solve_refuses_a_wide_kernel_before_reading_its_rows(monkeypatch):
    # 4000 carry rows: under subst a kernel 4003 wide, refused on its
    # nullity; the rows are withheld, so reading any would raise TypeError
    real = kernel_module.substitute
    monkeypatch.setattr(kernel_module, "substitute",
                        lambda system: dataclasses.replace(real(system), rows=None))
    with pytest.raises(CapacityError, match="4003 free variables"):
        solve(CnfFormula(3, ((1, 2, 3),) * 4000), "subst")


def test_count_blocks_capacity_error_matches_flat_walk():
    kern = _gauss_kernel(gen_partition(9))
    assert kern.nullity == 6
    with pytest.raises(CapacityError) as flat:
        count_kernel(kern, max_free=5)
    with pytest.raises(CapacityError) as blocks:
        count_blocks(kern, max_free=5)
    assert str(blocks.value) == str(flat.value)
    assert count_blocks(kern, max_free=6) == (27, None)


# ---------------------------------------------------------------------------
# pruning: rows that read only the free bits above the block

BLOCK_BITS = kernel_module.BLOCK_BITS


def _high_part(kern: RrefResult) -> RrefResult:
    """The same rows over the free bits at or above BLOCK_BITS only: the
    columns of the bits below are dropped and the rest renumbered."""
    low = set(kern.free_cols[:BLOCK_BITS])
    new = {c: i for i, c in enumerate(
        c for c in range(kern.num_vars + 1) if c not in low)}
    return RrefResult(
        tuple({new[c]: v for c, v in row.items() if c in new} for row in kern.rows),
        tuple(new[p] for p in kern.pivot_cols), len(new) - 1, kern.inconsistent)


def _contradicted(kern: RrefResult) -> RrefResult:
    """``kern`` plus a copy of its first row with the rhs raised by D: the
    copy's residual is the first row's plus D, so the two are never both 0
    or both D, and the count is 0."""
    row, pivot = kern.rows[0], kern.pivot_cols[0]
    rhs_col = kern.num_vars
    twin = {**row, rhs_col: row.get(rhs_col, 0) + row[pivot]}
    return _with_rows(kern, [{c: v for c, v in twin.items() if v}], [pivot])


def _duplicated(kern: RrefResult) -> RrefResult:
    """``kern`` plus an exact copy of its first row, as ``substitute``
    keeps for a repeated equation: the copy's exact row is all zero with
    rhs 0, so the count is ``kern``'s."""
    return _with_rows(kern, [dict(kern.rows[0])], [kern.pivot_cols[0]])


@pytest.mark.parametrize("width", [13, 16, 20, 22])
def test_count_blocks_prunes_rows_that_read_only_high_bits(width):
    """Every row is complete above the leaves, so the walk checks it at
    an inner node and cuts the subtrees it rejects.  The low bits are read
    by no row, so the count is the high part's count times 2^BLOCK_BITS."""
    rng = SplitMix64(300 + width)
    kernels = []
    for _ in range(4):
        kern = _planted_kernel(rng, width, n_rows=2 + rng.randbelow(6),
                               n_pivots=1 + rng.randbelow(3), first=BLOCK_BITS)
        kernels += [kern, _contradicted(kern), _duplicated(kern)]
    assert any(_has_filter_group(kern) for kern in kernels[::3])
    assert max(den for kern in kernels for den in _dens(kern)) > 1
    counts = []
    for kern in kernels:
        count = count_blocks(kern)[0]
        counts.append(count)
        assert count == count_kernel(_high_part(kern)) << BLOCK_BITS
        if width <= 16:
            assert count == count_kernel(kern)
            expected = gray_order_models(kern)
            for cap in sorted({0, 1, count}):
                listed = tuple(expected) if count <= cap else None
                assert count_blocks(kern, witness_cap=cap) == (count, listed), cap
    assert all(counts[::3]) and counts[1::3] == [0] * 4, counts
    assert counts[2::3] == counts[::3], counts


def _with_constant_row(kern: RrefResult, rhs: int, den: int) -> RrefResult:
    """``kern`` plus the row ``den * x = rhs`` over a new pivot x that no
    other row holds: a row with no free entry, which admits x exactly when
    rhs is 0 or D.  The rhs column moves one place right to make room."""
    n = kern.num_vars
    rows = tuple({(n + 1 if c == n else c): v for c, v in row.items()}
                 for row in kern.rows)
    extra = {n: den, **({n + 1: rhs} if rhs else {})}
    return RrefResult((*rows, extra), (*kern.pivot_cols, n), n + 1,
                      kern.inconsistent)


@pytest.mark.parametrize("width", [1, 5, 11, 12])
def test_count_blocks_checks_exact_rows_at_the_root(width):
    """At most BLOCK_BITS wide, every row is checked at the root and
    nothing is walked: a contradicted copy of a row counts 0, an exact
    copy keeps the count, and a row with no free entry admits the block
    only at rhs 0 or D; counts and witnesses match the flat walk's."""
    rng = SplitMix64(500 + width)
    kernels, expected = [], []
    for _ in range(4):
        kern = _planted_kernel(rng, width, n_rows=2 + rng.randbelow(6),
                               n_pivots=1 + rng.randbelow(3))
        count = count_kernel(kern)
        assert count > 0
        kernels += [kern, _contradicted(kern), _duplicated(kern)]
        expected += [count, 0, count]
        for den in (1, 2, 3):
            for rhs in (0, den, -den, 2 * den, den + 1):
                kernels.append(_with_constant_row(kern, rhs, den))
                expected.append(count if rhs in (0, den) else 0)
    assert any(_has_filter_group(kern) for kern in kernels[::18])
    assert max(den for kern in kernels[::18] for den in _dens(kern)) > 1
    for kern, want in zip(kernels, expected):
        assert kern.nullity == width
        assert count_kernel(kern) == want
        models = tuple(gray_order_models(kern))
        assert len(models) == want
        for cap in sorted({0, 1, want}):
            listed = models if want <= cap else None
            assert count_blocks(kern, witness_cap=cap) == (want, listed), cap
        assert count_blocks(kern) == (want, None)


def _planted_formula(r: int, k: int, rng: SplitMix64) -> XsatFormula:
    """k clauses over r variables (3 | r) with a planted model: a shuffled
    partition into triples, one planted-true variable per triple, and extra
    triples of one true and two false variables."""
    order = list(range(1, r + 1))
    rng.shuffle(order)
    parts = [tuple(sorted(order[i:i + 3])) for i in range(0, r, 3)]
    true = [p[rng.randbelow(3)] for p in parts]
    false = sorted(set(order) - set(true))
    clauses = set(parts)
    while len(clauses) < k:
        a = false[rng.randbelow(len(false))]
        b = false[rng.randbelow(len(false))]
        if a != b:
            clauses.add(tuple(sorted((true[rng.randbelow(len(true))], a, b))))
    return XsatFormula(r, tuple(sorted(clauses)))


def test_count_blocks_counts_wide_kernels_alike_under_both_methods():
    """Planted r = 48 and 51 at k = r/2: kernels 24 to 30 wide, which the
    walk counts in well under a second each once it prunes."""
    widths = set()
    for r, seed in ((48, 2), (51, 2), (51, 3)):
        f = _planted_formula(r, r // 2, SplitMix64(seed))
        counts = set()
        for method in ("gauss", "subst"):
            kern = build_kernel(encode_sys(f), method)
            widths.add(kern.nullity)
            counts.add(count_blocks(kern)[0])
        assert len(counts) == 1 and min(counts) >= 1, (r, seed, counts)
    assert min(widths) >= 24 and max(widths) == 30, widths


# ---------------------------------------------------------------------------
# the walk's order of the high bits, shared tables, and its depth ceiling

def _random_cnf(rng: SplitMix64, n: int, m: int) -> CnfFormula:
    """m distinct 3-clauses over n variables, every variable used."""
    while True:
        clauses = set()
        while len(clauses) < m:
            vs = set()
            while len(vs) < 3:
                vs.add(1 + rng.randbelow(n))
            clauses.add(tuple(v if rng.randbelow(2) else -v for v in sorted(vs)))
        if len({abs(l) for c in clauses for l in c}) == n:
            return CnfFormula(n, tuple(sorted(clauses)))


def _free_bits(kern: RrefResult, model) -> int:
    return sum(model[c] << pos for pos, c in enumerate(kern.free_cols))


def test_count_blocks_reorders_high_bits_on_cnf_chain_kernels():
    """Random 3-CNF, n = 6 and m = 7-10, through both reductions.  The
    gauss kernels are 13-16 wide, and their high columns are read by
    different numbers of rows, so the walk sets them densest first rather
    than top bit first.  The subst kernels of the same formulas are 32-47
    wide, past the flat walk; those of m = 7 and 8 are counted against
    the CNF, and their witnesses are the gauss models in the flat walk's
    order of their own free bits."""
    rng = SplitMix64(61)
    uneven = 0
    for trial in range(8):
        m = 7 + trial % 4
        cnf = _random_cnf(rng, 6, m)
        expected = naive_count_cnf(cnf)
        system = encode_sys(reduce_xsat_to_positive(reduce_cnf_to_xsat(cnf)))
        kern = build_kernel(system, "gauss")
        assert not kern.inconsistent and 13 <= kern.nullity <= 16
        reads = {sum(1 for row in kern.rows if c in row)
                 for c in kern.free_cols[BLOCK_BITS:]}
        uneven += len(reads) > 1
        models = gray_order_models(kern)
        assert count_kernel(kern) == len(models) == expected
        assert count_blocks(kern, witness_cap=expected) == (expected, tuple(models))
        if m > 8:
            continue
        subst = build_kernel(system, "subst")
        count, listed = count_blocks(subst, max_free=40, witness_cap=expected)
        assert count == expected and sorted(listed) == sorted(models)
        walked = [_free_bits(subst, w) for w in listed]
        steps = [kernel_module._gray_rank(g) for g in walked]
        assert [s ^ (s >> 1) for s in steps] == walked
        assert steps == sorted(steps)
    assert uneven >= 4, uneven


# ---------------------------------------------------------------------------
# CNF input: one carry row per clause

def cnf_models(f: CnfFormula) -> list[tuple[int, ...]]:
    """Reference: every assignment, in ascending order, under which each
    clause has a true literal."""
    return [a for a in itertools.product((0, 1), repeat=f.num_vars)
            if all(any(a[abs(l) - 1] == (l > 0) for l in c) for c in f.clauses)]


def assert_carry_route(f: CnfFormula) -> None:
    """Under both methods the carry rows count the CNF's models, as the
    four-triple gadget does.  Both methods return the rows as encoded, of
    rank m, so the kernel is n + m wide; the witnesses come in the flat
    walk's order, and their source parts, bits m+1..m+n, are the models."""
    n, m = f.num_vars, f.num_clauses
    models = cnf_models(f)
    expected = naive_count_cnf(f)
    assert len(models) == expected
    system = encode_sys(f)
    assert system.num_vars == n + 2 * m
    assert gauss_jordan(system).rows == substitute(system).rows == system.rows
    gadget = reduce_cnf_to_xsat(f)
    for method in ("gauss", "subst"):
        rep = solve(f, method=method, witness_cap=expected)
        # the gadget's subst kernels run past the default cap of 30
        via_gadget = solve(gadget, method=method, max_free=48).count
        assert rep.count == expected == via_gadget, method
        assert rep.rank == m and rep.nullity == rep.kernel_vars == n + m, method
        witnesses = rep.witnesses or ()
        assert witnesses == tuple(gray_order_models(rep.kernel)), method
        assert sorted(w[m:m + n] for w in witnesses) == models, method


CARRY_CASES = {
    "repeated-variable": CnfFormula(2, ((1, 1, 2),)),
    "complementary": CnfFormula(2, ((1, -1, 2), (-2, -2, 1))),
    "duplicate-clauses": CnfFormula(3, ((1, -2, 3), (1, -2, 3), (-1, 2, 2))),
    "all-negated": CnfFormula(3, ((-1, -2, -3), (-1, -1, -1))),
    "contradiction": CnfFormula(1, ((1, 1, 1), (-1, -1, -1))),
    "empty": CnfFormula(0, ()),
}


@pytest.mark.parametrize("name", list(CARRY_CASES))
def test_carry_rows_count_cnf_edge_cases(name):
    assert_carry_route(CARRY_CASES[name])


def test_carry_rows_count_a_seeded_cnf_ensemble():
    """60 random 3-CNFs over up to 6 variables and up to 8 clauses, with
    literals drawn independently, so variables repeat within a clause,
    with either sign, and clauses repeat.  The variables are renumbered to
    those used, as the gadget needs every variable covered."""
    rng = SplitMix64(26)
    for _ in range(60):
        n, m = 1 + rng.randbelow(6), rng.randbelow(9)
        clauses = [tuple((1 + rng.randbelow(n)) * (1 - 2 * rng.randbelow(2))
                         for _ in range(3)) for _ in range(m)]
        used = sorted({abs(l) for c in clauses for l in c})
        remap = {v: i + 1 for i, v in enumerate(used)}
        assert_carry_route(CnfFormula(len(used), tuple(
            tuple(remap[l] if l > 0 else -remap[-l] for l in c) for c in clauses)))


def _shared_rows(rng: SplitMix64, width: int) -> RrefResult:
    """Rows over one coefficient tuple that differ in rhs or D: three lone
    rows and one filter group of two.  Every row reads the same free bits,
    so all five share one bare table whatever their D.  The rhs are set
    from a planted assignment, at which every
    row's residual is 0 or D and the group's two are both D."""
    coeffs = [0] * width
    for pos in [rng.randbelow(width) for _ in range(3)] + [width - 1]:
        coeffs[pos] = (-2, -1, 1, 2)[rng.randbelow(4)]
    coeffs = tuple(coeffs)
    planted = sum(c * rng.randbelow(2) for c in coeffs)
    rows = [(coeffs, planted, 0, 1),      # residual 0
            (coeffs, planted + 1, 1, 1),  # residual D = 1
            (coeffs, planted + 2, 2, 2),  # residual D = 2
            # the group accepts where the first row's residual is 1, the
            # one place where both rows are D
            (coeffs, planted + 1, 3, 1),
            (coeffs, planted + 2, 3, 2)]
    return _kernel(width, rows)


@pytest.mark.parametrize("width", [5, 13, 16])
def test_rows_sharing_a_table_keep_their_own_acceptance(width, monkeypatch):
    """Rows with the same low part share one bare table whatever their D;
    a walk map with D is ``t -> table[t] | table[t - D]``, and with D = 0
    it is the table; and the root check on the table of the part less its
    top entry accepts at every residual what that map gives.  In the
    walk, rows with the same low part and D share one map."""
    rng = SplitMix64(700 + width)
    real_walk_map = kernel_module._walk_map
    maps_made = []
    monkeypatch.setattr(kernel_module, "_walk_map", lambda table, den: (
        maps_made.append((id(table), den)) or real_walk_map(table, den)))
    for _ in range(3):
        kern = _shared_rows(rng, width)
        low = min(width, BLOCK_BITS)
        # the group's second row is read as an exact row (D = 0), whose
        # part differs; the other four keep the shared coefficients
        parts, _, _, dens = kernel_module._read_rows(kern, low)
        parts = [part for part, den in zip(parts, dens) if den]
        tables: dict = {}
        shared = [kernel_module._bare_table(tables, tuple(part), low)
                  for part in parts]
        assert all(table is shared[0] for table in shared) and len(tables) == 1
        table = shared[0]
        assert kernel_module._walk_map(table, 0) is table
        _, cols, _ = kernel_module._columns(low)
        part = parts[0]
        p, c = part[-1]
        rest = kernel_module._bare_table(tables, tuple(part[:-1]), low)
        for den in sorted(set(_dens(kern))):
            m = kernel_module._walk_map(table, den)
            assert m == {t: table.get(t, 0) | table.get(t - den, 0)
                         for t in table.keys() | {s + den for s in table}}
            for r in range(min(m) - 2, max(m) + 3):
                assert kernel_module._root_block(rest, cols[p], c, r, den) \
                    == m.get(r, 0), (den, r)
        maps_made.clear()
        assert _agreed_count(kern) > 0
        if width > BLOCK_BITS:
            # every row reads the top free bit, so all are checked in the
            # walk: rows 0, 1 and 3 (D = 1) share a map, row 2 (D = 2) has
            # its own, and so does the group's exact row (D = 0)
            assert len(maps_made) == len(set(maps_made)) == 3, maps_made
            assert sorted(den for _, den in maps_made) == [0, 1, 2]
        else:
            assert maps_made == []


def _reader_kernels() -> list[RrefResult]:
    """Gauss kernels 13 and 20 wide, the first of them again with each
    row's entries stored in descending column order, and a subst kernel
    with a filter group."""
    kernels = [build_kernel(encode_sys(f), "gauss")
               for width in (13, 20) for f in _order_formulas(width)]
    first = kernels[0]
    kernels.append(RrefResult(tuple(dict(sorted(row.items(), reverse=True))
                                    for row in first.rows),
                              first.pivot_cols, first.num_vars, first.inconsistent))
    subst = build_kernel(encode_sys(gen_random(GenSpec(r=15, k=8, seed=900))),
                         "subst")
    assert _has_filter_group(subst) and not subst.inconsistent
    return kernels + [subst]


def test_read_rows_gives_the_same_rows_at_every_low():
    """``_read_rows`` splits each row at ``low`` and nowhere else: the rhs
    and D do not depend on ``low``, and a row's entries, its low part plus
    its flips shifted by ``low``, are the same at every ``low``.  The part
    is sorted and below ``low``, the flips list their rows in order, and
    no entry is 0.  A row that is first for its pivot keeps its own free
    entries, rhs and pivot entry; a repeat is an exact row, with D = 0."""
    for kern in _reader_kernels():
        d = kern.nullity
        reads = []
        for low in sorted({0, 5, BLOCK_BITS, d}):
            if low > d:
                continue
            parts, flips, rhs, dens = kernel_module._read_rows(kern, low)
            assert len(parts) == len(rhs) == len(dens) == len(kern.rows)
            assert len(flips) == d - low
            entries = [list(part) for part in parts]
            for part in parts:
                assert part == sorted(part)
                assert all(p < low and c for p, c in part), part
            for k, flip in enumerate(flips):
                rows = [i for i, _ in flip]
                assert rows == sorted(set(rows)), (low, k)
                for i, c in flip:
                    assert c
                    entries[i].append((low + k, c))
            reads.append((rhs, dens, [sorted(e) for e in entries]))
        assert len(reads) >= 3 and all(read == reads[0] for read in reads)
        rhs, dens, entries = reads[0]
        seen = set()
        for row, pivot, r, den, row_entries in zip(
                kern.rows, kern.pivot_cols, rhs, dens, entries):
            if pivot in seen:
                assert den == 0
                continue
            seen.add(pivot)
            assert (r, den) == (row.get(kern.num_vars, 0), row[pivot])
            assert row_entries == [(p, row[c]) for p, c in enumerate(kern.free_cols)
                                   if row.get(c)]
        assert 0 in dens or not _has_filter_group(kern)


def test_rows_are_read_once_per_count_and_again_for_witnesses(monkeypatch):
    """A count reads the rows once, in either counter; listing witnesses
    reads them once more, for the pivots."""
    real = kernel_module._read_rows
    lows = []
    monkeypatch.setattr(kernel_module, "_read_rows", lambda rref, low: (
        lows.append(low) or real(rref, low)))
    # the kernels up to 13 wide: count_kernel walks every assignment
    for kern in [k for k in _reader_kernels() if k.nullity <= 13]:
        low = min(kern.nullity, BLOCK_BITS)
        count, wit = count_blocks(kern)
        assert wit is None and lows == [low]
        lows.clear()
        assert count_kernel(kern) == count and lows == [0]
        lows.clear()
        _, wit = count_blocks(kern, witness_cap=count)
        assert len(wit) == count and lows == [low, 0]
        lows.clear()
        if count:
            assert count_blocks(kern, witness_cap=count - 1)[1] is None
            assert lows == [low]
            lows.clear()


def _one_path(depth: int, extra: int = 0) -> RrefResult:
    """A kernel ``depth`` bits wider than the block, with one row per high
    bit that accepts it at 0 only: the walk follows one path ``depth``
    levels down.  ``extra`` more free bits are read by no row."""
    d = BLOCK_BITS + depth + extra
    return _kernel(d, [(tuple(int(p == pos) for p in range(d)), 0, pos, 1)
                       for pos in range(BLOCK_BITS, BLOCK_BITS + depth)])


def test_count_blocks_walks_to_its_depth_ceiling_and_refuses_beyond():
    depth = kernel_module.MAX_WALK_DEPTH
    kern = _one_path(depth)
    assert count_blocks(kern, max_free=kern.nullity) == (1 << BLOCK_BITS, None)
    wider = _one_path(depth, extra=1)
    with pytest.raises(CapacityError, match=f"{wider.nullity} free variables"):
        count_blocks(wider, max_free=wider.nullity)
