import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xsat
from xsat import (count_blocks, encode_sys, parse_xsat, naive_count, naive_count_cnf,
                  naive_models, solve)
from xsat import cli
from xsat import kernel as kernel_module
from xsat.generator import SpecError
from xsat.cli import (
    EXIT_CAPACITY,
    EXIT_DISAGREE,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    fit_slope,
    main,
)

SIX_VAR = "p xsat+ 6 4\n1 2 3 0\n4 5 6 0\n2 5 6 0\n1 2 5 0\n"
UNSAT4 = "p xsat+ 4 4\n1 2 3 0\n2 3 4 0\n1 2 4 0\n1 3 4 0\n"
ONE_CNF = "p cnf 3 1\n1 -2 3 0\n"


@pytest.fixture
def six_var_file(tmp_path):
    p = tmp_path / "six.xsat"
    p.write_text(SIX_VAR)
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat.xsat"
    p.write_text(UNSAT4)
    return str(p)


@pytest.fixture
def cnf_file(tmp_path):
    p = tmp_path / "one.cnf"
    p.write_text(ONE_CNF)
    return str(p)


def test_solve_sat_exit_code(six_var_file, capsys):
    assert main(["solve", "--input", six_var_file]) == EXIT_SAT
    out = capsys.readouterr().out
    assert "sat=true" in out and "count=3" in out


def test_solve_unsat_exit_code(unsat_file):
    assert main(["solve", "--input", unsat_file]) == EXIT_UNSAT


def test_solve_count_mode_exit_zero(six_var_file, capsys):
    assert main(["solve", "--input", six_var_file, "--count"]) == EXIT_OK
    assert "count=3" in capsys.readouterr().out


def test_solve_subst_report(six_var_file, capsys):
    assert main(["solve", "--input", six_var_file, "--method", "subst",
                 "--count"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank=3" in out and "nullity=3" in out


def test_solve_witnesses(six_var_file, capsys):
    main(["solve", "--input", six_var_file, "--witnesses", "5"])
    out = capsys.readouterr().out
    ws = sorted(l.split()[1] for l in out.splitlines() if l.startswith("w "))
    assert ws == ["001010", "010100", "100001"]


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_solve_witnesses_golden_order(six_var_file, capsys, method):
    # the flat walk's order, unsorted: witnesses print as the walk meets them
    assert main(["solve", "--input", six_var_file, "--witnesses", "5",
                 "--method", method]) == EXIT_SAT
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("w ")] == [
        "w 010100", "w 001010", "w 100001"]


def test_max_free_capacity_exit(six_var_file):
    assert main(["solve", "--input", six_var_file, "--method", "subst",
                 "--max-free", "2"]) == EXIT_CAPACITY


def test_kernel_too_deep_for_the_block_walk_exits_capacity(tmp_path, capsys):
    """A raised --max-free still ends in one capacity line, not a
    RecursionError, when the walk above the block would pass its depth
    ceiling; bench reports such a cell as a skip."""
    path = tmp_path / "wide.xsat"
    assert main(["gen", "--family", "partition", "--r", "3300"]) == EXIT_OK
    path.write_text(capsys.readouterr().out)
    assert main(["solve", "--count", "--max-free", "5000",
                 "--input", str(path)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: kernel has 2200 free variables")
    assert len(captured.err.splitlines()) == 1
    assert main(["bench", "--family", "fixed-rank", "--rank", "300",
                 "--nullity-range", "600..600", "--max-free", "5000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("c skip r=900 k=300 seed=0: kernel has 600 free variables")


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.xsat"
    bad.write_text("p xsat+ 3 1\n1 2 0\n")
    assert main(["solve", "--input", str(bad)]) == EXIT_ERROR


def test_unknown_header_tag_is_a_malformed_header_at_its_line(tmp_path,
                                                              capsys):
    path = tmp_path / "wat.txt"
    path.write_text("p wat 3 1\n1 2 3 0\n")
    assert main(["solve", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: malformed header 'p wat 3 1'\n"


@pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "not-utf8"])
def test_unreadable_input_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "in.xsat"
    if content is not None:
        path.write_bytes(content)
    assert main(["solve", "--input", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["p xsat -5 0\n", "p cnf -3 0\n"],
                         ids=["xsat", "cnf"])
def test_negative_header_count_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert main(["solve", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "p xsat+ 1000000 1\n1 2 3 0\n",
    "p xsat+ 3 3000\n" + "1 2 3 0\n" * 3000,
    # quoted input and numbers read from it are clipped
    "p cnf " + "1" * 10**6 + " 1\n1 2 3 0\n",
    "p xsat 3 1\n1 2 " + "x" * 10**6 + " 0\n",
    "p cnf 3 1\n1 2 " + "x" * 10**6 + " 0\n",
    "p cnf 3 1\n1 2 3 0 " + "\u00e9" * 10**5 + "\n",
    "p cnf 3 1\n1 2 " + "9" * 4000 + " 0\n",
    "p xsat 3 " + "9" * 4000 + "\n1 2 3 0\n",
    "p cnf " + "9" * 4000 + " 1\n1 2 3 0\n",
], ids=["uncoverable-header", "many-duplicates", "long-cnf-header",
        "long-xsat-token", "long-cnf-token", "non-ascii-clause",
        "long-index", "long-clause-count", "long-unused-count"])
def test_invalid_instance_error_is_short(tmp_path, capsys, text):
    path = tmp_path / "in.xsat"
    path.write_text(text, encoding="utf-8")
    # every command that reads a file reads it through the one reader
    for command in ("solve", "count", "kernel", "reduce"):
        assert main([command, "--input", str(path)]) == EXIT_ERROR, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, command
        assert len(err.encode()) < 1024, (command, len(err.encode()))


def test_cnf_with_unused_variables_is_refused_before_any_reduction(
        tmp_path, monkeypatch, capsys):
    # a header may declare far more variables than its clauses use; the
    # refusal must not cost time in proportion to the declared count
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 100000000000 1\n1 -2 3 0\n")

    def never(*args):
        raise AssertionError("reduction called")

    monkeypatch.setattr(cli, "reduce_cnf_to_xsat", never)
    monkeypatch.setattr(cli, "reduce_xsat_to_positive", never)
    for command in ("count", "reduce"):
        assert main([command, "--input", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 99999999997 of the 100000000000 "
                                "declared variables appear in no clause\n")


@pytest.mark.parametrize("flag", ["--max-free", "--witnesses"])
def test_negative_count_flags_rejected_by_argparse(six_var_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", six_var_file, flag, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}" in err


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--r-range", "abc"], "--r-range"),
    (["bench", "--family", "fixed-rank", "--nullity-range", "3..x"],
     "--nullity-range"),
    (["bench", "--kappa", "x"], "--kappa"),
    (["bench", "--kappa", "1/0"], "--kappa"),
    (["verify", "--r-max", "2"], "--r-max"),
    (["verify", "--r-max", "x"], "--r-max"),
    (["bench", "--r-range", "9..6"], "--r-range"),
    (["bench", "--family", "fixed-rank", "--nullity-range", "22..12"],
     "--nullity-range"),
    (["bench", "--per-cell", "-2"], "--per-cell"),
    (["bench", "--per-cell", "0"], "--per-cell"),
    (["bench", "--r-range=-2..6"], "--r-range"),
    (["verify", "--trials", "-3"], "--trials"),
    (["verify", "--r-max", "25"], "--r-max"),
    (["bench", "--family", "fixed-rank", "--nullity-range=-1..3"],
     "--nullity-range"),
    (["bench", "--kappa=1/3,-1/3", "--r-range", "6..6"], "--kappa"),
    (["bench", "--family", "fixed-rank", "--rank=-4"], "--rank"),
])
def test_malformed_sweep_arguments_rejected_by_argparse(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}" in err


def test_bench_has_no_jobs_option(capsys):
    # cells run one after another: parallel workers would time each other
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --jobs 2" in err


def test_kernel_has_no_max_free_option(six_var_file, capsys):
    # the kernel is printed, never enumerated, so no cap applies
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--input", six_var_file, "--max-free", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --max-free 3" in err


def test_verify_has_no_max_free_option(capsys):
    # verify draws at most ORACLE_CAP variables, so its kernels fit the cap
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--max-free", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --max-free 3" in err


def test_count_subcommand(six_var_file, capsys):
    assert main(["count", "--input", six_var_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3"


def test_cnf_input_counted_on_its_carry_rows(cnf_file, capsys):
    assert main(["count", "--input", cnf_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"


# n = 9, m = 9: through the four-triple gadget its subst kernel was 36 wide,
# past the default cap of 30; its carry rows leave n + m = 18 free
CHAIN_9 = ("p cnf 9 9\n-4 -6 -9 0\n-3 5 9 0\n-2 -4 9 0\n-2 7 8 0\n"
           "1 -5 -7 0\n1 -3 -6 0\n1 -2 6 0\n2 5 -6 0\n2 8 -9 0\n")


def test_subst_counts_a_cnf_chain_within_the_default_cap(tmp_path, capsys):
    path = tmp_path / "chain9.cnf"
    path.write_text(CHAIN_9)
    assert naive_count_cnf(xsat.parse_dimacs_cnf(CHAIN_9)) == 155
    assert main(["solve", "--count", "--input", str(path),
                 "--method", "subst"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "count=155 rank=9 nullity=18 kernel_vars=18 kernel_clauses=9" in out


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_kernel_output_cnf_carry_row(cnf_file, capsys, method):
    # columns a1, x1, x2, x3, b1: a1 = x1 - x2 + x3 - 2*b1 for 1 -2 3
    assert main(["kernel", "--input", cnf_file, "--method", method]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["p ipe 4 1", "-1 1 -1 2 = 0"]


def test_cnf_witnesses_list_the_cnf_variables(cnf_file, capsys):
    # the models of x1 or ~x2 or x3 in the flat walk's order, carries dropped
    assert main(["solve", "--input", cnf_file, "--witnesses", "7"]) == EXIT_SAT
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("w ")] == [
        "w 000", "w 100", "w 110", "w 011", "w 111", "w 001", "w 101"]


def test_negation_bearing_xsat_counted_on_its_signed_rows(tmp_path, capsys):
    p = tmp_path / "neg.xsat"
    p.write_text("p xsat 3 2\n-1 2 3 0\n1 2 3 0\n")
    f = parse_xsat(p.read_text())
    assert main(["count", "--input", str(p)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == str(naive_count(f))


NEGATED = "p xsat 3 2\n-1 2 3 0\n1 2 3 0\n"
SIGNED_REPORTS = {
    # the signed rows of the input itself, not those of its positive form:
    # one.cnf is one carry row over a1, x1..x3 and b1, expansion size 4
    ("cnf", "gauss"): "sat=true count=7 rank=1 nullity=4 kernel_vars=4 "
                      "kernel_clauses=1 repr_size_bits=10.0000 method=gauss",
    ("cnf", "subst"): "sat=true count=7 rank=1 nullity=4 kernel_vars=4 "
                      "kernel_clauses=1 repr_size_bits=10.0000 method=subst",
    ("xsat", "gauss"): "sat=false count=0 rank=2 nullity=1 kernel_vars=1 "
                       "kernel_clauses=2 repr_size_bits=6.0000 method=gauss",
    ("xsat", "subst"): "sat=false count=0 rank=1 nullity=2 kernel_vars=2 "
                       "kernel_clauses=2 repr_size_bits=6.0000 method=subst",
}


@pytest.mark.parametrize("kind, method", list(SIGNED_REPORTS))
def test_negated_input_reports_its_signed_rows(tmp_path, capsys, kind,
                                               method):
    path = tmp_path / "in.txt"
    path.write_text(ONE_CNF if kind == "cnf" else NEGATED)
    assert main(["solve", "--count", "--input", str(path),
                 "--method", method]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.sub(r" elapsed_ms=\d+\n$", "", out) == SIGNED_REPORTS[kind, method]


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_negated_input_witnesses_cover_its_own_variables(tmp_path, capsys,
                                                         method):
    path = tmp_path / "neg.xsat"
    path.write_text("p xsat 5 3\n-1 2 3 0\n1 -4 5 0\n2 -3 B 0\n")
    f = parse_xsat(path.read_text())
    assert main(["solve", "--input", str(path), "--witnesses", "5",
                 "--method", method]) == EXIT_SAT
    out = capsys.readouterr().out
    ws = [tuple(map(int, l[2:])) for l in out.splitlines() if l.startswith("w ")]
    assert sorted(ws) == sorted(naive_models(f)) == [
        (0, 0, 0, 0, 0), (0, 0, 0, 1, 1)]


@pytest.mark.parametrize("command", ["solve", "count"])
@pytest.mark.parametrize("text, validated", [
    (SIX_VAR, ["validated"]),
    (NEGATED, ["validated"]),
    (ONE_CNF, ["constructed"]),
], ids=["xsat+", "xsat", "cnf"])
def test_each_formula_is_validated_once(tmp_path, monkeypatch, capsys,
                                        command, text, validated):
    # an XSAT formula keeps its one validation, which parse_xsat and solve
    # both read, and a CnfFormula validates itself when it is constructed;
    # a formula parsed and solved unchanged, negations and all, is not
    # validated twice
    path = tmp_path / "in.txt"
    path.write_text(text)
    seen = []
    real_validate = xsat.formula.validate
    real_construct = xsat.CnfFormula.__post_init__

    def validate(f):
        seen.append("validated")
        return real_validate(f)

    def construct(f):
        seen.append("constructed")
        return real_construct(f)

    monkeypatch.setattr(xsat.formula, "validate", validate)
    monkeypatch.setattr(xsat.CnfFormula, "__post_init__", construct)
    flags = ["--count"] if command == "solve" else []
    assert main([command, "--input", str(path), *flags]) == EXIT_OK
    assert seen == validated


@pytest.mark.parametrize("text", [SIX_VAR, NEGATED, ONE_CNF],
                         ids=["xsat+", "xsat", "cnf"])
def test_each_input_is_decoded_once(tmp_path, monkeypatch, capsys, text):
    # the header's tag picks the format in the one pass that reads the
    # clauses, so no second reader decodes the file again
    path = tmp_path / "in.txt"
    path.write_text(text)
    calls = []
    real = xsat.io._as_text

    def spy(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(xsat.io, "_as_text", spy)
    assert main(["count", "--input", str(path)]) == EXIT_OK
    assert calls == [text.encode()]


# under subst both of six_var's first two rows are solved for variable 1
SIX_VAR_KERNEL = {
    "gauss": ["p ipe 2 4", "0 -1 = 0", "1 1 = 1", "-1 0 = 0", "1 1 = 1"],
    "subst": ["p ipe 3 4", "1 -1 -1 = 0", "0 0 -1 = 0", "0 1 1 = 1",
              "0 1 1 = 1"],
}


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_kernel_output_six_var(six_var_file, capsys, method):
    assert main(["kernel", "--input", six_var_file, "--method", method]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == SIX_VAR_KERNEL[method]


def test_kernel_output_rational_rhs(unsat_file, capsys):
    # zero-width kernel of a rationally consistent unsat instance: rhs 1/3
    assert main(["kernel", "--input", unsat_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p ipe 0 4"
    assert lines[1:] == ["= 1/3"] * 4


# gauss rows with pivot entry 2: every coefficient and rhs is a half
HALVES = "p xsat+ 6 3\n1 2 6 0\n1 3 4 0\n2 3 5 0\n"
HALVES_KERNEL = {
    "gauss": ["p ipe 3 3", "1/2 -1/2 1/2 = 1/2", "-1/2 1/2 1/2 = 1/2",
              "1/2 1/2 -1/2 = 1/2"],
    "subst": ["p ipe 4 3", "-1 0 -1 1 = 0", "1 1 0 0 = 1", "1 0 1 0 = 1"],
}


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_kernel_output_half_integer_rows(tmp_path, capsys, method):
    p = tmp_path / "halves.xsat"
    p.write_text(HALVES)
    assert main(["kernel", "--input", str(p), "--method", method]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == HALVES_KERNEL[method]
    assert main(["count", "--input", str(p), "--method", method]) == EXIT_OK
    assert capsys.readouterr().out == "4\n"


INCONSISTENT = {
    # the gauss rref keeps 4 pivot rows and drops two zero rows with rhs 1,
    # so its printed rows alone admit s = 0 and s = 1; only elimination
    # finds it, so `xsat kernel` asks elimination for the flag under subst
    # too, whose rows also keep the contradiction (s2 = 0 and s2 = 1)
    "gauss-only": "p xsat+ 5 5\n1 2 B 0\n1 2 3 0\n3 4 B 0\n4 5 B 0\n3 5 B 0\n",
    "both": "p xsat+ 4 4\n1 2 B 0\n1 3 4 0\n2 3 4 0\n3 4 B 0\n",
}
FLAG = "c inconsistent: the equations have no rational solution"
INCONSISTENT_KERNEL = {
    ("gauss-only", "gauss"): [FLAG, "p ipe 1 4", "1 = 1", "0 = 0", "0 = 1",
                              "0 = 1"],
    ("gauss-only", "subst"): [FLAG, "p ipe 2 5", "1 -1 = 0", "1 0 = 1",
                              "0 -1 = 0", "0 1 = 1", "0 1 = 1"],
    ("both", "gauss"): [FLAG, "p ipe 1 3", "0 = 1/2", "0 = 1/2", "1 = 1/2"],
    ("both", "subst"): [FLAG, "p ipe 1 4", "0 = 1", "0 = 0", "0 = 0",
                        "1 = 1"],
}


@pytest.mark.parametrize("name,method", list(INCONSISTENT_KERNEL))
def test_kernel_output_flags_rational_inconsistency(tmp_path, capsys, name,
                                                    method):
    p = tmp_path / "inconsistent.xsat"
    p.write_text(INCONSISTENT[name])
    assert main(["kernel", "--input", str(p), "--method", method]) == EXIT_OK
    assert (capsys.readouterr().out.splitlines()
            == INCONSISTENT_KERNEL[name, method])
    assert main(["count", "--input", str(p), "--method", method]) == EXIT_OK
    assert capsys.readouterr().out == "0\n"


def test_reduce_chain(cnf_file, capsys):
    assert main(["reduce", "--input", cnf_file]) == EXIT_OK
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("c "))
    f = parse_xsat(body + "\n")
    assert f.positive
    assert naive_count(f) == 7
    assert "c cnf-to-xsat: vars 3->8 clauses 1->4" in out
    assert "c positivize: vars 8->11 clauses 4->7" in out


def test_gen_round_trip(tmp_path, capsys):
    assert main(["gen", "--family", "random", "--r", "9", "--k", "5",
                 "--seed", "11"]) == EXIT_OK
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("c "))
    f = parse_xsat(body + "\n")
    assert f.num_vars == 9 and f.num_clauses == 5
    assert "c spec r=9 k=5 seed=11 family=random" in out


def test_gen_reproducible(capsys):
    main(["gen", "--r", "9", "--k", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["gen", "--r", "9", "--k", "5", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_verify_passes(tmp_path, capsys):
    assert main(["verify", "--trials", "10", "--r-max", "10", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all three counts agree" in out
    assert "count_kernel = count_blocks on both kernels" in out
    assert "the witnesses are the oracle's models" in out


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_OK
    assert "warning" in capsys.readouterr().out


def test_verify_skips_a_trial_it_cannot_generate(tmp_path, monkeypatch,
                                                 capsys):
    real = cli.generate
    drawn = []

    def flaky(spec):
        drawn.append(spec.seed)
        if spec.seed == 1 ^ 1:  # trial 1 of seed 1
            raise SpecError("no covering clause set found in 1 attempts")
        return real(spec)

    monkeypatch.setattr(cli, "generate", flaky)
    assert main(["verify", "--trials", "3", "--r-max", "8", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert drawn == [1, 0, 3]
    assert lines[0].startswith("c skip trial 1 r=")
    assert lines[0].endswith(": no covering clause set found in 1 attempts")
    assert lines[1].startswith("c verified: 2 trials")
    assert lines[2:] == ["c skipped: 1 of 3 trials, their formulas could not "
                         "be generated"]


def test_verify_fault_injection(tmp_path, monkeypatch, capsys):
    # corrupt one method's count: verify must notice, shrink, dump a repro
    real_solve = solve

    def faulty(f, method="gauss", **kw):
        rep = real_solve(f, method=method, **kw)
        if method == "subst":
            return dataclasses.replace(rep, count=rep.count + 1)
        return rep

    monkeypatch.setattr(cli, "solve", faulty)
    code = main(["verify", "--trials", "5", "--r-max", "8", "--seed", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DISAGREE
    out = capsys.readouterr().out
    assert "repro written to" in out
    repro = [p for p in os.listdir(tmp_path) if p.startswith("disagreement")]
    assert len(repro) == 1
    small = parse_xsat((tmp_path / repro[0]).read_bytes())
    # the injected fault disagrees everywhere, so greedy removal must reach
    # a single-clause instance
    assert small.num_clauses == 1


def test_verify_fault_injection_on_signed_rows(tmp_path, monkeypatch,
                                              capsys):
    # a fault only negated literals reach: the positive checks pass, the
    # signed copy of the same trial disagrees, and the shrunk repro keeps
    # the signs that make it disagree
    real_solve = solve

    def faulty(f, method="gauss", **kw):
        rep = real_solve(f, method=method, **kw)
        if method == "subst" and any(l < 0 for c in f.clauses for l in c):
            return dataclasses.replace(rep, count=rep.count + 1)
        return rep

    monkeypatch.setattr(cli, "solve", faulty)
    code = main(["verify", "--trials", "5", "--r-max", "8", "--seed", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DISAGREE
    out = capsys.readouterr().out
    assert out.startswith("c disagreement at trial 0 (signed copy): "), out
    repro = [p for p in os.listdir(tmp_path) if p.startswith("disagreement")]
    assert len(repro) == 1
    small = parse_xsat((tmp_path / repro[0]).read_bytes())
    assert small.num_clauses == 1 and not small.positive
    assert cli._counts_disagree(small)


def test_verify_names_a_faulty_block_counter(tmp_path, monkeypatch, capsys):
    # solve stays right; only the walk comparison can see the fault
    def faulty(kern, max_free=30):
        count, _ = count_blocks(kern, max_free)
        return count + (kern.nullity > 1), None

    monkeypatch.setattr(cli, "count_blocks", faulty)
    code = main(["verify", "--trials", "5", "--r-max", "8", "--seed", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DISAGREE
    line = capsys.readouterr().out.strip()
    assert "kernel: count_kernel=" in line and "count_blocks=" in line, line
    assert "repro written to" in line
    repro = [p for p in os.listdir(tmp_path) if p.startswith("disagreement")]
    assert len(repro) == 1


def test_verify_names_faulty_witnesses(tmp_path, monkeypatch, capsys):
    # counts stay right; only the witness comparison can see the fault
    def faulty(f, method="gauss", **kw):
        rep = solve(f, method=method, **kw)
        if method == "subst" and rep.witnesses:
            first = rep.witnesses[0]
            wrong = ((1 - first[0],) + first[1:],) + rep.witnesses[1:]
            return dataclasses.replace(rep, witnesses=wrong)
        return rep

    monkeypatch.setattr(cli, "solve", faulty)
    code = main(["verify", "--trials", "5", "--r-max", "8", "--seed", "2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_DISAGREE
    line = capsys.readouterr().out.strip()
    assert "subst witnesses differ" in line and "gauss" not in line, line
    assert "repro written to" in line
    repro = [p for p in os.listdir(tmp_path) if p.startswith("disagreement")]
    assert len(repro) == 1


def test_verify_walks_the_oracle_once_per_formula(tmp_path, monkeypatch,
                                                  capsys):
    # the count is the number of models, so one oracle walk serves both,
    # once for each trial's positive formula and once for its signed copy
    calls = []
    real = cli.naive_models

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(cli, "naive_models", spy)
    assert not hasattr(cli, "naive_count")
    assert main(["verify", "--trials", "4", "--r-max", "8", "--seed", "2",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 8
    assert [f.positive for f in calls] == [True, False] * 4
    assert capsys.readouterr().out.startswith("c verified: 4 trials")


def test_verify_checks_the_walks_on_inconsistent_kernels(monkeypatch):
    # solve answers 0 for the inconsistent gauss kernel without a walk;
    # verify still checks the flat walk against the block walk on it
    f = parse_xsat(INCONSISTENT["gauss-only"])
    walked = []
    real = cli.count_kernel

    def spy(kern, max_free=30):
        walked.append(kern)
        return real(kern, max_free)

    monkeypatch.setattr(cli, "count_kernel", spy)
    assert cli._counts_disagree(f) is None
    system = encode_sys(f)
    gauss = kernel_module.build_kernel(system, "gauss")
    assert gauss.inconsistent
    assert walked == [gauss, kernel_module.build_kernel(system, "subst")]


def test_bench_random_sweep(tmp_path):
    out = tmp_path / "rows.txt"
    assert main(["bench", "--r-range", "6..9", "--kappa", "1/3,1",
                 "--per-cell", "1", "--seed", "4", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    rows = [l for l in lines if l.startswith("r=")]
    assert rows, lines
    # kappa=1/3 cells exist only where r is divisible by 3; others are logged
    assert any("not integral" in l for l in lines if l.startswith("c "))
    for row in rows:
        fields = dict(kv.split("=") for kv in row.split())
        assert int(fields["eta"]) + int(fields["eta_bar"]) == int(fields["r"])
    # density narrative: saturated instances leave far fewer free variables
    summary = {}
    for l in lines:
        if l.startswith("c kappa="):
            kv = dict(item.split("=") for item in l[2:].split())
            summary[kv["kappa"]] = float(kv["mean_eta_bar"])
    assert summary["1"] < summary["1/3"]


def test_bench_fixed_rank_slope(tmp_path):
    out = tmp_path / "slope.txt"
    assert main(["bench", "--family", "fixed-rank", "--rank", "6",
                 "--nullity-range", "6..10", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "slope log2(t_enumerate) vs eta_bar" in text


def test_bench_counts_models_not_the_walk_on_an_inconsistent_kernel(
        tmp_path, monkeypatch):
    # the gauss kernel keeps 4 rows that admit 2 free assignments, while
    # elimination found the system inconsistent: the record is the count
    f = parse_xsat(INCONSISTENT["gauss-only"])
    monkeypatch.setattr(cli, "generate", lambda spec: f)
    out = tmp_path / "rows.txt"
    assert main(["bench", "--r-range", "6..6", "--kappa", "1",
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    rows = [dict(kv.split("=") for kv in l.split())
            for l in out.read_text().splitlines() if l.startswith("r=")]
    assert [row["count"] for row in rows] == ["0"]
    kern = kernel_module.build_kernel(encode_sys(f), "gauss")
    assert cli.count_kernel(kern) == 2


def test_bench_partition_sweep_sits_on_the_lower_band_edge(tmp_path,
                                                           monkeypatch):
    # at kappa = 1/3 every instance is a partition, whose profile total is
    # exactly 2r/3: on the band's inclusive lower edge, decided on integers
    decided = []
    real = cli.profile_total_within_bounds

    def spy(num_vars, total):
        decided.append((num_vars, total))
        return real(num_vars, total)

    monkeypatch.setattr(cli, "profile_total_within_bounds", spy)
    out = tmp_path / "rows.txt"
    assert main(["bench", "--r-range", "6..12", "--kappa", "1/3",
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    rows = [dict(kv.split("=") for kv in l.split())
            for l in lines if l.startswith("r=")]
    assert [int(row["r"]) for row in rows] == [6, 9, 12]
    assert decided == [(6, 4), (9, 6), (12, 8)]
    assert all(row["repr_bits"] == row["lo"] for row in rows)
    assert not any("size-bound violation" in l for l in lines), lines
    # spec seed 61106 ^ (6*1009 + 6*9176) = 4 draws a formula whose profile
    # total, 24, lies above 1.62^6: the run ends with the violation note
    decided.clear()
    assert main(["bench", "--r-range", "6..6", "--kappa", "1",
                 "--seed", "61106", "--out", str(out)]) == EXIT_OK
    assert decided == [(6, 24)]
    assert out.read_text().splitlines()[-1] == (
        "c size-bound violation: r=6 k=6 seed=4 repr_bits=27.5098 "
        "band=[12.0000, 25.0558]")


@pytest.mark.parametrize("method", ["gauss", "subst"])
def test_bench_builds_each_kernel_once(tmp_path, monkeypatch, method):
    built = []
    real = kernel_module.build_kernel

    def spy(system, method):
        built.append(system)
        return real(system, method)

    monkeypatch.setattr(cli, "build_kernel", spy)
    monkeypatch.setattr(kernel_module, "build_kernel", spy)
    out = tmp_path / "rows.txt"
    assert main(["bench", "--r-range", "6..8", "--kappa", "1/2,1",
                 "--method", method, "--out", str(out)]) == EXIT_OK
    rows = [l for l in out.read_text().splitlines() if l.startswith("r=")]
    assert len(rows) >= 3 and len(built) == len(rows)


def test_parser_is_built_once_and_keeps_no_state(six_var_file, monkeypatch,
                                                 capsys):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    # elapsed_ms is wall time and may differ between the two calls
    def output() -> list[str]:
        return re.sub(r"elapsed_ms=\d+", "elapsed_ms=*",
                      capsys.readouterr().out).splitlines()

    assert main(["solve", "--witnesses", "5", "--input", six_var_file]) == EXIT_SAT
    first = output()
    assert sum(l.startswith("w ") for l in first) == 3
    assert main(["solve", "--input", six_var_file]) == EXIT_SAT
    assert output() == [l for l in first if not l.startswith("w ")]
    assert calls == [1]


def test_import_leaves_process_pools_out():
    src = Path(xsat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, xsat.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_fit_slope():
    assert fit_slope([(1, 2), (2, 4), (3, 6)]) == pytest.approx(2.0)
    assert fit_slope([(1, 1)]) is None
    assert fit_slope([(2, 1), (2, 5)]) is None
