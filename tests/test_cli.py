import dataclasses
import os

import pytest

from xsat import parse_xsat, naive_count, solve
from xsat import cli
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


def test_max_free_capacity_exit(six_var_file):
    assert main(["solve", "--input", six_var_file, "--method", "subst",
                 "--max-free", "2"]) == EXIT_CAPACITY


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.xsat"
    bad.write_text("p xsat+ 3 1\n1 2 0\n")
    assert main(["solve", "--input", str(bad)]) == EXIT_ERROR


@pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "not-utf8"])
def test_unreadable_input_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "in.xsat"
    if content is not None:
        path.write_bytes(content)
    assert main(["solve", "--input", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--max-free", "--witnesses"])
def test_negative_count_flags_rejected_by_argparse(six_var_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", six_var_file, flag, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}" in err


def test_count_subcommand(six_var_file, capsys):
    assert main(["count", "--input", six_var_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3"


def test_cnf_input_counted_through_chain(cnf_file, capsys):
    assert main(["count", "--input", cnf_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"


def test_negation_bearing_xsat_positivized_automatically(tmp_path, capsys):
    p = tmp_path / "neg.xsat"
    p.write_text("p xsat 3 2\n-1 2 3 0\n1 2 3 0\n")
    f = parse_xsat(p.read_text())
    assert main(["count", "--input", str(p)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == str(naive_count(f))


def test_kernel_output_gauss(six_var_file, capsys):
    assert main(["kernel", "--input", six_var_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p ipe 2 4"
    assert lines[1:] == ["0 -1 = 0", "1 1 = 1", "-1 0 = 0", "1 1 = 1"]


def test_kernel_output_rational_rhs(unsat_file, capsys):
    # zero-width kernel of a rationally consistent unsat instance: rhs 1/3
    assert main(["kernel", "--input", unsat_file]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p ipe 0 4"
    assert lines[1:] == ["= 1/3"] * 4


def test_reduce_chain(cnf_file, capsys):
    assert main(["reduce", "--input", cnf_file]) == EXIT_OK
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("c "))
    f = parse_xsat(body + "\n")
    assert f.positive
    assert naive_count(f) == 7
    assert "c cnf-to-xsat: vars 3->8 clauses 1->4" in out


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
    assert "all three counts agree" in capsys.readouterr().out


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_OK
    assert "warning" in capsys.readouterr().out


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


def test_bench_parallel_cells_match_sequential(tmp_path):
    args = ["bench", "--r-range", "6..8", "--kappa", "1", "--per-cell", "1",
            "--seed", "6"]
    seq, par = tmp_path / "seq.txt", tmp_path / "par.txt"
    assert main(args + ["--out", str(seq), "--jobs", "1"]) == EXIT_OK
    assert main(args + ["--out", str(par), "--jobs", "2"]) == EXIT_OK

    def stable(path):
        # timings vary run to run; everything else must match exactly
        rows = [l for l in path.read_text().splitlines() if l.startswith("r=")]
        return [[kv for kv in row.split() if not kv.startswith("t_")]
                for row in rows]

    assert stable(seq) == stable(par)


def test_fit_slope():
    assert fit_slope([(1, 2), (2, 4), (3, 6)]) == pytest.approx(2.0)
    assert fit_slope([(1, 1)]) is None
    assert fit_slope([(2, 1), (2, 5)]) is None
