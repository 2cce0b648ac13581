import pytest

from xsat import (
    BOTTOM,
    XsatFormula,
    emit_report,
    parse_dimacs_cnf,
    parse_xsat,
    serialize_xsat,
    solve,
)
from xsat.generator import GenSpec, gen_random
from xsat.io import ParseError, sniff_format
from xsat.reductions import reduce_cnf_to_xsat


def test_parse_dimacs_basic():
    f = parse_dimacs_cnf(b"p cnf 3 1\n1 -2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2, 3),)


def test_parse_dimacs_width_error():
    with pytest.raises(ParseError, match="width 2"):
        parse_dimacs_cnf("p cnf 3 1\n1 2 0\n")


def test_parse_dimacs_range_error():
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs_cnf("c x\np cnf 2 1\n1 2 3 0\n")


def test_parse_dimacs_count_mismatch():
    with pytest.raises(ParseError, match="promises 2"):
        parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")


def test_parse_dimacs_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_dimacs_cnf("c one\np cnf 3 1\n1 x 3 0\n")
    assert err.value.line == 3


def test_parse_xsat_positive(two_clause_sat):
    f = parse_xsat(b"p xsat+ 4 2\n1 2 3 0\n2 3 4 0\n")
    assert f == two_clause_sat
    assert f.positive


def test_parse_xsat_bottom_token():
    f = parse_xsat("p xsat+ 3 2\n1 2 B 0\n1 2 3 0\n")
    assert (1, 2, BOTTOM) in f.clauses


def test_parse_xsat_rejects_negation_in_positive():
    with pytest.raises(ParseError, match="negated literal"):
        parse_xsat("p xsat+ 4 1\n-1 2 3 0\n")


def test_parse_xsat_allows_negation_in_general_format():
    f = parse_xsat("p xsat 3 2\n-1 2 3 0\n1 2 3 0\n")
    assert not f.positive
    assert (-1, 2, 3) in f.clauses


def test_parse_xsat_rejects_what_validate_rejects():
    with pytest.raises(ParseError, match="duplicate-clause"):
        parse_xsat("p xsat+ 3 2\n1 2 3 0\n3 2 1 0\n")
    with pytest.raises(ParseError, match="uncovered-variable"):
        parse_xsat("p xsat+ 4 2\n1 2 3 0\n1 2 B 0\n")


@pytest.mark.parametrize("text", [
    "p xsat -5 0\n", "p xsat+ 3 -1\n1 2 3 0\n", "p cnf -3 0\n",
    "p cnf 3 -1\n1 2 3 0\n",
], ids=["xsat-vars", "xsat-clauses", "cnf-vars", "cnf-clauses"])
def test_negative_header_count_rejected(text):
    parse = parse_dimacs_cnf if " cnf " in text else parse_xsat
    with pytest.raises(ParseError, match="negative count") as err:
        parse(text)
    assert err.value.line == 1


@pytest.mark.parametrize("text, message, line", [
    ("1 2 3 0\np {tag} 3 1\n", "clause before header", 1),
    ("c no header\n", "missing header", None),
    ("p {tag} 3\n1 2 3 0\n", "malformed header 'p {tag} 3'", 1),
    ("p {tag} 3 x\n1 2 3 0\n", "non-integer counts in header 'p {tag} 3 x'", 1),
    ("c\np {tag} 3 -1\n", "negative count in header 'p {tag} 3 -1'", 2),
    ("p {tag} 3 1\n1 2 3\n", "clause not terminated by 0", 2),
    ("p {tag} 3 1\n1 2 0\n", "clause width 2, expected 3", 2),
    ("p {tag} 4 1\n\n1 2 3 4 0\n", "clause width 4, expected 3", 3),
    ("p {tag} 3 2\n1 2 3 0\n", "header promises 2 clauses, body has 1", None),
    ("p {tag} 3 1\n1 2 3 00\n", "clause not terminated by 0", 2),
    ("p {tag} 3 1\n1 2 3 -0\n", "clause not terminated by 0", 2),
    ("p {tag} 3 2\n1 2 3 0\np {tag} 3 1\n", "second header 'p {tag} 3 1'", 3),
], ids=["clause-before-header", "missing-header", "malformed-header",
        "non-integer-count", "negative-count", "unterminated", "width-2",
        "width-4", "count-mismatch", "terminator-00", "terminator-minus-0",
        "second-header"])
def test_both_parsers_report_line_faults_alike(text, message, line):
    for tag, parse in (("cnf", parse_dimacs_cnf), ("xsat", parse_xsat)):
        with pytest.raises(ParseError) as err:
            parse(text.format(tag=tag))
        where = f"line {line}: " if line is not None else ""
        assert str(err.value) == where + message.format(tag=tag), tag
        assert err.value.line == line, tag


def test_a_second_header_is_refused_whatever_its_tag():
    """A later header would otherwise override the tag and counts that the
    clauses before it were read under."""
    with pytest.raises(ParseError, match="second header 'p xsat\\+ 6 2'") as err:
        parse_xsat("p xsat 3 1\n-1 2 3 0\np xsat+ 6 2\n4 5 6 0\n")
    assert err.value.line == 3


@pytest.mark.parametrize("parse, text, line", [
    (parse_dimacs_cnf, "p cnf 1_0 1\n1 2 3 0\n", 1),
    (parse_xsat, "p xsat+ ３ 1\n1 2 3 0\n", 1),
    (parse_dimacs_cnf, "p cnf 10 1\n1_0 2 3 0\n", 2),
    (parse_dimacs_cnf, "p cnf 3 1\n+1 2 3 0\n", 2),
    (parse_dimacs_cnf, "c\np cnf 3 1\n٣ 1 2 0\n", 3),
    (parse_xsat, "p xsat 3 1\n1 2 +3 0\n", 2),
], ids=["cnf-header-underscore", "xsat-header-fullwidth", "cnf-underscore",
        "cnf-plus", "cnf-arabic-indic", "xsat-plus"])
def test_integers_are_ascii_digits_with_an_optional_minus(parse, text, line):
    """``int()`` reads ``1_0``, ``+1`` and non-ASCII digits; the formats
    do not."""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    with pytest.raises(ParseError, match="negative count"):
        parse_dimacs_cnf("p cnf -1 1\n")
    assert parse_dimacs_cnf("p cnf 3 1\n01 2 3 0\n").clauses == ((1, 2, 3),)


@pytest.mark.parametrize("text, line", [
    ("p\u3000cnf 3 1\n1 2 3 0\n", 1),
    ("\ufeffp cnf 3 1\n1 2 3 0\n", 1),
    ("c\np cnf 3 1\n1 2 3 0\u00a0\n", 3),
    ("p cnf 4 2\n1 2 3 0\u20281 2 -4 0\n", 2),
    ("p cnf 3 1\n\u00a0\n1 2 3 0\n", 2),
    ("p cnf 3 1\n\u3000\u2028\u0085\n1 2 3 0\n", 2),
], ids=["ideographic-space-header", "bom-header", "nbsp-clause",
        "line-separator", "nbsp-only-line", "non-ascii-spaces-only-line"])
def test_content_lines_are_ascii(text, line):
    """Every line but a comment is ASCII, the header and a line of
    non-ASCII spaces too; a line ends at a newline only, so U+2028 joins two clauses into one
    line, which is refused."""
    for data in (text, text.encode("utf-8")):
        with pytest.raises(ParseError, match="non-ASCII text") as err:
            parse_dimacs_cnf(data)
        assert err.value.line == line
    if line == 1:
        with pytest.raises(ParseError, match="non-ASCII text") as err:
            sniff_format(text)
        assert err.value.line == 1


def test_crlf_lines_and_non_ascii_comments_parse():
    lf = "c two clauses\np cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"
    assert parse_dimacs_cnf(lf.replace("\n", "\r\n")) == parse_dimacs_cnf(lf)
    assert sniff_format(lf.replace("\n", "\r\n")) == "cnf"
    xsat = "p xsat+ 4 2\n1 2 3 0\n2 3 4 0\n"
    assert parse_xsat(xsat.replace("\n", "\r\n")) == parse_xsat(xsat)
    assert parse_dimacs_cnf("c caf\u00e9\n" + lf) == parse_dimacs_cnf(lf)


@pytest.mark.parametrize("sep", ["\r", "\x0c", "\x1c", "\x85"])
def test_only_newline_ends_a_line(sep):
    with pytest.raises(ParseError) as err:
        parse_dimacs_cnf(f"p cnf 4 2\n1 2 3 0{sep}1 2 -4 0\n")
    assert err.value.line == 2


def test_parse_xsat_rejects_more_variables_than_clauses_cover():
    with pytest.raises(ParseError, match="2 clauses can cover at most 6") as err:
        parse_xsat("c big\np xsat 7 2\n1 2 3 0\n4 5 6 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="cover at most 3"):
        parse_xsat("p xsat+ 1000000 1\n1 2 3 0\n")
    f = parse_xsat("p xsat+ 6 2\n1 2 3 0\n4 5 6 0\n")  # r = 3k is fine
    assert f.num_vars == 6


def test_parse_xsat_violation_message_is_bounded():
    # 30 copies of one clause: 29 duplicate-clause violations
    text = "p xsat+ 3 30\n" + "1 2 3 0\n" * 30
    with pytest.raises(ParseError) as err:
        parse_xsat(text)
    message = str(err.value)
    assert message.startswith("invalid instance: 29 violation(s): ")
    assert message.count("duplicate-clause") == 5
    assert message.endswith("; 24 more")


def test_parse_xsat_zero_literal():
    with pytest.raises(ParseError, match="terminator"):
        parse_xsat("p xsat+ 3 1\n1 2 0 0\n")


def test_round_trip_random_instances():
    for seed in range(12):
        f = gen_random(GenSpec(r=9, k=4 + seed % 3, seed=seed))
        assert parse_xsat(serialize_xsat(f)) == f


def test_round_trip_bottom_and_negations():
    f = XsatFormula(3, ((1, 2, BOTTOM), (-1, 2, 3)), positive=False)
    assert parse_xsat(serialize_xsat(f)) == f


def test_round_trip_cnf_reduction_output():
    cnf = parse_dimacs_cnf("p cnf 3 1\n1 -2 3 0\n")
    f = reduce_cnf_to_xsat(cnf)
    assert parse_xsat(serialize_xsat(f)) == f


def test_sniff_format():
    assert sniff_format("c hi\np cnf 3 1\n1 2 3 0\n") == "cnf"
    assert sniff_format("p xsat+ 3 1\n1 2 3 0\n") == "xsat"
    with pytest.raises(ParseError):
        sniff_format("p wat 1 1\n")


def test_emit_report_fixed_field_order(six_var):
    rep = solve(six_var, method="subst")
    line = emit_report(rep).decode()
    keys = [kv.split("=")[0] for kv in line.split()]
    assert keys == ["sat", "count", "rank", "nullity", "kernel_vars",
                    "kernel_clauses", "repr_size_bits", "method", "elapsed_ms"]
    fields = dict(kv.split("=") for kv in line.split())
    assert fields["sat"] == "true"
    assert fields["count"] == "3"
    assert fields["rank"] == "3"
    assert fields["nullity"] == "3"
    assert fields["method"] == "subst"


def test_emit_report_unsat(dense_unsat):
    line = emit_report(solve(dense_unsat)).decode()
    fields = dict(kv.split("=") for kv in line.split())
    assert fields["sat"] == "false"
    assert fields["count"] == "0"
