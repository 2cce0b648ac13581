"""Bit-exact parsing and serialization of instances and solve reports.

Two line-oriented text formats are supported.

DIMACS CNF (input of the reduction chain)::

    c comment
    p cnf <vars> <clauses>
    1 -2 3 0

Every clause must have exactly 3 literals.

XSAT (native format)::

    c comment
    p xsat <r> <k>     (negations allowed)
    p xsat+ <r> <k>    (positive fragment, negations rejected)
    1 2 3 0
    2 5 B 0

Clause tokens are variable indices, negated indices (xsat only), or the
letter ``B`` for the constant-false literal; ``0`` terminates the clause
(which is why bottom could not be spelled ``0``).
"""

from __future__ import annotations

from .formula import (
    BOTTOM,
    CnfFormula,
    Triple,
    XsatError,
    XsatFormula,
    describe_violations,
    validate,
)


class ParseError(XsatError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


def _as_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"input is not UTF-8 text (byte offset {exc.start})") from exc
    return data


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line


def _header_counts(parts: list[str], line: str, lineno: int) -> tuple[int, int]:
    """The variable and clause counts of a header line, both nonnegative."""
    try:
        counts = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"non-integer counts in header {line!r}", lineno)
    if min(counts) < 0:
        raise ParseError(f"negative count in header {line!r}", lineno)
    return counts


def parse_dimacs_cnf(data) -> CnfFormula:
    """Parse DIMACS CNF, enforcing exactly 3 literals per clause."""
    num_vars = None
    num_clauses = None
    clauses: list[Triple] = []
    for lineno, line in _content_lines(_as_text(data)):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            num_vars, num_clauses = _header_counts(parts, line, lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"non-integer token in clause {line!r}", lineno)
        if not lits or lits[-1] != 0:
            raise ParseError("clause not terminated by 0", lineno)
        lits = lits[:-1]
        if len(lits) != 3:
            raise ParseError(f"clause width {len(lits)}, expected 3", lineno)
        for l in lits:
            if l == 0 or abs(l) > num_vars:
                raise ParseError(f"index {l} out of range 1..{num_vars}", lineno)
        clauses.append(tuple(lits))  # type: ignore[arg-type]
    if num_vars is None:
        raise ParseError("missing header")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header promises {num_clauses} clauses, body has {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_xsat(data) -> XsatFormula:
    """Parse the XSAT format and reject anything ``validate`` rejects."""
    header = None
    clauses: list[Triple] = []
    positive = False
    r = k = header_line = 0
    for lineno, line in _content_lines(_as_text(data)):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] not in ("xsat", "xsat+"):
                raise ParseError(f"malformed header {line!r}", lineno)
            r, k = _header_counts(parts, line, lineno)
            positive = parts[1] == "xsat+"
            header = parts[1]
            header_line = lineno
            continue
        if header is None:
            raise ParseError("clause before header", lineno)
        toks = line.split()
        if not toks or toks[-1] != "0":
            raise ParseError("clause not terminated by 0", lineno)
        toks = toks[:-1]
        if len(toks) != 3:
            raise ParseError(f"clause width {len(toks)}, expected 3", lineno)
        lits = []
        for tok in toks:
            if tok == "B":
                lits.append(BOTTOM)
                continue
            try:
                l = int(tok)
            except ValueError:
                raise ParseError(f"bad literal token {tok!r}", lineno)
            if l == 0:
                raise ParseError("0 is the clause terminator, use B for bottom",
                                 lineno)
            if l < 0 and positive:
                raise ParseError(f"negated literal {l} in xsat+ input", lineno)
            if abs(l) > r:
                raise ParseError(f"index {l} out of range 1..{r}", lineno)
            lits.append(l)
        clauses.append(tuple(lits))  # type: ignore[arg-type]
    if header is None:
        raise ParseError("missing header")
    if len(clauses) != k:
        raise ParseError(f"header promises {k} clauses, body has {len(clauses)}")
    if r > 3 * k:
        # every variable must be covered, and a clause covers at most 3
        raise ParseError(f"header declares {r} variables but {k} clauses can "
                         f"cover at most {3 * k}", header_line)
    f = XsatFormula(r, tuple(clauses), positive=positive)
    violations = validate(f)
    if violations:
        raise ParseError("invalid instance: " + describe_violations(violations))
    return f


def _lit_token(lit: int) -> str:
    return "B" if lit == BOTTOM else str(lit)


def serialize_xsat(f: XsatFormula) -> bytes:
    """Emit the canonical text form; parse(serialize(f)) == f."""
    tag = "xsat+" if f.positive else "xsat"
    lines = [f"p {tag} {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(_lit_token(l) for l in clause) + " 0")
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_cnf(f: CnfFormula) -> bytes:
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return ("\n".join(lines) + "\n").encode("utf-8")


def sniff_format(data) -> str:
    """Return "cnf" or "xsat" according to the first header line."""
    for _, line in _content_lines(_as_text(data)):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "cnf":
                return "cnf"
            if len(parts) >= 2 and parts[1] in ("xsat", "xsat+"):
                return "xsat"
            raise ParseError(f"unrecognized header {line!r}")
    raise ParseError("missing header")


REPORT_FIELDS = ("sat", "count", "rank", "nullity", "kernel_vars",
                 "kernel_clauses", "repr_size_bits", "method", "elapsed_ms")


def emit_report(rep) -> bytes:
    """One machine-readable line, fixed field order, integers in decimal."""
    parts = []
    for name in REPORT_FIELDS:
        value = getattr(rep, name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.4f}"
        else:
            text = str(value)
        parts.append(f"{name}={text}")
    return (" ".join(parts) + "\n").encode("utf-8")
