"""Bit-exact parsing and serialization of instances and solve reports.

Two line-oriented text formats are supported, read by one line reader and
written by one writer.  The line rules are shared: a line ends at a
newline only, and surrounding whitespace, a carriage return before the
newline included, is dropped; lines starting with ``c`` are skipped,
every other line is ASCII text, and blank ones are skipped too; there is
exactly one header, ``p <tag> <vars> <clauses>``, which has two
nonnegative integer counts and comes before any clause; every other line
is one clause of exactly three tokens followed by the token ``0``; and
the body holds as many clauses as the header promises.  An integer is
written in ASCII decimal digits with an optional leading ``-``.

DIMACS CNF (input of the reduction chain), tag ``cnf``::

    c comment
    p cnf <vars> <clauses>
    1 -2 3 0

A CNF token is a nonzero integer whose absolute value is at most <vars>.

XSAT (native format)::

    c comment
    p xsat <r> <k>     (negations allowed)
    p xsat+ <r> <k>    (positive fragment, negations rejected)
    1 2 3 0
    2 5 B 0

An XSAT token is a variable index, a negated index (xsat only), or the
letter ``B`` for the constant-false literal; ``0`` is refused since it
terminates the clause (which is why bottom could not be spelled ``0``).
The header may declare at most three variables per clause, and the parsed
instance must pass ``validate``.
"""

from __future__ import annotations

from .formula import (
    BOTTOM,
    CnfFormula,
    Triple,
    XsatError,
    XsatFormula,
    describe_violations,
)


CLIP_CHARS = 60


def clip(text) -> str:
    """``str(text)``, cut after ``CLIP_CHARS`` characters and marked with
    its full length when longer, so a message that quotes input, or a
    number read from it, stays one short line."""
    text = str(text)
    if len(text) <= CLIP_CHARS:
        return text
    return f"{text[:CLIP_CHARS]}...[{len(text)} chars]"


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
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("c"):
            continue
        if not raw.isascii():
            raise ParseError(f"non-ASCII text in {clip(raw)!r}", lineno)
        if line:
            yield lineno, line


def _integer(tok: str) -> int:
    """ASCII decimal digits with an optional leading ``-``; ``int()`` alone
    also takes ``+``, ``_`` and non-ASCII digits."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(tok)
    return int(tok)


def _read(data, tags: tuple[str, ...], clause):
    """The header's tag, variable count and line, and the clauses.

    Applies the shared line rules; ``clause(toks, line, tag, num_vars)``
    turns the three tokens of a clause line into a triple, or raises
    ``ValueError`` with the message to report at that line.  A line the
    converter accepts is then held to ASCII integers: ``int()`` also reads
    ``+`` and ``_`` (and non-ASCII digits, which no line here holds).
    """
    tag = None
    clauses: list[Triple] = []
    for lineno, line in _content_lines(_as_text(data)):
        toks = line.split()
        if line.startswith("p"):
            if tag is not None:
                raise ParseError(f"second header {clip(line)!r}", lineno)
            if len(toks) != 4 or toks[1] not in tags:
                raise ParseError(f"malformed header {clip(line)!r}", lineno)
            try:
                num_vars, num_clauses = _integer(toks[2]), _integer(toks[3])
            except ValueError:
                raise ParseError(
                    f"non-integer counts in header {clip(line)!r}", lineno)
            if min(num_vars, num_clauses) < 0:
                raise ParseError(
                    f"negative count in header {clip(line)!r}", lineno)
            tag, header_line = toks[1], lineno
            continue
        if tag is None:
            raise ParseError("clause before header", lineno)
        if toks[-1] != "0":
            raise ParseError("clause not terminated by 0", lineno)
        if len(toks) != 4:
            raise ParseError(f"clause width {len(toks) - 1}, expected 3", lineno)
        try:
            clauses.append(clause(toks[:3], line, tag, num_vars))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if "_" in line or "+" in line:
            raise ParseError(f"'+' or '_' in clause {clip(line)!r}", lineno)
    if tag is None:
        raise ParseError("missing header")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"header promises {clip(num_clauses)} clauses, "
            f"body has {len(clauses)}")
    return tag, num_vars, header_line, clauses


def _cnf_clause(toks, line, tag, num_vars) -> Triple:
    try:
        lits = [int(tok) for tok in toks]
    except ValueError:
        raise ValueError(f"non-integer token in clause {clip(line)!r}") from None
    for l in lits:
        if l == 0 or abs(l) > num_vars:
            raise ValueError(f"index {clip(l)} out of range 1..{clip(num_vars)}")
    return tuple(lits)  # type: ignore[return-value]


def _xsat_clause(toks, line, tag, r) -> Triple:
    lits = []
    for tok in toks:
        if tok == "B":
            lits.append(BOTTOM)
            continue
        try:
            l = int(tok)
        except ValueError:
            raise ValueError(f"bad literal token {clip(tok)!r}") from None
        if l == 0:
            raise ValueError("0 is the clause terminator, use B for bottom")
        if l < 0 and tag == "xsat+":
            raise ValueError(f"negated literal {clip(l)} in xsat+ input")
        if abs(l) > r:
            raise ValueError(f"index {clip(l)} out of range 1..{clip(r)}")
        lits.append(l)
    return tuple(lits)  # type: ignore[return-value]


def parse_dimacs_cnf(data) -> CnfFormula:
    """Parse DIMACS CNF, enforcing exactly 3 literals per clause."""
    _, num_vars, _, clauses = _read(data, ("cnf",), _cnf_clause)
    return CnfFormula(num_vars, tuple(clauses))


def parse_xsat(data) -> XsatFormula:
    """Parse the XSAT format and reject anything ``validate`` rejects; the
    formula returned keeps that result as its ``violations``."""
    tag, r, header_line, clauses = _read(data, ("xsat", "xsat+"), _xsat_clause)
    k = len(clauses)
    if r > 3 * k:
        # every variable must be covered, and a clause covers at most 3
        raise ParseError(f"header declares {clip(r)} variables but {k} "
                         f"clauses can cover at most {3 * k}", header_line)
    f = XsatFormula(r, tuple(clauses), positive=tag == "xsat+")
    if f.violations:
        raise ParseError("invalid instance: " + describe_violations(f.violations))
    return f


def _write(tag: str, f) -> bytes:
    lines = [f"p {tag} {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join("B" if l == BOTTOM else str(l) for l in clause)
                     + " 0")
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_xsat(f: XsatFormula) -> bytes:
    """Emit the canonical text form; parse(serialize(f)) == f."""
    return _write("xsat+" if f.positive else "xsat", f)


def serialize_cnf(f: CnfFormula) -> bytes:
    return _write("cnf", f)


def sniff_format(data) -> str:
    """Return "cnf" or "xsat" according to the first header line."""
    for _, line in _content_lines(_as_text(data)):
        if line.startswith("p"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "cnf":
                return "cnf"
            if len(parts) >= 2 and parts[1] in ("xsat", "xsat+"):
                return "xsat"
            raise ParseError(f"unrecognized header {clip(line)!r}")
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
