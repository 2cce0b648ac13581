"""Spans and work counts at the boundaries between xsat modules.

The tracer rebinds names that one xsat module imported from another (for
example ``xsat.kernel.gauss_jordan`` or ``xsat.cli.solve``) to wrappers
that record a span: name, start, end, parent span and op id.  Spans stay
in memory and are written out when the run ends.  Work counts are computed
from a wrapped call's arguments and result after the op has finished, so
the counting itself is never inside a measured op.

A name that a later refactor removed is reported as absent and its layer
reads zero; the untraced run never touches this module.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  The module is the importer: rebinding the
# name there is what routes that module's calls through the wrapper.
BINDINGS = (
    ("xsat.cli", "main", "cli.main"),
    ("xsat.cli", "sniff_format", "io.sniff_format"),
    ("xsat.cli", "parse_dimacs_cnf", "io.parse_dimacs_cnf"),
    ("xsat.cli", "parse_xsat", "io.parse_xsat"),
    ("xsat.cli", "emit_report", "io.emit_report"),
    ("xsat.cli", "reduce_cnf_to_xsat", "reductions.reduce_cnf_to_xsat"),
    ("xsat.cli", "reduce_xsat_to_positive", "reductions.reduce_xsat_to_positive"),
    ("xsat.cli", "solve", "kernel.solve"),
    ("xsat.io", "validate", "formula.validate"),
    ("xsat.kernel", "solve", "kernel.solve"),
    ("xsat.kernel", "check_valid", "formula.check_valid"),
    ("xsat.kernel", "encode_sys", "linsys.encode_sys"),
    ("xsat.kernel", "gauss_jordan", "linsys.gauss_jordan"),
    ("xsat.kernel", "extract_kernel", "kernel.extract_kernel"),
    ("xsat.kernel", "initial_state", "substitution.initial_state"),
    ("xsat.kernel", "substitute", "substitution.substitute"),
    ("xsat.kernel", "rank_of_subst", "substitution.rank_of_subst"),
    ("xsat.kernel", "kernel_from_substitution", "kernel.kernel_from_substitution"),
    ("xsat.kernel", "count_kernel", "kernel.count_kernel"),
    ("xsat.kernel", "repr_size", "substitution.repr_size"),
    ("xsat.oracle", "naive_count", "oracle.naive_count"),
)

# span name -> layer metric its self time is added to.  Substitution spans
# depend on the method of the enclosing solve, see _layer_of.
TIME_METRIC = {
    "cli.main": "cli.self_ms",
    "io.sniff_format": "io.parse_ms",
    "io.parse_dimacs_cnf": "io.parse_ms",
    "io.parse_xsat": "io.parse_ms",
    "io.emit_report": "io.emit_ms",
    "reductions.reduce_cnf_to_xsat": "reductions.ms",
    "reductions.reduce_xsat_to_positive": "reductions.ms",
    "formula.validate": "formula.validate_ms",
    "formula.check_valid": "formula.validate_ms",
    "linsys.encode_sys": "linsys.encode_ms",
    "linsys.gauss_jordan": "linsys.eliminate_ms",
    "kernel.extract_kernel": "kernel.extract_ms",
    "kernel.kernel_from_substitution": "kernel.extract_ms",
    "kernel.count_kernel": "kernel.count_ms",
    "kernel.solve": "kernel.self_ms",
    "substitution.repr_size": "substitution.repr_ms",
    "oracle.naive_count": "oracle.count_ms",
}

TIME_METRICS = ("cli.self_ms", "io.parse_ms", "io.emit_ms", "reductions.ms",
                "formula.validate_ms", "linsys.encode_ms", "linsys.eliminate_ms",
                "substitution.rewrite_ms", "substitution.repr_ms",
                "kernel.extract_ms", "kernel.count_ms", "kernel.self_ms",
                "oracle.count_ms")

# counts combined by max over a pass; every other count is summed
MAX_COUNTS = ("linsys.max_entry_bits", "kernel.width")
COUNT_METRICS = ("io.input_bytes", "reductions.vars_out", "reductions.clauses_out",
                 "linsys.rank", "linsys.rref_nnz", "linsys.max_entry_bits",
                 "substitution.expansion_total", "kernel.width", "kernel.rows",
                 "kernel.filter_groups", "kernel.gray_steps", "oracle.assignments")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _input_counts(args, kwargs, result):
    return {"io.input_bytes": len(_arg(args, kwargs, 0, "data"))}


def _reduction_counts(args, kwargs, result):
    f, _ = result
    return {"reductions.vars_out": f.num_vars, "reductions.clauses_out": f.num_clauses}


def _rref_counts(args, kwargs, result):
    entries = [x for row in result.matrix.entries for x in row if x]
    bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in entries), default=0)
    return {"linsys.rank": result.rank, "linsys.rref_nnz": len(entries),
            "linsys.max_entry_bits": bits}


def _kernel_counts(args, kwargs, result):
    pivots = defaultdict(int)
    for row in result.rows:
        pivots[row.pivot_var] += 1
    return {"kernel.width": len(result.free_vars), "kernel.rows": len(result.rows),
            "kernel.filter_groups": sum(1 for n in pivots.values() if n > 1)}


def _walk_counts(args, kwargs, result):
    # computed, not counted: the flat walk visits 2^(width - prefix) points
    kern = _arg(args, kwargs, 0, "kern")
    prefix = _arg(args, kwargs, 4, "prefix", ())
    return {"kernel.gray_steps": 1 << (len(kern.free_vars) - len(prefix))}


def _expansion_counts(args, kwargs, result):
    return {"substitution.expansion_total":
            sum(c.expansion_size for c in result.constraints)}


def _oracle_counts(args, kwargs, result):
    # computed, not counted: the oracle visits all 2^r assignments
    return {"oracle.assignments": 1 << _arg(args, kwargs, 0, "f").num_vars}


COUNTERS = {
    "io.sniff_format": _input_counts,
    "reductions.reduce_xsat_to_positive": _reduction_counts,
    "linsys.gauss_jordan": _rref_counts,
    "kernel.extract_kernel": _kernel_counts,
    "kernel.kernel_from_substitution": _kernel_counts,
    "kernel.count_kernel": _walk_counts,
    "substitution.substitute": _expansion_counts,
    "oracle.naive_count": _oracle_counts,
}


class Tracer:
    """Records spans while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, tag]
        self.stack: list[int] = []
        self.op = -1
        self.pending: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.saved: list[tuple] = []
        self.origin = time.perf_counter()

    def install(self) -> None:
        for modname, attr, span_name in BINDINGS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{modname}.{attr}" not in self.absent:
                    self.absent.append(f"{modname}.{attr}")
                continue
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        tag_method = name == "kernel.solve"

        def wrapper(*args, **kwargs):
            tag = _arg(args, kwargs, 1, "method", "gauss") if tag_method else None
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, tag]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self.pending.append((name, counter, args, kwargs, result))
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Turn the finished op's call records into work counts."""
        for name, counter, args, kwargs, result in self.pending:
            try:
                values = counter(args, kwargs, result)
            except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                if f"counts of {name}" not in self.absent:
                    self.absent.append(f"counts of {name}")
                continue
            for key, value in values.items():
                old = self.counts.get(key, 0)
                self.counts[key] = max(old, value) if key in MAX_COUNTS else old + value
        self.pending.clear()
        self.op = -1

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = self.counts, {}
        return counts

    def _layer_of(self, idx: int) -> str | None:
        name = self.spans[idx][0]
        if name.startswith("substitution.") and name != "substitution.repr_size":
            parent = self.spans[idx][3]
            while parent >= 0 and self.spans[parent][0] != "kernel.solve":
                parent = self.spans[parent][3]
            # under gauss the substitution pass only feeds repr_size_bits
            method = self.spans[parent][5] if parent >= 0 else "subst"
            return "substitution.repr_ms" if method == "gauss" else "substitution.rewrite_ms"
        return TIME_METRIC.get(name)

    def self_ms(self, ops: set[int]) -> dict[str, float]:
        """Summed self time per layer metric over the spans of ``ops``."""
        child = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0 and op in ops:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for idx, (name, start, end, parent, op, _) in enumerate(self.spans):
            if op in ops:
                layer = self._layer_of(idx)
                if layer is not None:
                    out[layer] += (end - start - child[idx]) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, tag in self.spans:
                rec = {"name": name, "start": start - self.origin,
                       "end": end - self.origin, "parent": parent, "op": op}
                if tag is not None:
                    rec["method"] = tag
                fh.write(json.dumps(rec) + "\n")
