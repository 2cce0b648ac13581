"""Command-line front end and benchmark harness.

Subcommands: solve, count, kernel, reduce, gen, bench, verify.  CNF inputs
are detected by header and pushed through the full reduction chain, so the
tool doubles as an exact 3-CNF model counter.  Exit codes follow solver
conventions: 10 satisfiable, 20 unsatisfiable, 0 for count/report modes,
1 unusable input (unreadable file, parse or validation failure), 2 capacity
exceeded or a bad command line, 3 verification disagreement.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .formula import CapacityError, XsatError, XsatFormula
from .generator import GenSpec, SpecError, SplitMix64, generate
from .io import (
    emit_report,
    parse_dimacs_cnf,
    parse_xsat,
    serialize_xsat,
    sniff_format,
)
from .kernel import (
    DEFAULT_MAX_FREE,
    count_kernel,
    extract_kernel,
    kernel_from_substitution,
    size_bounds,
    solve,
)
from .linsys import encode_sys, gauss_jordan
from .oracle import naive_count
from .reductions import (
    ReductionTrace,
    reduce_cnf_to_xsat,
    reduce_xsat_to_positive,
)
from .substitution import initial_state, substitute

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPACITY = 2
EXIT_DISAGREE = 3
EXIT_SAT = 10
EXIT_UNSAT = 20


def _load_positive(path: str) -> tuple[XsatFormula,
                                      list[tuple[str, ReductionTrace]]]:
    """Read a file and return a positive instance, reducing as needed,
    with the ``(name, trace)`` of each reduction applied."""
    data = Path(path).read_bytes()
    traces = []
    if sniff_format(data) == "cnf":
        f, trace = reduce_cnf_to_xsat(parse_dimacs_cnf(data))
        traces.append(("cnf-to-xsat", trace))
    else:
        f = parse_xsat(data)
    if not f.positive or any(l < 0 for c in f.clauses for l in c):
        f, trace = reduce_xsat_to_positive(f)
        traces.append(("positivize", trace))
    return f, traces


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cmd_solve(args) -> int:
    f, _ = _load_positive(args.input)
    rep = solve(f, method=args.method, max_free=args.max_free,
                want_witnesses=args.witnesses > 0, witness_cap=args.witnesses)
    sys.stdout.write(emit_report(rep).decode("utf-8"))
    if args.witnesses > 0 and rep.witnesses is not None:
        for w in rep.witnesses[:args.witnesses]:
            print("w " + "".join(str(b) for b in w))
    if args.count:
        return EXIT_OK
    return EXIT_SAT if rep.sat else EXIT_UNSAT


def cmd_count(args) -> int:
    f, _ = _load_positive(args.input)
    rep = solve(f, method=args.method, max_free=args.max_free)
    print(rep.count)
    return EXIT_OK


def cmd_kernel(args) -> int:
    """Emit the residual 0/1 equality program as text."""
    f, _ = _load_positive(args.input)
    if args.method == "gauss":
        kern = extract_kernel(gauss_jordan(encode_sys(f)))
    else:
        kern = kernel_from_substitution(substitute(initial_state(f)))
    print(f"p ipe {kern.width} {len(kern.rows)}")
    for row in kern.rows:
        coeffs = " ".join(_frac_str(c) for c in row.coeffs)
        line = f"{coeffs} = {_frac_str(row.rhs)}" if kern.width else f"= {_frac_str(row.rhs)}"
        print(line)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f, traces = _load_positive(args.input)
    for name, t in traces:
        print(f"c {name}: vars {t.size_before[0]}->{t.size_after[0]} "
              f"clauses {t.size_before[1]}->{t.size_after[1]}")
    sys.stdout.write(serialize_xsat(f).decode("utf-8"))
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(r=args.r, k=args.k, seed=args.seed, family=args.family)
    f = generate(spec)
    print(f"c spec r={spec.r} k={spec.k} seed={spec.seed} family={spec.family}")
    sys.stdout.write(serialize_xsat(f).decode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

@dataclass(frozen=True)
class BenchRow:
    """One instance's measurements, emitted as a single key=value line."""

    r: int
    k: int
    seed: int
    family: str
    eta: int
    eta_bar: int
    kappa: Fraction
    kernel_width: int
    count: int
    repr_size_bits: float
    bound_lo: float
    bound_hi: float
    t_encode_us: int
    t_eliminate_us: int
    t_enumerate_us: int

    def line(self) -> str:
        return (f"r={self.r} k={self.k} seed={self.seed} family={self.family} "
                f"eta={self.eta} eta_bar={self.eta_bar} kappa={self.kappa} "
                f"width={self.kernel_width} count={self.count} "
                f"repr_bits={self.repr_size_bits:.4f} "
                f"lo={self.bound_lo:.4f} hi={self.bound_hi:.4f} "
                f"t_encode_us={self.t_encode_us} "
                f"t_eliminate_us={self.t_eliminate_us} "
                f"t_enumerate_us={self.t_enumerate_us}")


def timed_enumeration(kern, max_free: int = DEFAULT_MAX_FREE,
                      floor_s: float = 0.05, max_reps: int = 32) -> tuple[int, float]:
    """(count, seconds) for one enumeration pass, repeated to a timing floor
    for small kernels; the minimum single-pass time is reported."""
    best = None
    count = 0
    spent = 0.0
    reps = 0
    while reps < max_reps:
        t0 = time.perf_counter()
        count, _ = count_kernel(kern, max_free=max_free)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        spent += dt
        reps += 1
        if spent >= floor_s:
            break
    return count, best or 0.0


def bench_instance(f: XsatFormula, spec: GenSpec, method: str,
                   max_free: int) -> BenchRow:
    rep = solve(f, method=method, max_free=max_free)
    if method == "gauss":
        kern = extract_kernel(gauss_jordan(encode_sys(f)))
    else:
        kern = kernel_from_substitution(substitute(initial_state(f)))
    count, enum_s = timed_enumeration(kern, max_free=max_free)
    lo, hi = size_bounds(f.num_vars)
    return BenchRow(
        r=f.num_vars, k=f.num_clauses, seed=spec.seed, family=spec.family,
        eta=rep.rank, eta_bar=rep.nullity,
        kappa=Fraction(f.num_clauses, f.num_vars),
        kernel_width=kern.width, count=count,
        repr_size_bits=rep.repr_size_bits, bound_lo=lo, bound_hi=hi,
        t_encode_us=rep.phase_us[0], t_eliminate_us=rep.phase_us[1],
        t_enumerate_us=round(enum_s * 1e6),
    )


def _bench_cell(cell) -> list[tuple]:
    """Worker: one (r, k, seeds, family, method, max_free) cell.

    Returns (ok, row-or-message) pairs so capacity skips are reported, never
    silently dropped.
    """
    r, k, seeds, family, method, max_free = cell
    out = []
    for seed in seeds:
        spec = GenSpec(r=r, k=k, seed=seed, family=family)
        try:
            f = generate(spec)
            row = bench_instance(f, spec, method, max_free)
            out.append((True, row))
        except CapacityError as exc:
            out.append((False, f"skip r={r} k={k} seed={seed}: {exc}"))
        except SpecError as exc:
            out.append((False, f"skip r={r} k={k} seed={seed}: {exc}"))
    return out


def fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of y against x; None when x has no spread."""
    n = len(points)
    if n < 2:
        return None
    mx = sum(p[0] for p in points) / n
    my = sum(p[1] for p in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def cmd_bench(args) -> int:
    jobs = args.jobs or int(os.environ.get("XSAT_JOBS", "1"))
    cells = []
    skipped_cells = []
    if args.family == "fixed-rank":
        lo, hi = _parse_range(args.nullity_range)
        for eta_bar in range(lo, hi + 1):
            cells.append((args.rank + eta_bar, args.rank, (args.seed,),
                          "fixed-rank", args.method, args.max_free))
    else:
        r_lo, r_hi = _parse_range(args.r_range)
        kappas = [Fraction(t) for t in args.kappa.split(",")]
        for r in range(r_lo, r_hi + 1):
            for kap in kappas:
                k = kap * r
                if k.denominator != 1:
                    skipped_cells.append(
                        f"skip r={r} kappa={kap}: k = {k} not integral")
                    continue
                seeds = tuple(args.seed ^ (r * 1009 + int(k) * 9176 + i)
                              for i in range(args.per_cell))
                cells.append((r, int(k), seeds, "random", args.method,
                              args.max_free))

    results: list[tuple] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_bench_cell, cells):
                results.extend(chunk)
    else:
        for cell in cells:
            results.extend(_bench_cell(cell))

    out = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    rows: list[BenchRow] = []
    try:
        for msg in skipped_cells:
            print(f"c {msg}", file=out)
        for ok, payload in results:
            if ok:
                rows.append(payload)
                print(payload.line(), file=out)
            else:
                print(f"c {payload}", file=out)
        points = [(row.eta_bar, math.log2(row.t_enumerate_us))
                  for row in rows if row.t_enumerate_us > 0]
        slope = fit_slope(points)
        if slope is not None:
            in_band = 0.7 <= slope <= 1.3
            print(f"c slope log2(t_enumerate) vs eta_bar = {slope:.3f} "
                  f"({'within' if in_band else 'OUTSIDE'} [0.7, 1.3])", file=out)
        by_kappa: dict[Fraction, list[BenchRow]] = {}
        for row in rows:
            by_kappa.setdefault(row.kappa, []).append(row)
        for kap in sorted(by_kappa):
            group = by_kappa[kap]
            mean_nullity = sum(r.eta_bar for r in group) / len(group)
            mean_enum = sum(r.t_enumerate_us for r in group) / len(group)
            print(f"c kappa={kap} cells={len(group)} "
                  f"mean_eta_bar={mean_nullity:.2f} "
                  f"mean_t_enumerate_us={mean_enum:.0f}", file=out)
        for row in rows:
            if not (row.bound_lo <= row.repr_size_bits <= row.bound_hi + 1e-9):
                print(f"c size-bound violation: r={row.r} k={row.k} "
                      f"seed={row.seed} repr_bits={row.repr_size_bits:.4f} "
                      f"band=[{row.bound_lo:.4f}, {row.bound_hi:.4f}]", file=out)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _counts_disagree(f: XsatFormula, max_free: int) -> tuple[int, int, int] | None:
    g = solve(f, method="gauss", max_free=max_free).count
    s = solve(f, method="subst", max_free=max_free).count
    n = naive_count(f)
    if g == s == n:
        return None
    return g, s, n


def _compact(f: XsatFormula, drop: int) -> XsatFormula:
    """Remove clause ``drop`` and renumber the surviving variables."""
    clauses = [c for i, c in enumerate(f.clauses) if i != drop]
    used = sorted({l for c in clauses for l in c if l != 0})
    remap = {v: i + 1 for i, v in enumerate(used)}
    new = tuple(tuple(remap[l] if l else 0 for l in c) for c in clauses)
    return XsatFormula(len(used), new, positive=f.positive)


def shrink_disagreement(f: XsatFormula, max_free: int) -> XsatFormula:
    """Greedy delta debugging: drop clauses while the disagreement persists."""
    changed = True
    while changed:
        changed = False
        for i in range(f.num_clauses):
            candidate = _compact(f, i)
            try:
                if candidate.num_clauses and _counts_disagree(candidate, max_free):
                    f = candidate
                    changed = True
                    break
            except XsatError:
                continue
    return f


def cmd_verify(args) -> int:
    if args.trials <= 0:
        print("c warning: 0 trials requested, nothing verified")
        return EXIT_OK
    rng = SplitMix64(args.seed)
    for trial in range(args.trials):
        r = 6 + rng.randbelow(max(1, args.r_max - 5))
        k_lo = math.ceil(r / 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        spec = GenSpec(r=r, k=k, seed=args.seed ^ trial, family="random")
        f = generate(spec)
        disagreement = _counts_disagree(f, args.max_free)
        if disagreement:
            g, s, n = disagreement
            small = shrink_disagreement(f, args.max_free)
            path = os.path.join(args.out_dir, f"disagreement_{trial}.xsat")
            with open(path, "wb") as fh:
                fh.write(serialize_xsat(small))
            print(f"c disagreement at trial {trial}: gauss={g} subst={s} "
                  f"oracle={n}; repro written to {path}")
            return EXIT_DISAGREE
    print(f"c verified: {args.trials} trials, all three counts agree")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xsat")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--method", choices=("gauss", "subst"), default="gauss")
        sp.add_argument("--max-free", type=_nonnegative,
                        default=DEFAULT_MAX_FREE)

    sp = sub.add_parser("solve", help="solve and print a report record")
    add_common(sp)
    sp.add_argument("--count", action="store_true",
                    help="count mode: exit 0 instead of 10/20")
    sp.add_argument("--witnesses", type=_nonnegative, default=0, metavar="N",
                    help="print up to N satisfying assignments")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("count", help="print the exact model count")
    add_common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("kernel", help="print the residual 0/1 program")
    add_common(sp)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("reduce", help="reduce CNF/XSAT input to positive XSAT")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("gen", help="generate an instance")
    sp.add_argument("--family", choices=("random", "partition", "fib-chain",
                                         "fixed-rank"), default="random")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="sweep ensembles and record measurements")
    sp.add_argument("--r-range", default="6..15")
    sp.add_argument("--kappa", default="1/3,1/2,2/3,1")
    sp.add_argument("--per-cell", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--method", choices=("gauss", "subst"), default="gauss")
    sp.add_argument("--family", choices=("random", "fixed-rank"),
                    default="random")
    sp.add_argument("--rank", type=int, default=11,
                    help="row rank for the fixed-rank family")
    sp.add_argument("--nullity-range", default="12..22",
                    help="eta-bar sweep for the fixed-rank family")
    sp.add_argument("--jobs", type=int, default=0,
                    help="parallel cells (default: XSAT_JOBS or 1)")
    sp.add_argument("--max-free", type=_nonnegative,
                    default=DEFAULT_MAX_FREE)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("verify", help="cross-check both methods and the oracle")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--r-max", type=int, default=18)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--max-free", type=_nonnegative,
                    default=DEFAULT_MAX_FREE)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (XsatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
