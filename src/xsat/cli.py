"""Command-line front end and benchmark harness.

Subcommands: solve, count, kernel, reduce, gen, bench, verify.  An input
file is read once, and its header's tag says whether it holds XSAT or
CNF.  CNF is encoded as one carry row per clause, so the tool doubles as
an exact 3-CNF model counter; only ``xsat reduce`` runs the paper's
chain to positive XSAT.  Exit codes follow solver conventions:
10 satisfiable, 20 unsatisfiable, 0 for count/report modes, 1 unusable
input (unreadable file, parse or validation failure), 2 capacity exceeded
or a bad command line, 3 verification disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from .formula import BOTTOM, CapacityError, CnfFormula, XsatError, XsatFormula, kappa
from .generator import FAMILIES, GenSpec, SpecError, SplitMix64, generate
from .io import clip, emit_report, parse, serialize_xsat
from .kernel import (
    DEFAULT_MAX_FREE,
    METHODS,
    build_kernel,
    count_blocks,
    count_kernel,
    profile_total_within_bounds,
    size_bounds,
    solve,
)
from .linsys import encode_sys, gauss_jordan
from .oracle import ORACLE_CAP, naive_models
from .reductions import reduce_cnf_to_xsat, reduce_xsat_to_positive
from .substitution import expansion_profile

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPACITY = 2
EXIT_DISAGREE = 3
EXIT_SAT = 10
EXIT_UNSAT = 20


def _load(path: str) -> XsatFormula | CnfFormula:
    """Read a file and return the XSAT instance, negations kept, or the
    CNF it holds, as its header's tag says; ``parse`` has validated an
    XSAT instance."""
    f = parse(Path(path).read_bytes())
    if isinstance(f, CnfFormula):
        # xsat reduce keeps every source variable, and each must be covered
        unused = f.num_vars - len({abs(l) for c in f.clauses for l in c})
        if unused:
            raise XsatError(f"{clip(unused)} of the {clip(f.num_vars)} "
                            "declared variables appear in no clause")
    return f


def cmd_solve(args) -> int:
    f = _load(args.input)
    rep = solve(f, method=args.method, max_free=args.max_free,
                witness_cap=args.witnesses or None)
    sys.stdout.write(emit_report(rep).decode("utf-8"))
    # a CNF model is the witness's source part, after the m carries a_j
    m = f.num_clauses if isinstance(f, CnfFormula) else 0
    for w in rep.witnesses or ():
        print("w " + "".join(str(b) for b in w[m:m + f.num_vars]))
    if args.count:
        return EXIT_OK
    return EXIT_SAT if rep.sat else EXIT_UNSAT


def cmd_count(args) -> int:
    rep = solve(_load(args.input), method=args.method, max_free=args.max_free)
    print(rep.count)
    return EXIT_OK


def cmd_kernel(args) -> int:
    """Emit the residual 0/1 equality program as text."""
    system = encode_sys(_load(args.input))
    kern = build_kernel(system, args.method)
    # the rewrite flags only an input row with no variable column;
    # elimination decides whether any rational solution exists
    inconsistent = (kern.inconsistent if args.method == "gauss"
                    else gauss_jordan(system).inconsistent)
    if inconsistent:
        print("c inconsistent: the equations have no rational solution")
    print(f"p ipe {kern.nullity} {len(kern.rows)}")
    for row, pivot in zip(kern.rows, kern.pivot_cols):
        *coeffs, rhs = (Fraction(row.get(c, 0), row[pivot])
                        for c in kern.free_cols + (kern.num_vars,))
        print(*coeffs, "=", rhs)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f = _load(args.input)
    steps = []
    if isinstance(f, CnfFormula):
        src, f = f, reduce_cnf_to_xsat(f)
        steps.append(("cnf-to-xsat", src, f))
    # xsat input without negations is reduced too, so that it prints as xsat+
    if not f.positive:
        src, f = f, reduce_xsat_to_positive(f)
        steps.append(("positivize", src, f))
    for name, before, after in steps:
        print(f"c {name}: vars {before.num_vars}->{after.num_vars} "
              f"clauses {before.num_clauses}->{after.num_clauses}")
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

ENUM_FLOOR_S = 0.05
ENUM_MAX_REPS = 32


def timed_enumeration(kern, max_free: int = DEFAULT_MAX_FREE) -> tuple[int, float]:
    """(count, seconds) for one enumeration pass, repeated until the passes
    add up to ``ENUM_FLOOR_S``, at most ``ENUM_MAX_REPS`` times; the minimum
    single-pass time is reported."""
    best = math.inf
    spent = 0.0
    for _ in range(ENUM_MAX_REPS):
        t0 = time.perf_counter()
        count = count_kernel(kern, max_free=max_free)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        if spent >= ENUM_FLOOR_S:
            break
    return count, best


def bench_instance(f: XsatFormula, spec: GenSpec, method: str,
                   max_free: int) -> dict:
    """One instance's measurements, keyed by the names a bench line prints."""
    rep = solve(f, method=method, max_free=max_free)
    _, enum_s = timed_enumeration(rep.kernel, max_free=max_free)
    lo, hi = size_bounds(f.num_vars)
    return {"r": f.num_vars, "k": f.num_clauses, "seed": spec.seed,
            "family": spec.family, "eta": rep.rank, "eta_bar": rep.nullity,
            "kappa": kappa(f), "width": rep.kernel_vars, "count": rep.count,
            "repr_bits": rep.repr_size_bits, "lo": lo, "hi": hi,
            "t_encode_us": rep.phase_us[0], "t_eliminate_us": rep.phase_us[1],
            "t_enumerate_us": round(enum_s * 1e6)}


def bench_line(rec: dict) -> str:
    """The record as ``key=value`` pairs in its order, floats to 4 places."""
    return " ".join(f"{key}={value:.4f}" if isinstance(value, float)
                    else f"{key}={value}" for key, value in rec.items())


def fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of y against x; None for fewer than two points
    or when x has no spread."""
    try:
        return statistics.linear_regression([x for x, _ in points],
                                            [y for _, y in points]).slope
    except statistics.StatisticsError:
        return None


def cmd_bench(args) -> int:
    skips = []
    specs = []
    if args.family == "fixed-rank":
        lo, hi = args.nullity_range
        specs = [GenSpec(r=args.rank + eta_bar, k=args.rank, seed=args.seed,
                         family="fixed-rank") for eta_bar in range(lo, hi + 1)]
    else:
        r_lo, r_hi = args.r_range
        for r in range(r_lo, r_hi + 1):
            for kap in args.kappa:
                k = kap * r
                if k.denominator != 1:
                    skips.append(f"skip r={r} kappa={kap}: k = {k} not integral")
                    continue
                specs += [GenSpec(r=r, k=int(k), family="random",
                                  seed=args.seed ^ (r * 1009 + int(k) * 9176 + i))
                          for i in range(args.per_cell)]

    recs: list[dict] = []
    outside: list[dict] = []  # the records whose profile total leaves the band
    with (open(args.out, "a", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        for msg in skips:
            print(f"c {msg}", file=out)
        # each line is written as soon as it is measured; capacity and spec
        # failures are reported as skips, never silently dropped
        for spec in specs:
            try:
                f = generate(spec)
                rec = bench_instance(f, spec, args.method, args.max_free)
            except (CapacityError, SpecError) as exc:
                print(f"c skip r={spec.r} k={spec.k} seed={spec.seed}: {exc}",
                      file=out, flush=True)
                continue
            recs.append(rec)
            total = sum(expansion_profile(f))
            if not all(profile_total_within_bounds(f.num_vars, total)):
                outside.append(rec)
            print(bench_line(rec), file=out, flush=True)
        points = [(rec["eta_bar"], math.log2(rec["t_enumerate_us"]))
                  for rec in recs if rec["t_enumerate_us"] > 0]
        slope = fit_slope(points)
        if slope is not None:
            in_band = 0.7 <= slope <= 1.3
            print(f"c slope log2(t_enumerate) vs eta_bar = {slope:.3f} "
                  f"({'within' if in_band else 'OUTSIDE'} [0.7, 1.3])", file=out)
        by_kappa: dict[Fraction, list[dict]] = {}
        for rec in recs:
            by_kappa.setdefault(rec["kappa"], []).append(rec)
        for kap in sorted(by_kappa):
            group = by_kappa[kap]
            mean_nullity = sum(rec["eta_bar"] for rec in group) / len(group)
            mean_enum = sum(rec["t_enumerate_us"] for rec in group) / len(group)
            print(f"c kappa={kap} cells={len(group)} "
                  f"mean_eta_bar={mean_nullity:.2f} "
                  f"mean_t_enumerate_us={mean_enum:.0f}", file=out)
        for rec in outside:
            print(f"c size-bound violation: r={rec['r']} k={rec['k']} "
                  f"seed={rec['seed']} repr_bits={rec['repr_bits']:.4f} "
                  f"band=[{rec['lo']:.4f}, {rec['hi']:.4f}]", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _counts_disagree(f: XsatFormula) -> str | None:
    """Name the counts that differ, or None when every counter agrees.

    Both methods are solved and checked against the oracle.  On the kernel
    each ``solve`` counted, inconsistent ones included, the flat walk
    ``count_kernel`` is checked against the block walk ``count_blocks``,
    and the witnesses ``solve`` lists against the oracle's models.
    """
    models = naive_models(f)
    n = len(models)
    reps = [solve(f, method=method, witness_cap=n) for method in METHODS]
    g, s = (rep.count for rep in reps)
    if not g == s == n:
        return f"gauss={g} subst={s} oracle={n}"
    models.sort()
    for rep in reps:
        walk = count_kernel(rep.kernel)
        blocks = count_blocks(rep.kernel)[0]
        if walk != blocks:
            return f"{rep.method} kernel: count_kernel={walk} count_blocks={blocks}"
        if sorted(rep.witnesses or ()) != models:
            return f"{rep.method} witnesses differ from the oracle's {n} models"
    return None


def _compact(f: XsatFormula, drop: int) -> XsatFormula:
    """Remove clause ``drop`` and renumber the surviving variables, each
    literal keeping its sign."""
    clauses = [c for i, c in enumerate(f.clauses) if i != drop]
    used = sorted({abs(l) for c in clauses for l in c if l != BOTTOM})
    remap = {v: i + 1 for i, v in enumerate(used)}
    new = tuple(tuple(remap[l] if l > 0 else -remap[-l] if l < 0 else BOTTOM
                      for l in c) for c in clauses)
    return XsatFormula(len(used), new, positive=f.positive)


def _signed(f: XsatFormula, signs: SplitMix64) -> XsatFormula:
    """A copy of ``f`` with each literal negated when the next draw of
    ``signs`` is odd."""
    clauses = tuple(tuple(-l if signs.next_u64() & 1 else l for l in c)
                    for c in f.clauses)
    return XsatFormula(f.num_vars, clauses, positive=False)


def shrink_disagreement(f: XsatFormula) -> XsatFormula:
    """Greedy delta debugging: drop clauses while the disagreement persists."""
    changed = True
    while changed:
        changed = False
        for i in range(f.num_clauses):
            candidate = _compact(f, i)
            try:
                if candidate.num_clauses and _counts_disagree(candidate):
                    f = candidate
                    changed = True
                    break
            except XsatError:
                continue
    return f


def cmd_verify(args) -> int:
    if args.trials == 0:
        print("c warning: 0 trials requested, nothing verified")
        return EXIT_OK
    rng = SplitMix64(args.seed)
    # the signs come from a stream of their own, so the positive formulas
    # are the ones drawn without them
    signs = SplitMix64(~args.seed)
    skipped = 0
    for trial in range(args.trials):
        r = 6 + rng.randbelow(max(1, args.r_max - 5))
        k_lo = math.ceil(r / 3)
        k = k_lo + rng.randbelow(r - k_lo + 1)
        spec = GenSpec(r=r, k=k, seed=args.seed ^ trial, family="random")
        # a generator failure skips the trial, as in bench, and the run goes on
        try:
            f = generate(spec)
        except SpecError as exc:
            print(f"c skip trial {trial} r={r} k={k}: {exc}", flush=True)
            skipped += 1
            continue
        for g, what in ((f, ""), (_signed(f, signs), " (signed copy)")):
            disagreement = _counts_disagree(g)
            if disagreement:
                small = shrink_disagreement(g)
                path = os.path.join(args.out_dir, f"disagreement_{trial}.xsat")
                with open(path, "wb") as fh:
                    fh.write(serialize_xsat(small))
                print(f"c disagreement at trial {trial}{what}: {disagreement}; "
                      f"repro written to {path}")
                return EXIT_DISAGREE
    print(f"c verified: {args.trials - skipped} trials, each on a positive "
          "formula and a signed copy, all three counts agree, "
          "count_kernel = count_blocks on both kernels, "
          "and the witnesses are the oracle's models")
    if skipped:
        print(f"c skipped: {skipped} of {args.trials} trials, "
              "their formulas could not be generated")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _checked(parse, what: str):
    """An argparse ``type=`` that turns a failed ``parse`` into a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
    return convert


def _at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        if int(text) < low or high is not None and int(text) > high:
            raise ValueError(text)
        return int(text)
    return _checked(parse, f"an integer >= {low}" if high is None
                    else f"an integer in {low}..{high}")


def _int_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if not 0 <= lo <= hi:
        raise ValueError(text)
    return lo, hi


def _fraction_list(text: str) -> list[Fraction]:
    values = [Fraction(t) for t in text.split(",")]
    if any(v < 0 for v in values):
        raise ValueError(text)
    return values


_nonnegative = _at_least(0)
_range = _checked(_int_range, "a range LO..HI with 0 <= LO <= HI")
_fractions = _checked(_fraction_list,
                      "a comma-separated list of nonnegative fractions")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xsat")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--method", choices=METHODS, default="gauss")

    def add_max_free(sp):
        sp.add_argument("--max-free", type=_nonnegative,
                        default=DEFAULT_MAX_FREE)

    sp = sub.add_parser("solve", help="solve and print a report record")
    add_common(sp)
    add_max_free(sp)
    sp.add_argument("--count", action="store_true",
                    help="count mode: exit 0 instead of 10/20")
    sp.add_argument("--witnesses", type=_nonnegative, default=0, metavar="N",
                    help="print every model when there are at most N")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("count", help="print the exact model count")
    add_common(sp)
    add_max_free(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("kernel", help="print the residual 0/1 program")
    add_common(sp)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("reduce", help="reduce CNF/XSAT input to positive XSAT")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("gen", help="generate an instance")
    sp.add_argument("--family", choices=FAMILIES, default="random")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="sweep ensembles and record measurements")
    sp.add_argument("--r-range", type=_range, default="6..15")
    sp.add_argument("--kappa", type=_fractions, default="1/3,1/2,2/3,1")
    sp.add_argument("--per-cell", type=_at_least(1), default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--method", choices=METHODS, default="gauss")
    sp.add_argument("--family", choices=("random", "fixed-rank"),
                    default="random")
    sp.add_argument("--rank", type=_nonnegative, default=11,
                    help="row rank for the fixed-rank family")
    sp.add_argument("--nullity-range", type=_range, default="12..22",
                    help="eta-bar sweep for the fixed-rank family")
    add_max_free(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("verify", help="cross-check methods, counters and oracle")
    sp.add_argument("--trials", type=_nonnegative, default=100)
    sp.add_argument("--r-max", type=_at_least(6, ORACLE_CAP), default=18,
                    help=f"largest instance, 6..{ORACLE_CAP} variables")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_verify)
    return p


# built on the first call of main and reused: parsing leaves it unchanged
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
