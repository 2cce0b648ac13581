"""Closed-loop benchmark of the xsat pipeline, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload elim-large --seed 1 --seconds 20 --trace 0

One client issues ops back to back in this process, with no threads or
worker pools.  A CLI op is ``xsat.cli.main(["solve", "--count", ...])`` on
an input file written during set-up; an oracle-check op is the triple
``solve(f, "gauss")``, ``solve(f, "subst")``, ``naive_count(f)``.  Every
op's count is checked; a wrong count stops the run with exit code 3.

The run makes passes over the workload's instances until ``--seconds``
would be exceeded, each pass one instance per slot, fresh instances for
every pass (see instances.py).  The reference kernel of refclock.py is
timed before and after every op, and op times are reported in reference
milliseconds, which the host's drifting speed does not move; wall-clock
figures are printed beside them.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs every pass twice, untraced then traced, and
reports per-layer busy time and work counts (see spans.py) plus the
tracing overhead.  The last line of stdout is one JSON object with the
results.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_xsat():
    src = ROOT / "src"
    if not (src / "xsat" / "__init__.py").is_file():
        raise SystemExit(f"error: xsat sources not found under {src}")
    sys.path.insert(0, str(src))
    import xsat.cli  # noqa: F401  (imports every layer the ops reach)
    import xsat
    if Path(xsat.__file__).resolve().parent != src / "xsat":
        raise SystemExit(f"error: imported xsat from {xsat.__file__}, not {src}")


_import_xsat()

import xsat.cli  # noqa: E402
import xsat.kernel  # noqa: E402
import xsat.oracle  # noqa: E402
from xsat.formula import XsatError  # noqa: E402

import instances  # noqa: E402
import refclock  # noqa: E402
from spans import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


RSS_IMPORT = peak_rss_mb()


class WrongCount(Exception):
    """An op returned a count other than the expected one."""


class OpFailed(Exception):
    """An op ended in an error the solver reports (counted, not fatal)."""


def run_cli_op(inst, path: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    argv = ["solve", "--count", "--input", path, "--method", inst.method]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = xsat.cli.main(argv)
    except (XsatError, OSError) as exc:
        raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
    if code in (1, 2):
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    if code != 0:
        raise RuntimeError(f"unexpected exit code {code} from {' '.join(argv)}")
    fields = dict(tok.split("=", 1) for tok in out.getvalue().split())
    if fields["kernel_vars"] != fields["nullity"]:
        raise WrongCount(f"kernel_vars={fields['kernel_vars']} but nullity={fields['nullity']}")
    return int(fields["count"])


def run_oracle_op(inst) -> int:
    f = inst.formula
    try:
        g = xsat.kernel.solve(f, "gauss").count
        s = xsat.kernel.solve(f, "subst").count
        n = xsat.oracle.naive_count(f)
    except XsatError as exc:
        raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
    if not g == s == n:
        raise WrongCount(f"gauss={g} subst={s} oracle={n} disagree")
    return n


class Bench:
    """One workload's instances, their files and expected counts."""

    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.insts = []
        self.paths = []
        self.expected = []
        self.failures: collections.Counter[str] = collections.Counter()
        self.attempted = 0
        self.failed = 0
        self.generate_s = 0.0

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.insts = self.workload.build(self.seed)
        self.generate_s = time.perf_counter() - t0
        self.paths = []
        if self.workload.cli:
            self.work_dir.mkdir(parents=True, exist_ok=True)
            for inst in self.insts:
                path = self.work_dir / f"{inst.name}.in"
                path.write_bytes(inst.data)
                self.paths.append(str(path))
            instances.check_exactcover()
            self.expected = [instances.expected_count(inst) for inst in self.insts]
        # warm-up: slot 0 is each workload's cheapest op; checked and counted
        # like any other
        self.attempt(0)

    def op(self, i: int) -> None:
        inst = self.insts[i]
        try:
            if self.workload.cli:
                got = run_cli_op(inst, self.paths[i])
                if got != self.expected[i]:
                    raise WrongCount(f"count {got}, expected {self.expected[i]}")
            else:
                run_oracle_op(inst)
        except WrongCount as exc:
            raise WrongCount(f"{self.workload.name} instance {inst.name} "
                             f"seed {self.seed}: {exc}") from exc

    def attempt(self, i: int) -> float | None:
        """Run op i and return its latency in seconds, or None if it failed;
        a failure is counted and its message kept."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.op(i)
        except OpFailed as exc:
            self.failed += 1
            self.failures[f"{self.insts[i].name}: {exc}"] += 1
            return None
        return time.perf_counter() - t0

    def one_pass(self, p: int, tracer: Tracer | None, first_op: int) -> dict:
        """Pass p (starting over after the last pass drawn): each slot's
        instance once, in order, with the reference kernel timed before and
        after every op.  Returns the ops' wall latencies in seconds, their
        reference latencies in ref-ms, and the pass's op ids."""
        n = self.workload.pass_len
        base = p % (len(self.insts) // n) * n
        wall, ref = [], []
        before = refclock.kernel_s()
        for j in range(n):
            if tracer is not None:
                tracer.begin_op(first_op + j)
            try:
                dt = self.attempt(base + j)
            finally:
                if tracer is not None:
                    tracer.end_op()
            after = refclock.kernel_s()
            if dt is not None:
                wall.append(dt)
                ref.append(dt * refclock.REF_MS / ((before + after) / 2))
            before = after
        return {"wall": wall, "ref": ref, "ops": set(range(first_op, first_op + n))}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of
    ``samples`` with at least TAIL_BEYOND samples above it; the maximum when
    there are too few samples for that."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure(bench: Bench, seconds: float, tracer: Tracer | None):
    """Repeat passes (untraced, or untraced/traced pairs of the same
    instances) while the next one is predicted to end within ``seconds``."""
    plain, traced = [], []
    start = time.perf_counter()
    op_id = 0
    n = bench.workload.pass_len
    while True:
        plain.append(bench.one_pass(len(plain), None, op_id))
        op_id += n
        if tracer is not None:
            tracer.install()
            try:
                p = bench.one_pass(len(traced), tracer, op_id)
            finally:
                tracer.uninstall()
            p["counts"] = tracer.take_counts()
            traced.append(p)
            op_id += n
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def end_to_end(plain: list[dict], setup_s: float) -> tuple[dict, list[str]]:
    ref = [x for p in plain for x in p["ref"]]
    wall = [x * 1e3 for p in plain for x in p["wall"]]
    if not ref:
        raise RuntimeError("every op failed; no latency to report")
    value, pct, beyond = tail(ref)
    done = [p for p in plain if p["ref"]]
    metrics = {
        "ops_per_ref_s": (statistics.median(len(p["ref"]) / sum(p["ref"]) * 1e3 for p in done),
                          "1/ref-s"),
        "op_ref_ms_p50": (statistics.median(ref), "ref-ms"),
        "op_ref_ms_tail": (value, "ref-ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    speed = [r / (w * 1e3) for p in plain for r, w in zip(p["ref"], p["wall"])]
    notes = [f"op_ref_ms_tail is p{pct:.1f} of n={len(ref)} op latencies "
             f"({beyond} samples beyond it)",
             f"wall clock: ops_per_s "
             f"{statistics.median(len(p['wall']) / sum(p['wall']) for p in done):.4g}, "
             f"op_ms_p50 {statistics.median(wall):.4g}, op_ms_tail {tail(wall)[0]:.4g}",
             f"host speed (ref-ms per wall ms) over ops: median {statistics.median(speed):.3f}, "
             f"range {min(speed):.3f}-{max(speed):.3f}"]
    return metrics, notes


def per_layer(plain, traced, tracer: Tracer, generate_s: float) -> dict:
    passes = []
    overhead = []
    for p, before in zip(traced, plain):
        layer = tracer.self_ms(p["ops"])
        op_ms = sum(p["wall"]) * 1e3
        # span times are wall clock; scale them to ref-ms like the op times
        speed = sum(p["ref"]) / op_ms if op_ms else 1.0
        row = {key: ms * speed for key, ms in layer.items()}
        for key, ms in layer.items():
            row[key[:-2] + "share"] = ms / op_ms if op_ms else 0.0  # cli.self_ms -> cli.self_share
        for key in COUNT_METRICS:
            row[key] = p["counts"].get(key, 0)
        row["kernel.steps_per_s"] = row["kernel.gray_steps"] / (row["kernel.count_ms"] / 1e3) \
            if row["kernel.count_ms"] else 0.0
        row["oracle.assignments_per_s"] = row["oracle.assignments"] / (row["oracle.count_ms"] / 1e3) \
            if row["oracle.count_ms"] else 0.0
        passes.append(row)
        # each traced pass against the untraced pass of the same instances
        # just before it, both in ref-ms
        overhead.append(sum(p["ref"]) / sum(before["ref"]) - 1)
    out = {key: (statistics.median(r[key] for r in passes), _unit(key)) for key in passes[0]}
    out["trace.overhead_share"] = (statistics.median(overhead), "share")
    out["generator.ms"] = (generate_s * 1e3, "ms")
    return out


def _unit(key: str) -> str:
    if key in TIME_METRICS:
        return "ref-ms"
    if key.endswith("share"):
        return "share"
    if key.endswith("_per_s"):
        return "1/ref-s"
    if key == "io.input_bytes":
        return "bytes"
    if key == "linsys.max_entry_bits":
        return "bits"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    workload = instances.WORKLOADS[args.workload]
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    print(f"c workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"c why: {why.get(workload.name, '(not listed in BENCHMARK.json)')}")
    tracer = Tracer() if args.trace else None
    try:
        bench = Bench(workload, args.seed, work_dir)
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bench.setup()
            setup_runs.append(time.perf_counter() - t0)
        setup_s = IMPORT_S + statistics.median(setup_runs)
        print(f"c setup: import {IMPORT_S:.4f} s + median of "
              f"{' '.join(f'{t:.4f}' for t in setup_runs)} s")
        rss_before_ops = peak_rss_mb()
        plain, traced = measure(bench, args.seconds, tracer)
    except WrongCount as exc:
        print(f"error: wrong count: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = bench.attempted, bench.failed
    metrics, notes = end_to_end(plain, setup_s)
    print(f"c instances={len(bench.insts)} passes={len(plain)} traced_passes={len(traced)} "
          f"attempted={attempted} failed={failed} fail_share={failed / attempted:.4f} "
          f"(attempted includes {SETUP_REPEATS} warm-up ops)")
    print(f"c peak_rss: {RSS_IMPORT:.2f} MiB after import, {rss_before_ops:.2f} MiB "
          f"before the first timed pass, {peak_rss_mb():.2f} MiB at the end")
    for msg, n in bench.failures.items():
        print(f"c failed op ({n}x): {msg}")
    for note in notes:
        print(f"c {note}")
    if tracer is not None:
        metrics = per_layer(plain, traced, tracer, bench.generate_s)
        for name in tracer.absent:
            print(f"c trace: {name} absent; its spans and counts read 0")
        WORK_DIR.mkdir(exist_ok=True)
        span_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(span_path)
        print(f"c spans written to {span_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
