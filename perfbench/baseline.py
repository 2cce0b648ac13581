"""Run the whole benchmark and record its baseline in perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py --seed 1

Every workload listed in BENCHMARK.json runs twice, untraced (end-to-end
metrics) and traced (per-layer metrics), each in a fresh ``run.py``
process so that one workload's peak RSS cannot leak into another's.  Every
metric is printed with its unit, together with nproc, the Python version
and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [l[2:] for l in lines if l.startswith("c ")]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    out = HERE / "BASELINE.json"

    host = {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "seed": args.seed,
            "seconds": seconds}
    print("c " + " ".join(f"{k}={v}" for k, v in host.items()))
    record = dict(host, workloads={})
    for w in spec["workloads"]:
        runs = {mode: run_one(w["name"], args.seed, seconds, trace)
                for mode, trace in (("end_to_end", 0), ("per_layer", 1))}
        if not all(r["correct"] for r in runs.values()):
            raise SystemExit(f"error: {w['name']} reported incorrect output")
        entry = {"why": w["why"]}
        for mode, r in runs.items():
            entry[mode] = r["metrics"]
            entry[mode + "_notes"] = r["notes"]
            entry[mode + "_ops"] = {"attempted": r["attempted"], "failed": r["failed"]}
        record["workloads"][w["name"]] = entry
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"c baseline written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
