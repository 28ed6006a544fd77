"""Check that the traced run's count metrics are exact functions of the seed.

    python3 perfbench/check_counts.py [--seed 1]

For each workload: two traced runs (`run.py --trace 1`) with the same seed
must report identical count metrics (calls, steps, values built, basis
size, slice refreshes, ...), and a different seed must generate different
inputs.  Later changes can then cite these counts as exact work measures.
Exits with code 1 when either check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

TIMED_UNITS = ("ms", "ratio")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=175)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] not in TIMED_UNITS}


def fingerprint(sessions):
    return [(s.lines, s.ops) for s in sessions]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    bad = 0
    for name, build in workloads.WORKLOADS.items():
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        same_inputs = (fingerprint(build(args.seed))
                       == fingerprint(build(args.seed + 1)))
        status = "ok"
        if differing or same_inputs:
            bad += 1
            status = (f"counts differ: {differing}" if differing
                      else "seeds give identical inputs")
        print(f"{name}: {len(first)} count metrics, {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
