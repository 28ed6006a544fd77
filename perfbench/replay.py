"""Replay a seeded sample of benchmark sessions through the expoly CLI.

    python3 perfbench/replay.py [--seed 1]

For each workload, a seeded sample of sessions is written out in the
ideal-file format (one expression per line, under perfbench/out/replay/)
and every op of each session is run twice: in-process, exactly as the
benchmark runs it, and as `python -m expoly <subcommand> --json` in a
subprocess.  The CLI must exit with code 0 and give the same verdict.
This ties the library-level numbers to the command-line path; it is not
timed, since interpreter start-up alone costs about 0.2 s per command.
Exits with code 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import workloads  # noqa: E402

SESSIONS_PER_WORKLOAD = 4

# The fields of each subcommand's JSON that carry its verdict.
VERDICT_KEYS = {
    "member": ("member",),
    "intersect": ("generators",),
    "extend": ("tracked",),
    "query": ("member",),
    "saturate": ("status",),
    "rabinowitsch": ("certificate_found", "d"),
}


def cli_args(op, path, nvars):
    common = ["--ideal", str(path), "--vars", str(nvars), "--json"]
    kind = op[0]
    if kind == "member":
        return ["member"] + common + ["--", op[1]]
    if kind == "intersect":
        return ["intersect", f"--layer={op[1]}"] + common
    if kind == "extend":
        return ["extend", f"--levels={op[1]}"] + common
    if kind == "query":
        return ["extend", f"--levels={workloads.TOWER_LEVELS}",
                f"--query={op[1]}", f"--level={op[2]}"] + common
    if kind == "saturate":
        return ["saturate"] + common
    return ["rabinowitsch", f"--g={op[1]}"] + common


def replay_session(name, idx, session, outdir):
    path = outdir / f"{name}-{idx}.txt"
    path.write_text("\n".join(session.lines) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    state, problems = {}, []
    for j, op in enumerate(session.ops):
        mine = json.loads(ops.run_op(state, session, op))
        proc = subprocess.run(
            [sys.executable, "-m", "expoly"] + cli_args(op, path,
                                                       session.nvars),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
        where = f"{name} session {idx} op {j} {op[:2]}"
        if proc.returncode != 0:
            problems.append(f"{where}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()}")
            continue
        theirs = json.loads(proc.stdout)
        for key in VERDICT_KEYS[op[0]]:
            if mine.get(key) != theirs.get(key):
                problems.append(f"{where}: {key} {mine.get(key)!r} in "
                                f"process, {theirs.get(key)!r} from the CLI")
    return len(session.ops), problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    outdir = HERE / "out" / "replay"
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"replay/{args.seed}")
    failures, total = [], 0
    for name, build in workloads.WORKLOADS.items():
        sessions = build(args.seed)
        # One session of every kind the workload has, then random ones.
        by_kind = {}
        for idx, s in enumerate(sessions):
            by_kind.setdefault(s.kind, []).append(idx)
        picked = [rng.choice(v) for v in by_kind.values()]
        while len(picked) < SESSIONS_PER_WORKLOAD:
            picked.append(rng.randrange(len(sessions)))
        for idx in picked:
            count, problems = replay_session(name, idx, sessions[idx], outdir)
            total += count
            failures += problems
        print(f"{name}: replayed sessions {picked}")
    for line in failures:
        print("MISMATCH", line)
    print(f"{total} ops replayed through the CLI, {len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
