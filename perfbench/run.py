"""expoly benchmark runner.

    python3 perfbench/run.py --workload ideal-certify --seed 1 --seconds 36 \
        --trace 0

Run from the root of a checkout; the library is imported from `src/`.

--trace 0 (end-to-end).  The workload's seeded session list is one *round*.
Rounds run one after another, each in a fresh worker process (so no state
survives from one round to the next and every round's first op of a session
is truly cold), until `--seconds` have passed; at least MIN_ROUNDS
run.  Inside a round one single-threaded client runs the ops in
a closed loop: the next op starts when the previous one has returned.
Every round does identical work, so each op has one latency per round.
Background load on a shared machine only ever slows an op down, and it
comes in spells of several seconds, so each op's latency is taken as its
best over the run's rounds before any median is formed:
  ops_per_s       ops completed in a round / the sum of their latencies
  cold_op_p50_ms  median over sessions of the first op's latency
  warm_op_p50_ms  median over the later ops of a session
  op_tail_ms      highest percentile (of 50..99.9) with at least ten ops
                  beyond it, over all ops; the comment line names it
  setup_s         median over rounds of worker start to first timed op
                  (interpreter start, importing expoly, generating inputs)
  peak_rss_mb     median over rounds of the worker's peak resident memory
The first round's answers are checked (`checks.py`); later rounds must
give the same answers.

--trace 1 (per layer).  The same session list runs in this process
untraced, traced (`tracer.py`) and untraced again; counts are exact
functions of the seed, the spans of the latest traced run of a workload go
to perfbench/out/, and trace.overhead_ratio is the traced time over the
better untraced time of that identical work.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any op failed
(raised, gave a wrong verdict or failed a certificate re-check) and 2 when
the library sources are missing.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 170
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--round", choices=("timed", "checked"), default=None,
                   help="internal: run one round as a worker process")
    return p.parse_args(argv)


def load_library():
    sys.path.insert(0, str(SRC))
    import checks
    import ops
    import workloads
    return checks, ops, workloads


# -- one pass over the sessions ----------------------------------------------

class Pass:
    """Outputs and latencies of one closed-loop pass over a session list."""

    def __init__(self):
        self.latency_ns = {}   # (session, op) -> ns
        self.outputs = {}      # (session, op) -> text, None if it raised
        self.raised = {}       # (session, op) -> traceback
        self.states = {}       # session -> its cache after the pass

    def run(self, ops, sessions, tracer=None):
        clock = time.perf_counter_ns
        for idx, session in enumerate(sessions):
            if tracer is not None:
                tracer.session = idx
            state = {}
            for j, op in enumerate(session.ops):
                start = clock()
                try:
                    out = ops.run_op(state, session, op)
                except Exception:  # a failed op is counted; the loop goes on
                    out = None
                    self.raised[(idx, j)] = traceback.format_exc()
                self.latency_ns[(idx, j)] = clock() - start
                self.outputs[(idx, j)] = out
            self.states[idx] = state


def gate(checks, sessions, run):
    """Check every op of a pass; returns the keys of failed ops and
    one message per failure."""
    failed, messages = set(), []
    for idx, session in enumerate(sessions):
        outputs = [run.outputs[(idx, j)] for j in range(len(session.ops))]
        try:
            errors = checks.check_session(session, outputs, run.states[idx])
        except Exception:  # a checker crash fails the whole session
            errors = ["check raised:\n" + traceback.format_exc()] * len(
                session.ops)
        for j, err in enumerate(errors):
            err = err or (("raised:\n" + run.raised[(idx, j)])
                          if (idx, j) in run.raised else None)
            if err:
                failed.add((idx, j))
                messages.append(f"session {idx} op {j} "
                                f"{session.ops[j][:2]}: {err}")
    return failed, messages


def report_failures(messages):
    for line in messages[:20]:
        sys.stderr.write(f"FAILED {line}\n")
    if len(messages) > 20:
        sys.stderr.write(f"... and {len(messages) - 20} more failures\n")


# -- worker: one round ---------------------------------------------------

def round_worker(args):
    checks, ops, workloads = load_library()
    sessions = workloads.round_sessions(args.workload, args.seed)
    start = time.perf_counter()
    run = Pass()
    run.run(ops, sessions)
    round_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, messages = set(), []
    if args.round == "checked":
        failed, messages = gate(checks, sessions, run)
    report_failures(messages)
    keys = sorted(run.latency_ns)
    json.dump({
        "first_op": start, "round_s": round_s, "rss_mb": rss_mb,
        "cold": [k[1] == 0 for k in keys],
        "latency_ns": [run.latency_ns[k] for k in keys],
        "outputs": [run.outputs[k] for k in keys],
        "failed": [k in failed or k in run.raised for k in keys],
    }, sys.stdout)
    return 0


# -- end-to-end run -------------------------------------------------------

def _rank(p, n):
    """Nearest-rank position (1-based) of the p-th percentile of n."""
    return max(1, math.ceil(p / 100 * n))


def tail_percentile(n):
    """Highest listed percentile with at least ten samples beyond it."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def spawn_round(args, kind):
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--round", kind],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round worker exited with {proc.returncode}")
    doc = json.loads(proc.stdout)
    doc["setup_s"] = doc["first_op"] - spawned
    return doc


def end_to_end(args):
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start < args.seconds):
        rounds.append(spawn_round(args, "checked" if not rounds
                                  else "timed"))
    spent = time.perf_counter() - start
    first = rounds[0]
    n_ops = len(first["latency_ns"])
    diverged = [i for i in range(n_ops)
                if any(r["outputs"][i] != first["outputs"][i]
                       for r in rounds[1:])]
    report_failures([f"op {i} answered differently in a later round"
                     for i in diverged])
    failed = [f or i in diverged for i, f in enumerate(first["failed"])]
    per_op = [min(r["latency_ns"][i] for r in rounds) / 1e6
              for i in range(n_ops)]
    cold = [ms for ms, c in zip(per_op, first["cold"]) if c]
    warm = [ms for ms, c in zip(per_op, first["cold"]) if not c]
    tail_p = tail_percentile(n_ops)
    completed = n_ops - first["outputs"].count(None)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{n_ops} ops ({len(cold)} cold, {len(warm)} warm), "
          f"{spent:.3f} s; round times "
          f"{[round(r['round_s'], 3) for r in rounds]}; op_tail_ms is "
          f"p{tail_p} over {n_ops} ops")
    metrics = {
        "ops_per_s": metric(completed / (sum(per_op) / 1e3), "1/s"),
        "cold_op_p50_ms": metric(statistics.median(cold), "ms"),
        "warm_op_p50_ms": metric(statistics.median(warm), "ms"),
        "op_tail_ms": metric(sorted(per_op)[_rank(tail_p, n_ops) - 1],
                             "ms"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in rounds),
                          "s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"]
                                                for r in rounds), "MB"),
    }
    return emit(sum(failed) * len(rounds), n_ops * len(rounds), metrics)


# -- traced run ------------------------------------------------------------

def traced_run(args):
    checks, ops, workloads = load_library()
    import tracer as tracing
    sessions = workloads.round_sessions(args.workload, args.seed)

    def untraced():
        run = Pass()
        start = time.perf_counter()
        run.run(ops, sessions)
        return run, time.perf_counter() - start

    plain, plain_s = untraced()
    tracer = tracing.Tracer()
    traced = Pass()
    tracer.install()
    try:
        start = time.perf_counter()
        traced.run(ops, sessions, tracer=tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    # The first pass also warms the interpreter up; the best of the
    # passes before and after the traced one is the untraced time.
    plain_s = min(plain_s, untraced()[1])

    failed, messages = gate(checks, sessions, traced)
    failed |= {k for k, out in plain.outputs.items()
               if out != traced.outputs[k]}
    report_failures(messages)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.tsv.gz"
    tracer.write_spans(spans_path)
    n_ops = len(traced.outputs)
    print(f"# {args.workload} seed {args.seed} traced: {len(sessions)} "
          f"sessions, {n_ops} ops, {len(tracer.spans)} spans -> "
          f"{spans_path.relative_to(HERE.parent)}; Buchberger steps per "
          f"session: {session_steps(tracer)}")
    metrics = tracing.layer_metrics(tracer, n_ops)
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")
    return emit(len(failed) * 2, n_ops * 2, metrics)


def session_steps(tracer):
    """Quantiles of the Buchberger steps each session spent (not trimmed)."""
    values = sorted(steps for (_, name), steps in tracer.session_steps.items()
                    if name == "polyring.buchberger")
    if len(values) < 2:
        return f"{values}"
    deciles = statistics.quantiles(values, n=10)
    return (f"min {values[0]}, p50 {statistics.median(values)}, "
            f"p90 {deciles[-1]}, max {values[-1]} over {len(values)} "
            "sessions")


def emit(failed, attempted, metrics):
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "expoly" / "__init__.py").is_file():
        sys.stderr.write(f"error: the expoly sources are missing ({SRC})\n")
        return 2
    if args.round:
        return round_worker(args)
    if args.trace:
        return traced_run(args)
    return end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
