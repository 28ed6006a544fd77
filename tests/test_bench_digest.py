"""The benchmark's seed-1 answers, pinned by one digest.

Every seed-1 session of the three benchmark workloads runs through
`perfbench/ops.run_op`, as one benchmark round runs it, and the sha256 of
the concatenated JSON outputs (3,390 ops: verdicts, cofactors, bases,
towers, saturations and Rabinowitsch certificates, as the CLI prints them)
must equal the recorded digest.  A change that keeps every answer keeps
it; a change that means to alter an answer must say which output changes
and why, and record the new digest here.
"""

import hashlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED_1_OPS = 3390
SEED_1_DIGEST = ("831dfd4ecf414f3b42458121415450fe"
                 "214804c7a9b40c274fe5df49a23b8314")


def test_seed_1_outputs_keep_their_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    import workloads
    outputs = []
    for name in workloads.WORKLOADS:
        for session in workloads.round_sessions(name, 1):
            state = {}
            outputs += [ops.run_op(state, session, op) for op in session.ops]
    assert len(outputs) == SEED_1_OPS
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == SEED_1_DIGEST
