"""Every committed benchmark record parses and claims what the benchmark
measures.

A `BENCH_<pr>.json` at the repository root records one change's before and
after numbers.  Its `claimed` is null (no gain claimed) or names a workload
and an end-to-end metric that `BENCHMARK.json` declares, so a claim can be
checked against the harness that produced it.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_claims_a_declared_workload_and_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    claimed = record["claimed"]
    if claimed is None:
        return
    assert claimed["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claimed["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
