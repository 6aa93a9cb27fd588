"""Every committed speed claim, a `BENCH_*.json` at the repository root, is
paired parent/change runs of the benchmark with their environment, and every
run in it finished correctly."""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RECORDS = sorted(REPO.glob("BENCH_*.json"))
MIN_RUNS_PER_SIDE = 5


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_backs_a_claim(path):
    doc = json.loads(path.read_text())
    # one run length and one tracing setting for every run in the record
    assert type(doc["seconds"]) in (int, float) and doc["seconds"] > 0
    assert type(doc["trace"]) is int
    seeds = {"parent": [], "change": []}
    for run in doc["runs"]:
        assert type(run["seed"]) is int
        seeds[run["side"]].append(run["seed"])
        env = run["env"]
        assert {"numpy", "blas", "nproc"} <= env.keys(), env
        assert env["workload"] == doc["workload"] and env["seed"] == run["seed"]
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, (run["side"], run["seed"])
    assert len(set(seeds["parent"])) >= MIN_RUNS_PER_SIDE
    assert sorted(seeds["parent"]) == sorted(seeds["change"])  # runs come in seeded pairs
