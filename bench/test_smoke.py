"""Smoke test of the benchmark's own code, at a tiny scale.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402
import tracing  # noqa: E402
from workloads import DATA_SEED, WORKLOADS, training_data  # noqa: E402

from seedmark import harness  # noqa: E402
from seedmark.datasets import GenSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """A copy of `workload` at a scale that runs in well under a second."""
    small = dict(gen=GenSpec(classes=3, dims=4, samples_per_class=40), epochs=1,
                 n_extracted_train=3, n_nonextracted_train=3,
                 n_extracted_test=2, n_nonextracted_test=2, keyset_size=2)
    return type(workload)(workload.name, workload.why, **{**workload.overrides, **small})


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    run = runner.run_workload(tiny(WORKLOADS[name]), 0, 0, False, str(tmp_path))
    assert run.correct, run.failures + run.problems
    metrics = runner.end_to_end_metrics(run)
    assert {k: m["unit"] for k, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_counts_and_removes_its_wrappers(name, tmp_path):
    run = runner.run_workload(tiny(WORKLOADS[name]), 0, 0, True, str(tmp_path))
    assert run.correct, run.failures + run.problems
    assert run.traced and run.bare
    assert tracing.leftover_wrappers() == []
    counts = runner.per_op_counts(run)
    assert {k: counts.get(k, 0.0) for k in run.expected} == run.expected
    metrics = runner.per_layer_metrics(run)
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")


def test_tracer_patches_every_import_site():
    nnet = sys.modules["seedmark.nnet"]
    bim_module = sys.modules["seedmark.bim"]
    package = sys.modules["seedmark"]
    originals = (nnet.train, bim_module.bim)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (harness.train, nnet.train, bim_module.bim, package.bim):
            assert hasattr(fn, "bench_span")
        assert harness.train is nnet.train
    finally:
        tracer.remove()
    assert (nnet.train, bim_module.bim) == originals
    assert package.bim is bim_module.bim and harness.train is nnet.train
    assert tracing.leftover_wrappers() == []


def test_eval_auc_is_run_raw_evaluation_auc(tmp_path):
    workload = tiny(WORKLOADS["eval-mixed"])
    run = runner.run_workload(workload, DATA_SEED, 0, False, str(tmp_path))
    assert run.correct, run.failures + run.problems
    assert run.auc == harness.run_raw_evaluation(workload.config(DATA_SEED)).roc.auc


def test_every_seed_trains_on_the_same_data():
    workload = WORKLOADS["eval-naive"]
    a, b = (training_data(workload.config(seed)) for seed in (DATA_SEED, 1890753127))
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)


def test_tail_has_ten_samples_beyond():
    samples = list(range(100))
    value, pct, beyond = runner.tail(samples)
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert sum(s > value for s in samples) == 10
    assert runner.tail([3, 1, 2]) == (2, 50.0, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval-naive",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
