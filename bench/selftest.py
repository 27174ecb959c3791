"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite (the file name does not match
`test_*.py`); they run the benchmark, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_work")


def _snapshot():
    """Every binding the tracer may replace, by identity."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "tracecrit" or name.startswith("tracecrit."):
            out.update({(name, k): id(v) for k, v in vars(module).items()})
    for layer, classes in spans.POST_INITS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"tracecrit.{layer}"], cls_name)
            out[(cls_name, "__post_init__")] = id(cls.__dict__["__post_init__"])
    report = sys.modules["tracecrit.experiments"].ExperimentReport
    out[("ExperimentReport", "canonical_json")] = id(report.__dict__["canonical_json"])
    return out


@pytest.mark.parametrize("name", ["quantum-ensembles", "classical-enumeration", "cli-cold"])
def test_traced_run_gives_untraced_outputs(name, work):
    wl = workloads.build(name, 3, ROOT, work)
    tasks = wl.replay or wl.tasks
    _, _, plain_failures, plain = run.run_pass(tasks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, traced_failures, traced = run.run_pass(tasks, tracer)
    finally:
        tracer.uninstall()
    assert plain_failures == [] and traced_failures == []
    assert plain == traced
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_wrappers_are_restored(work):
    workloads.build("quantum-ensembles", 0, ROOT, work)
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        assert during != before
        assert during[("tracecrit", "criterion_report")] == during[("tracecrit.criteria", "criterion_report")]
    finally:
        tracer.uninstall()
    assert _snapshot() == before


def test_predicted_zeros(work):
    """No eigensolver layers on classical-enumeration, no GF(2) or coupling
    layers on quantum-ensembles."""
    zero = {
        "classical-enumeration": ("qmath.calls", "discrimination.calls"),
        "quantum-ensembles": ("coupling.calls", "sidechannel.calls"),
    }
    for name, names in zero.items():
        wl = workloads.build(name, 4, ROOT, work)
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.run_pass(wl.tasks, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(1)
        assert all(metrics[n] == 0 for n in names), name
        assert all(metrics[n] > 0 for n in ("ensembles.calls", "experiments.runs"))


@pytest.mark.parametrize("name", ["quantum-ensembles", "classical-enumeration", "cli-cold"])
def test_seed_changes_inputs_not_task_list(name, work):
    a = workloads.build(name, 1, ROOT, work)
    b = workloads.build(name, 2, ROOT, work)
    again = workloads.build(name, 1, ROOT, work)
    assert [t.name for t in a.tasks] == [t.name for t in b.tasks]
    assert a.input_digest != b.input_digest
    assert a.input_digest == again.input_digest


def _run_bench(cwd: Path, trace: int, env=None):
    cmd = [sys.executable, "bench/run.py", "--workload", "quantum-ensembles", "--seed", "5"]
    cmd += ["--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    done = _run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = _run_bench(tmp_path, 0, env)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
