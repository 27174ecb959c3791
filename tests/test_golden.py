"""Golden CLI outputs: every preset and README invocation, byte for byte.

``golden_outputs.json`` holds the exit code and the exact output text of
each invocation below, recorded once and kept as fixed data.  Markdown
reports carry a wall-clock ``- elapsed:`` line, which is stripped on both
sides before comparing.  The same bytes must come out under a pre-AVX2
OpenBLAS kernel, which rounds complex products without FMA.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tracecrit.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
_ELAPSED = re.compile(r"^- elapsed: .*\n", re.MULTILINE)

_SWEEP = {"experiment": "cex_ii", "grid": {"overlap": [0, 0.25, 0.5, 0.75, 1.0]}}


def _cases() -> dict[str, list[str]]:
    runs = [("cex_ii", {"preset": p}) for p in ("two-bit-orthogonal", "two-bit-mixed")]
    runs += [("cex_iii", {"preset": p}) for p in ("two-bit-orthogonal", "two-bit-mixed")]
    runs += [
        ("ecc", {"preset": p, "rule": r})
        for p in ("hamming74", "code52")
        for r in ("syndrome", "min_distance")
    ]
    runs += [("table", {"preset": p}) for p in ("headline-gap", "bb84-headline")]
    runs += [
        ("cex_i", {}),
        ("cex_ii", {"overlap": 0.3}),
        ("spiked", {}),
        ("toeplitz", {"m": 3, "n": 4}),
        ("markov", {"eps": 0.01, "delta": 0.1, "guarantees": 3}),
        ("table", {"n": 100, "l": 10, "m": 20, "ms": [1, 10, 20]}),
    ]
    cases = {}
    for experiment, params in runs:
        for fmt in ("json", "csv", "md"):
            tag = "-".join(str(v) for v in params.values() if not isinstance(v, list))
            name = f"{experiment}-{tag or 'default'}-{fmt}"
            cases[name] = ["--experiment", experiment, "--params", json.dumps(params), "--format", fmt]
    readme = {
        "readme-cex_ii": ("cex_ii", {"preset": "two-bit-orthogonal"}, "json"),
        "readme-cex_iii-md": ("cex_iii", {"preset": "two-bit-mixed"}, "md"),
        "readme-spiked": ("spiked", {"n": 8, "l": 3}, "json"),
        "readme-toeplitz": ("toeplitz", {"m": 2, "n": 2}, "json"),
        "readme-ecc": ("ecc", {"preset": "code52", "rule": "min_distance"}, "json"),
        "readme-table": ("table", {"preset": "headline-gap"}, "json"),
        "readme-sweep": ("sweep", _SWEEP, "csv"),
    }
    for name, (experiment, params, fmt) in readme.items():
        cases[name] = ["--experiment", experiment, "--params", json.dumps(params), "--format", fmt]
    return cases


CASES = _cases()


def run_case(argv: list[str], out: Path) -> tuple[int, str]:
    code = main([*argv, "--out", str(out)])
    return code, _ELAPSED.sub("", out.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, golden, tmp_path):
    assert golden[name]["argv"] == CASES[name]
    code, text = run_case(CASES[name], tmp_path / "out")
    assert code == golden[name]["exit"]
    assert text == golden[name]["output"]


#: An OpenBLAS kernel without FMA, chosen at load time by OPENBLAS_CORETYPE.
PRE_AVX2 = "Sandybridge"

#: Rerun every case in a fresh interpreter; print the names whose exit code
#: or output differs from the golden record, as JSON.
RERUN = """
import json, tempfile
from pathlib import Path
from test_golden import CASES, GOLDEN, run_case
golden = json.loads(GOLDEN.read_text())
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "out"
    differ = [n for n in sorted(CASES) if run_case(CASES[n], out) != (golden[n]["exit"], golden[n]["output"])]
print(json.dumps(differ))
"""


def _blas_switches_kernels() -> bool:
    """numpy's OpenBLAS is a DYNAMIC_ARCH build, which picks its kernel when
    it loads and so obeys OPENBLAS_CORETYPE."""
    import numpy as np

    return "DYNAMIC_ARCH" in str(np.__config__.CONFIG.get("Build Dependencies", {}).get("blas"))


@pytest.mark.skipif(not _blas_switches_kernels(), reason="numpy's OpenBLAS is not a DYNAMIC_ARCH build")
def test_goldens_hold_on_a_pre_avx2_blas_kernel():
    here = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=PRE_AVX2, OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", RERUN], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert f"Core: {PRE_AVX2}" in proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == []
