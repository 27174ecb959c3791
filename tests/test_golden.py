"""Golden CLI outputs: every preset and README invocation, byte for byte.

``golden_outputs.json`` holds the exit code and the exact output text of
each invocation below, recorded once and kept as fixed data.  Markdown
reports carry a wall-clock ``- elapsed:`` line, which is stripped on both
sides before comparing.
"""

import json
import re
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
