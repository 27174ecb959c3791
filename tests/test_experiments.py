import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecrit import criteria, experiments
from tracecrit.classical import SCENARIO_PRESETS
from tracecrit.cli import main
from tracecrit.criteria import classical_dbar, delta_E_variants
from tracecrit.discrimination import measure_ensemble
from tracecrit.ensembles import two_bit_pkl_example
from tracecrit.errors import BadParams, ParseError, TooLarge, UnknownExperiment
from tracecrit.experiments import (
    REGISTRY,
    _MAX_FILE_BYTES,
    _MAX_SWEEP_POINTS,
    _command,
    _float_param,
    _int_list_param,
    _int_param,
    _jsonify,
    run_experiment,
    run_sweep,
)
from tracecrit.gf2 import CODE_PRESETS
from tracecrit.two_bit import TWO_BIT_PRESETS, _family_measurement, _resolve_two_bit, parse_qubit

from helpers import CountingNumpy, bits, family_measurement_loop, jsonify_recursive, random_density


def verdict_map(report):
    return {v.relation: v.status for v in report.verdicts}


class TestParseQubit:
    def test_diag(self):
        op = parse_qubit({"diag": [0.25, 0.75]})
        np.testing.assert_allclose(op.matrix, np.diag([0.25, 0.75]))

    def test_bloch(self):
        op = parse_qubit({"bloch": [1.0, 0.0, 0.0]})
        np.testing.assert_allclose(op.matrix, np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_bloch_length_check(self):
        with pytest.raises(ParseError):
            parse_qubit({"bloch": [1.0, 1.0, 1.0]})

    def test_rejects_unknown_shape(self):
        with pytest.raises(ParseError):
            parse_qubit({"spec": [1, 0]})
        with pytest.raises(ParseError):
            parse_qubit("diag")

    def test_rejects_invalid_diag(self):
        with pytest.raises(ParseError):
            parse_qubit({"diag": [0.9, 0.9]})


class TestCexI:
    def test_small_values(self):
        for n, expected in ((2, 0.5), (4, 0.75), (1024, 1 - 1 / 1024)):
            report = run_experiment("cex_i", {"N": n})
            assert report.results["independent_mismatch"] == pytest.approx(expected, abs=1e-15)
            assert report.results["delta"] == 0.0
            assert report.all_ok()

    def test_exact_rational_fields(self):
        report = run_experiment("cex_i", {"N": 4})
        assert report.results["independent_mismatch_num"] == 3
        assert report.results["independent_mismatch_den"] == 4

    def test_requires_two_atoms(self):
        with pytest.raises(BadParams):
            run_experiment("cex_i", {"N": 1})

    #: Canonical JSON of cex_i by N, on both sides of MAX_DENSE_COUPLING and at the atom cap.
    REPORTS = json.loads(Path(__file__).with_name("cex_i_reports.json").read_text())

    @pytest.mark.parametrize("n", sorted(REPORTS, key=int))
    def test_report_bytes(self, n):
        assert run_experiment("cex_i", {"N": int(n)}).canonical_json() == self.REPORTS[n]


class TestCexII:
    def test_orthogonal_preset(self):
        report = run_experiment("cex_ii", {"preset": "two-bit-orthogonal"})
        res = report.results
        assert res["d"] == pytest.approx(0.5, abs=1e-12)
        assert res["post_leak_success"] == pytest.approx(1.0, abs=1e-12)
        assert res["mixture_cap"] == pytest.approx(0.75, abs=1e-12)
        assert report.all_ok()

    def test_mixed_preset(self):
        report = run_experiment("cex_ii", {"preset": "two-bit-mixed"})
        res = report.results
        assert res["d"] == pytest.approx(0.25, abs=1e-12)
        assert res["post_leak_success"] == pytest.approx(0.75, abs=1e-12)
        assert res["violation_margin"] == pytest.approx(0.125, abs=1e-12)

    def test_identical_probes_not_applicable(self):
        params = {"sigma": {"diag": [1, 0]}, "rho1": {"diag": [0.5, 0.5]}, "rho2": {"diag": [0.5, 0.5]}}
        report = run_experiment("cex_ii", params)
        statuses = verdict_map(report)
        assert statuses["post-leak-success-exceeds-mixture-cap"] == "NOT-APPLICABLE"
        assert report.all_ok()

    def test_overlap_shorthand(self):
        report = run_experiment("cex_ii", {"overlap": 0.6})
        assert report.results["d"] == pytest.approx(0.4, abs=1e-12)
        assert report.results["violation_margin"] == pytest.approx(0.2, abs=1e-9)

    def test_missing_params(self):
        with pytest.raises(ParseError):
            run_experiment("cex_ii", {"rho1": {"diag": [1, 0]}})


class TestCexIII:
    def test_orthogonal_preset_joint_violation(self):
        report = run_experiment("cex_iii", {"preset": "two-bit-orthogonal"})
        res = report.results
        assert res["d"] == pytest.approx(0.5, abs=1e-12)
        assert res["joint_vs_product_uniform"] == pytest.approx(0.75, abs=1e-12)
        assert report.all_ok()

    def test_mixed_preset_posterior_violation(self):
        report = run_experiment("cex_iii", {"preset": "two-bit-mixed"})
        res = report.results
        assert res["d"] == pytest.approx(0.25, abs=1e-12)
        assert res["max_posterior_dev"] == pytest.approx(5 / 14, abs=1e-12)
        assert report.all_ok()

    def test_identical_probes_consistent_with_zero(self):
        params = {"sigma": {"diag": [1, 0]}, "rho1": {"diag": [0.5, 0.5]}, "rho2": {"diag": [0.5, 0.5]}}
        report = run_experiment("cex_iii", params)
        assert verdict_map(report)["delta-e-exceeds-d"] == "NOT-APPLICABLE"
        assert report.results["avg_posterior_dev"] == pytest.approx(0.0, abs=1e-9)

    def test_requires_pure_sigma(self):
        params = {"sigma": {"diag": [0.5, 0.5]}, "rho1": {"diag": [1, 0]}, "rho2": {"diag": [0, 1]}}
        with pytest.raises(ParseError, match="pure"):
            run_experiment("cex_iii", params)

    @pytest.mark.parametrize("params", [{"preset": "two-bit-mixed"}, {"overlap": 0.3}])
    def test_measures_once(self, params, monkeypatch):
        """The readings and dbar both come from one key x outcome mass, whose
        4 x 4 trace products are computed once, and equal the public
        per-reading calls."""
        counting = CountingNumpy()
        monkeypatch.setattr(criteria, "np", counting)
        report = run_experiment("cex_iii", params)
        assert counting.products == 4 * 4
        monkeypatch.undo()

        sigma, rho1, rho2 = _resolve_two_bit(params.get("preset"), params.get("overlap"), None, None, None)
        family = two_bit_pkl_example(sigma, rho1, rho2)
        povm = _family_measurement(sigma, rho1, rho2)
        want = delta_E_variants(family, povm)._asdict()
        want["dbar"] = classical_dbar(measure_ensemble(family, povm))
        assert {k: report.results[k] for k in want} == want

    def test_family_measurement_matches_its_projector_loop(self):
        """The stacked eigenvectors, phase fix and projectors give each element
        the bits of one Kronecker product of two projectors, as
        `_hermitian_eigen` orders and phase-fixes them: on random qubits, on
        the presets, and on equal probes, whose difference is zero."""
        rng = np.random.default_rng(32)
        triples = [tuple(random_density(rng, 2, rank=1 if i == 0 else None) for i in range(3)) for _ in range(60)]
        triples += [tuple(parse_qubit(spec[k]) for k in ("sigma", "rho1", "rho2")) for spec in TWO_BIT_PRESETS.values()]
        triples += [(triples[0][0], triples[0][1], triples[0][1])]
        for sigma, rho1, rho2 in triples:
            povm = _family_measurement(sigma, rho1, rho2)
            assert povm.labels == ("a:e+", "a:e-", "b:e+", "b:e-")
            assert bits(povm.stack) == bits(family_measurement_loop(sigma, rho1, rho2))

    @pytest.mark.parametrize("experiment,eigvalsh,eigh", [("cex_ii", 3, 2), ("cex_iii", 2, 1)])
    def test_overlap_run_makes_its_eigensolves(self, experiment, eigvalsh, eigh, monkeypatch):
        """An overlap run solves what it did before its overhead was cut: no
        check is dropped and no eigh becomes an eigvalsh, whose values-only
        path may round differently.  `cex_iii` solves sigma and rho1 - rho2
        in one batched eigh."""
        calls = []
        for name in ("eigvalsh", "eigh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_experiment(experiment, {"overlap": 0.37})
        assert (calls.count("eigvalsh"), calls.count("eigh")) == (eigvalsh, eigh)


class TestSpiked:
    def test_reference_instance(self):
        report = run_experiment("spiked", {"n": 8, "l": 3})
        res = report.results
        assert res["delta_analytic"] == 0.12109375
        assert res["delta_summed"] == 0.12109375
        assert res["peak_mass"] == 0.125
        assert report.all_ok()

    def test_large_instance_exact(self):
        report = run_experiment("spiked", {"n": 30, "l": 20})
        assert report.results["delta_num"] == 2**10 - 1
        assert report.results["delta_den"] == 2**30
        assert report.all_ok()


class TestToeplitz:
    def test_exhaustive_two_by_two(self):
        report = run_experiment("toeplitz", {"m": 2, "n": 2})
        assert report.results["singular_fraction"] == 0.5
        assert verdict_map(report)["exhaustive-2x2-fraction-half"] == "PASS"

    def test_sampled_uses_run_seed(self):
        a = run_experiment("toeplitz", {"m": 3, "n": 4, "mode": "sample", "samples": 200}, seed=5)
        b = run_experiment("toeplitz", {"m": 3, "n": 4, "mode": "sample", "samples": 200}, seed=5)
        assert a.results["singular_fraction"] == b.results["singular_fraction"]

    def test_samples_reported_only_when_drawn(self):
        exhaustive = run_experiment("toeplitz", {"m": 2, "n": 2, "samples": 10})
        assert exhaustive.results == run_experiment("toeplitz", {"m": 2, "n": 2}).results
        assert "samples" not in exhaustive.results
        sampled = run_experiment("toeplitz", {"m": 2, "n": 2, "mode": "sample", "samples": 10})
        assert sampled.results["samples"] == 10


class TestEcc:
    def test_hamming_preset(self):
        report = run_experiment("ecc", {"preset": "hamming74", "rule": "syndrome"})
        assert report.results["bias_delta"] == 0.0
        assert verdict_map(report)["perfect-code-equal-regions"] == "PASS"
        assert report.all_ok()

    def test_code52_preset(self):
        report = run_experiment("ecc", {"preset": "code52", "rule": "min_distance"})
        assert report.results["bias_delta"] > 0.0
        assert verdict_map(report)["nonperfect-min-distance-bias"] == "PASS"

    #: A code whose sphere-packing volume matches at radius 1 but whose
    #: covering radius is 2, and a code of distance 1 whose cosets each have
    #: one least-weight word: neither is perfect, and only the first has ties.
    NOT_PERFECT = {
        "tied": (
            [[1, 1, 0]],
            0.25,
            ("PASS", "NOT-APPLICABLE", "PASS"),
            "bias 0.25",
        ),
        "untied": (
            [[1, 0, 0, 0], [1, 1, 1, 1]],
            0.0,
            ("PASS", "NOT-APPLICABLE", "NOT-APPLICABLE"),
            "no coset has two least-weight words",
        ),
    }

    @pytest.mark.parametrize("generator,bias,statuses,detail", NOT_PERFECT.values(), ids=NOT_PERFECT)
    def test_not_perfect_min_distance_exit_zero(self, generator, bias, statuses, detail):
        params = {"generator": generator, "rule": "min_distance"}
        code, stdout, err = run_cli(["--experiment", "ecc", "--params", json.dumps(params)])
        doc = json.loads(stdout)
        assert (code, err) == (0, "")
        assert (doc["results"]["perfect_radius"], doc["results"]["bias_delta"]) == (-1, bias)
        assert tuple(v["status"] for v in doc["verdicts"]) == statuses
        assert doc["verdicts"][-1]["detail"] == detail

    def test_code_file(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("101\n011\n")
        report = run_experiment("ecc", {"code_file": str(path), "rule": "syndrome"})
        assert report.results["n"] == 3 and report.results["k"] == 2

    def test_code_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("101\n\n  \n011\n")
        report = run_experiment("ecc", {"code_file": str(path), "rule": "syndrome"})
        assert report.results["n"] == 3 and report.results["k"] == 2

    def test_code_file_with_a_non_digit_row_exit_two(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("101\n0x1\n")
        code, stdout, err = run_cli(["--experiment", "ecc", "--params", json.dumps({"code_file": str(path)})])
        assert (code, stdout, err) == (2, "", "error: bad generator row '0x1'\n")

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            run_experiment("ecc", {"preset": "golay"})

    #: Codes of 21 columns, one past the census cap, each refused by a check
    #: that precedes the cap: the generator's bits, its rank, then the rule.
    OVER_CAP = {
        "non-bit-entry": ({"generator": [[1] * 20 + [2]]}, "entries must be bits"),
        "rank-deficient": ({"generator": [[1] * 21, [1] * 21]}, "generator matrix must have full row rank over GF(2)"),
        "unknown-rule": (
            {"generator": [[1] * 21], "rule": "ml"},
            "rule must be one of ('syndrome', 'min_distance'), got 'ml'",
        ),
        "census-cap": ({"generator": [[1] * 21]}, "block length 21 exceeds the census cap of 20 bits"),
    }

    @pytest.mark.parametrize("params, message", OVER_CAP.values(), ids=OVER_CAP)
    def test_over_cap_refusal_order(self, params, message):
        assert assert_refused("ecc", params) == f"error: {message}\n"


class TestMarkovAndTable:
    def test_markov_defaults(self):
        report = run_experiment("markov", {"mean": 0.001, "threshold": 0.01})
        assert report.results["bound"] == 0.1
        assert report.all_ok()

    def test_markov_with_budget(self):
        report = run_experiment(
            "markov",
            {"mean": 0.001, "threshold": 0.01, "eps": 2.0**-16, "delta": 2.0**-16, "guarantees": 2},
        )
        assert report.results["required_average"] == 2.0**-48
        assert verdict_map(report)["individual-guarantee-budget"] == "PASS"

    def test_table_headline_preset(self):
        report = run_experiment("table", {"preset": "headline-gap"})
        assert report.results["headline_ratio_log2"] == pytest.approx(80.0, abs=1e-9)
        assert report.all_ok()

    def test_table_explicit_scenario(self):
        report = run_experiment("table", {"n": 64, "l": 8, "m": 16, "ms": [1, 8, 16]})
        assert len(report.results["rows"]) == 3

    def test_table_bb84_preset(self):
        report = run_experiment("table", {"preset": "bb84-headline"})
        assert report.results["epsilon"] == 1e-5

    def test_table_keeps_the_log2_of_an_underflowing_default_epsilon(self):
        report = run_experiment("table", {"n": 2000, "l": 1100, "m": 1100})
        assert (report.results["epsilon"], report.results["epsilon_log2"]) == (0.0, -1100.0)
        assert report.results["rows"][0]["bound_log2"] == -1099.0
        # 2^-1074 is the least subnormal; a given epsilon of 0 is no underflow
        for params in ({"l": 1074}, {"l": 1100, "epsilon": 0.0}, {"l": 20}):
            results = run_experiment("table", {"n": 2000, "m": 1100, **params}).results
            assert "epsilon_log2" not in results


IDENTICAL_PROBES = {"sigma": {"diag": [1, 0]}, "rho1": {"diag": [0.5, 0.5]}, "rho2": {"diag": [0.5, 0.5]}}


class TestNotApplicableBranches:
    """Each experiment that can skip a verdict, on both sides of the skip."""

    #: sha256 of the canonical JSON of one request on the skipping side of each branch.
    PINNED = [
        ("cex_i", {"N": 1025}, "5461118400793f74d66e3436acf964b5314216bdc7f46c87be7906971e8d403f"),
        ("cex_ii", {"overlap": 1.0}, "af36b0269eba9b2cefa75e206f306713305e72e760cd30a361de067cd950a23b"),
        ("cex_iii", IDENTICAL_PROBES, "7083609eabfbab39a6fd2d8f7776df5e89bc6df35daa6bd2bd29699bfd39e414"),
        ("markov", {}, "f96c7a348eed344e20f28e2def38c5a833b76955dc46788f928d10c4dd90fb5f"),
    ]
    #: Requests on every side of every branch that chooses a verdict's status.
    SIDES = [
        ("cex_i", [{"N": 1024}, {"N": 1025}]),
        ("cex_ii", [{"overlap": 0.6}, {"overlap": 1.0}, IDENTICAL_PROBES]),
        ("cex_iii", [{"preset": "two-bit-mixed"}, IDENTICAL_PROBES]),
        ("toeplitz", [{"m": 2, "n": 2}, {"m": 3, "n": 4}, {"m": 2, "n": 2, "mode": "sample", "samples": 10}]),
        ("ecc", [{"preset": p, "rule": r} for p in ("hamming74", "code52") for r in ("syndrome", "min_distance")]),
        ("markov", [{}, {"eps": 0.5, "delta": 0.5}]),
    ]

    @pytest.mark.parametrize("experiment, params, digest", PINNED, ids=[p[0] for p in PINNED])
    def test_skip_report_bytes(self, experiment, params, digest):
        report = run_experiment(experiment, params)
        assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest
        assert "NOT-APPLICABLE" in verdict_map(report).values()

    @pytest.mark.parametrize("experiment, sides", SIDES, ids=[s[0] for s in SIDES])
    def test_same_relations_on_every_side(self, experiment, sides):
        reports = [run_experiment(experiment, params) for params in sides]
        relations = {tuple(v.relation for v in r.verdicts) for r in reports}
        assert len(relations) == 1
        assert len({tuple(v.status for v in r.verdicts) for r in reports}) > 1


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            run_experiment("nope", {})

    @pytest.mark.parametrize("name", ["nope", ["x"], None, 3])
    def test_run_and_sweep_refuse_an_unknown_name_alike(self, name):
        with pytest.raises(UnknownExperiment) as single:
            run_experiment(name)
        with pytest.raises(UnknownExperiment) as swept:
            run_sweep(name, {})
        assert str(swept.value) == str(single.value) == (
            f"unknown experiment {name!r}; available: {', '.join(sorted(REGISTRY))}"
        )

    @pytest.mark.parametrize(
        "seed", [3.7, 2.9, -5, -1.0, 2**64, 2.0**64, True, "3", None, math.nan, math.inf]
    )
    def test_seed_outside_the_cli_range_refused_before_any_run(self, seed, monkeypatch):
        calls = []

        def recorder(seed, *, x=1):
            calls.append(seed)
            return {"x": x}, []

        monkeypatch.setitem(experiments._COMMANDS, "cex_i", recorder)
        message = r"seed must be an integer in \[0, 2\^64\), got "
        with pytest.raises(BadParams, match=message):
            run_experiment("cex_i", {}, seed=seed)
        with pytest.raises(BadParams, match=message):
            run_sweep("cex_i", {"x": [1, 2]}, seed=seed)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 5, 3.0, np.int64(7), 2**64 - 1])
    def test_integer_seed_in_range_runs(self, seed):
        report = run_experiment("cex_i", {"N": 4}, seed=seed)
        assert type(report.seed) is int and report.seed == seed
        sampled = {"grid": {"samples": [50]}, "base": {"mode": "sample"}}
        assert run_sweep("toeplitz", **sampled, seed=seed) == run_sweep("toeplitz", **sampled, seed=int(seed))

    def test_registry_is_complete(self):
        assert set(REGISTRY) == {
            "cex_i", "cex_ii", "cex_iii", "spiked", "toeplitz", "ecc", "markov", "table",
        }

    def test_registry_matches_the_family_modules(self):
        """Each registered name resolves to `cmd_<name>` of the module the
        registry names, and each `cmd_*` function the package defines is
        registered, with its module."""
        for name, module in REGISTRY.items():
            command = _command(name)
            assert (command.__module__, command.__name__) == (f"tracecrit.{module}", f"cmd_{name}")
            assert _command(name) is command  # imported once, then kept
        package = Path(experiments.__file__).parent
        defined = {
            (node.name.removeprefix("cmd_"), path.stem)
            for path in package.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        }
        assert defined == set(REGISTRY.items())

    def test_canonical_json_deterministic(self):
        a = run_experiment("cex_ii", {"preset": "two-bit-mixed"}, seed=3)
        b = run_experiment("cex_ii", {"preset": "two-bit-mixed"}, seed=3)
        assert a.canonical_json() == b.canonical_json()

    def test_jsonify_matches_the_recursive_route(self):
        """The exact-float and flat-map shortcuts give what one `numbers` test
        per scalar gives, types included: non-finite floats, numpy scalars,
        Fractions, bools, nested lists and a 2^16-entry integer map."""
        region_sizes = {format(i, "016b"): i % 7 for i in range(2**16)}
        docs = [
            {"a": 0.5, "b": math.nan, "c": -math.inf, "d": math.inf, "e": -0.0, "f": 5e-324},
            {"np": [np.float64(math.nan), np.float32(-np.inf), np.int64(-3), np.uint8(7), np.float64(0.1)]},
            {"fractions": [Fraction(1, 3), Fraction(-7, 2), Fraction(4, 2)], 2: True, None: False},
            {"nested": [[1, [2.5, (3, math.inf)]], ({"x": (np.float64(2.0),)},)], "empty": {}, "list": []},
            {"flat": {"a": 1, "b": True, "c": None, "d": "s"}, "ints_as_keys": {1: 2, 3: 4}},
            {"mixed": {"a": 1, "b": 2.5}, "numpy_int": {"a": np.int64(1)}, "bool_key": {True: 1}},
            {"region_sizes": region_sizes, "num": 2**70, "sub": dict(region_sizes)},
            [1.5, "x", None, 2**64],
            math.nan,
        ]
        for doc in docs:
            got, want = _jsonify(doc), jsonify_recursive(doc)
            assert repr(got) == repr(want)
            assert json.dumps(got, sort_keys=True, allow_nan=False) == json.dumps(want, sort_keys=True, allow_nan=False)
        copied = _jsonify(region_sizes)
        assert copied == region_sizes and copied is not region_sizes

    def test_jsonify_scalars(self):
        """Python, numpy and Fraction scalars of every width serialize to the
        canonical bytes of their Python int or float."""

        class Count(int):
            pass

        value = {
            "ints": [7, np.int64(-3), np.uint8(200), True, None, "s"],
            1: Fraction(1, 3),
            "floats": (0.5, np.float64(0.25), np.float32(1.5)),
            "nonfinite": [float("inf"), -math.inf, math.nan, np.float64(-np.inf), np.float32("nan"), np.float16("inf")],
            "widths": [np.int8(-128), np.int16(-2), np.int32(2**31 - 1), np.uint64(2**64 - 1), Count(5)],
            "float_widths": [np.float32(0.1), np.float32(-2.5), np.float64(1 / 3), np.float16(0.5)],
        }
        out = _jsonify(value)
        assert out == {
            "ints": [7, -3, 200, True, None, "s"],
            "1": 1 / 3,
            "floats": [0.5, 0.25, 1.5],
            "nonfinite": ["inf", "-inf", "nan", "-inf", "nan", "inf"],
            "widths": [-128, -2, 2**31 - 1, 2**64 - 1, 5],
            "float_widths": [float(np.float32(0.1)), -2.5, 1 / 3, 0.5],
        }
        assert [type(v) for v in out["ints"]] == [int, int, int, bool, type(None), str]
        assert [type(v) for v in out["floats"] + out["float_widths"]] == [float] * 7
        assert json.dumps(out, sort_keys=True, separators=(",", ":"), allow_nan=False) == (
            '{"1":0.3333333333333333,"float_widths":[0.10000000149011612,-2.5,0.3333333333333333,0.5],'
            '"floats":[0.5,0.25,1.5],"ints":[7,-3,200,true,null,"s"],'
            '"nonfinite":["inf","-inf","nan","-inf","nan","inf"],'
            '"widths":[-128,-2,2147483647,18446744073709551615,5]}'
        )

    def test_canonical_json_excludes_timing(self):
        report = run_experiment("markov", {"mean": 0.0, "threshold": 1.0})
        assert report.elapsed_seconds is not None
        assert "elapsed" not in report.canonical_json()


class TestSweep:
    def test_overlap_grid_margin_column(self):
        grid = {"overlap": [0.0, 0.25, 0.5, 0.75, 1.0]}
        text = run_sweep("cex_ii", grid, seed=0)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        d_col = header.index("d")
        margin_col = header.index("violation_margin")
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            d = float(cells[d_col])
            margin = float(cells[margin_col])
            assert margin == pytest.approx(d / 2, abs=1e-9)

    def test_empty_grid_header_only(self):
        text = run_sweep("cex_i", {}, seed=0)
        assert text.splitlines() == ["grid_index,all_pass"]

    def test_empty_value_list(self):
        text = run_sweep("cex_i", {"N": []}, seed=0)
        assert text.splitlines() == ["grid_index,N,all_pass"]

    def test_byte_identical_reruns(self):
        grid = {"N": [2, 4, 8]}
        assert run_sweep("cex_i", grid, seed=1) == run_sweep("cex_i", grid, seed=1)

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            run_sweep("nope", {"x": [1]})

    def test_result_columns_are_the_union_over_points(self):
        # cex_i reports no maximal_mismatch above MAX_DENSE_COUPLING, so N = 2000 lacks it
        first, second = (run_sweep("cex_i", {"N": values}) for values in ([2000, 4], [4, 2000]))
        assert first.splitlines()[0] == second.splitlines()[0]
        rows = {row["N"]: row for row in csv.DictReader(io.StringIO(first))}
        assert (rows["2000"]["maximal_mismatch"], rows["4"]["maximal_mismatch"]) == ("", "0.0")

    @pytest.mark.parametrize(
        "experiment,grid,base,cells",
        [
            (
                "cex_ii",
                {"rho1": [{"diag": [0.6, 0.4]}, {"bloch": [0, 0, 0.5]}]},
                {"sigma": {"diag": [1, 0]}, "rho2": {"diag": [0.1, 0.9]}},
                ['{"diag":[0.6,0.4]}', '{"bloch":[0,0,0.5]}'],
            ),
            ("ecc", {"generator": [[[1, 0, 1], [0, 1, 1]]]}, {}, ["[[1,0,1],[0,1,1]]"]),
        ],
    )
    def test_list_and_object_grid_values_are_compact_json(self, experiment, grid, base, cells):
        (name,) = grid
        rows = list(csv.DictReader(io.StringIO(run_sweep(experiment, grid, base=base))))
        assert [row[name] for row in rows] == cells
        assert [json.loads(cell) for cell in cells] == grid[name]

    @pytest.mark.parametrize(
        "experiment,grid,base,name,result",
        [
            ("toeplitz", {"mode": ["sample"]}, {"samples": 3}, "mode", "sample"),
            ("ecc", {"rule": ["min_distance"]}, {"preset": "code52"}, "rule", "min_distance"),
            ("spiked", {"n": [8]}, {}, "n", "8"),
            ("spiked", {"l": [3.0]}, {}, "l", "3"),
            ("markov", {"mean": [0.001]}, {}, "mean", "0.001"),
            ("table", {"n": [10]}, {"preset": "headline-gap"}, "n", "1000"),  # the preset's n wins
        ],
    )
    def test_result_named_like_a_grid_parameter_keeps_its_own_column(self, experiment, grid, base, name, result):
        text = run_sweep(experiment, grid, seed=0, base=base)
        header = text.splitlines()[0].split(",")
        assert len(header) == len(set(header)) and header.count(f"result:{name}") == 1
        (row,) = csv.DictReader(io.StringIO(text))
        assert (row[name], row[f"result:{name}"]) == (str(grid[name][0]), result)


class TestCli:
    def test_json_to_file_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "--experiment", "cex_ii",
            "--params", '{"preset": "two-bit-orthogonal"}',
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "cex_ii"

    def test_params_from_file(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text('{"N": 4}')
        out = tmp_path / "r.json"
        assert main(["--experiment", "cex_i", "--params", str(params), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["independent_mismatch"] == 0.75

    def test_unknown_experiment_exit_two(self, capsys):
        assert main(["--experiment", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["cex_ii", "cex_iii"])
    @pytest.mark.parametrize(
        "probes",
        [
            {"rho1": {"diag": [1.0000000005, -0.0000000005]}, "rho2": {"diag": [0, 1]}},
            {"rho1": {"diag": [1, 0]}, "rho2": {"diag": [-0.0000000005, 1.0000000005]}},
            {"rho1": {"diag": [1.0000000005, -0.0000000005]}, "rho2": {"diag": [-0.0000000005, 1.0000000005]}},
        ],
    )
    def test_specs_accepted_within_tolerance_run(self, experiment, probes):
        # d = 1/2 plus the slack the probe was accepted with; the run clamps, not refuses
        params = {"sigma": {"diag": [1, 0]}, **probes}
        code, out, err = run_cli(["--experiment", experiment, "--params", json.dumps(params)])
        assert (code, err) == (0, "")
        assert {v["status"] for v in json.loads(out)["verdicts"]} == {"PASS"}

    @pytest.mark.parametrize("experiment", ["cex_ii", "cex_iii"])
    def test_product_off_unit_by_accepted_slack_runs(self, experiment):
        # sigma (x) rho1 has trace 1 + 1.8e-9; each factor was accepted, so the product is too
        params = {
            "sigma": {"diag": [1.0000000009, 0]},
            "rho1": {"diag": [1.0000000009, 0]},
            "rho2": {"diag": [0, 1]},
        }
        code, out, err = run_cli(["--experiment", experiment, "--params", json.dumps(params)])
        assert (code, err) == (0, "")
        assert {v["status"] for v in json.loads(out)["verdicts"]} == {"PASS"}

    def test_bad_params_exit_two(self, capsys):
        assert main(["--experiment", "cex_i", "--params", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "case", ["params-directory", "params-blank", "params-not-utf8", "params-long", "out-no-directory"]
    )
    def test_file_errors_exit_two(self, case, tmp_path):
        undecodable = tmp_path / "p.json"
        undecodable.write_bytes(b'\xff\xfe{"N": 4}')
        out = tmp_path / "missing" / "x.json"
        argv = {
            "params-directory": ["--params", str(tmp_path)],
            "params-blank": ["--params", " "],  # the current directory
            "params-not-utf8": ["--params", str(undecodable)],
            "params-long": ["--params", "x" * 5000],  # longer than a file name may be
            "out-no-directory": ["--out", str(out)],
        }[case]
        code, stdout, err = run_cli(["--experiment", "cex_i", *argv])
        assert (code, stdout) == (2, "") and not out.exists()
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "file_text,inline,message",
        [
            ('{"N": ' + "[" * 100000 + "]" * 100000 + "}", None, "bad JSON in --params"),
            (None, '{"N": 4', "bad JSON in --params"),
            ("[1, 2]", None, "params must decode to a JSON object"),
            (None, "[]", "params must decode to a JSON object"),
        ],
        ids=["deeply-nested-file", "unterminated-inline", "list-file", "list-inline"],
    )
    def test_undecodable_params_exit_two(self, file_text, inline, message, tmp_path):
        path = tmp_path / "p.json"
        if file_text is not None:
            path.write_text(file_text)
        code, stdout, err = run_cli(["--experiment", "cex_i", "--params", inline or str(path)])
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_unsigned_64_bits_exit_two(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "cex_i", "--seed", str(seed)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --seed: invalid uint64 value" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--params", "{}"], "the following arguments are required: --experiment"),
            (["--experiment", "cex_i", "--seed", "-1"], "argument --seed: invalid uint64 value: '-1'"),
            (["--experiment", "cex_i", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            (["--experiment", "cex_i", "--nope", "1"], "unrecognized arguments: --nope 1"),
        ],
        ids=["missing-experiment", "negative-seed", "unknown-format", "unknown-option"],
    )
    def test_argument_refusals_print_one_error_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_help_exits_zero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (0, "")
        assert captured.out.startswith("usage: tracecrit [-h] --experiment EXPERIMENT")
        assert "--params PARAMS" in captured.out and "seed in [0, 2^64)" in captured.out

    def test_largest_seed_runs(self):
        code, stdout, err = run_cli(["--experiment", "cex_i", "--seed", str(2**64 - 1)])
        assert (code, err) == (0, "") and json.loads(stdout)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_sweep_refuses_formats_it_does_not_write(self, fmt):
        params = json.dumps({"experiment": "cex_i", "grid": {"N": [2]}})
        code, stdout, err = run_cli(["--experiment", "sweep", "--params", params, "--format", fmt])
        assert (code, stdout, err) == (2, "", f"error: a sweep writes csv, not {fmt}\n")

    def test_underflowing_markov_budget_exit_two(self, capsys):
        params = '{"eps": 0.01, "delta": 0.5, "guarantees": 100000}'
        assert main(["--experiment", "markov", "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: required average 2^-100007 is below")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_params_exit_two(self, constant, tmp_path, capsys):
        params = f'{{"mean": {constant}}}'
        assert main(["--experiment", "markov", "--params", params]) == 2
        assert capsys.readouterr().err.startswith("error:")
        path = tmp_path / "p.json"
        path.write_text(params)
        assert main(["--experiment", "markov", "--params", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("cex_i", '{"N": "abc"}'),
            ("cex_i", '{"N": 3.7}'),
            ("cex_i", '{"N": true}'),
            ("spiked", '{"n": "8"}'),
            ("spiked", '{"l": 2.5}'),
            ("toeplitz", '{"m": "2"}'),
            ("toeplitz", '{"n": 2.5}'),
            ("toeplitz", '{"mode": "sample", "samples": 10.5}'),
            ("markov", '{"eps": 0.1, "delta": 0.5, "guarantees": "3"}'),
            ("table", '{"n": 100, "l": 10, "m": "20"}'),
            ("table", '{"n": 100, "l": 10, "m": 20, "ms": [1.5]}'),
        ],
    )
    def test_non_integer_params_exit_two(self, experiment, params, capsys):
        assert main(["--experiment", experiment, "--params", params]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("markov", '{"mean": "abc"}'),
            ("markov", '{"eps": "x", "delta": 0.5}'),
            ("markov", '{"mean": true}'),
            ("markov", '{"threshold": 1e400}'),
            ("cex_ii", '{"overlap": "x"}'),
            ("cex_iii", '{"overlap": [0.5]}'),
            ("table", '{"n": 10, "l": 2, "m": 3, "epsilon": "x"}'),
            ("table", '{"n": 10, "l": 2, "m": 3, "ms": [11]}'),
            ("table", '{"n": 10, "l": -1, "m": 3}'),
            ("ecc", '{"preset": []}'),
            ("cex_iii", '{"preset": []}'),
            ("table", '{"preset": {}}'),
            ("ecc", '{"generator": 5}'),
            ("ecc", '{"generator": [5]}'),
            ("ecc", '{"generator": [[1.0, 0.0]]}'),
            ("ecc", '{"generator": [[true, false, true], [false, true, true]]}'),
            ("cex_ii", '{"sigma": {"diag": ["1", "0"]}, "rho1": {"diag": [1, 0]}, "rho2": {"diag": [0, 1]}}'),
            ("cex_ii", '{"sigma": {"diag": [1, 0]}, "rho1": {"diag": [true, false]}, "rho2": {"diag": [0, 1]}}'),
            ("cex_iii", '{"sigma": {"diag": "10"}, "rho1": {"diag": [1, 0]}, "rho2": {"diag": [0, 1]}}'),
            ("cex_iii", '{"sigma": {"diag": [1, 0]}, "rho1": {"diag": [1, 0]}, "rho2": {"bloch": [0, "0.5", 0]}}'),
            ("ecc", '{"code_file": "/nonexistent/code.txt"}'),
            ("ecc", '{"code_file": "."}'),
            ("ecc", '{"code_file": 5}'),
            ("toeplitz", '{"m": 3, "n": 3, "mode": "sample"}'),
            ("toeplitz", '{"m": 3, "n": 3, "mode": "sample", "samples": 0}'),
            ("table", '{"preset": "headline-gap", "ms": 5}'),
            ("table", '{"preset": "headline-gap", "ms": []}'),
            ("cex_i", '{"N": 100000000}'),
            pytest.param("cex_i", '{"N": 1' + "0" * 5000 + "}", id="cex_i-int-past-the-digit-limit"),
            ("table", f'{{"n": {10**400}, "l": 2, "m": {10**400}}}'),
            ("table", f'{{"n": 1000, "l": {10**400}, "m": 100}}'),
            ("markov", f'{{"eps": 0.1, "delta": 0.5, "guarantees": {10**400}}}'),
            ("markov", f'{{"eps": 0.1, "delta": 1.0, "guarantees": {10**400}}}'),
            ("toeplitz", '{"m": 100000000, "n": 1}'),
            ("sweep", '{"experiment": ["cex_i"], "grid": {}}'),
            ("sweep", '{"experiment": "cex_i", "grid": [2, 4]}'),
            ("sweep", '{"experiment": "cex_i", "grid": {"N": 4}}'),
            ("sweep", '{"experiment": "cex_i", "grid": {"N": [4]}, "base": [["N", 2]]}'),
            pytest.param("sweep", json.dumps({"experiment": "cex_ii", "grid": {
                "preset": ["two-bit-mixed"] * 100, "overlap": [0.5] * 100,
                **dict.fromkeys(("sigma", "rho1", "rho2"), [{"diag": [1, 0]}] * 100),
            }}), id="sweep-of-10^10-points"),
        ],
    )
    def test_malformed_params_exit_two(self, experiment, params, capsys):
        assert main(["--experiment", experiment, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_integral_float_params_keep_results(self):
        for name, params in [("cex_i", {"N": 4}), ("spiked", {"n": 8, "l": 3}), ("toeplitz", {"m": 3, "n": 4})]:
            as_floats = {k: float(v) for k, v in params.items()}
            assert run_experiment(name, as_floats).results == run_experiment(name, params).results

    def test_oversized_sample_count_exit_two(self, capsys):
        params = json.dumps({"mode": "sample", "samples": 10**12})
        assert main(["--experiment", "toeplitz", "--params", params]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_markdown_format(self, capsys):
        assert main(["--experiment", "markov", "--params", '{"mean": 0.0, "threshold": 1.0}', "--format", "md"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("# experiment: markov")
        assert "**PASS**" in text

    def test_csv_format(self, capsys):
        assert main(["--experiment", "cex_i", "--params", '{"N": 4}', "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "field,value"
        assert any(line.startswith("verdict:") for line in text.splitlines())

    def test_sweep_via_cli(self, tmp_path):
        out = tmp_path / "sweep.csv"
        params = json.dumps({"experiment": "cex_i", "grid": {"N": [2, 4]}})
        assert main(["--experiment", "sweep", "--params", params, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "grid_index" and header[1] == "N" and header[-1] == "all_pass"
        assert len(lines) == 3

    def test_sweep_over_a_file_name_with_a_newline(self, tmp_path, capsys):
        # csv quotes the newline inside its field, and the row still ends in its verdict
        path = tmp_path / "a\nb.txt"
        path.write_text("101\n011\n")
        params = json.dumps({"experiment": "ecc", "grid": {"code_file": [str(path)]}})
        assert main(["--experiment", "sweep", "--params", params]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2 and rows[1][1] == str(path) and rows[1][-1] == "True"

    @pytest.mark.parametrize(
        "params,code",
        [
            # n = 70 gives a 71-bit seed space: 64 samples find no singular seed, so point 1 FAILs
            ({"experiment": "toeplitz", "grid": {"n": [2, 70]}, "base": {"m": 2, "mode": "sample", "samples": 64}}, 1),
            ({"experiment": "toeplitz", "grid": {"n": [2, 3]}, "base": {"m": 2}}, 0),
            ({"experiment": "cex_ii", "grid": {"overlap": [0, 0.5, 1.0]}}, 0),
        ],
        ids=["one-point-fails", "toeplitz-all-pass", "cex_ii-all-pass"],
    )
    def test_sweep_exit_code_follows_its_points(self, params, code):
        """A sweep exits 1 when any point fails and 0 when all pass, and
        writes the text of `run_sweep` either way."""
        want = run_sweep(params["experiment"], params["grid"], base=params.get("base"))
        rows = list(csv.reader(io.StringIO(want)))
        assert [row[-1] for row in rows[1:]] == (["True", "False"] if code else ["True"] * (len(rows) - 1))
        assert run_cli(["--experiment", "sweep", "--params", json.dumps(params)]) == (code, want, "")

    @pytest.mark.parametrize("kind", ["params", "code_file"])
    def test_file_past_the_byte_bound_exit_two(self, kind, tmp_path):
        path = tmp_path / "f"
        experiment, text = ("cex_i", '{"N": 4}') if kind == "params" else ("ecc", "101\n011\n")
        params = str(path) if kind == "params" else json.dumps({"code_file": str(path)})
        argv = ["--experiment", experiment, "--params", params]
        path.write_text(text.ljust(_MAX_FILE_BYTES))
        assert run_cli(argv)[0] == 0
        path.write_text(text.ljust(_MAX_FILE_BYTES + 1))
        code, stdout, err = run_cli(argv)
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and "longer than" in err and err.count("\n") == 1

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    @pytest.mark.parametrize("params", ["/dev/zero", '{"code_file": "/dev/zero"}'])
    def test_endless_file_exit_two(self, params):
        experiment = "cex_i" if params == "/dev/zero" else "ecc"
        code, stdout, err = run_cli(["--experiment", experiment, "--params", params])
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and "longer than" in err and err.count("\n") == 1

    def test_sweep_missing_target(self, capsys):
        assert main(["--experiment", "sweep", "--params", "{}"]) == 2

    def test_byte_identical_cli_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["--experiment", "spiked", "--params", '{"n": 8, "l": 3}', "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


#: Parameter names and string values the experiments read.
PARAM_NAMES = (
    "N", "n", "l", "m", "ms", "mode", "samples", "preset", "overlap", "sigma", "rho1", "rho2",
    "generator", "code_file", "rule", "mean", "threshold", "eps", "delta", "guarantees",
    "epsilon",
)
WORDS = (
    "diag", "bloch", "sample", "exhaustive", "syndrome", "min_distance",
    *TWO_BIT_PRESETS, *CODE_PRESETS, *SCENARIO_PRESETS, *REGISTRY,
)
# Small numbers keep every request far below the size caps, so each run is fast;
# integers past 2^53, up to 10^400, are refused before any work.
VALUES = st.recursive(
    st.one_of(
        st.integers(-2, 8),
        st.integers(2**53 + 1, 10**400).flatmap(lambda v: st.sampled_from([v, -v])),
        st.floats(-2.0, 8.0),
        st.sampled_from(WORDS),
        st.text(max_size=4),
        st.booleans(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(WORDS), st.text(max_size=4)), inner, max_size=3),
    ),
    max_leaves=8,
)
#: Valid parameter objects of each experiment, which generated objects start from.
VALID_PARAMS = {
    "cex_i": [{"N": 4}],
    "cex_ii": [{"preset": "two-bit-mixed"}, {"overlap": 0.5}],
    "cex_iii": [
        {"sigma": {"diag": [1, 0]}, "rho1": {"diag": [0.6, 0.4]}, "rho2": {"bloch": [0, 0.6, 0.8]}}
    ],
    "spiked": [{"n": 8, "l": 3}],
    "toeplitz": [{"m": 3, "n": 4}, {"m": 3, "n": 4, "mode": "sample", "samples": 5}],
    "ecc": [{"generator": [[1, 0, 1], [0, 1, 1]], "rule": "min_distance"}, {"preset": "code52"}],
    "markov": [{"mean": 0.001, "threshold": 0.01, "eps": 0.1, "delta": 0.5, "guarantees": 2}],
    "table": [{"n": 10, "l": 2, "m": 3, "epsilon": 0.01, "ms": [1, 2]}, {"preset": "headline-gap"}],
}


def near_valid(experiment):
    """A valid object with some entries dropped and up to two set to arbitrary values."""
    return st.builds(
        lambda base, drop, new: {**{k: v for k, v in base.items() if k not in drop}, **new},
        st.sampled_from(VALID_PARAMS[experiment]),
        st.sets(st.sampled_from(PARAM_NAMES)),
        st.dictionaries(
            st.one_of(st.sampled_from(PARAM_NAMES), st.text(max_size=4)),
            st.one_of(VALUES, st.none()),
            max_size=2,
        ),
    )


SWEEP_PARAMS = st.one_of(
    st.sampled_from(sorted(REGISTRY)).flatmap(
        lambda name: st.fixed_dictionaries(
            {"experiment": st.just(name)},
            optional={
                "grid": st.dictionaries(
                    st.sampled_from(PARAM_NAMES), st.lists(VALUES, max_size=3), max_size=2
                ),
                "base": near_valid(name),
            },
        )
    ),
    st.fixed_dictionaries({}, optional={"experiment": VALUES, "grid": VALUES, "base": VALUES}),
)


class TestCliContract:
    """Any JSON object exits 0, 1 or 2, never with an exception, and prints
    what its exit code says: one error line for 2, and for 0 or 1 a report
    that has a FAIL verdict exactly when the code is 1."""

    @staticmethod
    def assert_contract(experiment, params):
        code, out, err = run_cli(["--experiment", experiment, "--params", json.dumps(params)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            return
        assert err == ""
        if experiment == "sweep":
            failed = any(row["all_pass"] == "False" for row in csv.DictReader(io.StringIO(out)))
        else:
            failed = any(v["status"] == "FAIL" for v in json.loads(out)["verdicts"])
        assert code == (1 if failed else 0)

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_experiment_params(self, experiment, data):
        self.assert_contract(experiment, data.draw(near_valid(experiment)))

    @settings(max_examples=120, deadline=None)
    @given(params=SWEEP_PARAMS)
    def test_sweep_params(self, params):
        self.assert_contract("sweep", params)



def run_cli(argv):
    """Exit code, stdout and stderr of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(experiment, params) -> str:
    """The one `error:` line of a request that exits 2 with nothing on stdout."""
    code, out, err = run_cli(["--experiment", experiment, "--params", json.dumps(params)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    return err


#: Refused requests, each with its argv and the exact stderr it gives, recorded
#: once and kept as fixed data: every range, cap and missing-spec check of each
#: family, two refusals that read a state already built, and inline `--params`
#: that is JSON but not an object.
REFUSALS = json.loads(Path(__file__).with_name("refusals.json").read_text())


@pytest.mark.parametrize("argv, stderr", [(r["argv"], r["stderr"]) for r in REFUSALS.values()], ids=REFUSALS)
def test_refusal_keeps_its_message(argv, stderr):
    assert run_cli(argv) == (2, "", stderr)


class TestDeclaredParams:
    """Each command's keyword-only signature is the declaration of its
    parameters; anything else is refused before the command runs."""

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    def test_signature_is_seed_then_keyword_defaults(self, experiment):
        seed, *rest = inspect.signature(_command(experiment)).parameters.values()
        assert seed.name == "seed" and seed.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert rest and all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in rest)
        assert all(p.default is not inspect.Parameter.empty for p in rest)

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    def test_kwdefaults_and_annotations_match_the_signature(self, experiment):
        """`run_experiment` reads a command's parameters from these two, not
        from `inspect`, so they must declare what its signature declares."""
        command = _command(experiment)
        parameters = list(inspect.signature(command).parameters.values())[1:]
        assert list(command.__kwdefaults__.items()) == [(p.name, p.default) for p in parameters]
        declared = {p.name: p.annotation for p in parameters if p.annotation is not p.empty}
        assert {k: v for k, v in command.__annotations__.items() if k != "seed"} == declared

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    def test_undeclared_name_message(self, experiment):
        names = ", ".join(list(inspect.signature(_command(experiment)).parameters)[1:])
        message = f"{experiment} has no parameters ['undeclared', 'seed']; it declares {names}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            run_experiment(experiment, {"undeclared": 1, "seed": 2})

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    def test_undeclared_name_exit_two(self, experiment):
        assert_refused(experiment, {**VALID_PARAMS[experiment][0], "undeclared": 1})
        assert_refused(experiment, {**VALID_PARAMS[experiment][0], "seed": 1})

    @pytest.mark.parametrize("experiment", sorted(REGISTRY))
    def test_null_value_exit_two(self, experiment):
        for valid in VALID_PARAMS[experiment]:
            for name in valid:
                assert_refused(experiment, {**valid, name: None})

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("cex_i", {"NN": 8}),
            ("toeplitz", {"samples": None}),
            ("table", {"n": 10, "l": 2, "m": 3, "ms": None}),
            ("cex_ii", {"preset": "two-bit-mixed", "overlap": None}),
            ("table", {"preset": "headline-gap", "n": None}),
            ("markov", {"eps": None}),
            ("markov", {"eps": None, "delta": 0.5}),
            # mistyped values of parameters the run does not read
            ("markov", {"guarantees": "abc"}),
            ("cex_ii", {"preset": "two-bit-mixed", "overlap": "abc"}),
            ("cex_ii", {"preset": "two-bit-mixed", "sigma": 7}),
            ("table", {"preset": "headline-gap", "n": "x"}),
        ],
    )
    def test_newly_refused_inputs(self, experiment, params):
        assert_refused(experiment, params)

    def test_api_refuses_before_the_command_runs(self, monkeypatch):
        calls = []

        def recorder(seed, *, x=1):
            calls.append((seed, x))
            return {"x": x}, []

        monkeypatch.setitem(experiments._COMMANDS, "cex_i", recorder)
        for params in ({"y": 1}, {"x": None}, {"seed": 2}, {1: 2}, {"x": 2, "X": 2}):
            with pytest.raises(ParseError):
                run_experiment("cex_i", params, seed=5)
        assert calls == []
        report = run_experiment("cex_i", {"x": 3}, seed=5)
        assert calls == [(5, 3)] and report.params == {"x": 3}

    def test_type_error_inside_a_command_propagates(self, monkeypatch):
        def broken(seed, *, x=1):
            raise TypeError("raised inside the command")

        monkeypatch.setitem(experiments._COMMANDS, "cex_i", broken)
        with pytest.raises(TypeError, match="inside the command"):
            run_experiment("cex_i", {"x": 2})

    def test_report_echoes_the_given_params(self):
        assert run_experiment("cex_i", {"N": 4.0}).params == {"N": 4.0}
        assert run_experiment("cex_i").params == {}

    def test_sweep_over_undeclared_name_writes_no_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        params = json.dumps({"experiment": "cex_i", "grid": {"NN": [4, 8]}})
        code, stdout, err = run_cli(["--experiment", "sweep", "--params", params, "--out", str(out)])
        assert (code, stdout) == (2, "") and err.startswith("error:")
        assert not out.exists()
        with pytest.raises(ParseError):
            run_sweep("cex_i", {"N": [4, 8]}, base={"NN": 2})

    @pytest.mark.parametrize(
        "params",
        [
            {"experiment": "cex_i", "grid": {"NN": []}},
            {"experiment": "cex_i", "grid": {}, "base": {"NN": 3}},
            {"experiment": "cex_i", "grid": {"N": []}, "base": {"N": None}},
            {"experiment": "cex_i", "grid": {"N": [4, None]}},
            {"experiment": "cex_ii", "grid": {"overlap": [0.5]}, "typo": 1},
            {"experiment": "cex_i", "grid": {"N": [4]}, "bse": {"N": 2}},
            {"experiment": "spiked", "grid": {"n": ["x"], "l": []}},
        ],
    )
    def test_sweep_names_are_bound_before_the_first_point(self, params):
        assert_refused("sweep", params)

    def test_sweep_binds_every_value_once_before_the_first_point(self, monkeypatch):
        coerced, calls = [], []

        def kind(value, name):
            coerced.append(value)
            return _int_param(value, name)

        def recorder(seed, *, x: kind = 1, y: kind = 1):
            calls.append((x, y))
            return {"x": x}, []

        monkeypatch.setitem(experiments._COMMANDS, "cex_i", recorder)
        with pytest.raises(BadParams):
            run_sweep("cex_i", {"x": [1, 2], "y": [3, "4"]})
        assert coerced == [1, 2, 3, "4"] and calls == []
        coerced.clear()
        text = run_sweep("cex_i", {"x": [1, 2.0], "y": [3, 4]}, base={"y": 5})
        assert coerced == [5, 1, 2.0, 3, 4]
        assert calls == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert text.splitlines()[1:3] == ["0,1,3,1,True", "1,1,4,1,True"]
        assert text.splitlines()[3] == "2,2.0,3,2,True"  # each cell as given

    def test_sweep_past_the_point_cap_binds_no_value(self, monkeypatch):
        coerced = []

        def kind(value, name):
            coerced.append(value)
            return value

        def recorder(seed, *, x: kind = 1, y: kind = 1):
            return {"x": x}, []

        monkeypatch.setitem(experiments._COMMANDS, "cex_i", recorder)
        side = math.isqrt(_MAX_SWEEP_POINTS)
        with pytest.raises(TooLarge, match=f"{side * (side + 1)} points"):
            run_sweep("cex_i", {"x": list(range(side)), "y": list(range(side + 1))}, base={"y": 2})
        assert coerced == []

    def test_sweep_with_no_points_keeps_its_header(self):
        for grid, header in (({}, "grid_index,all_pass\n"), ({"N": []}, "grid_index,N,all_pass\n")):
            params = json.dumps({"experiment": "cex_i", "grid": grid, "base": {"N": 8}})
            assert run_cli(["--experiment", "sweep", "--params", params]) == (0, header, "")

    @pytest.mark.parametrize("experiment", ["cex_ii", "cex_iii"])
    @pytest.mark.parametrize("overlap", [1.5, -0.1])
    def test_out_of_range_overlap_exit_two(self, experiment, overlap):
        err = assert_refused(experiment, {"overlap": overlap})
        assert err == f"error: overlap must lie in [0, 1], got {overlap}\n"

    def test_table_without_epsilon_blames_l_zero(self):
        err = assert_refused("table", {"n": 1, "l": 0, "m": 1})
        assert err == "error: exponent l must be positive when epsilon is omitted, its default 2^-l being 1\n"
        assert run_experiment("table", {"n": 1, "l": 0, "m": 1, "epsilon": 0.5}).all_ok()

    def test_sample_mode_matrix_size_cap(self):
        params = {"m": 1000000, "n": 1, "mode": "sample", "samples": 1}
        start = time.perf_counter()
        assert_refused("toeplitz", params)
        assert time.perf_counter() - start < 1.0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_parameters() -> dict:
    """Experiment -> [(name, default)] from the README parameter table; a
    bare name has the default None."""
    section = README.read_text().split("### Parameters", 1)[1]
    table = {}
    for row in re.findall(r"^\| `(\w+)` +\| (.+) \|$", section, flags=re.M):
        experiment, cells = row
        entries = [cell.strip("`").split("=", 1) for cell in cells.split(", ")]
        table[experiment] = [(e[0], json.loads(e[1]) if len(e) == 2 else None) for e in entries]
    return table


def test_readme_parameter_table_matches_signatures():
    declared = {
        name: [(p.name, p.default) for p in inspect.signature(_command(name)).parameters.values()][1:]
        for name in REGISTRY
    }
    assert readme_parameters() == declared


@pytest.mark.parametrize(
    "label,kinds",
    [
        ("Integer parameters", (_int_param, _int_list_param)),
        ("Real parameters", (_float_param,)),
        ("Qubit-spec parameters", (parse_qubit,)),
    ],
)
def test_readme_kind_lists_match_annotations(label, kinds):
    listed = re.search(rf"{label} \(([^)]*)\)", " ".join(README.read_text().split())).group(1)
    annotated = {
        p.name
        for name in REGISTRY
        for p in inspect.signature(_command(name)).parameters.values()
        if p.annotation in kinds
    }
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(annotated)


def test_cex_i_builds_no_fraction_per_atom(monkeypatch):
    """The exact cex_i path keeps masses as integer numerators, so the number
    of Fractions it constructs does not grow with N."""
    from fractions import Fraction

    counts = []
    original = Fraction.__dict__["__new__"].__func__

    def counting(cls, *args, **kwargs):
        counts[-1] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for n_atoms in (1000, 20000):
        counts.append(0)
        report = run_experiment("cex_i", {"N": n_atoms}, 0)
        assert report.results["independent_mismatch_den"] == n_atoms
    assert max(counts) <= 8, counts


@pytest.mark.parametrize("experiment,most", [("cex_ii", 6), ("cex_iii", 4)])
def test_two_bit_runs_wrap_only_the_probes_they_read(experiment, most, monkeypatch):
    """The ensemble builders pass plain matrices, so a run constructs a
    DensityOperator only for its qubit specs, the average probes and the
    probes it reads back."""
    from tracecrit.qmath import DensityOperator

    count = 0
    original = DensityOperator.__post_init__

    def counting(self):
        nonlocal count
        count += 1
        original(self)

    monkeypatch.setattr(DensityOperator, "__post_init__", counting)
    run_experiment(experiment, {"overlap": 0.3}, 0)
    assert count <= most


def test_readme_library_block_prints_its_comments():
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "0.25\n0.75 0.625\n"
