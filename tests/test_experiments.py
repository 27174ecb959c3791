import json

import numpy as np
import pytest

from tracecrit.cli import main
from tracecrit.errors import BadParams, ParseError, UnknownExperiment
from tracecrit.experiments import (
    REGISTRY,
    parse_qubit,
    report_from_json,
    run_experiment,
    run_sweep,
)


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

    def test_code_file(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("101\n011\n")
        report = run_experiment("ecc", {"code_file": str(path), "rule": "syndrome"})
        assert report.results["n"] == 3 and report.results["k"] == 2

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            run_experiment("ecc", {"preset": "golay"})


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


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            run_experiment("nope", {})

    def test_registry_is_complete(self):
        assert set(REGISTRY) == {
            "cex_i", "cex_ii", "cex_iii", "spiked", "toeplitz", "ecc", "markov", "table",
        }

    def test_canonical_json_deterministic(self):
        a = run_experiment("cex_ii", {"preset": "two-bit-mixed"}, seed=3)
        b = run_experiment("cex_ii", {"preset": "two-bit-mixed"}, seed=3)
        assert a.canonical_json() == b.canonical_json()

    def test_canonical_json_excludes_timing(self):
        report = run_experiment("markov", {"mean": 0.0, "threshold": 1.0})
        assert report.elapsed_seconds is not None
        assert "elapsed" not in report.canonical_json()

    def test_round_trip_losslessly(self):
        report = run_experiment("cex_iii", {"preset": "two-bit-mixed"}, seed=11)
        back = report_from_json(report.canonical_json())
        assert back.canonical_json() == report.canonical_json()


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

    def test_bad_params_exit_two(self, capsys):
        assert main(["--experiment", "cex_i", "--params", "/nonexistent.json"]) == 2

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

    def test_sweep_missing_target(self, capsys):
        assert main(["--experiment", "sweep", "--params", "{}"]) == 2

    def test_byte_identical_cli_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["--experiment", "spiked", "--params", '{"n": 8, "l": 3}', "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
