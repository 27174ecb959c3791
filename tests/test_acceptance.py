"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every expected value below is either exact arithmetic or was
computed from an oracle independent of the code path it checks.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    Gf2Matrix,
    LeakSpec,
    LinearCode,
    ProbDist,
    SpikedDist,
    classical_dbar,
    criterion_d_averaged,
    criterion_d_entangled,
    decision_region_census,
    delta_E_variants,
    event_deviation_bound,
    gf2_rank,
    helstrom_binary,
    independent_coupling,
    markov_bound,
    maximal_coupling,
    measure_ensemble,
    mismatch_probability,
    post_leak_discrimination,
    singular_fraction,
    two_bit_pkl_example,
    uniform_comparison_table,
    variational_distance,
)
from tracecrit.bounds import GuaranteeScenario, average_for_individual_guarantee
from tracecrit.cli import main
from tracecrit.discrimination import JointDistribution
from tracecrit.ensembles import bit_strings
from tracecrit.experiments import run_experiment

from helpers import (
    probe,
    random_density,
    random_ensemble,
    random_povm,
    random_probdist,
    single_bit_pure_example,
    toeplitz_from_seed,
    trace_norm_loop,
)


def done(number: int, label: str):
    print(f"criterion {number:02d} ({label}): PASS")


def test_criterion_01_equivalence_of_criterion_forms():
    rng = np.random.default_rng(1001)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 5))
        e = random_ensemble(rng, n, dim)
        assert abs(criterion_d_entangled(e) - criterion_d_averaged(e)) <= 1e-9
    done(1, "entangled and averaged criterion forms agree to 1e-9")


def test_criterion_02_two_bit_family_distance_identity():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        family = two_bit_pkl_example(sigma, rho1, rho2)
        expected = 0.25 * trace_norm_loop(rho1.matrix - rho2.matrix)
        assert abs(criterion_d_averaged(family) - expected) <= 1e-9
    done(2, "two-bit family criterion equals quarter pair norm")


def test_criterion_03_single_bit_success_margin():
    grid = np.linspace(0.0, 1.0, 21)
    for c in grid:
        e = single_bit_pure_example(float(c))
        d = criterion_d_averaged(e)
        success = helstrom_binary(probe(e, "0"), probe(e, "1"), 0.5)
        cap = 0.5 + d / 2
        assert abs(success - (0.5 + d)) <= 1e-9
        assert abs((success - cap) - d / 2) <= 1e-9
        if c < 1.0:
            assert success - cap > 0.0
    done(3, "optimal single-bit success exceeds the mixture cap by d/2")


def test_criterion_04_post_leak_violation():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        family = two_bit_pkl_example(sigma, rho1, rho2)
        success, d = post_leak_discrimination(family, LeakSpec((0,), (0,)))
        assert abs(success - (0.5 + d)) <= 1e-9
        if trace_norm_loop(rho1.matrix - rho2.matrix) > 1e-6:
            assert success > 0.5 + d / 2
    done(4, "post-leak success is 1/2 + d and beats the mixture cap")


def test_criterion_05_coupling_counterexample():
    for n_atoms in (2, 4, 256, 2**16):
        labels = tuple(str(i) for i in range(n_atoms))
        p = ProbDist.uniform(labels)
        q = ProbDist.uniform(labels)
        assert variational_distance(p, q) == 0
        mismatch = mismatch_probability(independent_coupling(p, q))
        assert mismatch == Fraction(n_atoms - 1, n_atoms)  # exact rational
    rng = np.random.default_rng(1005)
    labels = tuple(f"x{i}" for i in range(10))
    for _ in range(100):
        p = random_probdist(rng, labels)
        q = random_probdist(rng, labels)
        delta = float(variational_distance(p, q))
        attained = float(mismatch_probability(maximal_coupling(p, q)))
        assert abs(attained - delta) <= 1e-12
    done(5, "independent coupling mismatch 1 - 1/N at distance zero")


def test_criterion_06_measured_deviation_exceeds_criterion():
    orthogonal = run_experiment("cex_iii", {"preset": "two-bit-orthogonal"})
    res = orthogonal.results
    assert abs(res["joint_vs_product_uniform"] - 0.75) <= 1e-12
    assert abs(res["d"] - 0.5) <= 1e-12
    assert res["joint_vs_product_uniform"] > res["d"]

    mixed = run_experiment("cex_iii", {"preset": "two-bit-mixed"})
    res = mixed.results
    assert abs(res["max_posterior_dev"] - 5 / 14) <= 1e-12
    assert abs(res["d"] - 0.25) <= 1e-12
    assert res["max_posterior_dev"] > res["d"]
    done(6, "joint and posterior readings exceed d on the presets")


def test_criterion_07_average_identity_and_data_processing():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        rows, cols = 4, int(rng.integers(2, 7))
        conditional = rng.random((rows, cols)) + 1e-6
        conditional /= conditional.sum(axis=1, keepdims=True)
        mass = conditional / rows
        outcome_labels = tuple(f"o{j}" for j in range(cols))
        joint = JointDistribution(bit_strings(2), outcome_labels, mass)
        dbar = classical_dbar(joint)
        # independent route: average the per-key conditional distances
        avg_row = ProbDist(outcome_labels, tuple(mass.sum(axis=0)))
        direct = np.mean(
            [
                float(variational_distance(ProbDist(outcome_labels, tuple(conditional[i])), avg_row))
                for i in range(rows)
            ]
        )
        assert abs(dbar - direct) <= 1e-12

    for _ in range(100):
        e = random_ensemble(rng, 2, 3)
        povm = random_povm(rng, 3, int(rng.integers(2, 6)))
        dbar = classical_dbar(measure_ensemble(e, povm))
        assert dbar <= criterion_d_averaged(e) + 1e-9
    done(7, "joint-vs-product distance equals the averaged identity")


def test_criterion_08_event_bound():
    rng = np.random.default_rng(1008)
    labels = bit_strings(10)
    uniform = ProbDist.uniform(labels)
    for _ in range(50):
        p = random_probdist(rng, labels)
        m = int(rng.integers(1, 11))
        dev, _ = event_deviation_bound(p, m)
        assert dev <= float(variational_distance(p, uniform))  # exact inequality

    dev, _ = event_deviation_bound(SpikedDist(8, 3), 8)
    assert dev == Fraction(31, 256)
    assert float(dev) == 0.12109375
    done(8, "subsequence deviations stay below the distance to uniform")


def test_criterion_09_spiked_distribution_values():
    for n, l in ((8, 3), (16, 8), (30, 20)):
        dist = SpikedDist(n, l)
        analytic = Fraction(1, 2**l) - Fraction(1, 2**n)
        summed = dist.variational_from_uniform()
        assert abs(float(analytic) - float(summed)) <= 1e-12
        assert analytic == summed
        assert dist.max_mass() == Fraction(1, 2**l)  # exact peak mass
    done(9, "spiked deviation 2^-l - 2^-n and peak mass 2^-l are exact")


def _output_support_size(mat: Gf2Matrix) -> int:
    """Oracle: distinct outputs of the hash over the whole input space."""
    xs = np.arange(2**mat.cols, dtype=np.int64)
    out = np.zeros_like(xs)
    for i, row in enumerate(mat.row_bits):
        v = xs & row
        # XOR-fold parity
        for shift in (32, 16, 8, 4, 2, 1):
            v ^= v >> shift
        out |= (v & 1) << i
    return int(len(np.unique(out)))


def test_criterion_10_toeplitz_rank_leakage():
    assert singular_fraction(2, 2, mode="exhaustive") == 0.5

    rng = np.random.default_rng(1010)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, n + 1))
        seed_bits = rng.integers(0, 2, size=m + n - 1).tolist()
        mat = toeplitz_from_seed(seed_bits, m, n)
        # uniform input, linear map: output uniform on its image, so the
        # entropy deficit is m - log2(#outputs), an exact integer
        deficit = mat.rows - int(math.log2(_output_support_size(mat)))
        assert mat.rows - gf2_rank(mat) == deficit
    done(10, "hash leakage equals the brute-force entropy deficit")


def test_criterion_11_decision_region_census():
    hamming = LinearCode(
        Gf2Matrix.from_rows(
            [
                [1, 0, 0, 0, 1, 1, 0],
                [0, 1, 0, 0, 1, 0, 1],
                [0, 0, 1, 0, 0, 1, 1],
                [0, 0, 0, 1, 1, 1, 1],
            ]
        )
    )
    census = decision_region_census(hamming, "syndrome")
    assert sorted(census.region_sizes.values()) == [8] * 16
    assert census.bias_delta == 0.0

    skew = LinearCode(Gf2Matrix.from_rows([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]))
    biased = decision_region_census(skew, "min_distance")
    assert biased.bias_delta > 0.0
    done(11, "perfect code has equal regions, the 5-bit code is biased")


def test_criterion_12_guarantee_arithmetic():
    assert markov_bound(0.001, 0.01) == 0.1
    assert markov_bound(0.0, 0.3) == 0.0
    assert markov_bound(3.0, 0.5) == 1.0

    eps, delta = 2.0**-16, 2.0**-16
    chained = average_for_individual_guarantee(eps, delta, guarantees=2)
    assert chained.required_average == eps * delta**2

    scenario = GuaranteeScenario(n=1000, l=20, m=100)
    (row,) = uniform_comparison_table(scenario)
    assert abs(row.ratio_log2 - 80.0) <= 1e-9
    done(12, "Markov budgets and the log2-domain comparison ratio")


def test_criterion_13_cli_determinism(tmp_path):
    cases = [
        ("cex_i", {"N": 256}),
        ("cex_ii", {"preset": "two-bit-mixed"}),
        ("cex_iii", {"preset": "two-bit-orthogonal"}),
        ("spiked", {"n": 16, "l": 8}),
        ("toeplitz", {"m": 3, "n": 4, "mode": "sample", "samples": 500}),
        ("ecc", {"preset": "code52", "rule": "min_distance"}),
        ("markov", {"mean": 0.001, "threshold": 0.01}),
        ("table", {"preset": "headline-gap"}),
    ]
    for name, params in cases:
        first = tmp_path / f"{name}_1.json"
        second = tmp_path / f"{name}_2.json"
        argv = ["--experiment", name, "--params", json.dumps(params), "--seed", "42"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    sweep1, sweep2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sweep_params = json.dumps(
        {"experiment": "cex_ii", "grid": {"overlap": [0.0, 0.5, 1.0]}}
    )
    argv = ["--experiment", "sweep", "--params", sweep_params, "--seed", "42"]
    assert main(argv + ["--out", str(sweep1)]) == 0
    assert main(argv + ["--out", str(sweep2)]) == 0
    assert sweep1.read_bytes() == sweep2.read_bytes()
    done(13, "every experiment reruns to byte-identical canonical output")
