import math
import sys

import numpy as np
import pytest

from tracecrit import (
    GuaranteeScenario,
    average_for_individual_guarantee,
    criterion_d_averaged,
    helstrom_binary,
    hypothesis_ii_cap,
    markov_bound,
    uniform_comparison_table,
    validate_density,
)
from tracecrit.bounds import _logaddexp2
from tracecrit.cli import render_csv, render_markdown
from tracecrit.errors import TOL, BadParams
from tracecrit.experiments import run_experiment

from helpers import hypothesis_ii_exact, random_density, single_bit_pure_example


class TestMarkovBound:
    def test_arithmetic(self):
        assert markov_bound(0.001, 0.01) == 0.1

    def test_zero_mean(self):
        assert markov_bound(0.0, 0.5) == 0.0

    def test_capped_at_one(self):
        assert markov_bound(2.0, 0.5) == 1.0

    def test_monotone(self):
        thresholds = np.linspace(0.01, 1.0, 20)
        bounds = [markov_bound(0.05, float(t)) for t in thresholds]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        means = np.linspace(0.0, 1.0, 20)
        bounds = [markov_bound(float(v), 0.3) for v in means]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_empirical_exceedance(self):
        # observed exceedance frequency never beats the bound by more than
        # sampling error
        rng = np.random.default_rng(42)
        mean = 0.2
        samples = rng.exponential(scale=mean, size=20000)
        for threshold in (0.5, 1.0, 2.0):
            bound = markov_bound(mean, threshold)
            freq = float(np.mean(samples >= threshold))
            stderr = math.sqrt(bound * (1 - bound) / len(samples) + 1e-12)
            assert freq <= bound + 4 * stderr

    def test_errors(self):
        with pytest.raises(BadParams):
            markov_bound(-0.1, 0.5)
        with pytest.raises(BadParams):
            markov_bound(0.1, 0.0)


class TestIndividualGuarantee:
    def test_product_budget(self):
        out = average_for_individual_guarantee(2.0**-16, 2.0**-16)
        assert out.required_average == 2.0**-32

    def test_no_degradation_at_delta_one(self):
        out = average_for_individual_guarantee(0.01, 1.0)
        assert out.required_average == 0.01
        assert out.degradation_factor == 1.0

    def test_chained_twice(self):
        eps, delta = 0.01, 0.001
        out = average_for_individual_guarantee(eps, delta, guarantees=2)
        assert out.required_average == pytest.approx(eps * delta**2, rel=1e-15)

    def test_refuses_budget_below_smallest_normal(self):
        with pytest.raises(BadParams, match=r"2\^-100007 is below"):
            average_for_individual_guarantee(0.01, 0.5, guarantees=100000)
        with pytest.raises(BadParams, match=r"2\^-1023 is below"):
            average_for_individual_guarantee(0.5, 0.5, guarantees=1022)

    def test_smallest_normal_budget_is_kept(self):
        out = average_for_individual_guarantee(0.5, 0.5, guarantees=1021)
        assert out.required_average == sys.float_info.min

    def test_errors(self):
        with pytest.raises(BadParams):
            average_for_individual_guarantee(0.0, 0.5)
        with pytest.raises(BadParams):
            average_for_individual_guarantee(0.5, 0.5, guarantees=0)


class TestMixtureCap:
    def test_values(self):
        assert hypothesis_ii_cap(0.0) == 0.5
        assert hypothesis_ii_cap(0.5) == 0.75
        assert hypothesis_ii_cap(0.25) == 0.625

    def test_range_check(self):
        with pytest.raises(BadParams, match=r"criterion value must lie in \[0, 1/2\], got 0\.6"):
            hypothesis_ii_cap(0.6)

    def test_rounding_past_the_range_is_clamped(self):
        # a d computed from states validated within TOL misses [0, 1/2] by rounding only
        assert hypothesis_ii_cap(0.5 + TOL / 2) == 0.75
        assert hypothesis_ii_cap(-TOL / 2) == 0.5
        for d in (0.5 + 2 * TOL, -2 * TOL, math.nan):
            with pytest.raises(BadParams, match="criterion value must lie in"):
                hypothesis_ii_cap(d)

    def test_orthogonal_violation_margin(self):
        # actual optimal success at d = 1/2 is 1.0, a 0.25 margin over the cap
        e = single_bit_pure_example(0.0)
        success = helstrom_binary(e.probe("0"), e.probe("1"), 0.5)
        assert success - hypothesis_ii_cap(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_margin_is_half_d_across_overlaps(self):
        for c in np.linspace(0.0, 1.0, 21):
            e = single_bit_pure_example(float(c))
            d = criterion_d_averaged(e)
            success = helstrom_binary(e.probe("0"), e.probe("1"), 0.5)
            assert success - hypothesis_ii_cap(d) == pytest.approx(d / 2, abs=1e-9)


class TestMixtureExact:
    def test_orthogonal_components_attain_cap(self):
        s0 = validate_density(np.diag([1.0, 0.0]))
        s1 = validate_density(np.diag([0.0, 1.0]))
        for d in (0.0, 0.2, 0.5):
            assert hypothesis_ii_exact(s0, s1, d) == pytest.approx(
                hypothesis_ii_cap(d), abs=1e-12
            )

    def test_identical_components(self):
        rng = np.random.default_rng(0)
        s = random_density(rng, 2)
        assert hypothesis_ii_exact(s, s, 0.3) == pytest.approx(0.5, abs=1e-9)

    def test_never_exceeds_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            s0, s1 = random_density(rng, 3), random_density(rng, 3)
            d = float(rng.random() / 2)
            assert hypothesis_ii_exact(s0, s1, d) <= hypothesis_ii_cap(d) + 1e-12


class TestComparisonTable:
    def test_headline_ratio(self):
        scenario = GuaranteeScenario(n=1000, l=20, m=100)
        (row,) = uniform_comparison_table(scenario)
        assert row.uniform_log2 == -100.0
        assert row.ratio_log2 == pytest.approx(80.0, abs=1e-9)
        assert row.spiked_peak == 2.0**-20

    def test_zero_epsilon_bound_equals_uniform(self):
        scenario = GuaranteeScenario(n=64, l=10, m=16, epsilon=0.0)
        rows = uniform_comparison_table(scenario, ms=(1, 8, 16))
        for row in rows:
            assert row.bound == row.uniform_prob
            assert row.ratio_log2 == pytest.approx(0.0, abs=1e-12)

    def test_single_bit_near_uniform(self):
        scenario = GuaranteeScenario(n=1000, l=16, m=1)
        (row,) = uniform_comparison_table(scenario)
        assert row.bound == pytest.approx(0.5 + 2.0**-16, abs=1e-15)

    def test_log_domain_survives_underflow(self):
        scenario = GuaranteeScenario(n=5000, l=20, m=5000)
        (row,) = uniform_comparison_table(scenario)
        assert row.uniform_prob == 0.0  # linear value underflows
        assert row.uniform_log2 == -5000.0  # log form does not
        assert row.ratio_log2 == pytest.approx(4980.0, abs=1e-9)

    @pytest.mark.parametrize("l", [1074, 1075, 1100, 5000])
    def test_default_epsilon_keeps_its_exponent(self, l):
        # 2^-l underflows to 0.0 past l = 1074; the default's log2 stays -l,
        # so the bound at m = l is 2^-(l-1), twice the uniform probability
        scenario = GuaranteeScenario(n=l, l=l, m=l)
        assert scenario.epsilon == 2.0**-l
        assert scenario.epsilon_log2 == -l
        (row,) = uniform_comparison_table(scenario)
        assert row.bound_log2 == 1.0 - l
        assert row.ratio_log2 == 1.0 and row.ratio == 2.0

    def test_explicit_zero_epsilon_at_large_l(self):
        scenario = GuaranteeScenario(n=2000, l=1100, m=1100, epsilon=0.0)
        assert scenario.epsilon_log2 == -math.inf
        (row,) = uniform_comparison_table(scenario)
        assert row.bound_log2 == -1100.0 and row.ratio_log2 == 0.0

    def test_scenario_validation(self):
        with pytest.raises(BadParams):
            GuaranteeScenario(n=10, l=3, m=11)
        with pytest.raises(BadParams):
            GuaranteeScenario(n=10, l=3, m=5, epsilon=1.5)

    def test_renderings(self):
        report = run_experiment("table", {"n": 100, "l": 10, "m": 20, "ms": [10, 20]})
        csv_lines = render_csv(report).splitlines()
        assert csv_lines[0] == "field,value"
        (rows_line,) = [line for line in csv_lines if line.startswith("rows,")]
        assert rows_line.startswith('rows,"[{""bound"":')
        assert rows_line.count('""m"":') == 2
        md_lines = render_markdown(report).splitlines()
        table = [line for line in md_lines if line.startswith("| ")]
        assert table[0].startswith("| result")
        assert len({len(line) for line in table}) == 1  # aligned columns


def assert_matches_logaddexp2(x, y):
    """`_logaddexp2` of each pair equals `np.logaddexp2` bit for bit, and is
    NaN where numpy's is."""
    got = np.array([_logaddexp2(a, b) for a, b in zip(x.tolist(), y.tolist())])
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, and 1e308 - -1e308
        want = np.logaddexp2(x, y)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = np.flatnonzero(got[~nan].view(np.int64) != want[~nan].view(np.int64))
    first = differ[:1].tolist()
    assert not differ.size, f"{differ.size} of {x.size} differ, first at {x[~nan][first]}, {y[~nan][first]}"


class TestLogAddExp2:
    """The table's log-sum-exp reproduces numpy's bits, so `table` prints the
    same bytes without loading numpy."""

    def test_near_equal_pairs(self):
        # dense where rounding is delicate: with 2.0 ** t in place of
        # math.exp2, 41 of these differ from numpy (near zero, where the
        # sum's last bit still shows the correction's)
        rng = np.random.default_rng(24)
        x = rng.uniform(-20.0, 1.0, 250_000)
        assert_matches_logaddexp2(x, x + rng.uniform(-1.0, 1.0, x.size))

    def test_random_pairs(self):
        rng = np.random.default_rng(25)
        x, y = rng.uniform(-3000.0, 10.0, (2, 50_000))
        assert_matches_logaddexp2(x, y)

    def test_table_domain(self):
        # -m for every m < 3000 against log2 epsilon: seven explicit values
        # and the defaults -l
        eps_log2 = np.log2([1e-5, 1e-3, 0.1, 0.5, 0.999, 1e-300, 5e-324])
        ys = np.concatenate([eps_log2, -np.arange(0.0, 3000.0, 30.0)])
        x, y = np.meshgrid(-np.arange(1.0, 3000.0), ys)
        assert_matches_logaddexp2(x.ravel(), y.ravel())

    def test_equal_infinite_and_nan_arguments(self):
        specials = [0.0, -0.0, 1.0, -1074.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
        x, y = np.array([(a, b) for a in specials for b in specials]).T
        assert_matches_logaddexp2(x, y)
        assert _logaddexp2(-5.0, -5.0) == -4.0
        assert _logaddexp2(-math.inf, -math.inf) == -math.inf
        assert _logaddexp2(-math.inf, -7.0) == -7.0
        assert math.isnan(_logaddexp2(math.nan, 1.0)) and math.isnan(_logaddexp2(1.0, math.nan))
