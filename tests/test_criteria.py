import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    JointDistribution,
    LeakSpec,
    ProbDist,
    classical_dbar,
    condition_on_leak,
    criterion_d_averaged,
    criterion_d_entangled,
    criterion_report,
    d_k_per_key,
    decomposition_fallacy_check,
    delta_E_variants,
    event_deviation_bound,
    measure_ensemble,
    pairwise_distance_bound,
    single_bit_pure_example,
    spiked_distribution,
    success_probability,
    two_bit_pkl_example,
    validate_density,
    variational_distance,
)
from tracecrit import criteria
from tracecrit.criteria import _outcome_mass, _variants_from_mass
from tracecrit.ensembles import _BIT_STRINGS, bit_strings
from tracecrit.errors import BadParams, NonUniformPrior, TooLarge

from helpers import (
    bits,
    classical_dbar_loop,
    condition_on_leak_loop,
    criterion_d_averaged_loop,
    criterion_d_entangled_loop,
    d_k_per_key_loop,
    event_deviation_loop,
    outcome_mass_loop,
    pairwise_bound_loop,
    random_density,
    random_ensemble,
    random_povm,
    random_probdist,
    success_probability_loop,
    variants_from_mass_loop,
)


def mixed_family():
    sigma = validate_density(np.diag([1.0, 0.0]))
    rho1 = validate_density(np.diag([0.6, 0.4]))
    rho2 = validate_density(np.diag([0.1, 0.9]))
    return two_bit_pkl_example(sigma, rho1, rho2)


def family_measurement():
    from tracecrit.experiments import TWO_BIT_PRESETS, _family_measurement, parse_qubit

    spec = TWO_BIT_PRESETS["two-bit-mixed"]
    return _family_measurement(*(parse_qubit(spec[k]) for k in ("sigma", "rho1", "rho2")))


class TestVariationalDistance:
    def test_identical(self):
        p = ProbDist(("a", "b"), (0.5, 0.5))
        assert variational_distance(p, p) == 0

    def test_disjoint_supports(self):
        p = ProbDist(("a",), (1.0,))
        q = ProbDist(("b",), (1.0,))
        assert variational_distance(p, q) == 1

    def test_hand_sum(self):
        p = ProbDist(("x", "y"), (0.7, 0.3))
        q = ProbDist(("x", "y"), (0.4, 0.6))
        assert variational_distance(p, q) == pytest.approx(0.3, abs=1e-12)

    def test_exact_for_fractions(self):
        p = ProbDist.uniform(("a", "b", "c", "d"))
        q = ProbDist(("a", "b", "c", "d"), (Fraction(1, 2), Fraction(1, 2), 0, 0))
        assert variational_distance(p, q) == Fraction(1, 2)


class TestCriterionForms:
    def test_single_bit_quarter_norm(self):
        from tracecrit import trace_norm

        e = single_bit_pure_example(0.3)
        quarter = 0.25 * trace_norm(e.probe("0").matrix - e.probe("1").matrix)
        assert criterion_d_averaged(e) == pytest.approx(quarter, abs=1e-12)

    def test_equal_probes_zero(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        assert criterion_d_averaged(e) == pytest.approx(0.0, abs=1e-9)
        assert criterion_d_entangled(e) == pytest.approx(0.0, abs=1e-9)

    def test_forms_agree_on_random_ensembles(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            e = random_ensemble(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            assert abs(criterion_d_entangled(e) - criterion_d_averaged(e)) <= 1e-9

    def test_forms_agree_after_conditioning(self):
        from tracecrit import LeakSpec, condition_on_leak

        rng = np.random.default_rng(2)
        e = condition_on_leak(random_ensemble(rng, 3, 2), LeakSpec((1,), (0,)))
        assert abs(criterion_d_entangled(e) - criterion_d_averaged(e)) <= 1e-9

    def test_two_bit_orthogonal_entangled(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_entangled(e) == pytest.approx(0.5, abs=1e-12)

    def test_entangled_size_cap(self):
        rng = np.random.default_rng(3)
        e = random_ensemble(rng, 3, 64)
        with pytest.raises(TooLarge):
            criterion_d_entangled(e)


class TestPerKeyDistances:
    def test_identical_probes_all_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in d_k_per_key(e).values())

    def test_orthogonal_single_bit_unhalved(self):
        # || pure - I/2 ||_1 = 1 for each key
        e = single_bit_pure_example(0.0)
        dk = d_k_per_key(e)
        assert dk["0"] == pytest.approx(1.0, abs=1e-12)
        assert dk["1"] == pytest.approx(1.0, abs=1e-12)

    def test_max_dominates_average(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3)
            assert max(d_k_per_key(e).values()) / 2 >= criterion_d_averaged(e) - 1e-12

    def test_report_fields(self):
        e = single_bit_pure_example(0.6)
        report = criterion_report(e, epsilon=2**-16)
        assert report.d_averaged == pytest.approx(0.4, abs=1e-12)
        assert report.d_entangled == pytest.approx(report.d_averaged, abs=1e-9)
        assert report.d_k == d_k_per_key(e)
        assert report.d_max == max(report.d_k.values()) / 2
        assert report.d_max >= report.d_averaged - 1e-12
        assert report.epsilon_label == 2**-16


class TestPairwiseBound:
    def test_theorem_holds_with_per_key_eps(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3)
            eps = max(d_k_per_key(e).values())
            assert pairwise_distance_bound(e, eps).holds

    def test_identical_probes_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        out = pairwise_distance_bound(e, 0.0)
        assert out.holds and out.worst_value == pytest.approx(0.0, abs=1e-9)

    def test_two_bit_orthogonal_worst_pair(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        out = pairwise_distance_bound(two_bit_pkl_example(sigma, rho1, rho2), 1.0)
        assert out.worst_pair == ("00", "01")
        assert out.worst_value == pytest.approx(2.0, abs=1e-12)


class TestClassicalDbar:
    def test_independent_joint_is_zero(self):
        q = np.array([0.2, 0.5, 0.3])
        mass = np.outer(np.full(4, 0.25), q)
        joint = JointDistribution(bit_strings(2), ("x", "y", "z"), mass)
        assert classical_dbar(joint) == pytest.approx(0.0, abs=1e-12)

    def test_equals_average_conditional_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            rows = 4
            cond = rng.random((rows, 5)) + 1e-6
            cond /= cond.sum(axis=1, keepdims=True)
            mass = cond / rows
            joint = JointDistribution(
                bit_strings(2), tuple(f"o{j}" for j in range(5)), mass
            )
            avg = mass.sum(axis=0)
            expected = np.mean(
                [0.5 * np.abs(cond[i] - avg).sum() for i in range(rows)]
            )
            assert classical_dbar(joint) == pytest.approx(expected, abs=1e-12)

    def test_equals_outcome_weighted_posterior_deviation(self):
        rng = np.random.default_rng(9)
        rows = 4
        cond = rng.random((rows, 3)) + 1e-6
        cond /= cond.sum(axis=1, keepdims=True)
        mass = cond / rows
        joint = JointDistribution(bit_strings(2), ("x", "y", "z"), mass)
        col = mass.sum(axis=0)
        regrouped = sum(
            col[j] * 0.5 * np.abs(mass[:, j] / col[j] - 1 / rows).sum()
            for j in range(3)
        )
        assert classical_dbar(joint) == pytest.approx(regrouped, abs=1e-12)

    def test_rejects_non_uniform_prior(self):
        mass = np.array([[0.7, 0.1], [0.1, 0.1]])
        joint = JointDistribution(("0", "1"), ("x", "y"), mass)
        with pytest.raises(NonUniformPrior):
            classical_dbar(joint)


class TestEventDeviationBound:
    def test_uniform_has_zero_deviation(self):
        p = ProbDist.uniform(bit_strings(4))
        dev, _ = event_deviation_bound(p, 2)
        assert dev == pytest.approx(0.0, abs=1e-15)

    def test_spiked_full_key_event(self):
        dev, (positions, pattern) = event_deviation_bound(spiked_distribution(8, 3), 8)
        assert dev == Fraction(1, 8) - Fraction(1, 256)
        assert float(dev) == 0.12109375
        assert positions == tuple(range(8))
        assert pattern == "0" * 8

    def test_sparse_matches_dense_path(self):
        sparse = spiked_distribution(8, 3)
        dense = sparse.to_probdist()
        for m in range(1, 9):
            dev_sparse, _ = event_deviation_bound(sparse, m)
            dev_dense, _ = event_deviation_bound(dense, m)
            assert float(dev_sparse) == pytest.approx(dev_dense, abs=1e-12)

    def test_bounded_by_variational_distance(self):
        rng = np.random.default_rng(10)
        labels = bit_strings(8)
        uniform = ProbDist.uniform(labels)
        for _ in range(15):
            p = random_probdist(rng, labels)
            m = int(rng.integers(1, 9))
            dev, _ = event_deviation_bound(p, m)
            assert dev <= float(variational_distance(p, uniform))

    def test_dense_cap(self):
        labels = bit_strings(18)
        p = ProbDist(labels, (1.0 / len(labels),) * len(labels))
        with pytest.raises(TooLarge):
            event_deviation_bound(p, 12)

    def test_bad_subsequence_length(self):
        with pytest.raises(BadParams):
            event_deviation_bound(spiked_distribution(8, 3), 9)

    def test_label_tuple_compared_by_value(self):
        rng = np.random.default_rng(11)
        w = rng.random(2**6)
        probs = tuple(w / w.sum())
        copy = tuple(format(i, "06b") for i in range(2**6))
        assert copy == bit_strings(6) and copy is not bit_strings(6)
        assert event_deviation_bound(ProbDist(copy, probs), 2) == event_deviation_bound(
            ProbDist(bit_strings(6), probs), 2
        )
        permuted = copy[1:] + copy[:1]
        with pytest.raises(BadParams, match="in order"):
            event_deviation_bound(ProbDist(permuted, probs), 2)

    def test_short_label_tuple_refused_before_building_keys(self):
        # one 19-bit label: refused on its count, no 2^19 keys memoized
        with pytest.raises(BadParams, match="in order"):
            event_deviation_bound(ProbDist(("0" * 19,), (1.0,)), 1)
        assert 19 not in _BIT_STRINGS

    @pytest.mark.parametrize("n", range(1, 13))
    def test_screen_matches_loop(self, n):
        # random; uniform (every event ties); spiked and weight-symmetric
        # (every position set ties exactly, and only rounding tells them apart)
        labels = bit_strings(n)
        rng = np.random.default_rng(n)
        w = rng.random(2**n)
        by_weight = rng.random(n + 1)[np.bitwise_count(np.arange(2**n))]
        dists = (
            ProbDist(labels, tuple(w / w.sum())),
            ProbDist.uniform(labels),
            spiked_distribution(n, (n + 1) // 2).to_probdist(),
            ProbDist(labels, tuple(by_weight / by_weight.sum())),
        )
        for p in dists:
            for m in range(1, n + 1):
                dev, event = event_deviation_bound(p, m)
                want_dev, want_event = event_deviation_loop(p, m)
                assert (dev.hex(), event) == (want_dev.hex(), want_event)


class TestDeltaEVariants:
    def test_mixed_family_values(self):
        e = mixed_family()
        povm = family_measurement()
        out = delta_E_variants(e, povm)
        assert out.max_posterior_dev == pytest.approx(5 / 14, abs=1e-12)
        assert out.avg_posterior_dev == pytest.approx(0.25, abs=1e-12)
        assert out.outcome_vs_uniform == pytest.approx(0.15, abs=1e-12)

    def test_avg_equals_dbar_of_induced_joint(self):
        e = mixed_family()
        povm = family_measurement()
        out = delta_E_variants(e, povm)
        joint = measure_ensemble(e, povm)
        assert out.avg_posterior_dev == pytest.approx(classical_dbar(joint), abs=1e-12)

    def test_readings_of_measured_mass_match(self):
        # the experiments read the four values off the measured joint mass
        rng = np.random.default_rng(12)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3, uniform_prior=False)
            povm = random_povm(rng, 3, 4)
            assert _variants_from_mass(measure_ensemble(e, povm).mass) == delta_E_variants(e, povm)

    def test_data_processing_for_averaged_reading(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3)
            povm = random_povm(rng, 3, 4)
            out = delta_E_variants(e, povm)
            assert out.avg_posterior_dev <= criterion_d_averaged(e) + 1e-9

    def test_eigenbasis_measurement_achieves_d(self):
        # the product measurement with the difference eigenbasis on the
        # second qubit saturates the data-processing bound for this family
        from tracecrit import two_bit_pkl_example
        from tracecrit.experiments import _family_measurement
        from helpers import random_density

        rng = np.random.default_rng(12)
        for _ in range(20):
            sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
            e = two_bit_pkl_example(sigma, rho1, rho2)
            povm = _family_measurement(sigma, rho1, rho2)
            dbar = classical_dbar(measure_ensemble(e, povm))
            assert dbar == pytest.approx(criterion_d_averaged(e), abs=1e-9)


class TestDecompositionFallacy:
    def test_identical_distributions(self):
        p = ProbDist(("a", "b"), (0.5, 0.5))
        assert decomposition_fallacy_check(p, p, 0.0)
        assert decomposition_fallacy_check(p, p, 0.3)

    def test_counterexample_from_feasibility(self):
        # requires p(a) >= 0.6 * 0.9 = 0.54 > 0.5, so no mixture form exists
        p = ProbDist(("a", "b"), (0.5, 0.5))
        q = ProbDist(("a", "b"), (0.9, 0.1))
        assert variational_distance(p, q) == pytest.approx(0.4, abs=1e-12)
        assert not decomposition_fallacy_check(p, q, 0.4)

    def test_disjoint_supports_at_full_weight(self):
        p = ProbDist(("a",), (1.0,))
        q = ProbDist(("b",), (1.0,))
        assert decomposition_fallacy_check(p, q, 1.0)

    def test_exact_distributions(self):
        half, tenth = Fraction(1, 2), Fraction(1, 10)
        p = ProbDist(("a", "b"), (half, half))
        q = ProbDist(("a", "b"), (9 * tenth, tenth))
        assert p.denominator is not None and q.denominator is not None
        assert not decomposition_fallacy_check(p, q, 0.4)
        assert decomposition_fallacy_check(p, p, 0.0)
        assert decomposition_fallacy_check(p, ProbDist(("a", "b"), (3 * tenth, 7 * tenth)), 0.5)

    def test_precondition_enforced(self):
        p = ProbDist(("a", "b"), (1.0, 0.0))
        q = ProbDist(("a", "b"), (0.0, 1.0))
        with pytest.raises(BadParams):
            decomposition_fallacy_check(p, q, 0.1)


def stacked_case(dim: int, prior: str, seed: int = 0) -> CqEnsemble:
    """Seeded ensemble with a float, Fraction or uniform prior; 16 keys up
    to dim 4, 8 keys above."""
    rng = np.random.default_rng([dim, seed])
    n_bits = 4 if dim <= 4 else 3
    keys = bit_strings(n_bits)
    if prior == "float":
        dist = random_probdist(rng, keys)
    elif prior == "fraction":
        ints = [int(v) for v in rng.integers(1, 50, len(keys))]
        dist = ProbDist(keys, tuple(Fraction(v, sum(ints)) for v in ints))
    else:
        dist = ProbDist.uniform(keys)
    return CqEnsemble(n_bits, dist, {k: random_density(rng, dim) for k in keys})


DIMS = [1, 2, 3, 4, 8, 16]
PRIORS = ["float", "fraction", "uniform"]


class TestStackedKernels:
    """The batched kernels reproduce the per-key, per-pair and per-cell
    loops bit for bit."""

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_criterion_and_per_key_norms(self, dim, prior):
        e = stacked_case(dim, prior)
        assert bits(criterion_d_averaged(e)) == bits(criterion_d_averaged_loop(e))
        got, want = d_k_per_key(e), d_k_per_key_loop(e)
        assert list(got) == list(want)
        assert bits(list(got.values())) == bits(list(want.values()))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_pairwise_bound(self, dim, prior):
        e = stacked_case(dim, prior)
        out = pairwise_distance_bound(e, 0.1)
        pair, value = pairwise_bound_loop(e)
        assert out.worst_pair == pair
        assert bits(out.worst_value) == bits(value)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_outcome_mass_and_readings(self, dim, prior):
        e = stacked_case(dim, prior)
        povm = random_povm(np.random.default_rng(dim), dim, 5)
        mass = _outcome_mass(e, povm)
        assert bits(mass) == bits(outcome_mass_loop(e, povm))
        assert bits(measure_ensemble(e, povm).mass) == bits(mass)
        readings = dataclasses.astuple(_variants_from_mass(mass))
        assert bits(readings) == bits(variants_from_mass_loop(mass))
        if prior == "uniform":
            joint = measure_ensemble(e, povm)
            assert bits(classical_dbar(joint)) == bits(classical_dbar_loop(joint.mass))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_entangled_criterion(self, dim, prior):
        e = stacked_case(dim, prior)
        assert bits(criterion_d_entangled(e)) == bits(criterion_d_entangled_loop(e))

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_success_probability(self, dim, prior):
        e = stacked_case(dim, prior)
        rng = np.random.default_rng([dim, 1])
        povm = random_povm(rng, dim, 5)
        keys = rng.choice(e.keys, size=5).tolist()
        keys[1] = keys[0]  # one key guessed on two outcomes
        for n_guessed in (5, 3, 0):  # every outcome, some, none
            guess = dict(zip(povm.labels[:n_guessed], keys))
            want = success_probability_loop(e, povm, guess)
            assert bits(success_probability(e, povm, guess)) == bits(want)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_condition_on_leak(self, dim, prior):
        e = stacked_case(dim, prior)
        n = e.n_bits
        for leak in (
            LeakSpec((), ()),
            LeakSpec((1,), (1,)),
            LeakSpec((0, n - 1), (1, 0)),
            LeakSpec(tuple(range(n)), (0, 1) * (n // 2) + (1,) * (n % 2)),
        ):
            got, want = condition_on_leak(e, leak), condition_on_leak_loop(e, leak)
            assert got.keys == want.keys
            assert got.prior.probs.tolist() == want.prior.probs.tolist()
            assert (got.prior.probs.dtype, got.prior.denominator) == (
                want.prior.probs.dtype,
                want.prior.denominator,
            )
            assert bits(got.probe_stack) == bits(want.probe_stack)
            assert bits(got.weights) == bits(want.weights)

    def test_tied_pairs_first_in_combinations_order_wins(self):
        rng = np.random.default_rng(21)
        a, b = random_density(rng, 3), random_density(rng, 3)
        keys = bit_strings(2)
        for probes, want in (((a, b, a, b), ("00", "01")), ((a, a, b, b), ("00", "10"))):
            e = CqEnsemble(2, ProbDist.uniform(keys), dict(zip(keys, probes)))
            out = pairwise_distance_bound(e, 0.1)
            assert out.worst_pair == want == pairwise_bound_loop(e)[0]
            assert bits(out.worst_value) == bits(pairwise_bound_loop(e)[1])

    def test_identical_probes_keep_the_default_pair(self):
        rho = random_density(np.random.default_rng(22), 2)
        keys = bit_strings(3)
        e = CqEnsemble(3, ProbDist.uniform(keys), {k: rho for k in keys})
        out = pairwise_distance_bound(e, 0.0)
        assert (out.worst_pair, out.worst_value, out.holds) == (("000", "000"), 0.0, True)

    def test_single_key_has_no_pairs(self):
        rho = random_density(np.random.default_rng(23), 2)
        e = CqEnsemble(0, ProbDist.uniform(("",)), {"": rho})
        out = pairwise_distance_bound(e, 0.0)
        assert (out.worst_pair, out.worst_value) == (("", ""), 0.0)

    @pytest.mark.parametrize("cells", [1, 7 * 9, 17 * 9])
    def test_chunk_boundaries(self, monkeypatch, cells):
        # dim 3, 16 keys, 120 pairs, 5 outcomes: blocks of 1, 7 and 17
        # pairs, and of 1, 1 and 3 keys; the last two sizes leave a
        # partial last block.
        # The last two keys carry orthogonal pure probes, so the worst pair
        # is the last one.
        rng = np.random.default_rng(5)
        keys = bit_strings(4)
        probes = {k: random_density(rng, 3) for k in keys}
        probes["1110"] = validate_density(np.diag([1.0, 0.0, 0.0]))
        probes["1111"] = validate_density(np.diag([0.0, 1.0, 0.0]))
        e = CqEnsemble(4, random_probdist(rng, keys), probes)
        povm = random_povm(rng, 3, 5)
        assert pairwise_bound_loop(e) == (("1110", "1111"), 2.0)
        monkeypatch.setattr(criteria, "_STACK_BATCH_CELLS", cells)
        out = pairwise_distance_bound(e, 0.1)
        assert (out.worst_pair, bits(out.worst_value)) == (
            pairwise_bound_loop(e)[0],
            bits(pairwise_bound_loop(e)[1]),
        )
        assert bits(_outcome_mass(e, povm)) == bits(outcome_mass_loop(e, povm))
