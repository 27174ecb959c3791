import math
from fractions import Fraction

import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    DensityOperator,
    LeakSpec,
    ProbDist,
    PureState,
    condition_on_leak,
    measure_ensemble,
    pgm,
    single_bit_pure_example,
    spiked_distribution,
    tensor,
    two_bit_pkl_example,
    validate_density,
)
from tracecrit.criteria import criterion_d_averaged
from tracecrit.ensembles import bit_strings
from tracecrit.errors import (
    BadOverlap,
    BadParams,
    BadTrace,
    DimMismatch,
    NotHermitian,
    NotPsd,
    TooLarge,
    ZeroMass,
)

from helpers import (
    average_probe_loop,
    bit_strings_recursive,
    bits,
    random_density,
    random_ensemble,
)


class TestProbDist:
    def test_uniform_is_exact(self):
        p = ProbDist.uniform(("a", "b", "c"))
        assert (p.probs.tolist(), p.denominator) == ([1, 1, 1], 3)
        assert p.mass("a") == Fraction(1, 3)
        assert sum(p.probs) == p.denominator

    def test_rejects_negative_mass(self):
        with pytest.raises(BadParams, match="negative"):
            ProbDist(("a", "b"), (1.2, -0.2))

    def test_rejects_bad_total(self):
        with pytest.raises(BadParams, match="sum"):
            ProbDist(("a", "b"), (0.6, 0.6))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(BadParams, match="unique"):
            ProbDist(("a", "a"), (0.5, 0.5))

    def test_clamps_float_noise(self):
        p = ProbDist(("a", "b"), (1.0 + 1e-13, -1e-13))
        assert p.probs[1] == 0.0

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_mass(self, probs):
        with pytest.raises(BadParams, match="sum"):
            ProbDist(("a", "b"), probs)


class TestBitStrings:
    def test_orderings(self):
        assert bit_strings(0) == ("",)
        assert bit_strings(1) == ("0", "1")
        assert bit_strings(2) == ("00", "01", "10", "11")

    @pytest.mark.parametrize("n", range(15))
    def test_memoized_and_equal_to_recursive_build(self, n):
        assert bit_strings(n) is bit_strings(n)
        assert bit_strings(n) == bit_strings_recursive(n)

    def test_rejects_negative_count(self):
        with pytest.raises(BadParams, match="nonnegative"):
            bit_strings(-1)


class _Label(str):
    """A str subclass: equal to the plain string, but not of type str."""


class TestProbDistLabelChecks:
    def test_memoized_tuple_is_kept(self):
        p = ProbDist.uniform(bit_strings(3))
        assert p.labels is bit_strings(3)

    def test_equal_copy_is_checked(self):
        # equal to bit_strings(3) but another object: the type scan runs
        copy = tuple(_Label(x) for x in bit_strings(3))
        assert copy == bit_strings(3) and copy is not bit_strings(3)
        p = ProbDist.uniform(copy)
        assert p.labels == bit_strings(3)
        assert {type(x) for x in p.labels} == {str}

    def test_duplicate_among_bit_strings_refused(self):
        labels = bit_strings(3)[:-1] + ("000",)
        with pytest.raises(BadParams, match="unique"):
            ProbDist.uniform(labels)
        with pytest.raises(BadParams, match="unique"):
            ProbDist(list(labels), (1 / 8,) * 8)

    def test_int_labels_become_strings(self):
        p = ProbDist(tuple(range(4)), (0.25,) * 4)
        assert p.labels == ("0", "1", "2", "3")
        with pytest.raises(BadParams, match="unique"):
            ProbDist((1, "1"), (0.5, 0.5))


class TestAverageProbe:
    def test_equal_probes(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        e = CqEnsemble(
            1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho}
        )
        np.testing.assert_allclose(e.average.matrix, rho.matrix, atol=1e-12)

    def test_orthogonal_single_bit_gives_mixed(self):
        e = single_bit_pure_example(0.0)
        np.testing.assert_allclose(e.average.matrix, np.eye(2) / 2, atol=1e-12)

    def test_two_bit_family_average(self):
        rng = np.random.default_rng(1)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        expected = tensor(sigma.matrix, (rho1.matrix + rho2.matrix) / 2)
        np.testing.assert_allclose(e.average.matrix, expected, atol=1e-12)

    def test_always_valid_density(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            e = random_ensemble(rng, 2, 3, uniform_prior=False)
            e.average  # validation happens inside


class TestSingleBitPureExample:
    def test_orthogonal_probes_reach_half(self):
        assert criterion_d_averaged(single_bit_pure_example(0.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_identical_probes(self):
        assert criterion_d_averaged(single_bit_pure_example(1.0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_intermediate_overlap(self):
        assert criterion_d_averaged(single_bit_pure_example(0.6)) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_probe_overlap_is_c(self):
        e = single_bit_pure_example(0.37)
        overlap = np.trace(e.probe("0").matrix @ e.probe("1").matrix).real
        assert overlap == pytest.approx(0.37**2, abs=1e-12)

    def test_bad_overlap(self):
        with pytest.raises(BadOverlap):
            single_bit_pure_example(1.5)


class TestTwoBitFamily:
    def test_identical_components_give_zero(self):
        rng = np.random.default_rng(3)
        sigma, rho = random_density(rng, 2), random_density(rng, 2)
        e = two_bit_pkl_example(sigma, rho, rho)
        assert criterion_d_averaged(e) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_components(self):
        sigma = validate_density(np.eye(2) / 2)
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_averaged(e) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_mixed_components(self):
        sigma = validate_density(np.eye(2) / 2)
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        assert criterion_d_averaged(e) == pytest.approx(0.25, abs=1e-12)

    def test_probe_assignment(self):
        rng = np.random.default_rng(4)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        np.testing.assert_array_equal(e.probe("00").matrix, e.probe("11").matrix)
        np.testing.assert_array_equal(e.probe("01").matrix, e.probe("10").matrix)

    def test_rejects_non_qubit(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimMismatch):
            two_bit_pkl_example(
                random_density(rng, 3), random_density(rng, 2), random_density(rng, 2)
            )


class TestSpikedDistribution:
    def test_peak_mass_by_construction(self):
        assert spiked_distribution(8, 3).max_mass() == Fraction(1, 8)

    def test_distance_to_uniform(self):
        d = spiked_distribution(8, 3).variational_from_uniform()
        assert d == Fraction(1, 8) - Fraction(1, 256)
        assert float(d) == 0.12109375

    def test_total_mass_exact_up_to_cap(self):
        for n, l in [(1, 0), (8, 3), (16, 8), (30, 20), (30, 30)]:
            assert spiked_distribution(n, l).total_mass() == 1

    def test_full_exponent_reduces_to_uniform(self):
        d = spiked_distribution(8, 8)
        assert d.variational_from_uniform() == 0
        assert d.spike_mass == d.rest_mass

    def test_dense_expansion_matches_sparse(self):
        d = spiked_distribution(6, 2)
        dense = d.to_probdist()
        assert dense.mass(d.spike_label) == d.spike_mass
        assert sum(dense.probs) == dense.denominator

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dense_expansion_matches_per_label_masses(self, n):
        for l in sorted({0, 1, n // 2, n}):
            d = spiked_distribution(n, l)
            dense = d.to_probdist()
            assert dense.labels == bit_strings(n)
            want = [d.mass(x) for x in dense.labels]
            assert [dense.mass(x) for x in dense.labels] == want
            assert dense.denominator == math.lcm(*(m.denominator for m in want))
            assert bits(dense.as_array()) == bits([float(m) for m in want])

    def test_entropy_matches_dense_sum(self):
        d = spiked_distribution(8, 3)
        dense_h = -sum(
            float(p) * math.log2(float(p)) for p in d.to_probdist().as_array() if p > 0
        )
        assert d.shannon_entropy() == pytest.approx(dense_h, abs=1e-12)
        assert spiked_distribution(8, 0).shannon_entropy() == 0.0  # point mass
        assert spiked_distribution(8, 8).shannon_entropy() == pytest.approx(8.0, abs=1e-12)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            spiked_distribution(8, 9)
        with pytest.raises(BadParams):
            spiked_distribution(31, 3)
        with pytest.raises(TooLarge):
            spiked_distribution(30, 2).to_probdist()


class TestConditionOnLeak:
    def test_two_bit_first_bit_leak(self):
        rng = np.random.default_rng(6)
        sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        conditioned = condition_on_leak(e, LeakSpec((0,), (0,)))
        assert conditioned.n_bits == 1
        assert (conditioned.prior.probs.tolist(), conditioned.prior.denominator) == ([1, 1], 2)
        np.testing.assert_array_equal(conditioned.probe("0").matrix, e.probe("00").matrix)
        np.testing.assert_array_equal(conditioned.probe("1").matrix, e.probe("01").matrix)

    def test_leak_nothing_is_identity(self):
        rng = np.random.default_rng(7)
        e = random_ensemble(rng, 2, 2)
        conditioned = condition_on_leak(e, LeakSpec((), ()))
        assert conditioned.keys == e.keys
        assert conditioned.prior.as_array().tolist() == e.prior.as_array().tolist()

    def test_leak_all_bits(self):
        rng = np.random.default_rng(8)
        e = random_ensemble(rng, 2, 2)
        conditioned = condition_on_leak(e, LeakSpec((0, 1), (1, 0)))
        assert conditioned.n_bits == 0
        assert conditioned.keys == ("",)
        np.testing.assert_array_equal(conditioned.probe("").matrix, e.probe("10").matrix)

    def test_zero_mass_pattern(self):
        rng = np.random.default_rng(9)
        probes = {k: random_density(rng, 2) for k in bit_strings(1)}
        e = CqEnsemble(1, ProbDist(bit_strings(1), (1.0, 0.0)), probes)
        with pytest.raises(ZeroMass):
            condition_on_leak(e, LeakSpec((0,), (1,)))

    def test_conditional_average_identity(self):
        # conditioning then averaging equals the direct conditional average
        rng = np.random.default_rng(10)
        for _ in range(10):
            e = random_ensemble(rng, 3, 2, uniform_prior=False)
            leak = LeakSpec((0, 2), (1, 0))
            conditioned = condition_on_leak(e, leak)
            direct = np.zeros((2, 2), dtype=complex)
            total = 0.0
            for k, p in zip(e.keys, e.prior.as_array()):
                if k[0] == "1" and k[2] == "0":
                    direct += float(p) * e.probe(k).matrix
                    total += float(p)
            np.testing.assert_allclose(
                conditioned.average.matrix, direct / total, atol=1e-12
            )

    def test_position_out_of_range(self):
        rng = np.random.default_rng(11)
        e = random_ensemble(rng, 2, 2)
        with pytest.raises(BadParams):
            condition_on_leak(e, LeakSpec((5,), (0,)))


class TestLeakSpec:
    def test_positions_must_increase(self):
        with pytest.raises(BadParams):
            LeakSpec((1, 0), (0, 0))

    def test_values_must_be_bits(self):
        with pytest.raises(BadParams):
            LeakSpec((0,), (2,))

    @pytest.mark.parametrize(
        "positions,values,message",
        [((0, 1), (0,), "equal length"), ((-1,), (0,), "nonnegative")],
    )
    def test_malformed_specs_refused(self, positions, values, message):
        with pytest.raises(BadParams, match=message):
            LeakSpec(positions, values)


class TestStackedValidation:
    """CqEnsemble checks its probes itself, as one stack, whether they come
    as DensityOperators or as plain matrices."""

    def test_matrices_and_operators_give_the_same_bits(self):
        rng = np.random.default_rng(21)
        keys = bit_strings(3)
        prior = ProbDist(keys, tuple(rng.dirichlet(np.ones(8)).tolist()))
        ops = {k: random_density(rng, 3) for k in keys}
        a = CqEnsemble(3, prior, ops)
        b = CqEnsemble(3, prior, {k: op.matrix for k, op in ops.items()})
        assert bits(a.probe_stack) == bits(b.probe_stack)
        assert bits(a.weights) == bits(b.weights)

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            (np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian, "deviates from its adjoint by 3.000e-01"),
            (np.diag([1.5, -0.5]), NotPsd, "smallest eigenvalue -5.000e-01"),
            (np.diag([0.6, 0.6]), BadTrace, "trace is 1.2, off unit by 2.000e-01"),
        ],
    )
    def test_invalid_matrix_names_its_deviation(self, bad, error, message):
        with pytest.raises(error, match=message):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": np.eye(2) / 2, "1": bad})

    def test_first_failing_matrix_is_named(self):
        probes = {"0": np.diag([0.6, 0.6]), "1": np.diag([1.5, -0.5])}
        with pytest.raises(BadTrace, match="trace is 1.2"):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    def test_unequal_shapes(self):
        probes = {"0": np.eye(2) / 2, "1": validate_density(np.eye(3) / 3)}
        with pytest.raises(DimMismatch, match="shapes differ"):
            CqEnsemble(1, ProbDist.uniform(bit_strings(1)), probes)

    def test_probe_reads_its_row(self):
        e = random_ensemble(np.random.default_rng(22), 2, 2)
        assert bits(e.probe("10").matrix) == bits(e.probe_stack[2])


class TestSerialization:
    def test_ensemble_key_validation(self):
        with pytest.raises(BadParams):
            CqEnsemble(
                1,
                ProbDist(("1", "0"), (0.5, 0.5)),  # wrong order
                {"0": validate_density(np.eye(2) / 2), "1": validate_density(np.eye(2) / 2)},
            )


class TestProbeStack:
    @pytest.mark.parametrize("uniform", [True, False])  # Fraction and float priors
    def test_stack_and_weights_follow_key_order(self, uniform):
        rng = np.random.default_rng(11)
        e = random_ensemble(rng, 3, 2, uniform_prior=uniform)
        assert e.probe_stack.shape == (8, 2, 2)
        for i, k in enumerate(e.keys):
            assert bits(e.probe_stack[i]) == bits(e.probe(k).matrix)
        assert e.weights.dtype == np.float64
        assert bits(e.weights) == bits([float(e.prior.mass(k)) for k in e.keys])

    def test_frozen(self):
        e = random_ensemble(np.random.default_rng(12), 2, 2)
        for a in (e.probe_stack, e.weights, e.key_norms):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_average_and_norms_computed_once(self):
        e = random_ensemble(np.random.default_rng(13), 3, 3)
        assert e.average is e.average
        assert e.key_norms is e.key_norms
        assert bits(e.average.matrix) == bits(average_probe_loop(e))

    def test_stack_is_the_only_probe_storage(self):
        e = random_ensemble(np.random.default_rng(15), 2, 2)
        assert "probes" not in vars(e)
        with pytest.raises(BadParams, match="unknown key"):
            e.probe("x")

    def test_equality_is_identity(self):
        e = random_ensemble(np.random.default_rng(16), 1, 2)
        povm = pgm(e)
        values = [e, e.average, PureState([1.0, 0.0]), povm, measure_ensemble(e, povm)]
        twins = [
            condition_on_leak(e, LeakSpec((), ())),
            DensityOperator(e.average.matrix),
            PureState([1.0, 0.0]),
            pgm(e),
            measure_ensemble(e, povm),
        ]
        for a, b in zip(values, twins):
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2

    def test_conditioning_rebuilds_the_stack(self):
        e = random_ensemble(np.random.default_rng(14), 3, 2, uniform_prior=False)
        residual = condition_on_leak(e, LeakSpec((1,), (1,)))
        assert residual.probe_stack.shape == (4, 2, 2)
        for i, k in enumerate(residual.keys):
            assert bits(residual.probe_stack[i]) == bits(residual.probe(k).matrix)
