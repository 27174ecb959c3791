import numpy as np
import pytest

from tracecrit import (
    CqEnsemble,
    JointDistribution,
    LeakSpec,
    Povm,
    ProbDist,
    average_probe,
    criterion_d_averaged,
    helstrom_binary,
    measure_ensemble,
    pgm,
    post_leak_discrimination,
    posterior,
    single_bit_pure_example,
    success_probability,
    trace_distance,
    two_bit_pkl_example,
    validate_density,
)
from tracecrit.ensembles import bit_strings
from tracecrit.errors import (
    BadParams,
    BadRange,
    DimMismatch,
    NotBinaryResidual,
    ZeroMassOutcome,
)

from tracecrit.qmath import HERM_TOL

from helpers import bits, pgm_elements_loop, random_density, random_ensemble, random_povm


def projective_qubit_povm():
    return Povm((("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))))


class TestPovm:
    def test_accepts_projective(self):
        m = projective_qubit_povm()
        assert m.dim == 2 and m.labels == ("0", "1")

    def test_rejects_incomplete(self):
        with pytest.raises(BadParams, match="identity"):
            Povm((("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 0.5]))))

    def test_rejects_negative_element(self):
        with pytest.raises(BadParams, match="eigenvalue"):
            Povm((("0", np.diag([1.5, 1.0])), ("1", np.diag([-0.5, 0.0]))))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(BadParams, match="unique"):
            Povm((("x", np.eye(2) / 2), ("x", np.eye(2) / 2)))

    def test_rejects_non_hermitian_element_by_label(self):
        skew = np.array([[0.5, 1e-6], [0.0, 0.5]])
        with pytest.raises(BadParams, match="'b' is not Hermitian"):
            Povm((("a", np.eye(2) / 2), ("b", skew)))

    def test_hermitian_tolerance_is_qmath_tol(self):
        off = HERM_TOL / 2
        Povm((("a", np.array([[0.5, off], [0.0, 0.5]])), ("b", np.array([[0.5, -off], [0.0, 0.5]]))))
        off = HERM_TOL * 2
        with pytest.raises(BadParams, match="'a' is not Hermitian"):
            Povm((("a", np.array([[0.5, off], [0.0, 0.5]])), ("b", np.array([[0.5, -off], [0.0, 0.5]]))))

    def test_rejects_nan_element(self):
        with pytest.raises(BadParams, match="'b' is not Hermitian"):
            Povm((("a", np.eye(2)), ("b", np.full((2, 2), np.nan))))

    def test_first_failing_element_is_named(self):
        bad = np.diag([-0.5, 0.0])
        with pytest.raises(BadParams, match="'y' has eigenvalue"):
            Povm((("x", np.diag([1.0, 1.0])), ("y", bad), ("z", np.diag([0.5, 0.0])), ("w", bad)))

    def test_shape_errors(self):
        with pytest.raises(BadParams, match="'a' is not square"):
            Povm((("a", np.ones((2, 3))),))
        with pytest.raises(DimMismatch, match="'b' has dim 3"):
            Povm((("a", np.eye(2)), ("b", np.eye(3))))

    def test_element_stack(self):
        m = random_povm(np.random.default_rng(3), 3, 4)
        assert m.stack.shape == (4, 3, 3)
        for i, (label, op) in enumerate(m.elements):
            assert bits(op) == bits(m.stack[i]) and m.element(label) is op
        with pytest.raises(ValueError):
            m.stack[0, 0, 0] = 1.0


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        rho0 = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.0, 1.0]))
        assert helstrom_binary(rho0, rho1, 0.5).p_success == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_give_prior_guess(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        for p0 in (0.2, 0.5, 0.9):
            assert helstrom_binary(rho, rho, p0).p_success == pytest.approx(
                max(p0, 1.0 - p0), abs=1e-9
            )

    def test_single_bit_family_success_is_half_plus_d(self):
        for c in np.linspace(0.0, 1.0, 11):
            e = single_bit_pure_example(float(c))
            d = criterion_d_averaged(e)
            out = helstrom_binary(e.probe("0"), e.probe("1"), 0.5)
            assert out.p_success == pytest.approx(0.5 + d, abs=1e-9)

    def test_equal_prior_matches_trace_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho0, rho1 = random_density(rng, 3), random_density(rng, 3)
            expected = 0.5 + 0.5 * trace_distance(rho0, rho1)
            assert helstrom_binary(rho0, rho1, 0.5).p_success == pytest.approx(
                expected, abs=1e-9
            )

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(2)
        out = helstrom_binary(random_density(rng, 3), random_density(rng, 3), 0.3)
        np.testing.assert_allclose(out.projector @ out.projector, out.projector, atol=1e-10)

    def test_errors(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimMismatch):
            helstrom_binary(random_density(rng, 2), random_density(rng, 3), 0.5)
        with pytest.raises(BadRange):
            helstrom_binary(random_density(rng, 2), random_density(rng, 2), 1.5)


class TestMeasureEnsemble:
    def test_trivial_povm_reproduces_prior(self):
        rng = np.random.default_rng(4)
        e = random_ensemble(rng, 2, 2, uniform_prior=False)
        joint = measure_ensemble(e, Povm((("all", np.eye(2)),)))
        np.testing.assert_allclose(
            joint.mass[:, 0], [float(p) for p in e.prior.probs], atol=1e-12
        )

    def test_orthogonal_family_four_atoms(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([1.0, 0.0]))
        rho2 = validate_density(np.diag([0.0, 1.0]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        from tracecrit.experiments import _family_measurement

        joint = measure_ensemble(e, _family_measurement(sigma, rho1, rho2))
        flat = sorted(float(v) for v in joint.mass.ravel())
        assert flat[-4:] == pytest.approx([0.25] * 4, abs=1e-12)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in flat[:-4])

    def test_outcome_marginal_matches_average_probe(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3, uniform_prior=False)
            povm = random_povm(rng, 3, 4)
            joint = measure_ensemble(e, povm)
            avg = average_probe(e).matrix
            for j, label in enumerate(povm.labels):
                direct = float(np.trace(avg @ povm.element(label)).real)
                assert float(joint.mass[:, j].sum()) == pytest.approx(direct, abs=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DimMismatch):
            measure_ensemble(random_ensemble(rng, 1, 3), projective_qubit_povm())


class TestPosterior:
    def test_independent_joint_returns_prior(self):
        mass = np.outer([0.25] * 4, [0.6, 0.4])
        joint = JointDistribution(bit_strings(2), ("x", "y"), mass)
        post = posterior(joint, "x")
        assert [float(v) for v in post.probs] == pytest.approx([0.25] * 4, abs=1e-12)

    def test_mixed_family_posterior(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        from tracecrit.experiments import _family_measurement

        joint = measure_ensemble(e, _family_measurement(sigma, rho1, rho2))
        post = posterior(joint, "a:e+")
        assert [float(v) for v in post.probs] == pytest.approx(
            [3 / 7, 1 / 14, 1 / 14, 3 / 7], abs=1e-12
        )

    def test_deterministic_channel_point_mass(self):
        mass = np.diag([0.5, 0.5])
        joint = JointDistribution(("0", "1"), ("x", "y"), mass)
        assert [float(v) for v in posterior(joint, "x").probs] == [1.0, 0.0]

    def test_zero_mass_outcome(self):
        mass = np.array([[0.5, 0.0], [0.5, 0.0]])
        joint = JointDistribution(("0", "1"), ("x", "y"), mass)
        with pytest.raises(ZeroMassOutcome):
            posterior(joint, "y")


class TestPgm:
    def test_orthogonal_pure_probes_give_projective(self):
        e = single_bit_pure_example(0.0)
        m = pgm(e)
        assert set(m.labels) == {"0", "1"}
        guess = {"0": "0", "1": "1"}
        assert success_probability(e, m, guess) == pytest.approx(1.0, abs=1e-9)

    def test_success_beats_guessing(self):
        for c in (0.2, 0.5, 0.8):
            e = single_bit_pure_example(c)
            m = pgm(e)
            guess = {k: k for k in e.keys}
            assert success_probability(e, m, guess) >= 0.5 - 1e-12

    def test_never_beats_helstrom_on_binary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_ensemble(rng, 1, 3)
            m = pgm(e)
            guess = {k: k for k in e.keys if k in m.labels}
            optimal = helstrom_binary(e.probe("0"), e.probe("1"), 0.5).p_success
            assert success_probability(e, m, guess) <= optimal + 1e-9

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
    def test_elements_match_loop(self, dim, uniform):
        e = random_ensemble(np.random.default_rng(dim), 3, dim, uniform_prior=uniform)
        m = pgm(e)
        want = pgm_elements_loop(e)
        assert m.labels[: len(want)] == tuple(k for k, _ in want)
        for (_, got), (_, op) in zip(m.elements, want):
            assert bits(got) == bits(op)

    def test_kernel_completion(self):
        # rank-deficient average probe: both probes live on |0>
        rho = validate_density(np.diag([1.0, 0.0]))
        e = CqEnsemble(1, ProbDist.uniform(bit_strings(1)), {"0": rho, "1": rho})
        m = pgm(e)
        assert "null" in m.labels  # kernel projector completes the measurement


class TestSuccessProbability:
    def test_random_guessing_is_two_to_minus_n(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            e = random_ensemble(rng, n, 2)
            m = Povm((("only", np.eye(2)),))
            assert success_probability(e, m, {"only": e.keys[0]}) == pytest.approx(
                2.0**-n, abs=1e-12
            )

    def test_matches_helstrom_via_projector(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = random_ensemble(rng, 1, 3)
            out = helstrom_binary(e.probe("0"), e.probe("1"), 0.5)
            proj = out.projector
            m = Povm((("0", np.eye(3) - proj), ("1", proj)))
            two_path = success_probability(e, m, {"0": "0", "1": "1"})
            assert two_path == pytest.approx(out.p_success, abs=1e-12)

    def test_no_random_povm_beats_helstrom(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            e = random_ensemble(rng, 1, 2)
            optimal = helstrom_binary(e.probe("0"), e.probe("1"), 0.5).p_success
            povm = random_povm(rng, 2, 3)
            joint = measure_ensemble(e, povm)
            # best deterministic guess per outcome
            guess = {}
            for j, label in enumerate(povm.labels):
                guess[label] = e.keys[int(np.argmax(joint.mass[:, j]))]
            assert success_probability(e, povm, guess) <= optimal + 1e-9

    def test_deliberately_bad_strategy(self):
        e = single_bit_pure_example(0.0)
        m = pgm(e)
        swapped = {"0": "1", "1": "0"}
        assert success_probability(e, m, swapped) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_guess_key(self):
        e = single_bit_pure_example(0.5)
        m = pgm(e)
        with pytest.raises(BadParams):
            success_probability(e, m, {"0": "zz"})


class TestPostLeakDiscrimination:
    def test_two_bit_family_success_half_plus_d(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sigma, rho1, rho2 = (random_density(rng, 2) for _ in range(3))
            e = two_bit_pkl_example(sigma, rho1, rho2)
            success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
            assert success == pytest.approx(0.5 + d, abs=1e-9)

    def test_identical_components_sit_at_cap(self):
        rng = np.random.default_rng(12)
        sigma, rho = random_density(rng, 2), random_density(rng, 2)
        e = two_bit_pkl_example(sigma, rho, rho)
        success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
        assert success == pytest.approx(0.5, abs=1e-9)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_mixed_preset_violation(self):
        sigma = validate_density(np.diag([1.0, 0.0]))
        rho1 = validate_density(np.diag([0.6, 0.4]))
        rho2 = validate_density(np.diag([0.1, 0.9]))
        e = two_bit_pkl_example(sigma, rho1, rho2)
        success, d = post_leak_discrimination(e, LeakSpec((0,), (0,)))
        assert success == pytest.approx(0.75, abs=1e-12)
        assert d == pytest.approx(0.25, abs=1e-12)
        assert success > 0.5 + d / 2

    def test_non_binary_residual(self):
        rng = np.random.default_rng(13)
        e = random_ensemble(rng, 3, 2)
        with pytest.raises(NotBinaryResidual):
            post_leak_discrimination(e, LeakSpec((0,), (0,)))


class TestJointDistribution:
    def test_marginals(self):
        mass = np.array([[0.5, 0.0], [0.25, 0.25]])
        joint = JointDistribution(("0", "1"), ("x", "y"), mass)
        assert [float(v) for v in joint.row_marginal().probs] == [0.5, 0.5]
        assert [float(v) for v in joint.col_marginal().probs] == [0.75, 0.25]

    def test_rejects_bad_mass(self):
        with pytest.raises(BadParams):
            JointDistribution(("0",), ("x",), np.array([[0.5]]))

    @pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
    def test_rejects_nan_cell(self, cell):
        mass = np.array([[0.5, 0.0], [0.25, 0.25]])
        mass[cell] = np.nan
        with pytest.raises(BadParams, match="NaN"):
            JointDistribution(("0", "1"), ("x", "y"), mass)
